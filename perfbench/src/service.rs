//! `edit_warm` and `tenant_mix`: calibrod runs in-process with
//! [`WORKERS`] workers, and [`CLIENTS`] client threads, each on its own
//! connection, send a seeded request sequence in a closed loop (each
//! client waits for its reply before sending the next request).

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use calibro::{options_fingerprint, BuildOptions, BuildSession, CacheConfig};
use calibro_conform::Program;
use calibro_dex::DexFile;
use calibro_oat::{from_elf_bytes, to_elf_bytes};
use calibro_server::proto::{
    decode_error, read_frame, write_frame, FrameEvent, REQ_BUILD, RESP_BUILT, RESP_ERROR,
};
use calibro_server::wire::{read_dex, write_dex, Reader, Writer};
use calibro_server::{
    ltbo_fingerprint, BuildReply, BuildRequest, Client, Daemon, Listener, ServerConfig,
    DEFAULT_MAX_FRAME,
};

use crate::inputs::{
    edit_request, edited, edited_program, suite, tenant_pool, Stream, Zipf, POOL_APPS,
    ZIPF_EXPONENT,
};
use crate::layers::{staged_build, Counts};
use crate::oracle::{self, CodeMetrics, Reference};
use crate::report::{CacheTotals, Outcome};
use crate::spans::{close, ms, open, Recorder};
use crate::stats::median;

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Client threads, one connection each.
pub const CLIENTS: usize = 2;
/// LTBO detection groups of `edit_warm`'s sharded configuration.
pub const EDIT_GROUPS: usize = 128;
/// `edit_warm` requests `0..EDIT_SAMPLE` — one edit of each suite app —
/// are the verification set: their replies are kept whole and must
/// equal a cold library build.
pub const EDIT_SAMPLE: u64 = 6;
/// Share of the pool's store footprint, per cache lane, that the
/// `tenant_mix` budget holds.
pub const BUDGET_SHARE: f64 = 0.6;
/// `tenant_mix` warm-up requests that fill the bounded store in set-up.
pub const WARM_UP: u64 = 48;

/// Root span of one traced client request.
pub const CLIENT_ROOT: &str = "calibro-server.client_build";

/// Which service workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 1%-method edits of the six suite apps on a primed store.
    EditWarm,
    /// Zipf draws over a pool of distinct apps on a bounded store.
    TenantMix,
}

/// One input of the verification set.
struct Check {
    program: Program,
    reference: Reference,
    /// A cold library build of `program` under the workload's options.
    elf: Vec<u8>,
    /// [`digest`] of `elf`.
    digest: u64,
}

impl Check {
    fn new(program: Program, reference: Reference, elf: Vec<u8>) -> Check {
        Check { digest: digest(&elf), program, reference, elf }
    }
}

struct Setup {
    socket: PathBuf,
    programs: Vec<Program>,
    options: BuildOptions,
    cache: CacheConfig,
    zipf: Zipf,
    /// The verification set: `edit_warm`'s first [`EDIT_SAMPLE`]
    /// requests, or `tenant_mix`'s pool apps.
    checks: Vec<Check>,
}

impl Setup {
    /// The `index`-th request: which app, and the dex to send.
    fn request(&self, kind: Kind, seed: u64, index: u64) -> (usize, Cow<'_, DexFile>) {
        match kind {
            Kind::EditWarm => {
                let (app, edit) = edit_request(seed, self.programs.len(), index);
                (app, Cow::Owned(edited(&self.programs[app], edit)))
            }
            Kind::TenantMix => {
                let app = self.zipf.rank(seed, Stream::Tenants, index);
                (app, Cow::Borrowed(&self.programs[app].dex))
            }
        }
    }

    /// Fills `session`'s store the way set-up fills the daemon's.
    fn prime(&self, kind: Kind, seed: u64, session: &BuildSession) -> Result<(), String> {
        let apps: Vec<usize> = match kind {
            Kind::EditWarm => (0..self.programs.len()).collect(),
            Kind::TenantMix => {
                (0..WARM_UP).map(|i| self.zipf.rank(seed, Stream::WarmUp, i)).collect()
            }
        };
        for app in apps {
            session
                .build(&self.programs[app].dex, &self.options)
                .map_err(|e| format!("priming {}: {e}", self.programs[app].name))?;
        }
        Ok(())
    }
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

fn socket_path() -> PathBuf {
    let path = crate::out_dir().join(format!("calibrod-{}.sock", std::process::id()));
    // Unix socket paths are short (108 bytes); prefer the relative form.
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(PathBuf::from))
        .unwrap_or(path)
}

fn setup(kind: Kind, seed: u64) -> Result<(Daemon, Setup), String> {
    let (programs, options) = match kind {
        Kind::EditWarm => (suite(seed), BuildOptions::cto_ltbo_parallel(EDIT_GROUPS, 1)),
        Kind::TenantMix => (tenant_pool(seed), BuildOptions::cto_merge_ltbo()),
    };
    let mut checks = Vec::new();
    let mut cache = CacheConfig::default();
    match kind {
        Kind::EditWarm => {
            for index in 0..EDIT_SAMPLE {
                let (app, edit) = edit_request(seed, programs.len(), index);
                let program = edited_program(&programs[app], edit);
                let cold = BuildSession::new()
                    .build(&program.dex, &options)
                    .map_err(|e| format!("{}: {e}", program.name))?;
                let reference = oracle::reference(&program)?;
                checks.push(Check::new(program, reference, to_elf_bytes(&cold.oat)));
            }
        }
        Kind::TenantMix => {
            // Size the budget from the pool's footprint in each lane,
            // counted the way the store counts it, measured on cold
            // builds of every pool app (kept as the verification set).
            let calibration = BuildSession::new();
            let mut total = Counts::default();
            let mut plans = 0u64;
            for program in &programs {
                let (elf, c) = staged_build(&calibration, &program.dex, &options, None, 0)?;
                // One global LTBO plan per app: 64 bytes of header, and
                // per candidate 48 bytes plus 8 per occurrence and per
                // symbol (`GroupPlanEntry::approx_bytes`).
                plans +=
                    64 + 48 * c.outlined_functions + 8 * (c.occurrences + c.outlined_body_words);
                total += c;
                checks.push(Check::new(program.clone(), oracle::reference(program)?, elf));
            }
            // Merge plans: 48 bytes per group plus its members and two
            // parameter slots, and a 64-byte header per plan
            // (`MergePlanEntry::approx_bytes`).
            let merge = 120 * total.merge_groups + 4 * total.merged_methods;
            let share = |bytes: u64| (bytes as f64 * BUDGET_SHARE) as usize;
            cache = CacheConfig {
                method_budget_bytes: share(total.new_entry_bytes),
                group_budget_bytes: share(plans),
                merge_budget_bytes: share(merge),
                ..CacheConfig::default()
            };
        }
    }
    let socket = socket_path();
    let listener = Listener::unix(&socket).map_err(|e| format!("{}: {e}", socket.display()))?;
    let config = ServerConfig { workers: WORKERS, cache: cache.clone(), ..ServerConfig::default() };
    let daemon = Daemon::start(listener, config).map_err(|e| format!("starting calibrod: {e}"))?;
    let zipf = Zipf::new(POOL_APPS, ZIPF_EXPONENT);
    let s = Setup { socket, programs, options, cache, zipf, checks };
    s.prime(kind, seed, &BuildSession::with_store(daemon.store()))?;
    Ok((daemon, s))
}

/// One completed request.
struct Reply {
    index: u64,
    app: usize,
    latency_ms: f64,
    build_ms: f64,
    /// Method-lane misses the daemon attributed to this build.
    misses: u64,
    digest: u64,
    /// Kept whole for the requests the verification set checks.
    elf: Option<Vec<u8>>,
    traced: bool,
}

/// One client's connection: the public client for untraced runs; in the
/// traced run the same protocol calls `Client::build` makes, one by one,
/// so each can be timed.
enum Conn {
    Api(Client),
    Raw(UnixStream),
}

fn send(
    conn: &mut Conn,
    dex: &DexFile,
    options: &BuildOptions,
    index: u64,
    rec: Option<&mut Recorder>,
) -> Result<BuildReply, String> {
    let stream = match conn {
        Conn::Api(client) => return client.build(dex, options, None).map_err(|e| e.to_string()),
        Conn::Raw(stream) => stream,
    };
    let mut rec = rec;
    let root = open(&mut rec, CLIENT_ROOT, index, None);
    let s = open(&mut rec, "calibro-server.request_encode", index, root);
    let body = BuildRequest {
        request_id: index,
        deadline: None,
        options_fp: options_fingerprint(options),
        ltbo_fp: ltbo_fingerprint(options),
        options: options.clone(),
        dex: dex.clone(),
        tenant: None,
    }
    .encode();
    close(&mut rec, s);
    let s = open(&mut rec, "calibro-server.round_trip", index, root);
    let frame =
        write_frame(stream, REQ_BUILD, &body).and_then(|()| read_frame(stream, DEFAULT_MAX_FRAME));
    close(&mut rec, s);
    let s = open(&mut rec, "calibro-server.reply_decode", index, root);
    let reply = match frame.map_err(|e| e.to_string())? {
        FrameEvent::Frame { kind: RESP_BUILT, body } => {
            BuildReply::decode(&body).map_err(|e| e.to_string())
        }
        FrameEvent::Frame { kind: RESP_ERROR, body } => Err(match decode_error(&body) {
            Ok((_, error)) => error.to_string(),
            Err(e) => e.to_string(),
        }),
        other => Err(format!("unexpected frame {other:?}")),
    };
    close(&mut rec, s);
    close(&mut rec, root);
    reply
}

struct ClientRun {
    replies: Vec<Reply>,
    failures: Vec<String>,
    attempted: u64,
    rec: Option<Recorder>,
}

fn client(
    s: &Setup,
    kind: Kind,
    seed: u64,
    next: &AtomicU64,
    deadline: Instant,
    epoch: Option<Instant>,
) -> ClientRun {
    let mut run = ClientRun {
        replies: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
        rec: epoch.map(Recorder::new),
    };
    let conn = match epoch {
        None => Client::connect_unix(&s.socket).map(Conn::Api).map_err(|e| e.to_string()),
        Some(_) => UnixStream::connect(&s.socket).map(Conn::Raw).map_err(|e| e.to_string()),
    };
    let mut conn = match conn {
        Ok(conn) => conn,
        Err(e) => {
            run.failures.push(format!("connect: {e}"));
            return run;
        }
    };
    while Instant::now() < deadline {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let (app, dex) = s.request(kind, seed, index);
        // In the traced run every other request records spans; the rest
        // measure the same calls untraced, for the tracing overhead.
        let traced = run.rec.is_some() && index.is_multiple_of(2);
        let rec = if traced { run.rec.as_mut() } else { None };
        run.attempted += 1;
        let t = Instant::now();
        let reply = send(&mut conn, &dex, &s.options, index, rec);
        let latency_ms = ms(t.elapsed().as_nanos() as u64);
        match reply {
            Ok(reply) if reply.methods == dex.methods().len() as u64 => run.replies.push(Reply {
                index,
                app,
                latency_ms,
                build_ms: reply.build_us as f64 / 1e3,
                misses: reply.cache_misses,
                digest: digest(&reply.elf),
                elf: (kind == Kind::EditWarm && index < EDIT_SAMPLE).then_some(reply.elf),
                traced,
            }),
            Ok(reply) => run.failures.push(format!(
                "request {index}: reply covers {} methods, sent {}",
                reply.methods,
                dex.methods().len()
            )),
            Err(e) => run.failures.push(format!("request {index}: {e}")),
        }
    }
    run
}

/// Runs the workload for `seconds`; with `rec`, traces half the
/// requests and replays the whole sequence through the library under
/// spans.
///
/// # Errors
///
/// A set-up failure.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    rec: Option<&mut Recorder>,
    out: &mut Outcome,
) -> Result<(), String> {
    let (daemon, s) =
        crate::repeat_setup(|| setup(kind, seed), |(d, _): (Daemon, _)| drop(d.shutdown()), out)?;
    let store = daemon.store();
    let before = store.stats();
    let next = AtomicU64::new(0);
    let epoch = rec.as_ref().map(|_| Instant::now());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client(&s, kind, seed, &next, deadline, epoch)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed();
    let cache = CacheTotals::from(&store.stats().since(&before));
    drop(daemon.shutdown());
    let mut replies: BTreeMap<u64, Reply> = BTreeMap::new();
    let mut client_spans = None;
    for run in runs {
        out.attempted += run.attempted;
        out.failures.extend(run.failures);
        replies.extend(run.replies.into_iter().map(|r| (r.index, r)));
        if let Some(r) = run.rec {
            client_spans.get_or_insert_with(|| Recorder::new(epoch.expect("traced run"))).absorb(r);
        }
    }
    let latencies: Vec<f64> =
        replies.values().filter(|r| !r.traced).map(|r| r.latency_ms).collect();
    if rec.is_none() {
        out.latencies(&latencies);
        out.set("builds_per_s", replies.len() as f64 / wall.as_secs_f64(), replies.len());
    }
    let missed = replies.values().filter(|r| r.misses > 0).count();
    println!("requests with store misses: {missed} of {}", replies.len());

    // Outside the timed window: replies against the cold builds.
    match kind {
        Kind::EditWarm => {
            for (index, check) in (0..EDIT_SAMPLE).zip(&s.checks) {
                match replies.get(&index).and_then(|r| r.elf.as_ref()) {
                    Some(elf) if *elf == check.elf => {}
                    Some(_) => {
                        out.fail(format!("request {index}: reply differs from a cold build"))
                    }
                    None => out.fail(format!("request {index}: no reply to verify")),
                }
            }
        }
        Kind::TenantMix => {
            for r in replies.values().filter(|r| r.digest != s.checks[r.app].digest) {
                out.fail(format!("request {}: reply differs from a cold build", r.index));
            }
        }
    }
    let mut total = CodeMetrics::default();
    for check in &s.checks {
        match oracle::check(&check.program, &check.reference, "service", &check.elf) {
            Ok(m) => total += m,
            Err(e) => out.fail(e),
        }
    }
    out.code(&total, s.checks.len());

    if let Some(rec) = rec {
        if let Some(spans) = client_spans {
            rec.absorb(spans);
        }
        let traced: Vec<&Reply> = replies.values().filter(|r| r.traced).collect();
        let traced_ms: Vec<f64> = traced.iter().map(|r| r.latency_ms).collect();
        let overhead: Vec<f64> = traced.iter().map(|r| r.latency_ms - r.build_ms).collect();
        let daemon: Vec<f64> = replies.values().map(|r| r.build_ms).collect();
        out.set("trace.overhead_ms_p50", median(&traced_ms) - median(&latencies), traced.len());
        out.set("calibro-server.overhead_ms_p50", median(&overhead), overhead.len());
        out.set("calibro-server.daemon_build_ms_p50", median(&daemon), daemon.len());
        out.cache(&cache, replies.len());
        out.set("calibro-runtime.icache_misses", total.icache_misses as f64, s.checks.len());
        out.set("calibro-profile.hot_methods", 0.0, 0);
        replay(kind, seed, &s, &replies, rec, out)?;
    }
    Ok(())
}

/// The library replay: the exact request sequence the daemon served, in
/// order, from one caller, on a store with the same bounds primed the
/// same way. Every replayed artifact must equal the daemon's reply.
fn replay(
    kind: Kind,
    seed: u64,
    s: &Setup,
    replies: &BTreeMap<u64, Reply>,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let session = BuildSession::with_config(s.cache.clone());
    s.prime(kind, seed, &session)?;
    let mut counts = Counts::default();
    for (&index, reply) in replies {
        let (_, dex) = s.request(kind, seed, index);
        let encoded = rec.wrap("calibro-server.dex_encode", index, None, || {
            let mut w = Writer::new();
            write_dex(&mut w, &dex);
            w.into_bytes()
        });
        let decoded = rec.wrap("calibro-server.dex_decode", index, None, || {
            read_dex(&mut Reader::new(&encoded))
        });
        if !matches!(&decoded, Ok(d) if d.methods().len() == dex.methods().len()) {
            out.fail(format!("request {index}: dex does not round-trip the wire codec"));
        }
        match staged_build(&session, &dex, &s.options, Some(rec), index) {
            Ok((elf, c)) => {
                counts += c;
                if digest(&elf) != reply.digest {
                    out.fail(format!(
                        "request {index}: replayed bytes differ from the daemon's reply"
                    ));
                }
                if let Err(e) =
                    rec.wrap("calibro-oat.elf_decode", index, None, || from_elf_bytes(&elf))
                {
                    out.fail(format!("request {index}: reload: {e}"));
                }
            }
            Err(e) => out.fail(format!("request {index} (replay): {e}")),
        }
    }
    out.counts(&counts, replies.len());
    Ok(())
}
