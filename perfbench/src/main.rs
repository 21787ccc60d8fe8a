//! One benchmark for calibro: three workloads, each measured end to end
//! (untraced) or layer by layer (traced), with every emitted artifact
//! checked. See `README.md` next to this crate for the workloads, the
//! metrics and the layer-to-metric table.
//!
//! ```text
//! perfbench --workload <suite_cold|edit_warm|tenant_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is 0 only when every build and every check passed.

mod inputs;
#[cfg(test)]
mod json;
mod layers;
mod oracle;
mod report;
mod service;
mod spans;
mod stats;
mod suite_cold;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::layers::BUILD_ROOT;
use crate::report::{render, Outcome, END_TO_END, PER_LAYER};
use crate::service::{Kind, CLIENT_ROOT};
use crate::spans::{breakdown, check_trees, self_times, write_jsonl, Recorder, OTHER};
use crate::stats::median;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// How long a run may outlast its `--seconds` window (set-ups, checks
/// and the traced replay) before the watchdog fails it.
const WATCHDOG_SLACK_S: f64 = 145.0;

const USAGE: &str =
    "usage: perfbench --workload <suite_cold|edit_warm|tenant_mix> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: expected a positive number"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A hung build or connection fails the run instead of stalling it
    // past the three minutes a run may take.
    let limit = Duration::from_secs_f64(args.seconds + WATCHDOG_SLACK_S);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("run exceeded {limit:?}; aborting");
        std::process::exit(1);
    });
    let mut rec = args.trace.then(|| Recorder::new(Instant::now()));
    let mut out = Outcome::default();
    let (seed, seconds) = (args.seed, args.seconds);
    let ran = match args.workload.as_str() {
        "suite_cold" => suite_cold::run(seed, seconds, rec.as_mut(), &mut out),
        "edit_warm" => service::run(Kind::EditWarm, seed, seconds, rec.as_mut(), &mut out),
        "tenant_mix" => service::run(Kind::TenantMix, seed, seconds, rec.as_mut(), &mut out),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = ran {
        eprintln!("{}: set-up failed: {e}", args.workload);
        return ExitCode::from(1);
    }
    let catalogue = match &rec {
        Some(rec) => {
            finish_trace(rec, &args.workload, seed, &mut out);
            &PER_LAYER[..]
        }
        None => {
            out.set("peak_rss_mb", peak_rss_mb(), 1);
            let ok = out.attempted.saturating_sub(out.failures.len() as u64);
            out.set(
                "success_ratio",
                ok as f64 / out.attempted.max(1) as f64,
                out.attempted as usize,
            );
            &END_TO_END[..]
        }
    };
    println!("{} seed={seed} seconds={seconds} trace={}", args.workload, u8::from(args.trace));
    let line = render(&mut out, catalogue);
    for failure in &out.failures {
        println!("FAILED: {failure}");
    }
    println!("{line}");
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Where spans and the daemon socket go: `out/` next to this crate.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Runs `setup` [`SETUP_REPS`] times, tears down all but the last, and
/// records the median time as `setup_s`.
fn repeat_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
    out: &mut Outcome,
) -> Result<S, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&times), times.len());
    Ok(last.expect("at least one set-up"))
}

/// Per-layer metric of each (root span, layer) pair: the median over
/// trees of the layer's self time. Single-span roots report their own
/// duration under [`OTHER`].
const LAYERS: [(&str, &str, &str); 12] = [
    (BUILD_ROOT, "calibro.frontend", "calibro.frontend_ms"),
    (BUILD_ROOT, "calibro.codegen", "calibro.codegen_ms"),
    (BUILD_ROOT, "calibro.outline", "calibro.outline_ms"),
    (BUILD_ROOT, "calibro-oat.link", "calibro-oat.link_ms"),
    (BUILD_ROOT, "calibro-oat.elf_encode", "calibro-oat.elf_encode_ms"),
    (BUILD_ROOT, OTHER, "calibro.other_ms"),
    (CLIENT_ROOT, "calibro-server.request_encode", "calibro-server.request_encode_ms"),
    (CLIENT_ROOT, "calibro-server.round_trip", "calibro-server.round_trip_ms"),
    (CLIENT_ROOT, "calibro-server.reply_decode", "calibro-server.reply_decode_ms"),
    ("calibro-server.dex_encode", OTHER, "calibro-server.dex_encode_ms"),
    ("calibro-server.dex_decode", OTHER, "calibro-server.dex_decode_ms"),
    ("calibro-oat.elf_decode", OTHER, "calibro-oat.elf_decode_ms"),
];

/// Checks every span tree, writes the spans out, prints the stage
/// breakdown of each root kind and records the per-layer metrics.
fn finish_trace(rec: &Recorder, workload: &str, seed: u64, out: &mut Outcome) {
    let spans = rec.spans();
    let own = self_times(spans);
    match check_trees(spans, &own) {
        Ok(trees) => out.set("trace.span_trees", trees as f64, trees),
        Err(e) => out.fail(format!("span tree does not add up: {e}")),
    }
    let path = out_dir().join(format!("spans-{workload}-{seed}.jsonl"));
    match write_jsonl(&path, spans, &own) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => out.fail(format!("writing {}: {e}", path.display())),
    }
    let mut roots: Vec<&str> = LAYERS.iter().map(|l| l.0).collect();
    roots.dedup();
    for root in roots {
        let (layers, total, trees) = breakdown(spans, &own, root);
        if trees > 0 {
            println!("stage breakdown of {root} ({trees} trees, median {total:.4} ms):");
            for (layer, ms) in &layers {
                println!("  {layer:<32} {ms:>10.4} ms {:>6.1}%", 100.0 * ms / total);
            }
        }
        for &(_, layer, metric) in LAYERS.iter().filter(|l| l.0 == root) {
            out.set(metric, layers.get(layer).copied().unwrap_or(0.0), trees);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
