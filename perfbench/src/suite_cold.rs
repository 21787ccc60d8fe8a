//! `suite_cold`: the paper's six apps, each built cold in a fresh
//! `BuildSession` under the production configuration, back to back from
//! one caller. Every method misses, so the HGraph passes, code
//! generation and suffix-tree detection do nearly all the work while the
//! cache and the daemon do none.

use std::time::{Duration, Instant};

use calibro::{BuildOptions, BuildSession};
use calibro_conform::Program;
use calibro_oat::{from_elf_bytes, to_elf_bytes};

use crate::inputs::{round_robin, suite, Stream};
use crate::layers::{staged_build, Counts};
use crate::oracle::{self, CodeMetrics, Reference};
use crate::report::{CacheTotals, Outcome};
use crate::spans::{ms, Recorder};
use crate::stats::{geomean, median};

/// PlOpti suffix trees of the production configuration.
pub const PL_TREES: usize = 8;
/// PlOpti detection threads.
pub const PL_THREADS: usize = 2;
/// Per-method compile threads.
pub const COMPILE_THREADS: usize = 2;

struct Setup {
    programs: Vec<Program>,
    references: Vec<Reference>,
    options: Vec<BuildOptions>,
}

/// The paper's production configuration: CTO + LTBO + PlOpti + HfOpti.
fn production(reference: &Reference) -> BuildOptions {
    BuildOptions::cto_ltbo_parallel(PL_TREES, PL_THREADS)
        .with_compile_threads(COMPILE_THREADS)
        .with_hot_filter(reference.hot.clone())
}

fn setup(seed: u64) -> Result<Setup, String> {
    let programs = suite(seed);
    let references = programs.iter().map(oracle::reference).collect::<Result<Vec<_>, _>>()?;
    let options = references.iter().map(production).collect();
    Ok(Setup { programs, references, options })
}

/// Runs the workload for `seconds`; with `rec`, also rebuilds every
/// request stage by stage under spans.
///
/// # Errors
///
/// A set-up failure (the baseline of an input does not build or run).
pub fn run(
    seed: u64,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
    out: &mut Outcome,
) -> Result<(), String> {
    let s = crate::repeat_setup(|| setup(seed), drop, out)?;
    let apps = s.programs.len();
    let mut artifacts: Vec<Option<Vec<u8>>> = vec![None; apps];
    let mut latencies = Vec::new();
    let mut busy = Duration::ZERO;
    let mut counts = Counts::default();
    let mut cache = CacheTotals::default();
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut index = 0u64;
    while start.elapsed() < window {
        let app = round_robin(seed, Stream::SuiteOrder, apps, index);
        let (program, options) = (&s.programs[app], &s.options[app]);
        out.attempted += 1;
        let t = Instant::now();
        let built = BuildSession::new().build(&program.dex, options);
        let took = t.elapsed();
        let elf = match built {
            Ok(built) => {
                busy += took;
                latencies.push(ms(took.as_nanos() as u64));
                let elf = to_elf_bytes(&built.oat);
                // The traced rebuild encodes inside its root span too.
                untraced.push(ms(t.elapsed().as_nanos() as u64));
                elf
            }
            Err(e) => {
                out.fail(format!("request {index} ({}): {e}", program.name));
                index += 1;
                continue;
            }
        };
        if let Some(rec) = rec.as_deref_mut() {
            // The same build again, stage by stage under spans; its
            // bytes must equal the plain build's.
            let t = Instant::now();
            let session = BuildSession::new();
            match staged_build(&session, &program.dex, options, Some(rec), index) {
                Ok((staged, c)) if staged == elf => {
                    counts += c;
                    cache += CacheTotals::from(&session.store().stats());
                }
                Ok(_) => out.fail(format!("request {index}: staged build differs from build()")),
                Err(e) => out.fail(format!("request {index} (staged): {e}")),
            }
            traced.push(ms(t.elapsed().as_nanos() as u64));
            let elf = &elf;
            if let Err(e) = rec.wrap("calibro-oat.elf_decode", index, None, || from_elf_bytes(elf))
            {
                out.fail(format!("request {index}: reload: {e}"));
            }
        }
        match &artifacts[app] {
            None => artifacts[app] = Some(elf),
            Some(first) if *first != elf => {
                out.fail(format!(
                    "request {index} ({}): bytes differ between builds",
                    program.name
                ));
            }
            Some(_) => {}
        }
        index += 1;
    }
    if rec.is_none() {
        out.latencies(&latencies);
        // One caller with no think time: completed builds over the time
        // spent building is the rate of back-to-back builds (the output
        // checks between builds stay out of it).
        out.set("builds_per_s", latencies.len() as f64 / busy.as_secs_f64(), latencies.len());
    }

    // The verification set: one production artifact per app, whatever
    // the window completed.
    let mut total = CodeMetrics::default();
    let mut rows = Vec::new();
    for (app, program) in s.programs.iter().enumerate() {
        let elf = match artifacts[app].take() {
            Some(elf) => elf,
            None => match BuildSession::new().build(&program.dex, &s.options[app]) {
                Ok(built) => to_elf_bytes(&built.oat),
                Err(e) => {
                    out.fail(format!("{}: verification build: {e}", program.name));
                    continue;
                }
            },
        };
        match oracle::check(program, &s.references[app], "production", &elf) {
            Ok(m) => {
                total += m;
                rows.push((program.name.as_str(), s.references[app].code, m));
            }
            Err(e) => out.fail(e),
        }
    }
    out.code(&total, rows.len());
    print_rows(&rows);
    if rec.is_some() {
        out.counts(&counts, traced.len());
        let hot: usize = s.references.iter().map(|r| r.hot.len()).sum();
        out.set("calibro-profile.hot_methods", hot as f64, apps);
        out.set("calibro-runtime.icache_misses", total.icache_misses as f64, rows.len());
        out.cache(&cache, traced.len());
        out.set("trace.overhead_ms_p50", median(&traced) - median(&untraced), traced.len());
        // No daemon in this workload.
        out.set("calibro-server.overhead_ms_p50", 0.0, 0);
        out.set("calibro-server.daemon_build_ms_p50", 0.0, 0);
    }
    Ok(())
}

/// Per-app rows in the shape of the paper's Tables 4, 5 and 7:
/// baseline versus production, and the geometric mean of the ratios.
fn print_rows(rows: &[(&str, CodeMetrics, CodeMetrics)]) {
    println!("suite_cold per app (baseline -> production):");
    println!(
        "  {:<10} {:>10} {:>10} {:>7} {:>11} {:>11} {:>7} {:>9} {:>9} {:>7}",
        "app",
        "text_B",
        "text_P",
        "ratio",
        "cycles_B",
        "cycles_P",
        "ratio",
        "res_KiB_B",
        "res_KiB_P",
        "ratio"
    );
    let ratio = |b: u64, p: u64| p as f64 / b as f64;
    let mut ratios = [Vec::new(), Vec::new(), Vec::new()];
    for (name, b, p) in rows {
        let r = [
            ratio(b.text_bytes, p.text_bytes),
            ratio(b.cycles, p.cycles),
            ratio(b.resident_bytes, p.resident_bytes),
        ];
        for (acc, v) in ratios.iter_mut().zip(r) {
            acc.push(v);
        }
        println!(
            "  {name:<10} {:>10} {:>10} {:>7.4} {:>11} {:>11} {:>7.4} {:>9.1} {:>9.1} {:>7.4}",
            b.text_bytes,
            p.text_bytes,
            r[0],
            b.cycles,
            p.cycles,
            r[1],
            b.resident_bytes as f64 / 1024.0,
            p.resident_bytes as f64 / 1024.0,
            r[2]
        );
    }
    println!(
        "  {:<10} {:>28.4} {:>31.4} {:>27.4}",
        "geomean",
        geomean(&ratios[0]),
        geomean(&ratios[1]),
        geomean(&ratios[2])
    );
}
