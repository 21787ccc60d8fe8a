//! Seeded inputs. Everything the program under test receives is
//! generated here from the `--seed` argument: the same seed gives the
//! same apps, the same edits and the same request order.
//!
//! The apps themselves are fixed programs — the paper's six apps from
//! `paper_suite`'s own generator seeds, and a pool of tenant apps from
//! fixed generator seeds — and the seed revises each one (a seeded 1%
//! of its methods edited) and orders the requests. Regenerating whole
//! apps per seed was measured and rejected: same-size apps from
//! different generator seeds build up to twice as fast as one another,
//! which moved the six-app build-time median by 17% (IQR over median,
//! five seeds) against 2.5% between runs of one seed, wider than any
//! usable regression bound.

use calibro_conform::Program;
use calibro_dex::DexFile;
use calibro_workloads::{generate, mutate_methods, paper_suite, AppSpec};

/// Methods per paper-size unit for the six-app suite (about 4.2k
/// methods in all).
pub const SUITE_SCALE: f64 = 2.0;
/// Share of an app's methods one edit touches.
pub const EDIT_FRACTION: f64 = 0.01;
/// Distinct apps in the `tenant_mix` pool.
pub const POOL_APPS: usize = 24;
/// Methods per pool app.
pub const POOL_METHODS: usize = 250;
/// Zipf exponent of the `tenant_mix` request draw.
pub const ZIPF_EXPONENT: f64 = 1.0;

/// Independent random streams drawn from one seed.
#[derive(Clone, Copy)]
pub enum Stream {
    /// Per-app revisions.
    Revisions = 1,
    /// The order in which `suite_cold` builds its apps.
    SuiteOrder = 2,
    /// The `edit_warm` request sequence.
    Edits = 3,
    /// The `tenant_mix` request sequence.
    Tenants = 4,
    /// The `tenant_mix` warm-up sequence that fills the store in setup.
    WarmUp = 5,
}

/// SplitMix64 finalizer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th draw of `stream` under `seed`.
#[must_use]
pub fn draw(seed: u64, stream: Stream, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ ((stream as u64) << 56)) ^ index)
}

/// A draw mapped into `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Generates `spec` and applies the seeded revision `revision`.
fn program(spec: &AppSpec, revision: u64) -> Program {
    let mut app = generate(spec);
    mutate_methods(&mut app.dex, revision, EDIT_FRACTION);
    Program {
        name: app.name,
        generator: "perfbench".to_owned(),
        seed: spec.seed,
        dex: app.dex,
        env: app.env,
        trace: app.trace,
    }
}

/// The paper's six apps (`paper_suite(SUITE_SCALE)`), each revised by
/// a seeded edit.
#[must_use]
pub fn suite(seed: u64) -> Vec<Program> {
    paper_suite(SUITE_SCALE)
        .iter()
        .enumerate()
        .map(|(i, spec)| program(spec, draw(seed, Stream::Revisions, i as u64)))
        .collect()
}

/// Generator seed of the first pool app; app `i` uses this plus `i`.
const POOL_SEED: u64 = 1000;

/// The `tenant_mix` pool: [`POOL_APPS`] distinct apps of
/// [`POOL_METHODS`] methods with the suite's shape parameters (class,
/// native, trace and clone-family counts follow `paper_suite`'s
/// per-method ratios), each revised by a seeded edit.
#[must_use]
pub fn tenant_pool(seed: u64) -> Vec<Program> {
    let template = paper_suite(SUITE_SCALE).swap_remove(0);
    let m = POOL_METHODS;
    (0..POOL_APPS)
        .map(|i| {
            let spec = AppSpec {
                name: format!("tenant{i:02}"),
                seed: POOL_SEED + i as u64,
                methods: m,
                classes: m / 25,
                natives: m / 60,
                trace_len: (m / 2).max(160),
                clone_families: m / 60,
                ..template.clone()
            };
            program(&spec, draw(seed, Stream::Revisions, 100 + i as u64))
        })
        .collect()
}

/// The app a round-robin workload serves as its `index`-th request:
/// every round of `apps` requests covers each app once, in a seeded
/// order (`stream` keeps the workloads' orders independent).
#[must_use]
pub fn round_robin(seed: u64, stream: Stream, apps: usize, index: u64) -> usize {
    let round = index / apps as u64;
    let mut order: Vec<usize> = (0..apps).collect();
    for i in (1..apps).rev() {
        let j = (draw(seed, stream, round * 64 + i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order[(index % apps as u64) as usize]
}

/// The `index`-th `edit_warm` request: which suite app (round-robin,
/// so any `apps` consecutive requests edit every app once), and the
/// seed of its edit.
#[must_use]
pub fn edit_request(seed: u64, apps: usize, index: u64) -> (usize, u64) {
    (round_robin(seed, Stream::Edits, apps, index), draw(seed, Stream::Edits, index))
}

/// `program`'s dex with a fresh [`EDIT_FRACTION`] of its methods
/// edited (`mutate_methods`).
#[must_use]
pub fn edited(program: &Program, edit_seed: u64) -> DexFile {
    let mut dex = program.dex.clone();
    mutate_methods(&mut dex, edit_seed, EDIT_FRACTION);
    dex
}

/// `program` with its dex replaced by the edit `edit_seed`.
#[must_use]
pub fn edited_program(program: &Program, edit_seed: u64) -> Program {
    Program {
        name: format!("{}+edit{edit_seed:016x}", program.name),
        generator: program.generator.clone(),
        seed: program.seed,
        dex: edited(program, edit_seed),
        env: program.env.clone(),
        trace: program.trace.clone(),
    }
}

/// Zipf draw over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// The rank the `index`-th draw of `stream` lands on.
    #[must_use]
    pub fn rank(&self, seed: u64, stream: Stream, index: u64) -> usize {
        let u = unit(draw(seed, stream, index));
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_rounds_build_every_app_once() {
        for round in 0..4u64 {
            let mut seen: Vec<usize> =
                (0..6).map(|i| round_robin(9, Stream::SuiteOrder, 6, round * 6 + i)).collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        }
    }

    fn encoded(programs: &[Program]) -> Vec<Vec<u8>> {
        programs
            .iter()
            .map(|p| {
                let mut w = calibro_server::wire::Writer::new();
                calibro_server::wire::write_dex(&mut w, &p.dex);
                w.into_bytes()
            })
            .collect()
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_change_with_it() {
        assert_eq!(encoded(&tenant_pool(1)), encoded(&tenant_pool(1)));
        let (one, two) = (encoded(&suite(1)), encoded(&suite(2)));
        assert_eq!(one.len(), 6);
        assert!(one.iter().zip(&two).all(|(a, b)| a != b), "every app is revised per seed");
    }

    #[test]
    fn zipf_favours_low_ranks_and_is_seeded() {
        let zipf = Zipf::new(POOL_APPS, ZIPF_EXPONENT);
        let draws: Vec<usize> = (0..4000).map(|i| zipf.rank(3, Stream::Tenants, i)).collect();
        let top = draws.iter().filter(|&&r| r == 0).count();
        let last = draws.iter().filter(|&&r| r == POOL_APPS - 1).count();
        assert!(top > 10 * last, "rank 0 drawn {top} times, rank 23 {last}");
        assert_eq!(draws[17], zipf.rank(3, Stream::Tenants, 17));
        assert!(
            (0..64).any(|i| zipf.rank(3, Stream::Tenants, i) != zipf.rank(4, Stream::Tenants, i))
        );
    }
}
