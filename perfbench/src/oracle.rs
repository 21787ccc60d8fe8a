//! The output oracle: every checked artifact must load, pass the OAT
//! structural and stack-map invariants, and replay its app's trace with
//! per-call outcomes and a final state equal to the baseline build's —
//! `calibro-conform`'s `check_oat`. The same replay yields the
//! emitted-code observables (`.text` bytes, cycles, resident code).

use std::collections::HashSet;

use calibro_conform::{baseline_options, check_oat, BaselineRun, Program, MAX_STEPS};
use calibro_oat::{from_elf_bytes, text_size_on_disk, OatFile};
use calibro_profile::Profile;
use calibro_runtime::Runtime;

/// Hot-set fraction of the HfOpti profile (the paper's 0.8).
pub const HOT_FRACTION: f64 = 0.8;

/// The paper's observables for one artifact after one replay of its
/// app's trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodeMetrics {
    /// On-disk `.text` bytes.
    pub text_bytes: u64,
    /// Simulated cycles over the trace.
    pub cycles: u64,
    /// Resident code bytes after the trace.
    pub resident_bytes: u64,
    /// Instruction-cache misses over the trace.
    pub icache_misses: u64,
}

impl std::ops::AddAssign for CodeMetrics {
    fn add_assign(&mut self, o: CodeMetrics) {
        self.text_bytes += o.text_bytes;
        self.cycles += o.cycles;
        self.resident_bytes += o.resident_bytes;
        self.icache_misses += o.icache_misses;
    }
}

/// What the baseline build of one input does: the reference every
/// other build of that input is held to.
pub struct Reference {
    /// Per-call outcomes and final state of the baseline replay.
    pub run: BaselineRun,
    /// The baseline build's observables.
    pub code: CodeMetrics,
    /// The HfOpti hot set profiled on the baseline replay.
    pub hot: HashSet<u32>,
}

fn metrics(oat: &OatFile, rt: &Runtime) -> CodeMetrics {
    CodeMetrics {
        text_bytes: text_size_on_disk(oat),
        cycles: rt.total_cycles(),
        resident_bytes: rt.resident_code_bytes(),
        icache_misses: rt.icache_misses(),
    }
}

fn replay(program: &Program, oat: &OatFile, label: &str) -> Result<(Runtime, BaselineRun), String> {
    let mut rt = Runtime::new(oat, &program.env);
    let mut outcomes = Vec::with_capacity(program.trace.len());
    for (i, call) in program.trace.iter().enumerate() {
        let inv = rt
            .call(call.method, &call.args, MAX_STEPS)
            .map_err(|t| format!("[{label}] {}: call {i} trapped: {t:?}", program.name))?;
        outcomes.push(inv.outcome);
    }
    let run = BaselineRun { outcomes, snapshot: rt.snapshot(), cycles: rt.total_cycles() };
    Ok((rt, run))
}

/// Builds `program` under the baseline configuration, replays its
/// trace once and profiles the hot set.
///
/// # Errors
///
/// A description of a baseline build failure or trap.
pub fn reference(program: &Program) -> Result<Reference, String> {
    let out = calibro::build(&program.dex, &baseline_options())
        .map_err(|e| format!("[baseline] {}: {e}", program.name))?;
    let (rt, run) = replay(program, &out.oat, "baseline")?;
    let hot = Profile::capture(&rt)
        .hot_set(HOT_FRACTION)
        .map_err(|e| format!("[baseline] {}: hot set: {e}", program.name))?;
    Ok(Reference { code: metrics(&out.oat, &rt), run, hot })
}

/// Checks one emitted artifact (ELF bytes, as shipped) against
/// `reference` and measures it.
///
/// # Errors
///
/// A description of the first violation: the bytes do not load, an
/// invariant fails, or the replay diverges from the baseline.
pub fn check(
    program: &Program,
    reference: &Reference,
    label: &str,
    elf: &[u8],
) -> Result<CodeMetrics, String> {
    let oat = from_elf_bytes(elf).map_err(|e| format!("[{label}] {}: load: {e}", program.name))?;
    check_oat(program, &reference.run, label, &oat)
        .map_err(|d| format!("{}: {d}", program.name))?;
    let (rt, _) = replay(program, &oat, label)?;
    Ok(metrics(&oat, &rt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::tenant_pool;
    use calibro::BuildOptions;
    use calibro_oat::to_elf_bytes;

    fn sample() -> (Program, Reference, OatFile) {
        let program = tenant_pool(5).swap_remove(0);
        let reference = reference(&program).expect("baseline");
        let oat = calibro::build(&program.dex, &BuildOptions::cto_merge_ltbo()).expect("build").oat;
        (program, reference, oat)
    }

    #[test]
    fn a_correct_artifact_passes_and_is_measured() {
        let (program, reference, oat) = sample();
        let m = check(&program, &reference, "ok", &to_elf_bytes(&oat)).expect("passes");
        assert_eq!(m.text_bytes, text_size_on_disk(&oat));
        assert!(m.cycles > 0 && m.resident_bytes > 0);
        assert!(m.text_bytes < reference.code.text_bytes, "outlining shrinks .text");
    }

    #[test]
    fn observables_repeat_for_a_seed_and_move_with_it() {
        let measure = |seed| {
            let program = tenant_pool(seed).swap_remove(0);
            let reference = reference(&program).expect("baseline");
            let built =
                calibro::build(&program.dex, &BuildOptions::cto_merge_ltbo()).expect("build");
            let elf = to_elf_bytes(&built.oat);
            (check(&program, &reference, "seeded", &elf).expect("passes"), elf)
        };
        let (first, again, other) = (measure(1), measure(1), measure(2));
        assert_eq!(first, again);
        assert_ne!(first.1, other.1);
        assert_ne!(first.0, other.0);
    }

    #[test]
    fn one_flipped_instruction_word_fails() {
        let (program, reference, mut oat) = sample();
        // The entry instruction of the first traced method always runs.
        let first = program.trace[0].method;
        let word = ((oat.entry_address(first) - oat.base_address) / 4) as usize;
        oat.words[word] = !oat.words[word];
        let err = check(&program, &reference, "flipped", &to_elf_bytes(&oat));
        assert!(err.is_err(), "a flipped word went unnoticed");
    }

    #[test]
    fn a_truncated_elf_fails() {
        let (program, reference, oat) = sample();
        let elf = to_elf_bytes(&oat);
        let err = check(&program, &reference, "truncated", &elf[..elf.len() / 2]);
        assert!(err.expect_err("truncated bytes must not load").contains("load"));
    }
}
