//! One build through `BuildSession`'s public stages, each call wrapped
//! in a span, plus the counts the stages report. The output bytes equal
//! those of `BuildSession::build` (the pipeline is deterministic; the
//! traced run checks this on every replayed build).

use calibro::{BuildOptions, BuildSession};
use calibro_dex::DexFile;
use calibro_oat::to_elf_bytes;

use crate::spans::{close, open, Recorder};

/// Root span of one library build.
pub const BUILD_ROOT: &str = "calibro.build";

/// Work counts of one staged build.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Methods compiled (cache misses).
    pub methods_compiled: u64,
    /// HGraph instructions entering the pass pipeline, over compiled methods.
    pub insns_in: u64,
    /// HGraph instructions leaving the pass pipeline, over compiled methods.
    pub insns_out: u64,
    /// LTBO outlined functions created.
    pub outlined_functions: u64,
    /// LTBO call sites rewritten.
    pub occurrences: u64,
    /// Instruction words of the outlined bodies.
    pub outlined_body_words: u64,
    /// Net words saved by LTBO and merging.
    pub words_saved: i64,
    /// Methods folded into merged islands.
    pub merged_methods: u64,
    /// Merge groups applied.
    pub merge_groups: u64,
    /// Store footprint of the method entries this build created, as the
    /// store's byte budgets count it.
    pub new_entry_bytes: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.methods_compiled += o.methods_compiled;
        self.insns_in += o.insns_in;
        self.insns_out += o.insns_out;
        self.outlined_functions += o.outlined_functions;
        self.occurrences += o.occurrences;
        self.outlined_body_words += o.outlined_body_words;
        self.words_saved += o.words_saved;
        self.merged_methods += o.merged_methods;
        self.merge_groups += o.merge_groups;
        self.new_entry_bytes += o.new_entry_bytes;
    }
}

/// Builds `dex` stage by stage through `session` and encodes the ELF,
/// recording `frontend`, `codegen`, `outline`, `link` and `elf_encode`
/// spans under one [`BUILD_ROOT`] span when `rec` is given.
///
/// # Errors
///
/// The build error, rendered.
pub fn staged_build(
    session: &BuildSession,
    dex: &DexFile,
    options: &BuildOptions,
    mut rec: Option<&mut Recorder>,
    request: u64,
) -> Result<(Vec<u8>, Counts), String> {
    let root = open(&mut rec, BUILD_ROOT, request, None);
    let span = |rec: &mut Option<&mut Recorder>, name| open(rec, name, request, root);
    let mut counts = Counts::default();

    let s = span(&mut rec, "calibro.frontend");
    let frontend = session.frontend(dex, options).map_err(|e| e.to_string());
    close(&mut rec, s);
    let s = span(&mut rec, "calibro.codegen");
    let codegen = session.codegen(dex, options, frontend?).map_err(|e| e.to_string());
    close(&mut rec, s);
    let codegen = codegen?;
    for o in codegen.outcomes.iter().filter(|o| !o.cache_hit) {
        counts.methods_compiled += 1;
        counts.insns_in += o.pass_stats.insns_in as u64;
        counts.insns_out += o.pass_stats.insns_out as u64;
        counts.new_entry_bytes += o.entry.approx_bytes() as u64;
    }
    let s = span(&mut rec, "calibro.outline");
    let size = session.outline(options, codegen).map_err(|e| e.to_string());
    close(&mut rec, s);
    let size = size?;
    counts.outlined_functions = size.ltbo.outlined_functions as u64;
    counts.occurrences = size.ltbo.occurrences_replaced as u64;
    counts.outlined_body_words = size.outlined.iter().map(|b| b.len() as u64).sum();
    counts.words_saved = size.ltbo.words_saved + size.merge.words_saved;
    counts.merged_methods = size.merge.merged_methods as u64;
    counts.merge_groups = size.merge.merge_groups as u64;
    let s = span(&mut rec, "calibro-oat.link");
    let oat = session.link(options, size).map_err(|e| e.to_string());
    close(&mut rec, s);
    let oat = oat?;
    let s = span(&mut rec, "calibro-oat.elf_encode");
    let elf = to_elf_bytes(&oat);
    close(&mut rec, s);
    close(&mut rec, root);
    Ok((elf, counts))
}
