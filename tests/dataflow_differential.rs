//! Differential tests of the bitset register dataflow against the
//! reference implementations in `reference/`: the verifier must return
//! the same `Result` (variant, method, instruction, register), and every
//! rewritten pass must leave the same graph and report the same count,
//! checked after every pipeline round.

mod reference;

use std::sync::OnceLock;

use calibro_dex::{
    BinOp, ClassId, Cmp, DexFile, DexInsn, FieldId, MethodBuilder, MethodId, VReg, VerifyError,
};
use calibro_hgraph::passes::{constant_folding, copy_prop, cse, dce, return_merge, simplify};
use calibro_hgraph::{build_hgraph, run_pipeline, HGraph, PassStats};
use calibro_workloads::{generate, paper_suite, AppSpec};
use proptest::prelude::*;

/// A pass and the reference it must agree with.
type Pair = (&'static str, fn(&mut HGraph) -> usize, fn(&mut HGraph) -> usize);

/// The standard pipeline order. Passes without a reference are paired
/// with themselves so the rounds stay the production rounds.
const PIPELINE: [Pair; 7] = [
    ("copy_prop", copy_prop::run, reference::copy_prop),
    ("constant_folding", constant_folding::run, reference::constant_folding),
    ("simplify", simplify::run, simplify::run),
    ("cse", cse::run, reference::cse),
    ("dce", dce::run, reference::dce),
    ("return_merge", return_merge::run, return_merge::run),
    ("remove_unreachable", dce::remove_unreachable, dce::remove_unreachable),
];

/// Runs the pipeline round by round, each pass next to its reference on
/// a copy of the graph, and panics at the first pass whose graph or
/// count differs. The final graph and total change count must also
/// equal what `run_pipeline` produces.
fn check_pipeline(graph: &HGraph, what: &str) {
    let mut g = graph.clone();
    let mut total = 0;
    let mut iterations = 0;
    for round in 0..4 {
        let mut changed = 0;
        for (name, pass, reference) in PIPELINE {
            let mut r = g.clone();
            let n = pass(&mut g);
            let rn = reference(&mut r);
            assert_eq!(n, rn, "{what}: {name} count differs in round {round}");
            assert_eq!(g.blocks, r.blocks, "{what}: {name} graph differs in round {round}");
            changed += n;
        }
        total += changed;
        iterations += 1;
        if changed == 0 {
            break;
        }
    }
    let mut p = graph.clone();
    let stats: PassStats = run_pipeline(&mut p);
    assert_eq!(p.blocks, g.blocks, "{what}: run_pipeline disagrees with the rounds");
    assert_eq!((stats.total(), stats.iterations), (total, iterations), "{what}: stats differ");
}

fn apps() -> &'static [DexFile] {
    static APPS: OnceLock<Vec<DexFile>> = OnceLock::new();
    APPS.get_or_init(|| {
        let mut specs: Vec<AppSpec> = (0..4).map(|s| AppSpec::small("diff", 500 + s)).collect();
        specs.extend(paper_suite(0.2));
        specs.iter().map(|s| generate(s).dex).collect()
    })
}

#[test]
fn unmodified_workload_methods_agree_with_the_references() {
    let mut graphs = 0;
    for dex in apps() {
        assert_eq!(calibro_dex::verify(dex), reference::verify(dex));
        for m in dex.methods().iter().filter(|m| !m.is_native) {
            assert_eq!(calibro_dex::verify_intrinsic(m), reference::verify_intrinsic(m));
            check_pipeline(&build_hgraph(m), &format!("{}", m.id));
            graphs += 1;
        }
    }
    assert!(graphs > 500, "only {graphs} methods checked");
}

/// The first register an instruction reads, for seeded mutations.
fn first_read_mut(insn: &mut DexInsn) -> Option<&mut VReg> {
    match insn {
        DexInsn::Move { src: r, .. }
        | DexInsn::Bin { a: r, .. }
        | DexInsn::BinLit { a: r, .. }
        | DexInsn::IGet { obj: r, .. }
        | DexInsn::IPut { src: r, .. }
        | DexInsn::SPut { src: r, .. }
        | DexInsn::If { a: r, .. }
        | DexInsn::IfZ { a: r, .. }
        | DexInsn::Switch { src: r, .. }
        | DexInsn::Return { src: r }
        | DexInsn::Throw { src: r } => Some(r),
        DexInsn::Invoke { args, .. } | DexInsn::InvokeNative { args, .. } => args.first_mut(),
        _ => None,
    }
}

/// Applies seeded mutation `kind` at or after instruction `pos` of
/// method `m`: 0 none, 1 redirect a read to another register (often an
/// unassigned one), 2 turn a definition into a `nop` (reads after it may
/// become uninitialized), 3 retarget a branch (possibly past the end),
/// 4 point a read past `num_regs`, 5 bump a field index (possibly past
/// the largest class layout).
fn mutate(dex: &mut DexFile, m: MethodId, kind: u8, pos: usize, pick: u16) {
    let max_fields = dex.max_fields();
    let method = dex.method_mut(m);
    let (n, num_regs) = (method.insns.len(), method.num_regs);
    let Some(at) = (0..n).map(|i| (pos + i) % n).find(|&i| {
        let insn = &mut method.insns[i];
        match kind {
            1 | 4 => first_read_mut(insn).is_some(),
            2 => insn.writes().is_some(),
            3 => !insn.branch_targets().is_empty(),
            5 => matches!(insn, DexInsn::IGet { .. } | DexInsn::IPut { .. }),
            _ => false,
        }
    }) else {
        return;
    };
    let insn = &mut method.insns[at];
    match kind {
        1 => *first_read_mut(insn).unwrap() = VReg(pick % num_regs),
        2 => *insn = DexInsn::Nop,
        3 => {
            // Odd picks land past the end, even ones on another instruction.
            let to = if pick % 2 == 1 { n + usize::from(pick) % 3 } else { usize::from(pick) % n };
            match insn {
                DexInsn::If { target, .. }
                | DexInsn::IfZ { target, .. }
                | DexInsn::Goto { target } => *target = to,
                DexInsn::Switch { targets, .. } => {
                    let k = usize::from(pick / 2) % targets.len();
                    targets[k] = to;
                }
                _ => unreachable!(),
            }
        }
        4 => *first_read_mut(insn).unwrap() = VReg(num_regs + pick % 3),
        5 => match insn {
            DexInsn::IGet { field, .. } | DexInsn::IPut { field, .. } => {
                *field = FieldId(u32::from(pick) % (max_fields + 2));
            }
            _ => unreachable!(),
        },
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Seeded mutations of workload methods: the verifier's verdict and,
    /// for methods that still verify, every pipeline round agree with
    /// the references.
    #[test]
    fn mutated_methods_agree_with_the_references(
        app in 0usize..64,
        method in any::<u32>(),
        kind in 0u8..6,
        pos in any::<u16>(),
        pick in any::<u16>(),
    ) {
        let mut dex = apps()[app % apps().len()].clone();
        let java: Vec<MethodId> =
            dex.methods().iter().filter(|m| !m.is_native).map(|m| m.id).collect();
        let id = java[method as usize % java.len()];
        mutate(&mut dex, id, kind, usize::from(pos), pick);
        let m = dex.method(id);
        let verdict = calibro_dex::verify_intrinsic(m);
        prop_assert_eq!(&verdict, &reference::verify_intrinsic(m));
        prop_assert_eq!(calibro_dex::verify(&dex), reference::verify(&dex));
        if verdict.is_ok() {
            check_pipeline(&build_hgraph(m), &format!("{id} kind {kind}"));
        }
    }
}

#[test]
fn seeded_mutations_reach_every_dataflow_error() {
    let mut seen = [0usize; 4];
    for dex in apps() {
        let mut dex = dex.clone();
        for i in 0..dex.methods().len() {
            let original = dex.methods()[i].clone();
            if original.is_native {
                continue;
            }
            for kind in 1..6 {
                mutate(&mut dex, original.id, kind, i * 7, (i * 31 + usize::from(kind)) as u16);
                let m = dex.method(original.id);
                let verdict = calibro_dex::verify_intrinsic(m)
                    .and_then(|()| calibro_dex::verify_references(&dex, m));
                let expected = reference::verify_intrinsic(m)
                    .and_then(|()| reference::verify_references(&dex, m));
                assert_eq!(verdict, expected, "{} kind {kind}", m.id);
                match verdict {
                    Err(VerifyError::UninitializedRead { .. }) => seen[0] += 1,
                    Err(VerifyError::BadBranchTarget { .. }) => seen[1] += 1,
                    Err(VerifyError::RegisterOutOfRange { .. }) => seen[2] += 1,
                    Err(VerifyError::BadFieldRef { .. }) => seen[3] += 1,
                    _ => {}
                }
                if calibro_dex::verify_intrinsic(m).is_ok() {
                    check_pipeline(&build_hgraph(m), &format!("{} kind {kind}", m.id));
                }
                *dex.method_mut(original.id) = original.clone();
            }
        }
    }
    assert!(seen.iter().all(|&n| n >= 50), "uninit/branch/range/field verdicts: {seen:?}");
}

/// Builds a 130-register method whose loop reads and writes v0, v63,
/// v64, v127 and v129 (the one argument), so every bitset operation
/// crosses a 64-bit word boundary. The path that skips the loop defines
/// v0 and passes v64 through (a kill in word 0 must not clear bit 0 of
/// word 1), and the verifier reaches the join from the loop first, so
/// with `assign_v64` false only the meet in word 1 finds that v64 is
/// unassigned on the skip path.
fn wide_method(assign_v64: bool) -> calibro_dex::Method {
    let (v0, v63, v64, v127, v129) = (VReg(0), VReg(63), VReg(64), VReg(127), VReg(129));
    let bin = |op, dst, a, b| DexInsn::Bin { op, dst, a, b };
    let mut b = MethodBuilder::new("wide", 130, 1);
    let (head, skip, out) = (b.label(), b.label(), b.label());
    b.push(DexInsn::Const { dst: v0, value: 5 });
    b.push(DexInsn::BinLit { op: BinOp::Add, dst: v127, a: v0, lit: 3 }); // folds to 8
    b.push(DexInsn::Move { dst: v63, src: v129 });
    if assign_v64 {
        b.push(DexInsn::Const { dst: v64, value: 0 });
    }
    b.if_z(Cmp::Le, v63, skip);
    b.bind(head);
    b.push(DexInsn::Move { dst: v64, src: v127 }); // copy-propagated below
    b.push(bin(BinOp::Add, v0, v64, v0));
    b.push(bin(BinOp::Mul, v127, v0, v0)); // dead: redefined next
    b.push(DexInsn::Const { dst: v127, value: 8 });
    b.push(DexInsn::BinLit { op: BinOp::Sub, dst: v63, a: v63, lit: 1 });
    b.if_z(Cmp::Gt, v63, head);
    b.goto(out);
    b.bind(skip);
    b.push(DexInsn::Const { dst: v0, value: 1 });
    b.bind(out);
    b.push(bin(BinOp::Add, v127, v0, v64));
    b.push(bin(BinOp::Add, v64, v0, v64)); // CSE hit that overwrites an operand
    b.push(bin(BinOp::Add, v63, v0, v64)); // so this is not a hit
    b.push(bin(BinOp::Add, v129, v63, v127));
    b.push(DexInsn::Return { src: v129 });
    b.build(ClassId(0))
}

#[test]
fn registers_across_word_boundaries_agree_with_the_references() {
    let ok = wide_method(true);
    assert_eq!(calibro_dex::verify_intrinsic(&ok), Ok(()));
    assert_eq!(reference::verify_intrinsic(&ok), Ok(()));

    let bad = wide_method(false);
    let expected = Err(VerifyError::UninitializedRead { method: bad.id, insn: 12, reg: 64 });
    assert_eq!(calibro_dex::verify_intrinsic(&bad), expected);
    assert_eq!(reference::verify_intrinsic(&bad), expected);

    let graph = build_hgraph(&ok);
    check_pipeline(&graph, "wide");
    type Pass = fn(&mut HGraph) -> usize;
    let singles: [(&str, Pass, Pass); 4] = [
        ("copy_prop", copy_prop::run, reference::copy_prop),
        ("constant_folding", constant_folding::run, reference::constant_folding),
        ("cse", cse::run, reference::cse),
        ("dce", dce::run, reference::dce),
    ];
    for (name, pass, reference) in singles {
        let (mut g, mut r) = (graph.clone(), graph.clone());
        let n = pass(&mut g);
        assert!(n > 0, "{name} found nothing to do on the wide method");
        assert_eq!(n, reference(&mut r), "{name} count");
        assert_eq!(g.blocks, r.blocks, "{name} graph");
    }
}
