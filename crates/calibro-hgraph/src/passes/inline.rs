//! Whole-program method inlining — dex2oat's inliner, reproduced for
//! single-block callees. The related-work observation that "function
//! inlining may reduce code size if applied carefully" (paper §5) cuts
//! both ways for outlining: inlining duplicates callee bodies, which
//! *creates* repeats for LTBO to fold back.

use std::collections::HashMap;

use calibro_dex::VReg;

use crate::graph::{HGraph, HInsn, HTerminator};

/// Inlining thresholds.
#[derive(Clone, Copy, Debug)]
pub struct InlineConfig {
    /// Maximum callee body size (instructions, terminator excluded).
    pub max_callee_insns: usize,
    /// Maximum number of call sites replaced per caller.
    pub max_sites_per_caller: usize,
}

impl Default for InlineConfig {
    fn default() -> InlineConfig {
        InlineConfig { max_callee_insns: 10, max_sites_per_caller: 8 }
    }
}

/// A candidate callee body: straight-line instructions plus the
/// returned register (if any).
#[derive(Clone, Debug)]
struct InlineBody {
    insns: Vec<HInsn>,
    num_regs: u16,
    num_args: u16,
    returned: Option<VReg>,
}

/// Extracts the inlinable body of a graph: a single block ending in a
/// plain return, with no calls (keeping the inliner one level deep and
/// terminating).
fn inline_body(graph: &HGraph, config: &InlineConfig) -> Option<InlineBody> {
    if graph.blocks.len() != 1 {
        return None;
    }
    let block = &graph.blocks[0];
    if block.insns.len() > config.max_callee_insns {
        return None;
    }
    if block.insns.iter().any(|i| {
        matches!(i, HInsn::Invoke { .. } | HInsn::InvokeNative { .. } | HInsn::NewInstance { .. })
    }) {
        return None;
    }
    match block.terminator {
        HTerminator::Return { src } => Some(InlineBody {
            insns: block.insns.clone(),
            num_regs: graph.num_regs,
            num_args: graph.num_args,
            returned: src,
        }),
        _ => None,
    }
}

/// Runs whole-program inlining over the per-method graphs (indexed by
/// method id; `None` for native methods). Returns the number of call
/// sites inlined.
pub fn run_inlining(graphs: &mut [Option<HGraph>], config: &InlineConfig) -> usize {
    // Phase 1: snapshot inlinable bodies (pre-inlining state, so results
    // do not depend on method order).
    let bodies: HashMap<u32, InlineBody> = graphs
        .iter()
        .enumerate()
        .filter_map(|(id, g)| {
            let g = g.as_ref()?;
            inline_body(g, config).map(|b| (id as u32, b))
        })
        .collect();
    if bodies.is_empty() {
        return 0;
    }

    // Phase 2: rewrite call sites, caller by caller.
    let mut inlined = 0;
    for (caller_id, slot) in graphs.iter_mut().enumerate() {
        let Some(graph) = slot.as_mut() else { continue };
        // 2a: find the sites and the clone-register budget G.
        let mut budget = config.max_sites_per_caller;
        let mut clone_regs: u16 = 0;
        let mut sites = 0usize;
        for block in &graph.blocks {
            for insn in &block.insns {
                if let HInsn::Invoke { method, args, .. } = insn {
                    if budget > 0
                        && method.index() != caller_id
                        && bodies.contains_key(&method.0)
                        && args.len() == bodies[&method.0].num_args as usize
                    {
                        clone_regs += bodies[&method.0].num_regs;
                        budget -= 1;
                        sites += 1;
                    }
                }
            }
        }
        if sites == 0 {
            continue;
        }
        // 2b: arguments live in the trailing registers by convention;
        // growing the register file moves them. Shift the original arg
        // registers up by G first so the convention still holds.
        let old_n = graph.num_regs;
        let num_args = graph.num_args;
        let first_arg = old_n - num_args;
        let shift = |v: VReg| if v.0 >= first_arg { VReg(v.0 + clone_regs) } else { v };
        for block in &mut graph.blocks {
            for insn in &mut block.insns {
                rename(insn, shift);
            }
            block.terminator.reads_mut().for_each(|r| *r = shift(*r));
        }
        graph.num_regs = old_n + clone_regs;
        // Clones go into the vacated range [first_arg, first_arg + G).
        let mut clone_base = first_arg;

        // 2c: splice.
        let mut budget = config.max_sites_per_caller;
        for bi in 0..graph.blocks.len() {
            let mut new_insns = Vec::with_capacity(graph.blocks[bi].insns.len());
            for insn in std::mem::take(&mut graph.blocks[bi].insns) {
                let replaced = match &insn {
                    HInsn::Invoke { method, args, dst, .. }
                        if budget > 0
                            && method.index() != caller_id
                            && bodies.contains_key(&method.0)
                            && args.len() == bodies[&method.0].num_args as usize =>
                    {
                        let body = &bodies[&method.0];
                        splice(clone_base, body, args, *dst, &mut new_insns);
                        clone_base += body.num_regs;
                        budget -= 1;
                        inlined += 1;
                        true
                    }
                    _ => false,
                };
                if !replaced {
                    new_insns.push(insn);
                }
            }
            graph.blocks[bi].insns = new_insns;
        }
    }
    inlined
}

/// Splices a callee body into `out`, remapping callee registers to a
/// fresh range starting at `base` and wiring arguments/return.
fn splice(base: u16, body: &InlineBody, args: &[VReg], dst: Option<VReg>, out: &mut Vec<HInsn>) {
    let remap = |v: VReg| VReg(base + v.0);
    // Arguments arrive in the callee's trailing registers.
    let first_arg = body.num_regs - body.num_args;
    for (i, &arg) in args.iter().enumerate() {
        out.push(HInsn::Move { dst: remap(VReg(first_arg + i as u16)), src: arg });
    }
    for insn in &body.insns {
        let mut insn = insn.clone();
        rename(&mut insn, remap);
        out.push(insn);
    }
    match (dst, body.returned) {
        (Some(d), Some(r)) => out.push(HInsn::Move { dst: d, src: remap(r) }),
        (Some(d), None) => out.push(HInsn::Const { dst: d, value: 0 }),
        _ => {}
    }
}

/// Renames every register operand of `insn` through `f`.
fn rename(insn: &mut HInsn, f: impl Fn(VReg) -> VReg) {
    insn.reads_mut().for_each(|r| *r = f(*r));
    if let Some(dst) = insn.writes_mut() {
        *dst = f(*dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_hgraph;
    use crate::eval::{eval_pure, EvalOutcome};
    use calibro_dex::MethodId;
    use calibro_dex::{BinOp, ClassId, DexInsn, InvokeKind, MethodBuilder};

    fn leaf_add() -> HGraph {
        // fn add(a, b) = a + b  (2 regs of work + 2 args).
        let mut b = MethodBuilder::new("add", 3, 2);
        b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(1), b: VReg(2) });
        b.push(DexInsn::Return { src: VReg(0) });
        let mut m = b.build(ClassId(0));
        m.id = MethodId(0);
        build_hgraph(&m)
    }

    fn caller() -> HGraph {
        // fn caller(a, b) = add(a, b) * 2
        let mut b = MethodBuilder::new("caller", 4, 2);
        b.push(DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: MethodId(0),
            args: vec![VReg(2), VReg(3)],
            dst: Some(VReg(0)),
        });
        b.push(DexInsn::BinLit { op: BinOp::Mul, dst: VReg(0), a: VReg(0), lit: 2 });
        b.push(DexInsn::Return { src: VReg(0) });
        let mut m = b.build(ClassId(0));
        m.id = MethodId(1);
        build_hgraph(&m)
    }

    #[test]
    fn inlines_small_leaf_and_preserves_semantics() {
        let mut graphs = vec![Some(leaf_add()), Some(caller())];
        let n = run_inlining(&mut graphs, &InlineConfig::default());
        assert_eq!(n, 1);
        let inlined = graphs[1].as_ref().unwrap();
        // No calls remain.
        assert!(!inlined.has_calls());
        // (3 + 4) * 2 == 14, same as calling for real.
        assert_eq!(eval_pure(inlined, &[3, 4], 1000), Ok(EvalOutcome::Returned(Some(14))));
        crate::check(inlined).unwrap();
    }

    #[test]
    fn large_callees_are_not_inlined() {
        let mut b = MethodBuilder::new("big", 3, 2);
        for _ in 0..20 {
            b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(1), b: VReg(2) });
        }
        b.push(DexInsn::Return { src: VReg(0) });
        let mut m = b.build(ClassId(0));
        m.id = MethodId(0);
        let mut graphs = vec![Some(build_hgraph(&m)), Some(caller())];
        assert_eq!(run_inlining(&mut graphs, &InlineConfig::default()), 0);
    }

    #[test]
    fn multi_block_callees_are_not_inlined() {
        let mut b = MethodBuilder::new("branchy", 3, 2);
        let l = b.label();
        b.if_z(calibro_dex::Cmp::Eq, VReg(1), l);
        b.push(DexInsn::Const { dst: VReg(0), value: 1 });
        b.bind(l);
        b.push(DexInsn::Return { src: VReg(0) });
        let mut m = b.build(ClassId(0));
        m.id = MethodId(0);
        let mut graphs = vec![Some(build_hgraph(&m)), Some(caller())];
        assert_eq!(run_inlining(&mut graphs, &InlineConfig::default()), 0);
    }

    #[test]
    fn recursion_is_never_inlined() {
        // A single-block self-caller can't exist (it would need a call),
        // but a caller must not inline *itself* as callee id == caller.
        let mut graphs = vec![Some(leaf_add())];
        // add calls nothing; nothing to inline.
        assert_eq!(run_inlining(&mut graphs, &InlineConfig::default()), 0);
    }

    #[test]
    fn native_slots_are_skipped() {
        let mut graphs = vec![None, Some(caller())];
        assert_eq!(run_inlining(&mut graphs, &InlineConfig::default()), 0);
    }
}
