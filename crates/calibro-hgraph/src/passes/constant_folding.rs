//! Constant folding and propagation + static branch simplification
//! (per-block, as in dex2oat's per-method HGraph passes).

use crate::eval::{eval_binop, eval_cmp};
use crate::graph::{HGraph, HInsn, HTerminator};

/// Runs the pass; returns the number of instructions or terminators
/// rewritten.
pub fn run(graph: &mut HGraph) -> usize {
    let mut changes = 0;
    // known[r] = Some(v)  means  r holds the constant v.
    let mut known: Vec<Option<i32>> = vec![None; usize::from(graph.num_regs)];
    for block in &mut graph.blocks {
        known.fill(None);
        for insn in &mut block.insns {
            let rewritten = match insn {
                HInsn::Const { dst, value } => {
                    known[dst.index()] = Some(*value);
                    continue;
                }
                HInsn::Move { dst, src } => known[src.index()].map(|v| (*dst, v)),
                HInsn::Bin { op, dst, a, b } => known[a.index()]
                    .zip(known[b.index()])
                    .and_then(|(va, vb)| eval_binop(*op, va, vb))
                    .map(|v| (*dst, v)),
                HInsn::BinLit { op, dst, a, lit } => known[a.index()]
                    .and_then(|va| eval_binop(*op, va, i32::from(*lit)))
                    .map(|v| (*dst, v)),
                _ => None,
            };
            match rewritten {
                Some((dst, value)) => {
                    *insn = HInsn::Const { dst, value };
                    known[dst.index()] = Some(value);
                    changes += 1;
                }
                None => {
                    if let Some(dst) = insn.writes() {
                        known[dst.index()] = None;
                    }
                }
            }
        }
        // Branch simplification on statically-known conditions.
        let new_term = match &block.terminator {
            HTerminator::If { cmp, a, b, then_bb, else_bb } => {
                known[a.index()].zip(known[b.index()]).map(|(va, vb)| HTerminator::Goto {
                    target: if eval_cmp(*cmp, va, vb) { *then_bb } else { *else_bb },
                })
            }
            HTerminator::IfZ { cmp, a, then_bb, else_bb } => {
                known[a.index()].map(|va| HTerminator::Goto {
                    target: if eval_cmp(*cmp, va, 0) { *then_bb } else { *else_bb },
                })
            }
            HTerminator::Switch { src, first_key, targets, default } => {
                known[src.index()].map(|v| {
                    let idx = i64::from(v) - i64::from(*first_key);
                    let target = if idx >= 0 && (idx as usize) < targets.len() {
                        targets[idx as usize]
                    } else {
                        *default
                    };
                    HTerminator::Goto { target }
                })
            }
            _ => None,
        };
        if let Some(t) = new_term {
            block.terminator = t;
            changes += 1;
        }
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{BlockId, HBlock};
    use calibro_dex::{BinOp, Cmp, MethodId, VReg};

    fn graph(blocks: Vec<HBlock>, num_regs: u16) -> HGraph {
        HGraph { method: MethodId(0), blocks, num_regs, num_args: 0 }
    }

    #[test]
    fn folds_chains() {
        let mut g = graph(
            vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Const { dst: VReg(0), value: 6 },
                    HInsn::Const { dst: VReg(1), value: 7 },
                    HInsn::Bin { op: BinOp::Mul, dst: VReg(2), a: VReg(0), b: VReg(1) },
                    HInsn::BinLit { op: BinOp::Add, dst: VReg(2), a: VReg(2), lit: 1 },
                ],
                terminator: HTerminator::Return { src: Some(VReg(2)) },
            }],
            3,
        );
        let changes = run(&mut g);
        assert_eq!(changes, 2);
        assert_eq!(g.blocks[0].insns[2], HInsn::Const { dst: VReg(2), value: 42 });
        assert_eq!(g.blocks[0].insns[3], HInsn::Const { dst: VReg(2), value: 43 });
    }

    #[test]
    fn never_folds_division_by_zero() {
        let mut g = graph(
            vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Const { dst: VReg(0), value: 5 },
                    HInsn::Const { dst: VReg(1), value: 0 },
                    HInsn::Bin { op: BinOp::Div, dst: VReg(2), a: VReg(0), b: VReg(1) },
                ],
                terminator: HTerminator::Return { src: Some(VReg(2)) },
            }],
            3,
        );
        run(&mut g);
        assert!(matches!(g.blocks[0].insns[2], HInsn::Bin { op: BinOp::Div, .. }));
    }

    #[test]
    fn simplifies_known_branches() {
        let mut g = graph(
            vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![HInsn::Const { dst: VReg(0), value: 0 }],
                    terminator: HTerminator::IfZ {
                        cmp: Cmp::Eq,
                        a: VReg(0),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                HBlock {
                    id: BlockId(1),
                    insns: vec![],
                    terminator: HTerminator::Return { src: None },
                },
                HBlock {
                    id: BlockId(2),
                    insns: vec![],
                    terminator: HTerminator::Return { src: None },
                },
            ],
            1,
        );
        run(&mut g);
        assert_eq!(g.blocks[0].terminator, HTerminator::Goto { target: BlockId(1) });
    }

    #[test]
    fn calls_kill_constants() {
        let mut g = graph(
            vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Const { dst: VReg(0), value: 1 },
                    HInsn::Invoke {
                        kind: calibro_dex::InvokeKind::Static,
                        method: MethodId(1),
                        args: vec![],
                        dst: Some(VReg(0)),
                    },
                    HInsn::BinLit { op: BinOp::Add, dst: VReg(1), a: VReg(0), lit: 1 },
                ],
                terminator: HTerminator::Return { src: Some(VReg(1)) },
            }],
            2,
        );
        let changes = run(&mut g);
        assert_eq!(changes, 0, "value after call is unknown");
    }
}
