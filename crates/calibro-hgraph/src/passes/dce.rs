//! Global dead-code elimination via backward liveness dataflow, plus
//! unreachable-block elimination — dex2oat's "dead code and unreachable
//! code elimination".

use calibro_dex::RegSet;

use crate::graph::{BlockId, HGraph};

/// Removes pure instructions whose results are never used. Returns the
/// number of removed instructions.
pub fn run(graph: &mut HGraph) -> usize {
    let n = graph.blocks.len();
    let empty = RegSet::new(graph.num_regs);

    // Per block: upward-exposed uses and defs, computed once.
    let mut uses = vec![empty.clone(); n];
    let mut defs = vec![empty.clone(); n];
    for (block, (gen, kill)) in graph.blocks.iter().zip(uses.iter_mut().zip(&mut defs)) {
        block.terminator.reads().for_each(|r| gen.insert(r));
        for insn in block.insns.iter().rev() {
            if let Some(dst) = insn.writes() {
                kill.insert(dst);
                gen.remove(dst);
            }
            insn.reads().for_each(|r| gen.insert(r));
        }
    }

    // live_in[b] = use[b] | (live_out[b] & !def[b]), to the least fixpoint.
    let mut live_in = vec![empty.clone(); n];
    let mut live = empty;
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..n).rev() {
            live_out(graph, &live_in, bi, &mut live);
            changed |= live_in[bi].assign_transfer(&uses[bi], &live, &defs[bi]);
        }
    }

    // Sweep each block backwards, compacting kept instructions to the
    // tail and dropping dead pure ones.
    let mut removed = 0;
    for bi in 0..n {
        live_out(graph, &live_in, bi, &mut live);
        let block = &mut graph.blocks[bi];
        block.terminator.reads().for_each(|r| live.insert(r));
        let mut keep_from = block.insns.len();
        for i in (0..block.insns.len()).rev() {
            let insn = &block.insns[i];
            if let Some(dst) = insn.writes() {
                if insn.is_pure() && !live.contains(dst) {
                    removed += 1;
                    continue;
                }
                live.remove(dst);
            }
            insn.reads().for_each(|r| live.insert(r));
            keep_from -= 1;
            block.insns.swap(i, keep_from);
        }
        block.insns.drain(..keep_from);
    }
    removed
}

/// Sets `out` to the union of the live-in sets of `bi`'s successors.
fn live_out(graph: &HGraph, live_in: &[RegSet], bi: usize, out: &mut RegSet) {
    out.clear();
    for s in graph.blocks[bi].terminator.successors() {
        out.union_with(&live_in[s.index()]);
    }
}

/// Removes blocks unreachable from the entry and renumbers the rest.
/// Returns the number of removed blocks.
pub fn remove_unreachable(graph: &mut HGraph) -> usize {
    let reached = graph.reachable();
    if reached.len() == graph.blocks.len() {
        return 0;
    }
    // Build the renumbering map: reachable blocks keep their order.
    let mut remap = vec![None; graph.blocks.len()];
    for b in reached {
        remap[b.index()] = Some(BlockId(0));
    }
    let mut next = 0u32;
    for id in remap.iter_mut().flatten() {
        *id = BlockId(next);
        next += 1;
    }
    let removed = graph.blocks.len() - next as usize;
    let fix = |b: &mut BlockId| {
        *b = remap[b.index()].expect("edge from a reachable block into a removed block");
    };
    graph.blocks.retain(|b| remap[b.id.index()].is_some());
    for block in &mut graph.blocks {
        fix(&mut block.id);
        block.terminator.successors_mut().for_each(fix);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{HBlock, HInsn, HTerminator};
    use calibro_dex::{BinOp, Cmp, MethodId, VReg};

    #[test]
    fn removes_dead_pure_code() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 3,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Const { dst: VReg(0), value: 1 }, // dead
                    HInsn::Const { dst: VReg(1), value: 2 }, // live (returned)
                    HInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(1), b: VReg(2) }, // dead
                ],
                terminator: HTerminator::Return { src: Some(VReg(1)) },
            }],
        };
        assert_eq!(run(&mut g), 2);
        assert_eq!(g.blocks[0].insns.len(), 1);
    }

    #[test]
    fn keeps_impure_dead_writes() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    // Result unused, but division can throw: must stay.
                    HInsn::Bin { op: BinOp::Div, dst: VReg(0), a: VReg(1), b: VReg(1) },
                ],
                terminator: HTerminator::Return { src: None },
            }],
        };
        assert_eq!(run(&mut g), 0);
        assert_eq!(g.blocks[0].insns.len(), 1);
    }

    #[test]
    fn liveness_crosses_blocks_and_loops() {
        // v0 set in entry, used after the loop: must survive even though
        // the loop body doesn't mention it.
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![HInsn::Const { dst: VReg(0), value: 42 }],
                    terminator: HTerminator::Goto { target: BlockId(1) },
                },
                HBlock {
                    id: BlockId(1),
                    insns: vec![HInsn::BinLit {
                        op: BinOp::Add,
                        dst: VReg(1),
                        a: VReg(1),
                        lit: -1,
                    }],
                    terminator: HTerminator::IfZ {
                        cmp: Cmp::Gt,
                        a: VReg(1),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                HBlock {
                    id: BlockId(2),
                    insns: vec![],
                    terminator: HTerminator::Return { src: Some(VReg(0)) },
                },
            ],
        };
        assert_eq!(run(&mut g), 0);
    }

    #[test]
    fn unreachable_blocks_are_dropped_and_renumbered() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 1,
            num_args: 0,
            blocks: vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![],
                    terminator: HTerminator::Goto { target: BlockId(2) },
                },
                HBlock {
                    id: BlockId(1), // unreachable
                    insns: vec![HInsn::Const { dst: VReg(0), value: 9 }],
                    terminator: HTerminator::Return { src: None },
                },
                HBlock {
                    id: BlockId(2),
                    insns: vec![],
                    terminator: HTerminator::Return { src: None },
                },
            ],
        };
        assert_eq!(remove_unreachable(&mut g), 1);
        assert_eq!(g.blocks.len(), 2);
        assert_eq!(g.blocks[0].terminator, HTerminator::Goto { target: BlockId(1) });
        assert_eq!(g.blocks[1].id, BlockId(1));
    }
}
