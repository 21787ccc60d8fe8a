//! Return merging (listed among dex2oat's code-size optimizations):
//! duplicate return-only blocks are merged into one, so each method keeps
//! a single epilogue per distinct return shape.

use std::collections::HashMap;

use crate::graph::{BlockId, HGraph, HTerminator};

/// Runs the pass; returns the number of redirected edges. Duplicate
/// blocks become unreachable and are collected by
/// [`remove_unreachable`](crate::passes::dce::remove_unreachable).
pub fn run(graph: &mut HGraph) -> usize {
    // Canonical block per return shape (only bodyless return blocks).
    let mut canonical: HashMap<Option<calibro_dex::VReg>, BlockId> = HashMap::new();
    let mut alias: HashMap<BlockId, BlockId> = HashMap::new();
    for block in &graph.blocks {
        if !block.insns.is_empty() {
            continue;
        }
        if let HTerminator::Return { src } = block.terminator {
            match canonical.get(&src) {
                Some(&keep) => {
                    alias.insert(block.id, keep);
                }
                None => {
                    canonical.insert(src, block.id);
                }
            }
        }
    }
    if alias.is_empty() {
        return 0;
    }
    let mut changes = 0;
    let mut fix = |b: &mut BlockId| {
        if let Some(&keep) = alias.get(b) {
            *b = keep;
            changes += 1;
        }
    };
    for block in &mut graph.blocks {
        block.terminator.successors_mut().for_each(&mut fix);
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{HBlock, HInsn};
    use calibro_dex::{Cmp, MethodId, VReg};

    #[test]
    fn duplicate_returns_merge() {
        let ret = |id: u32| HBlock {
            id: BlockId(id),
            insns: vec![],
            terminator: HTerminator::Return { src: Some(VReg(0)) },
        };
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![],
                    terminator: HTerminator::IfZ {
                        cmp: Cmp::Eq,
                        a: VReg(1),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                ret(1),
                ret(2),
            ],
        };
        assert_eq!(run(&mut g), 1);
        match g.blocks[0].terminator {
            HTerminator::IfZ { then_bb, else_bb, .. } => {
                assert_eq!(then_bb, BlockId(1));
                assert_eq!(else_bb, BlockId(1), "second return redirected to the first");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn distinct_return_values_stay_separate() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![],
                    terminator: HTerminator::IfZ {
                        cmp: Cmp::Eq,
                        a: VReg(1),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                HBlock {
                    id: BlockId(1),
                    insns: vec![],
                    terminator: HTerminator::Return { src: Some(VReg(0)) },
                },
                HBlock {
                    id: BlockId(2),
                    insns: vec![],
                    terminator: HTerminator::Return { src: Some(VReg(1)) },
                },
            ],
        };
        assert_eq!(run(&mut g), 0);
    }

    #[test]
    fn blocks_with_bodies_are_not_merged() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![],
                    terminator: HTerminator::IfZ {
                        cmp: Cmp::Eq,
                        a: VReg(1),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                HBlock {
                    id: BlockId(1),
                    insns: vec![HInsn::Const { dst: VReg(0), value: 1 }],
                    terminator: HTerminator::Return { src: Some(VReg(0)) },
                },
                HBlock {
                    id: BlockId(2),
                    insns: vec![HInsn::Const { dst: VReg(0), value: 2 }],
                    terminator: HTerminator::Return { src: Some(VReg(0)) },
                },
            ],
        };
        assert_eq!(run(&mut g), 0);
    }
}
