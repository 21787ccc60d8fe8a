//! Local copy propagation: within a block, uses of a copied register are
//! redirected to the copy source while the copy relation holds.

use calibro_dex::VReg;

use crate::graph::{HGraph, HInsn};

/// Runs the pass; returns the number of operand replacements.
pub fn run(graph: &mut HGraph) -> usize {
    let mut changes = 0;
    // copy_of[r] = Some(s)  means  r currently holds the same value as s.
    let mut copy_of: Vec<Option<VReg>> = vec![None; usize::from(graph.num_regs)];
    for block in &mut graph.blocks {
        copy_of.fill(None);
        let kill = |copy_of: &mut [Option<VReg>], dst: VReg| {
            copy_of.iter_mut().filter(|c| **c == Some(dst)).for_each(|c| *c = None);
            copy_of[dst.index()] = None;
        };

        for insn in &mut block.insns {
            // Rewrite reads first.
            changes += rewrite(insn.reads_mut(), &copy_of);
            // Then update the relation for the write.
            match insn {
                HInsn::Move { dst, src } if dst != src => {
                    let (d, s) = (*dst, *src);
                    kill(&mut copy_of, d);
                    copy_of[d.index()] = Some(s);
                }
                _ => {
                    if let Some(dst) = insn.writes() {
                        kill(&mut copy_of, dst);
                    }
                }
            }
        }
        changes += rewrite(block.terminator.reads_mut(), &copy_of);
    }
    changes
}

/// Redirects each operand to its copy source; returns how many changed.
fn rewrite<'a>(operands: impl Iterator<Item = &'a mut VReg>, copy_of: &[Option<VReg>]) -> usize {
    let mut n = 0;
    for r in operands {
        if let Some(src) = copy_of[r.index()].filter(|s| s != r) {
            *r = src;
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{BlockId, HBlock, HTerminator};
    use calibro_dex::{BinOp, MethodId};

    #[test]
    fn propagates_through_uses() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 3,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Move { dst: VReg(0), src: VReg(2) },
                    HInsn::Bin { op: BinOp::Add, dst: VReg(1), a: VReg(0), b: VReg(0) },
                ],
                terminator: HTerminator::Return { src: Some(VReg(1)) },
            }],
        };
        let changes = run(&mut g);
        assert_eq!(changes, 2);
        assert_eq!(
            g.blocks[0].insns[1],
            HInsn::Bin { op: BinOp::Add, dst: VReg(1), a: VReg(2), b: VReg(2) }
        );
    }

    #[test]
    fn redefinition_kills_the_relation() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 3,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Move { dst: VReg(0), src: VReg(2) },
                    HInsn::Const { dst: VReg(2), value: 9 }, // source overwritten
                    HInsn::Bin { op: BinOp::Add, dst: VReg(1), a: VReg(0), b: VReg(0) },
                ],
                terminator: HTerminator::Return { src: Some(VReg(1)) },
            }],
        };
        let changes = run(&mut g);
        assert_eq!(changes, 0, "copy must not survive source redefinition");
    }

    #[test]
    fn terminator_reads_are_rewritten() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![HInsn::Move { dst: VReg(0), src: VReg(1) }],
                terminator: HTerminator::Return { src: Some(VReg(0)) },
            }],
        };
        let changes = run(&mut g);
        assert_eq!(changes, 1);
        assert_eq!(g.blocks[0].terminator, HTerminator::Return { src: Some(VReg(1)) });
    }
}
