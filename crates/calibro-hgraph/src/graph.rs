//! The HGraph IR: dex2oat's control-flow-graph intermediate
//! representation, reproduced as a register-based CFG.
//!
//! ART's real HGraph is SSA-form; this reproduction keeps virtual
//! registers and runs dataflow-based passes instead, which preserves the
//! pipeline structure the paper relies on (Figure 5: `method -> HGraph ->
//! opt passes -> code generation`) without the full SSA machinery.

use calibro_dex::{BinOp, ClassId, Cmp, FieldId, InvokeKind, MethodId, StaticId, VReg};

/// Identifier of a basic block within one [`HGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A non-terminator HGraph instruction.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // variant fields are self-describing operands
pub enum HInsn {
    /// `dst = value`.
    Const { dst: VReg, value: i32 },
    /// `dst = src`.
    Move { dst: VReg, src: VReg },
    /// `dst = a <op> b`.
    Bin { op: BinOp, dst: VReg, a: VReg, b: VReg },
    /// `dst = a <op> lit`.
    BinLit { op: BinOp, dst: VReg, a: VReg, lit: i16 },
    /// `dst = obj.field`.
    IGet { dst: VReg, obj: VReg, field: FieldId },
    /// `obj.field = src`.
    IPut { src: VReg, obj: VReg, field: FieldId },
    /// `dst = statics[slot]`.
    SGet { dst: VReg, slot: StaticId },
    /// `statics[slot] = src`.
    SPut { src: VReg, slot: StaticId },
    /// `dst = new class`.
    NewInstance { dst: VReg, class: ClassId },
    /// Java method call.
    Invoke { kind: InvokeKind, method: MethodId, args: Vec<VReg>, dst: Option<VReg> },
    /// JNI method call.
    InvokeNative { method: MethodId, args: Vec<VReg>, dst: Option<VReg> },
}

impl HInsn {
    /// Registers read, in operand order.
    pub fn reads(&self) -> impl Iterator<Item = VReg> + '_ {
        let (fixed, args): ([Option<VReg>; 2], &[VReg]) = match self {
            HInsn::Bin { a, b, .. } => ([Some(*a), Some(*b)], &[]),
            HInsn::IPut { src, obj, .. } => ([Some(*src), Some(*obj)], &[]),
            HInsn::Move { src: a, .. }
            | HInsn::BinLit { a, .. }
            | HInsn::IGet { obj: a, .. }
            | HInsn::SPut { src: a, .. } => ([Some(*a), None], &[]),
            HInsn::Invoke { args, .. } | HInsn::InvokeNative { args, .. } => ([None; 2], args),
            _ => ([None; 2], &[]),
        };
        fixed.into_iter().flatten().chain(args.iter().copied())
    }

    /// Registers read, mutably, in the order of [`HInsn::reads`].
    pub(crate) fn reads_mut(&mut self) -> impl Iterator<Item = &mut VReg> {
        let (fixed, args): ([Option<&mut VReg>; 2], &mut [VReg]) = match self {
            HInsn::Bin { a, b, .. } | HInsn::IPut { src: a, obj: b, .. } => {
                ([Some(a), Some(b)], &mut [])
            }
            HInsn::Move { src: a, .. }
            | HInsn::BinLit { a, .. }
            | HInsn::IGet { obj: a, .. }
            | HInsn::SPut { src: a, .. } => ([Some(a), None], &mut []),
            HInsn::Invoke { args, .. } | HInsn::InvokeNative { args, .. } => ([None, None], args),
            _ => ([None, None], &mut []),
        };
        fixed.into_iter().flatten().chain(args.iter_mut())
    }

    /// Register written, if any.
    #[must_use]
    pub fn writes(&self) -> Option<VReg> {
        match self {
            HInsn::Const { dst, .. }
            | HInsn::Move { dst, .. }
            | HInsn::Bin { dst, .. }
            | HInsn::BinLit { dst, .. }
            | HInsn::IGet { dst, .. }
            | HInsn::SGet { dst, .. }
            | HInsn::NewInstance { dst, .. } => Some(*dst),
            HInsn::Invoke { dst, .. } | HInsn::InvokeNative { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Register written, mutably, if any.
    pub(crate) fn writes_mut(&mut self) -> Option<&mut VReg> {
        match self {
            HInsn::Const { dst, .. }
            | HInsn::Move { dst, .. }
            | HInsn::Bin { dst, .. }
            | HInsn::BinLit { dst, .. }
            | HInsn::IGet { dst, .. }
            | HInsn::SGet { dst, .. }
            | HInsn::NewInstance { dst, .. } => Some(dst),
            HInsn::Invoke { dst, .. } | HInsn::InvokeNative { dst, .. } => dst.as_mut(),
            _ => None,
        }
    }

    /// Returns `true` if removing this instruction (when its result is
    /// dead) cannot change observable behaviour. Division is impure — it
    /// can throw.
    #[must_use]
    pub fn is_pure(&self) -> bool {
        match self {
            HInsn::Const { .. } | HInsn::Move { .. } | HInsn::BinLit { .. } => {
                !matches!(self, HInsn::BinLit { op: BinOp::Div, .. })
            }
            HInsn::Bin { op, .. } => !matches!(op, BinOp::Div),
            HInsn::SGet { .. } => true,
            // Field loads can fault on null receivers.
            _ => false,
        }
    }
}

/// A block terminator.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // variant fields are self-describing operands
pub enum HTerminator {
    /// Unconditional jump.
    Goto { target: BlockId },
    /// Two-register conditional.
    If { cmp: Cmp, a: VReg, b: VReg, then_bb: BlockId, else_bb: BlockId },
    /// Register-vs-zero conditional.
    IfZ { cmp: Cmp, a: VReg, then_bb: BlockId, else_bb: BlockId },
    /// Jump table.
    Switch { src: VReg, first_key: i32, targets: Vec<BlockId>, default: BlockId },
    /// Return, optionally with a value.
    Return { src: Option<VReg> },
    /// Throw an exception value.
    Throw { src: VReg },
}

impl HTerminator {
    /// Successor blocks in evaluation order.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (head, tail): (&[BlockId], Option<&BlockId>) = match self {
            HTerminator::Goto { target } => (core::slice::from_ref(target), None),
            HTerminator::If { then_bb, else_bb, .. }
            | HTerminator::IfZ { then_bb, else_bb, .. } => {
                (core::slice::from_ref(then_bb), Some(else_bb))
            }
            HTerminator::Switch { targets, default, .. } => (targets, Some(default)),
            HTerminator::Return { .. } | HTerminator::Throw { .. } => (&[], None),
        };
        head.iter().chain(tail).copied()
    }

    /// Successor blocks, mutably, in the order of [`HTerminator::successors`].
    pub(crate) fn successors_mut(&mut self) -> impl Iterator<Item = &mut BlockId> {
        let (head, tail): (&mut [BlockId], Option<&mut BlockId>) = match self {
            HTerminator::Goto { target } => (core::slice::from_mut(target), None),
            HTerminator::If { then_bb, else_bb, .. }
            | HTerminator::IfZ { then_bb, else_bb, .. } => {
                (core::slice::from_mut(then_bb), Some(else_bb))
            }
            HTerminator::Switch { targets, default, .. } => (targets, Some(default)),
            HTerminator::Return { .. } | HTerminator::Throw { .. } => (&mut [], None),
        };
        head.iter_mut().chain(tail)
    }

    /// Registers read by the terminator, in operand order.
    pub fn reads(&self) -> impl Iterator<Item = VReg> {
        match self {
            HTerminator::If { a, b, .. } => [Some(*a), Some(*b)],
            HTerminator::IfZ { a, .. }
            | HTerminator::Switch { src: a, .. }
            | HTerminator::Return { src: Some(a) }
            | HTerminator::Throw { src: a } => [Some(*a), None],
            _ => [None; 2],
        }
        .into_iter()
        .flatten()
    }

    /// Registers read, mutably, in the order of [`HTerminator::reads`].
    pub(crate) fn reads_mut(&mut self) -> impl Iterator<Item = &mut VReg> {
        match self {
            HTerminator::If { a, b, .. } => [Some(a), Some(b)],
            HTerminator::IfZ { a, .. }
            | HTerminator::Switch { src: a, .. }
            | HTerminator::Return { src: Some(a) }
            | HTerminator::Throw { src: a } => [Some(a), None],
            _ => [None, None],
        }
        .into_iter()
        .flatten()
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HBlock {
    /// The block's id (== its index in the graph).
    pub id: BlockId,
    /// Straight-line body.
    pub insns: Vec<HInsn>,
    /// The closing control transfer.
    pub terminator: HTerminator,
}

/// A method's control-flow graph.
#[derive(Clone, Debug)]
pub struct HGraph {
    /// The method this graph was built from.
    pub method: MethodId,
    /// Blocks; index 0 is the entry block.
    pub blocks: Vec<HBlock>,
    /// Virtual register count (arguments included).
    pub num_regs: u16,
    /// Argument count; arguments arrive in the trailing registers.
    pub num_args: u16,
}

impl HGraph {
    /// The entry block id.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Total instruction count including terminators.
    #[must_use]
    pub fn insn_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insns.len() + 1).sum()
    }

    /// Blocks reachable from the entry, in depth-first order.
    #[must_use]
    pub fn reachable(&self) -> Vec<BlockId> {
        let mut seen = vec![false; self.blocks.len()];
        let mut order = Vec::new();
        let mut stack = vec![self.entry()];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut seen[b.index()], true) {
                continue;
            }
            order.push(b);
            stack.extend(self.blocks[b.index()].terminator.successors());
        }
        order
    }

    /// Returns `true` if any instruction is a call (method is non-leaf).
    #[must_use]
    pub fn has_calls(&self) -> bool {
        self.blocks.iter().any(|b| {
            b.insns.iter().any(|i| {
                matches!(
                    i,
                    HInsn::Invoke { .. } | HInsn::InvokeNative { .. } | HInsn::NewInstance { .. }
                )
            })
        })
    }

    /// Returns `true` if the graph contains a switch terminator.
    #[must_use]
    pub fn has_switch(&self) -> bool {
        self.blocks.iter().any(|b| matches!(b.terminator, HTerminator::Switch { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_block_graph() -> HGraph {
        HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![HInsn::Const { dst: VReg(0), value: 1 }],
                    terminator: HTerminator::Goto { target: BlockId(1) },
                },
                HBlock {
                    id: BlockId(1),
                    insns: vec![],
                    terminator: HTerminator::Return { src: Some(VReg(0)) },
                },
            ],
        }
    }

    #[test]
    fn successor_queries() {
        let mut g = two_block_graph();
        assert_eq!(g.blocks[0].terminator.successors().collect::<Vec<_>>(), vec![BlockId(1)]);
        assert_eq!(g.blocks[1].terminator.successors().count(), 0);
        g.blocks[0].terminator.successors_mut().for_each(|s| *s = BlockId(0));
        assert_eq!(g.blocks[0].terminator, HTerminator::Goto { target: BlockId(0) });
    }

    #[test]
    fn reachability() {
        let mut g = two_block_graph();
        // Add an unreachable block.
        g.blocks.push(HBlock {
            id: BlockId(2),
            insns: vec![],
            terminator: HTerminator::Return { src: None },
        });
        let reach = g.reachable();
        assert!(reach.contains(&BlockId(0)) && reach.contains(&BlockId(1)));
        assert!(!reach.contains(&BlockId(2)));
    }

    #[test]
    fn purity() {
        assert!(HInsn::Const { dst: VReg(0), value: 3 }.is_pure());
        assert!(HInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(1), b: VReg(1) }.is_pure());
        assert!(!HInsn::Bin { op: BinOp::Div, dst: VReg(0), a: VReg(1), b: VReg(1) }.is_pure());
        assert!(!HInsn::IGet { dst: VReg(0), obj: VReg(1), field: FieldId(0) }.is_pure());
        assert!(!HInsn::Invoke {
            kind: InvokeKind::Static,
            method: MethodId(0),
            args: vec![],
            dst: None
        }
        .is_pure());
    }

    #[test]
    fn insn_count_includes_terminators() {
        assert_eq!(two_block_graph().insn_count(), 3);
    }
}
