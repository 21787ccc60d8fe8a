//! The DEX-like bytecode instruction set.
//!
//! A register machine modeled on the Dalvik executable format: virtual
//! registers, instance/static field accesses, invoke instructions that
//! leave their result in an optional destination register, and structured
//! branch targets given as instruction indices.
//!
//! The set is chosen so that compilation exercises everything Calibro
//! needs: `Invoke*` lowers to the ART Java-call pattern (Figure 4a),
//! `NewInstance`/`Div`/`Throw` lower to runtime entrypoint calls and slow
//! paths (Figure 4b), non-leaf methods get the stack-overflow check
//! (Figure 4c), and `Switch` lowers to an indirect jump that flags the
//! method as unoutlinable (§3.2).

use crate::ids::{ClassId, FieldId, MethodId, StaticId, VReg};

/// Comparison kind for two-register and register-vs-zero branches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Lt,
    /// Signed greater or equal.
    Ge,
    /// Signed greater than.
    Gt,
    /// Signed less or equal.
    Le,
}

/// Binary arithmetic/logical operation kind.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (throws on division by zero — has a slow path).
    Div,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (amount masked to 5 bits).
    Shl,
    /// Logical shift right (amount masked to 5 bits).
    Shr,
}

/// The kind of an invoke instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InvokeKind {
    /// Virtual dispatch through the receiver's `ArtMethod`.
    Virtual,
    /// Static dispatch (no receiver).
    Static,
}

/// One DEX-like bytecode instruction.
///
/// Branch targets are indices into the owning method's instruction list.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // variant fields are self-describing operands
pub enum DexInsn {
    /// No operation.
    Nop,
    /// Load a constant: `dst = value`.
    Const { dst: VReg, value: i32 },
    /// Register copy: `dst = src`.
    Move { dst: VReg, src: VReg },
    /// Binary operation on registers: `dst = a <op> b`.
    Bin { op: BinOp, dst: VReg, a: VReg, b: VReg },
    /// Binary operation with a literal: `dst = a <op> lit`.
    BinLit { op: BinOp, dst: VReg, a: VReg, lit: i16 },
    /// Instance field load: `dst = obj.field` (null check has a slow path).
    IGet { dst: VReg, obj: VReg, field: FieldId },
    /// Instance field store: `obj.field = src`.
    IPut { src: VReg, obj: VReg, field: FieldId },
    /// Static field load: `dst = statics[slot]`.
    SGet { dst: VReg, slot: StaticId },
    /// Static field store: `statics[slot] = src`.
    SPut { src: VReg, slot: StaticId },
    /// Allocate an instance: `dst = new class` (runtime entrypoint call).
    NewInstance { dst: VReg, class: ClassId },
    /// Call a method; `args[0]` is the receiver for virtual calls.
    Invoke { kind: InvokeKind, method: MethodId, args: Vec<VReg>, dst: Option<VReg> },
    /// Call a Java native (JNI) method — the callee is outside the OAT.
    InvokeNative { method: MethodId, args: Vec<VReg>, dst: Option<VReg> },
    /// Conditional branch comparing two registers.
    If { cmp: Cmp, a: VReg, b: VReg, target: usize },
    /// Conditional branch comparing a register with zero.
    IfZ { cmp: Cmp, a: VReg, target: usize },
    /// Unconditional branch.
    Goto { target: usize },
    /// Packed switch on `src`: `targets[src - first_key]`, falling through
    /// when out of range. Lowers to an indirect jump table.
    Switch { src: VReg, first_key: i32, targets: Vec<usize> },
    /// Return a value.
    Return { src: VReg },
    /// Return without a value.
    ReturnVoid,
    /// Throw an exception carried in a register (runtime call, no return).
    Throw { src: VReg },
}

impl DexInsn {
    /// Returns `true` if the instruction ends a basic block.
    #[must_use]
    pub fn is_block_end(&self) -> bool {
        matches!(
            self,
            DexInsn::If { .. }
                | DexInsn::IfZ { .. }
                | DexInsn::Goto { .. }
                | DexInsn::Switch { .. }
                | DexInsn::Return { .. }
                | DexInsn::ReturnVoid
                | DexInsn::Throw { .. }
        )
    }

    /// Returns `true` if the instruction never falls through.
    #[must_use]
    pub fn is_unconditional_exit(&self) -> bool {
        matches!(
            self,
            DexInsn::Goto { .. }
                | DexInsn::Return { .. }
                | DexInsn::ReturnVoid
                | DexInsn::Throw { .. }
        )
    }

    /// Explicit branch targets of this instruction (fall-through excluded).
    #[must_use]
    pub fn branch_targets(&self) -> &[usize] {
        match self {
            DexInsn::If { target, .. } | DexInsn::IfZ { target, .. } | DexInsn::Goto { target } => {
                core::slice::from_ref(target)
            }
            DexInsn::Switch { targets, .. } => targets,
            _ => &[],
        }
    }

    /// All registers read by this instruction, in operand order.
    pub fn reads(&self) -> impl Iterator<Item = VReg> + '_ {
        let (fixed, args): ([Option<VReg>; 2], &[VReg]) = match self {
            DexInsn::Bin { a, b, .. } | DexInsn::If { a, b, .. } => ([Some(*a), Some(*b)], &[]),
            DexInsn::IPut { src, obj, .. } => ([Some(*src), Some(*obj)], &[]),
            DexInsn::Move { src: a, .. }
            | DexInsn::BinLit { a, .. }
            | DexInsn::IGet { obj: a, .. }
            | DexInsn::SPut { src: a, .. }
            | DexInsn::IfZ { a, .. }
            | DexInsn::Switch { src: a, .. }
            | DexInsn::Return { src: a }
            | DexInsn::Throw { src: a } => ([Some(*a), None], &[]),
            DexInsn::Invoke { args, .. } | DexInsn::InvokeNative { args, .. } => ([None; 2], args),
            _ => ([None; 2], &[]),
        };
        fixed.into_iter().flatten().chain(args.iter().copied())
    }

    /// The register written by this instruction, if any.
    #[must_use]
    pub fn writes(&self) -> Option<VReg> {
        match self {
            DexInsn::Const { dst, .. }
            | DexInsn::Move { dst, .. }
            | DexInsn::Bin { dst, .. }
            | DexInsn::BinLit { dst, .. }
            | DexInsn::IGet { dst, .. }
            | DexInsn::SGet { dst, .. }
            | DexInsn::NewInstance { dst, .. } => Some(*dst),
            DexInsn::Invoke { dst, .. } | DexInsn::InvokeNative { dst, .. } => *dst,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_end_classification() {
        assert!(DexInsn::Goto { target: 0 }.is_block_end());
        assert!(DexInsn::ReturnVoid.is_block_end());
        assert!(DexInsn::Switch { src: VReg(0), first_key: 0, targets: vec![1] }.is_block_end());
        assert!(!DexInsn::Nop.is_block_end());
        assert!(!DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: MethodId(0),
            args: vec![],
            dst: None
        }
        .is_block_end());
    }

    #[test]
    fn fallthrough_classification() {
        assert!(DexInsn::Goto { target: 3 }.is_unconditional_exit());
        assert!(!DexInsn::If { cmp: Cmp::Eq, a: VReg(0), b: VReg(1), target: 3 }
            .is_unconditional_exit());
    }

    #[test]
    fn dataflow_queries() {
        let insn = DexInsn::Bin { op: BinOp::Add, dst: VReg(2), a: VReg(0), b: VReg(1) };
        assert_eq!(insn.reads().collect::<Vec<_>>(), vec![VReg(0), VReg(1)]);
        assert_eq!(insn.writes(), Some(VReg(2)));
        let call = DexInsn::Invoke {
            kind: InvokeKind::Virtual,
            method: MethodId(4),
            args: vec![VReg(3), VReg(5)],
            dst: Some(VReg(0)),
        };
        assert_eq!(call.reads().collect::<Vec<_>>(), vec![VReg(3), VReg(5)]);
        assert_eq!(call.writes(), Some(VReg(0)));
    }

    #[test]
    fn branch_targets() {
        let sw = DexInsn::Switch { src: VReg(1), first_key: 10, targets: vec![4, 9, 2] };
        assert_eq!(sw.branch_targets(), [4, 9, 2]);
        assert!(DexInsn::ReturnVoid.branch_targets().is_empty());
    }
}
