//! Reference implementations of the register dataflow on the compile
//! path, kept as they were before the bitset rewrite: the verifier's
//! definite-assignment analysis clones a `Vec<u64>` state per worklist
//! visit, DCE keeps liveness in `HashSet`s, and the local passes keep
//! `HashMap` tables per block. Differential tests check the production
//! versions against these, result for result.

use std::collections::{HashMap, HashSet};

use calibro_dex::{BinOp, DexFile, DexInsn, Method, VReg, VerifyError};
use calibro_hgraph::{eval_binop, eval_cmp, BlockId, HGraph, HInsn, HTerminator};

/// `verify`: intrinsic then contextual checks, method by method.
pub fn verify(dex: &DexFile) -> Result<(), VerifyError> {
    for method in dex.methods() {
        verify_intrinsic(method)?;
        verify_references(dex, method)?;
    }
    Ok(())
}

/// `verify_intrinsic` with the clone-per-visit dataflow.
pub fn verify_intrinsic(method: &Method) -> Result<(), VerifyError> {
    let id = method.id;
    if method.is_native {
        if !method.insns.is_empty() {
            return Err(VerifyError::NativeWithBody { method: id });
        }
        return Ok(());
    }
    if method.insns.is_empty() {
        return Err(VerifyError::EmptyBody { method: id });
    }
    let n = method.insns.len();
    for (idx, insn) in method.insns.iter().enumerate() {
        let mut regs: Vec<VReg> = insn.reads().collect();
        regs.extend(insn.writes());
        for reg in regs {
            if reg.0 >= method.num_regs {
                return Err(VerifyError::RegisterOutOfRange {
                    method: id,
                    insn: idx,
                    reg: reg.0,
                    num_regs: method.num_regs,
                });
            }
        }
        for &target in insn.branch_targets() {
            if target >= n {
                return Err(VerifyError::BadBranchTarget { method: id, insn: idx, target });
            }
        }
        match insn {
            DexInsn::Invoke { args, .. } | DexInsn::InvokeNative { args, .. } if args.len() > 8 => {
                return Err(VerifyError::TooManyArgs { method: id, insn: idx, count: args.len() });
            }
            DexInsn::Switch { targets, .. } if targets.is_empty() => {
                return Err(VerifyError::EmptySwitch { method: id, insn: idx });
            }
            _ => {}
        }
    }
    if !method.insns[n - 1].is_unconditional_exit() {
        return Err(VerifyError::FallsOffEnd { method: id });
    }
    check_definite_assignment(method)
}

/// `verify_references`, recomputing the largest class layout per call.
pub fn verify_references(dex: &DexFile, method: &Method) -> Result<(), VerifyError> {
    let id = method.id;
    let max_fields = dex.classes().iter().map(|c| c.num_fields).max().unwrap_or(0);
    for (idx, insn) in method.insns.iter().enumerate() {
        match insn {
            DexInsn::Invoke { method: callee, .. } => {
                if callee.index() >= dex.methods().len() {
                    return Err(VerifyError::BadMethodRef { method: id, insn: idx });
                }
                if dex.method(*callee).is_native {
                    return Err(VerifyError::WrongInvokeKind { method: id, insn: idx });
                }
            }
            DexInsn::InvokeNative { method: callee, .. } => {
                if callee.index() >= dex.methods().len() {
                    return Err(VerifyError::BadMethodRef { method: id, insn: idx });
                }
                if !dex.method(*callee).is_native {
                    return Err(VerifyError::WrongInvokeKind { method: id, insn: idx });
                }
            }
            DexInsn::NewInstance { class, .. } if class.index() >= dex.classes().len() => {
                return Err(VerifyError::BadClassRef { method: id, insn: idx });
            }
            DexInsn::IGet { field, .. } | DexInsn::IPut { field, .. } if field.0 >= max_fields => {
                return Err(VerifyError::BadFieldRef { method: id, insn: idx });
            }
            DexInsn::SGet { slot, .. } | DexInsn::SPut { slot, .. }
                if slot.0 >= dex.num_statics() =>
            {
                return Err(VerifyError::BadStaticRef { method: id, insn: idx });
            }
            _ => {}
        }
    }
    Ok(())
}

fn check_definite_assignment(method: &Method) -> Result<(), VerifyError> {
    let n = method.insns.len();
    let num_regs = method.num_regs as usize;
    let words = num_regs.div_ceil(64).max(1);
    let mut entry = vec![0u64; words];
    for r in num_regs.saturating_sub(method.num_args as usize)..num_regs {
        entry[r / 64] |= 1 << (r % 64);
    }
    let mut states: Vec<Option<Vec<u64>>> = vec![None; n];
    states[0] = Some(entry);
    let mut work = vec![0usize];
    while let Some(idx) = work.pop() {
        let state = states[idx].clone().expect("worklist entries are reached");
        let insn = &method.insns[idx];
        for reg in insn.reads() {
            let r = reg.0 as usize;
            if state[r / 64] & (1 << (r % 64)) == 0 {
                return Err(VerifyError::UninitializedRead {
                    method: method.id,
                    insn: idx,
                    reg: reg.0,
                });
            }
        }
        let mut out = state;
        if let Some(dst) = insn.writes() {
            let r = dst.0 as usize;
            out[r / 64] |= 1 << (r % 64);
        }
        let mut succs = insn.branch_targets().to_vec();
        if !insn.is_unconditional_exit() && idx + 1 < n {
            succs.push(idx + 1);
        }
        for s in succs {
            let changed = match &mut states[s] {
                Some(existing) => {
                    let mut shrank = false;
                    for (e, o) in existing.iter_mut().zip(&out) {
                        let met = *e & *o;
                        if met != *e {
                            *e = met;
                            shrank = true;
                        }
                    }
                    shrank
                }
                slot @ None => {
                    *slot = Some(out.clone());
                    true
                }
            };
            if changed {
                work.push(s);
            }
        }
    }
    Ok(())
}

fn predecessors(graph: &HGraph) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); graph.blocks.len()];
    for block in &graph.blocks {
        for succ in block.terminator.successors() {
            preds[succ.index()].push(block.id);
        }
    }
    preds
}

/// DCE with `HashSet` liveness pushed to predecessors.
pub fn dce(graph: &mut HGraph) -> usize {
    let preds = predecessors(graph);
    let n = graph.blocks.len();
    let mut live_out: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..n).rev() {
            let live_in = live_in_of(graph, bi, &live_out[bi]);
            for &p in &preds[bi] {
                for r in &live_in {
                    if live_out[p.index()].insert(*r) {
                        changed = true;
                    }
                }
            }
        }
    }
    let mut removed = 0;
    for (bi, block_live_out) in live_out.iter().enumerate().take(n) {
        let mut live = block_live_out.clone();
        live.extend(graph.blocks[bi].terminator.reads());
        let insns = std::mem::take(&mut graph.blocks[bi].insns);
        let mut kept = Vec::with_capacity(insns.len());
        for insn in insns.into_iter().rev() {
            let dead = match insn.writes() {
                Some(dst) => insn.is_pure() && !live.contains(&dst),
                None => false,
            };
            if dead {
                removed += 1;
                continue;
            }
            if let Some(dst) = insn.writes() {
                live.remove(&dst);
            }
            live.extend(insn.reads());
            kept.push(insn);
        }
        kept.reverse();
        graph.blocks[bi].insns = kept;
    }
    removed
}

fn live_in_of(graph: &HGraph, bi: usize, live_out: &HashSet<VReg>) -> HashSet<VReg> {
    let block = &graph.blocks[bi];
    let mut live = live_out.clone();
    live.extend(block.terminator.reads());
    for insn in block.insns.iter().rev() {
        if let Some(dst) = insn.writes() {
            live.remove(&dst);
        }
        live.extend(insn.reads());
    }
    live
}

/// Copy propagation with a `HashMap` copy relation per block.
pub fn copy_prop(graph: &mut HGraph) -> usize {
    let mut changes = 0;
    for block in &mut graph.blocks {
        let mut copy_of: HashMap<VReg, VReg> = HashMap::new();
        let kill = |copy_of: &mut HashMap<VReg, VReg>, dst: VReg| {
            copy_of.remove(&dst);
            copy_of.retain(|_, src| *src != dst);
        };
        for insn in &mut block.insns {
            changes += rewrite_reads(insn, &copy_of);
            match insn {
                HInsn::Move { dst, src } if dst != src => {
                    let (d, s) = (*dst, *src);
                    kill(&mut copy_of, d);
                    copy_of.insert(d, s);
                }
                _ => {
                    if let Some(dst) = insn.writes() {
                        kill(&mut copy_of, dst);
                    }
                }
            }
        }
        changes += rewrite_terminator_reads(&mut block.terminator, &copy_of);
    }
    changes
}

fn fix(r: &mut VReg, copy_of: &HashMap<VReg, VReg>, n: &mut usize) {
    let to = copy_of.get(r).copied().unwrap_or(*r);
    if to != *r {
        *r = to;
        *n += 1;
    }
}

fn rewrite_reads(insn: &mut HInsn, copy_of: &HashMap<VReg, VReg>) -> usize {
    let mut n = 0;
    match insn {
        HInsn::Move { src, .. } => fix(src, copy_of, &mut n),
        HInsn::Bin { a, b, .. } => {
            fix(a, copy_of, &mut n);
            fix(b, copy_of, &mut n);
        }
        HInsn::BinLit { a, .. } => fix(a, copy_of, &mut n),
        HInsn::IGet { obj, .. } => fix(obj, copy_of, &mut n),
        HInsn::IPut { src, obj, .. } => {
            fix(src, copy_of, &mut n);
            fix(obj, copy_of, &mut n);
        }
        HInsn::SPut { src, .. } => fix(src, copy_of, &mut n),
        HInsn::Invoke { args, .. } | HInsn::InvokeNative { args, .. } => {
            for a in args {
                fix(a, copy_of, &mut n);
            }
        }
        _ => {}
    }
    n
}

fn rewrite_terminator_reads(term: &mut HTerminator, copy_of: &HashMap<VReg, VReg>) -> usize {
    let mut n = 0;
    match term {
        HTerminator::If { a, b, .. } => {
            fix(a, copy_of, &mut n);
            fix(b, copy_of, &mut n);
        }
        HTerminator::IfZ { a, .. } | HTerminator::Switch { src: a, .. } => {
            fix(a, copy_of, &mut n);
        }
        HTerminator::Return { src: Some(a) } | HTerminator::Throw { src: a } => {
            fix(a, copy_of, &mut n);
        }
        _ => {}
    }
    n
}

/// Constant folding with a `HashMap` of known constants per block.
pub fn constant_folding(graph: &mut HGraph) -> usize {
    let mut changes = 0;
    for block in &mut graph.blocks {
        let mut known: HashMap<VReg, i32> = HashMap::new();
        for insn in &mut block.insns {
            let rewritten = match insn {
                HInsn::Const { dst, value } => {
                    known.insert(*dst, *value);
                    continue;
                }
                HInsn::Move { dst, src } => known.get(src).map(|v| (*dst, *v)),
                HInsn::Bin { op, dst, a, b } => match (known.get(a), known.get(b)) {
                    (Some(&va), Some(&vb)) => eval_binop(*op, va, vb).map(|v| (*dst, v)),
                    _ => None,
                },
                HInsn::BinLit { op, dst, a, lit } => known
                    .get(a)
                    .and_then(|&va| eval_binop(*op, va, i32::from(*lit)))
                    .map(|v| (*dst, v)),
                _ => None,
            };
            match rewritten {
                Some((dst, value)) => {
                    *insn = HInsn::Const { dst, value };
                    known.insert(dst, value);
                    changes += 1;
                }
                None => {
                    if let Some(dst) = insn.writes() {
                        known.remove(&dst);
                    }
                }
            }
        }
        let new_term = match &block.terminator {
            HTerminator::If { cmp, a, b, then_bb, else_bb } => match (known.get(a), known.get(b)) {
                (Some(&va), Some(&vb)) => Some(HTerminator::Goto {
                    target: if eval_cmp(*cmp, va, vb) { *then_bb } else { *else_bb },
                }),
                _ => None,
            },
            HTerminator::IfZ { cmp, a, then_bb, else_bb } => {
                known.get(a).map(|&va| HTerminator::Goto {
                    target: if eval_cmp(*cmp, va, 0) { *then_bb } else { *else_bb },
                })
            }
            HTerminator::Switch { src, first_key, targets, default } => known.get(src).map(|&v| {
                let idx = i64::from(v) - i64::from(*first_key);
                let target = if idx >= 0 && (idx as usize) < targets.len() {
                    targets[idx as usize]
                } else {
                    *default
                };
                HTerminator::Goto { target }
            }),
            _ => None,
        };
        if let Some(t) = new_term {
            block.terminator = t;
            changes += 1;
        }
    }
    changes
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Expr {
    Bin(BinOp, VReg, VReg),
    BinLit(BinOp, VReg, i16),
}

/// Local CSE with a `HashMap` of available expressions per block.
pub fn cse(graph: &mut HGraph) -> usize {
    let mut changes = 0;
    for block in &mut graph.blocks {
        let mut available: HashMap<Expr, VReg> = HashMap::new();
        for insn in &mut block.insns {
            let expr = match insn {
                HInsn::Bin { op, a, b, .. } if !matches!(op, BinOp::Div) => {
                    Some(Expr::Bin(*op, *a, *b))
                }
                HInsn::BinLit { op, a, lit, .. } if !matches!(op, BinOp::Div) => {
                    Some(Expr::BinLit(*op, *a, *lit))
                }
                _ => None,
            };
            if let (Some(expr), Some(dst)) = (expr, insn.writes()) {
                if let Some(&holder) = available.get(&expr) {
                    if holder != dst {
                        *insn = HInsn::Move { dst, src: holder };
                        changes += 1;
                    }
                    invalidate(&mut available, dst);
                    continue;
                }
                invalidate(&mut available, dst);
                let reads_dst = match expr {
                    Expr::Bin(_, a, b) => a == dst || b == dst,
                    Expr::BinLit(_, a, _) => a == dst,
                };
                if !reads_dst {
                    available.insert(expr, dst);
                }
            } else if let Some(dst) = insn.writes() {
                invalidate(&mut available, dst);
            }
        }
    }
    changes
}

fn invalidate(available: &mut HashMap<Expr, VReg>, reg: VReg) {
    available.retain(|expr, holder| {
        if *holder == reg {
            return false;
        }
        match expr {
            Expr::Bin(_, a, b) => *a != reg && *b != reg,
            Expr::BinLit(_, a, _) => *a != reg,
        }
    });
}
