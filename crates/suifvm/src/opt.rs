//! Scalar optimizations on SSA-form VM IR.
//!
//! ROCCC's "conventional optimizations" (§2) at the circuit level: constant
//! folding/propagation, copy propagation, global value numbering (common
//! sub-expression elimination), dead-code elimination, and strength
//! reduction (multiplications and divisions by powers of two become shifts
//! — essential on FPGAs where a shift by a constant is free wiring).

use crate::dataflow::use_marks;
use crate::dom::DomInfo;
use crate::ir::*;
use roccc_cparse::ops;
use roccc_cparse::types::IntType;
use std::collections::HashMap;

/// Runs all passes to a fixed point.
///
/// ```
/// # use roccc_cparse::parser::parse;
/// # use roccc_suifvm::{lower::lower_function, ssa::to_ssa, opt::optimize};
/// let prog = parse("void f(int a, int* o) { *o = a * 8 + (2 + 2); }").unwrap();
/// let f = prog.function("f").unwrap();
/// let mut ir = lower_function(&prog, f, &[]).unwrap();
/// to_ssa(&mut ir);
/// optimize(&mut ir);
/// // `a * 8` became `a << 3`, `2 + 2` became `4`.
/// let ops: Vec<_> = ir.blocks.iter().flat_map(|b| &b.instrs).map(|i| i.op).collect();
/// assert!(ops.contains(&roccc_suifvm::ir::Opcode::Shl));
/// assert!(!ops.contains(&roccc_suifvm::ir::Opcode::Mul));
/// ```
pub fn optimize(f: &mut FunctionIr) {
    assert!(f.is_ssa, "optimize requires SSA form");
    loop {
        let mut changed = false;
        changed |= constant_fold(f);
        changed |= copy_propagate(f);
        changed |= strength_reduce(f);
        changed |= value_number(f);
        changed |= eliminate_dead(f);
        if !changed {
            break;
        }
    }
}

/// Dense per-register table: `constants(f)[r.0]` is the constant `r`
/// holds when its definition is an `LDC`, else `None`. Registers are
/// dense `u32` ids, so a flat vec beats hashing on every probe.
fn constants(f: &FunctionIr) -> Vec<Option<i64>> {
    let mut m = vec![None; f.vreg_types.len()];
    for b in &f.blocks {
        for i in &b.instrs {
            if i.op == Opcode::Ldc {
                if let Some(d) = i.dst {
                    m[d.0 as usize] = Some(i.imm);
                }
            }
        }
    }
    m
}

/// A dense register-to-register substitution: `map[r.0]` is the
/// replacement for `r`, or `None` to leave it alone.
type RegMap = Vec<Option<VReg>>;

/// Rewrites every use of the keys in `map` to the mapped register.
fn replace_uses(f: &mut FunctionIr, map: &RegMap) {
    if map.iter().all(Option::is_none) {
        return;
    }
    let resolve = |mut r: VReg| -> VReg {
        let mut guard = 0;
        while let Some(n) = map.get(r.0 as usize).copied().flatten() {
            r = n;
            guard += 1;
            if guard > map.len() {
                break;
            }
        }
        r
    };
    for b in &mut f.blocks {
        for p in &mut b.phis {
            for (_, a) in &mut p.args {
                *a = resolve(*a);
            }
        }
        for i in &mut b.instrs {
            for s in &mut i.srcs {
                *s = resolve(*s);
            }
        }
        if let Terminator::Branch { cond, .. } = &mut b.term {
            *cond = resolve(*cond);
        }
    }
    for r in &mut f.output_srcs {
        *r = resolve(*r);
    }
}

/// Folds instructions whose operands are all constants, and applies
/// algebraic identities. Returns true when anything changed.
pub fn constant_fold(f: &mut FunctionIr) -> bool {
    let consts = constants(f);
    let mut changed = false;
    let mut copies: RegMap = vec![None; f.vreg_types.len()];

    for bi in 0..f.blocks.len() {
        for ii in 0..f.blocks[bi].instrs.len() {
            let i = f.blocks[bi].instrs[ii];
            let Some(dst) = i.dst else { continue };
            let c = |k: usize| i.srcs.get(k).and_then(|r| consts[r.0 as usize]);

            // Full constant evaluation.
            let folded: Option<i64> = match i.op {
                Opcode::Cvt => c(0).map(|a| i.ty.wrap(a)),
                Opcode::Mux => c(0).and_then(|sel| c(if sel != 0 { 1 } else { 2 })),
                Opcode::Lut => c(0).and_then(|idx| {
                    let t = &f.luts[i.imm as usize];
                    ops::lut(&t.data, idx).ok().map(|v| t.elem.wrap(v))
                }),
                Opcode::Mov => None,
                // A faulting operation stays in place for the executor.
                op => (0..i.srcs.len())
                    .try_fold([0i64; 3], |mut s, k| {
                        s[k] = c(k)?;
                        Some(s)
                    })
                    .and_then(|s| op.eval(&s))
                    .and_then(Result::ok),
            };
            if let Some(v) = folded {
                f.blocks[bi].instrs[ii] = Instr::new(Opcode::Ldc, dst, vec![], v, i.ty);
                changed = true;
                continue;
            }

            // Algebraic identities producing a copy.
            let identity: Option<VReg> = match i.op {
                Opcode::Add => match (c(0), c(1)) {
                    (_, Some(0)) => Some(i.srcs[0]),
                    (Some(0), _) => Some(i.srcs[1]),
                    _ => None,
                },
                Opcode::Sub if c(1) == Some(0) => Some(i.srcs[0]),
                Opcode::Mul => match (c(0), c(1)) {
                    (_, Some(1)) => Some(i.srcs[0]),
                    (Some(1), _) => Some(i.srcs[1]),
                    _ => None,
                },
                Opcode::Div if c(1) == Some(1) => Some(i.srcs[0]),
                Opcode::Shl | Opcode::Shr if c(1) == Some(0) => Some(i.srcs[0]),
                Opcode::Or | Opcode::Xor => match (c(0), c(1)) {
                    (_, Some(0)) => Some(i.srcs[0]),
                    (Some(0), _) => Some(i.srcs[1]),
                    _ => None,
                },
                Opcode::Mux => match c(0) {
                    Some(v) if v != 0 => Some(i.srcs[1]),
                    Some(_) => Some(i.srcs[2]),
                    None if i.srcs[1] == i.srcs[2] => Some(i.srcs[1]),
                    None => None,
                },
                _ => None,
            };
            if let Some(src) = identity {
                // The identity is only a pure copy when no wrap can occur;
                // the lowering discipline guarantees result widths hold the
                // value, so substitute when the source type fits.
                let st = f.ty(src);
                if fits_in(st, i.ty) {
                    copies[dst.0 as usize] = Some(src);
                    f.blocks[bi].instrs[ii] = Instr::new(Opcode::Mov, dst, vec![src], 0, st);
                    changed = true;
                    continue;
                }
            }

            // `x * 0` and `x & 0` produce zero regardless of x.
            let zero = match i.op {
                Opcode::Mul | Opcode::And => c(0) == Some(0) || c(1) == Some(0),
                _ => false,
            };
            if zero {
                f.blocks[bi].instrs[ii] = Instr::new(Opcode::Ldc, dst, vec![], 0, i.ty);
                changed = true;
            }
        }
    }
    replace_uses(f, &copies);
    changed
}

/// Whether a value of type `small` is always representable in `big`.
fn fits_in(small: IntType, big: IntType) -> bool {
    if small.signed == big.signed {
        big.bits >= small.bits
    } else if big.signed {
        // unsigned small into signed big needs one extra bit.
        big.bits > small.bits
    } else {
        // signed into unsigned never guaranteed.
        false
    }
}

/// Eliminates `MOV`s and value-preserving `CVT`s by forwarding their source.
pub fn copy_propagate(f: &mut FunctionIr) -> bool {
    let mut map: RegMap = vec![None; f.vreg_types.len()];
    let mut any = false;
    for b in &f.blocks {
        for i in &b.instrs {
            let Some(dst) = i.dst else { continue };
            match i.op {
                Opcode::Mov => {
                    map[dst.0 as usize] = Some(i.srcs[0]);
                    any = true;
                }
                Opcode::Cvt => {
                    let st = f.ty(i.srcs[0]);
                    if fits_in(st, i.ty) {
                        map[dst.0 as usize] = Some(i.srcs[0]);
                        any = true;
                    }
                }
                _ => {}
            }
        }
    }
    if !any {
        return false;
    }
    replace_uses(f, &map);
    // The movs themselves become dead and are removed by DCE.
    true
}

/// Strength reduction: `x * 2^k → x << k`, unsigned `x / 2^k → x >> k`,
/// unsigned `x % 2^k → x & (2^k − 1)`.
pub fn strength_reduce(f: &mut FunctionIr) -> bool {
    let consts = constants(f);
    let mut changed = false;
    let mut pending_ldc: Vec<(usize, usize, i64, VReg)> = Vec::new();

    for bi in 0..f.blocks.len() {
        for ii in 0..f.blocks[bi].instrs.len() {
            let i = f.blocks[bi].instrs[ii];
            let Some(dst) = i.dst else { continue };
            match i.op {
                Opcode::Mul => {
                    let (var, k) =
                        match (consts[i.srcs[0].0 as usize], consts[i.srcs[1].0 as usize]) {
                            (None, Some(c)) if c > 1 && c.count_ones() == 1 => {
                                (i.srcs[0], c.trailing_zeros() as i64)
                            }
                            (Some(c), None) if c > 1 && c.count_ones() == 1 => {
                                (i.srcs[1], c.trailing_zeros() as i64)
                            }
                            _ => continue,
                        };
                    let amt = f.new_vreg(IntType::unsigned(7));
                    pending_ldc.push((bi, ii, k, amt));
                    f.blocks[bi].instrs[ii] = Instr::new(Opcode::Shl, dst, vec![var, amt], 0, i.ty);
                    changed = true;
                }
                Opcode::Div => {
                    let lt = f.ty(i.srcs[0]);
                    if lt.signed {
                        continue; // C division truncates toward zero, not −∞.
                    }
                    if let Some(c) = consts[i.srcs[1].0 as usize] {
                        if c > 1 && c.count_ones() == 1 {
                            let amt = f.new_vreg(IntType::unsigned(7));
                            pending_ldc.push((bi, ii, c.trailing_zeros() as i64, amt));
                            f.blocks[bi].instrs[ii] =
                                Instr::new(Opcode::Shr, dst, vec![i.srcs[0], amt], 0, i.ty);
                            changed = true;
                        }
                    }
                }
                Opcode::Rem => {
                    let lt = f.ty(i.srcs[0]);
                    if lt.signed {
                        continue;
                    }
                    if let Some(c) = consts[i.srcs[1].0 as usize] {
                        if c > 1 && c.count_ones() == 1 {
                            let mask = f.new_vreg(IntType::unsigned(63.min(lt.bits)));
                            pending_ldc.push((bi, ii, c - 1, mask));
                            f.blocks[bi].instrs[ii] =
                                Instr::new(Opcode::And, dst, vec![i.srcs[0], mask], 0, i.ty);
                            changed = true;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    // Insert the new LDC instructions before their users (later indices
    // first so positions stay valid).
    pending_ldc.sort_by_key(|&(bi, ii, _, _)| std::cmp::Reverse((bi, ii)));
    for (bi, ii, val, reg) in pending_ldc {
        let ty = f.ty(reg);
        f.blocks[bi]
            .instrs
            .insert(ii, Instr::new(Opcode::Ldc, reg, vec![], val, ty));
    }
    changed
}

/// Global value numbering over the dominator tree: identical pure
/// instructions whose definition dominates the redundant one are merged.
pub fn value_number(f: &mut FunctionIr) -> bool {
    let dom = DomInfo::compute(f);
    let children = dom.dom_tree_children();
    let mut map: RegMap = vec![None; f.vreg_types.len()];
    let mut table: HashMap<(Opcode, Srcs, i64), VReg> = HashMap::new();
    let mut changed = false;

    fn walk(
        b: BlockId,
        f: &mut FunctionIr,
        children: &[Vec<BlockId>],
        table: &mut HashMap<(Opcode, Srcs, i64), VReg>,
        map: &mut RegMap,
        changed: &mut bool,
    ) {
        let mut added: Vec<(Opcode, Srcs, i64)> = Vec::new();
        let ninstr = f.block(b).instrs.len();
        for ii in 0..ninstr {
            let mut i = f.block(b).instrs[ii];
            // Resolve operands through the replacement map first.
            for s in &mut i.srcs {
                while let Some(n) = map[s.0 as usize] {
                    *s = n;
                }
            }
            f.block_mut(b).instrs[ii].srcs = i.srcs;
            let Some(dst) = i.dst else { continue };
            // Impure or structural ops are not value-numbered.
            if matches!(i.op, Opcode::Arg | Opcode::Lpr | Opcode::Snx | Opcode::Mov) {
                continue;
            }
            let mut key_srcs = i.srcs;
            if i.op.is_commutative() {
                key_srcs.sort();
            }
            let key = (i.op, key_srcs, i.imm);
            match table.get(&key) {
                Some(&prev) if f.ty(prev) == i.ty => {
                    map[dst.0 as usize] = Some(prev);
                    // Neutralize: becomes a Mov, removed by DCE.
                    f.block_mut(b).instrs[ii] = Instr::new(Opcode::Mov, dst, vec![prev], 0, i.ty);
                    *changed = true;
                }
                _ => {
                    table.insert(key, dst);
                    added.push(key);
                }
            }
        }
        for &c in &children[b.0 as usize] {
            walk(c, f, children, table, map, changed);
        }
        for k in added {
            table.remove(&k);
        }
    }

    walk(f.entry(), f, &children, &mut table, &mut map, &mut changed);
    replace_uses(f, &map);
    changed
}

/// Removes instructions whose results are never used (keeping side effects
/// and outputs), iterating until stable.
pub fn eliminate_dead(f: &mut FunctionIr) -> bool {
    let mut changed_any = false;
    loop {
        let used = use_marks(f);
        let mut changed = false;
        for b in &mut f.blocks {
            let before = b.instrs.len() + b.phis.len();
            b.instrs.retain(|i| {
                i.op.has_side_effects()
                    || match i.dst {
                        Some(d) => used[d.0 as usize],
                        None => true,
                    }
            });
            b.phis.retain(|p| used[p.dst.0 as usize]);
            if b.instrs.len() + b.phis.len() != before {
                changed = true;
            }
        }
        if !changed {
            break;
        }
        changed_any = true;
    }
    changed_any
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::IrMachine;
    use crate::lower::lower_function;
    use crate::ssa::{to_ssa, verify_ssa};
    use roccc_cparse::parser::parse;

    fn build(src: &str, func: &str) -> FunctionIr {
        let prog = parse(src).unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let f = prog.function(func).unwrap();
        let mut ir = lower_function(&prog, f, &[]).unwrap();
        to_ssa(&mut ir);
        ir
    }

    /// Asserts optimized IR computes the same outputs as unoptimized.
    fn assert_preserves(src: &str, func: &str, arg_sets: &[Vec<i64>]) {
        let base = build(src, func);
        let mut opt = base.clone();
        optimize(&mut opt);
        verify_ssa(&opt).unwrap_or_else(|e| panic!("{e}\n{}", opt.dump()));
        for args in arg_sets {
            let r1 = IrMachine::new(&base).run(args).unwrap();
            let r2 = IrMachine::new(&opt).run(args).unwrap();
            assert_eq!(r1, r2, "args {args:?}\n{}", opt.dump());
        }
    }

    #[test]
    fn folds_constant_subexpressions() {
        let mut ir = build("void f(int a, int* o) { *o = a + (3 * 4 - 2); }", "f");
        optimize(&mut ir);
        // Exactly one LDC with value 10 should feed the add.
        let ldcs: Vec<i64> = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.op == Opcode::Ldc)
            .map(|i| i.imm)
            .collect();
        assert!(ldcs.contains(&10), "{}", ir.dump());
        assert_preserves(
            "void f(int a, int* o) { *o = a + (3 * 4 - 2); }",
            "f",
            &[vec![5], vec![-1]],
        );
    }

    #[test]
    fn cse_merges_duplicate_expressions() {
        let src = "void f(int a, int b, int* o) { *o = (a + b) * (a + b); }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let adds = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.op == Opcode::Add)
            .count();
        assert_eq!(adds, 1, "{}", ir.dump());
        assert_preserves(src, "f", &[vec![3, 4], vec![-5, 2]]);
    }

    #[test]
    fn cse_respects_commutativity() {
        let src = "void f(int a, int b, int* o) { *o = a * b + b * a; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let muls = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.op == Opcode::Mul)
            .count();
        assert_eq!(muls, 1, "{}", ir.dump());
        assert_preserves(src, "f", &[vec![3, 4]]);
    }

    #[test]
    fn strength_reduces_mul_by_power_of_two() {
        let src = "void f(int a, int* o) { *o = a * 16; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let ops: Vec<Opcode> = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .map(|i| i.op)
            .collect();
        assert!(ops.contains(&Opcode::Shl));
        assert!(!ops.contains(&Opcode::Mul));
        assert_preserves(src, "f", &[vec![7], vec![-3], vec![0]]);
    }

    #[test]
    fn strength_reduces_unsigned_div_and_rem() {
        let src = "void f(uint16 a, uint16* q, uint16* r) { *q = a / 8; *r = a % 8; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let ops: Vec<Opcode> = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .map(|i| i.op)
            .collect();
        assert!(!ops.contains(&Opcode::Div), "{}", ir.dump());
        assert!(!ops.contains(&Opcode::Rem), "{}", ir.dump());
        assert_preserves(src, "f", &[vec![12345], vec![7], vec![65535]]);
    }

    #[test]
    fn signed_div_is_not_shifted() {
        // -7 / 2 == -3 in C, but -7 >> 1 == -4.
        let src = "void f(int a, int* o) { *o = a / 2; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let ops: Vec<Opcode> = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .map(|i| i.op)
            .collect();
        assert!(ops.contains(&Opcode::Div));
        assert_preserves(src, "f", &[vec![-7], vec![7]]);
    }

    #[test]
    fn dce_removes_dead_code() {
        let src = "void f(int a, int* o) { int dead = a * 99; *o = a + 1; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let muls = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.op == Opcode::Mul || i.op == Opcode::Shl)
            .count();
        assert_eq!(muls, 0, "{}", ir.dump());
        assert_preserves(src, "f", &[vec![41]]);
    }

    #[test]
    fn snx_survives_dce() {
        let prog = parse(
            "void acc(int t0, int* t1) {
               int s; int c = ROCCC_load_prev(s) + t0;
               ROCCC_store2next(s, c);
               *t1 = c; }",
        )
        .unwrap();
        let f = prog.function("acc").unwrap();
        let fb = vec![roccc_hlir::kernel::FeedbackVar {
            name: "s".into(),
            ty: IntType::int(),
            init: 0,
        }];
        let mut ir = lower_function(&prog, f, &fb).unwrap();
        to_ssa(&mut ir);
        optimize(&mut ir);
        let has_snx = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| i.op == Opcode::Snx);
        assert!(has_snx);
        let mut m = IrMachine::new(&ir);
        assert_eq!(m.run(&[4]).unwrap(), vec![4]);
        assert_eq!(m.run(&[6]).unwrap(), vec![10]);
    }

    #[test]
    fn optimization_preserves_branches() {
        let src = "void if_else(int x1, int x2, int* x3, int* x4) {
           int a; int c;
           c = x1 - x2;
           if (c < x2) { a = x1 * x1; } else { a = x1 * x2 + 3; }
           c = c - a;
           *x3 = c; *x4 = a; }";
        assert_preserves(
            src,
            "if_else",
            &[vec![5, 3], vec![9, 2], vec![0, 0], vec![-4, -9]],
        );
    }

    #[test]
    fn mux_with_equal_arms_collapses() {
        let src = "void f(int a, int b, int* o) { *o = a > 0 ? b : b; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let ops: Vec<Opcode> = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .map(|i| i.op)
            .collect();
        assert!(!ops.contains(&Opcode::Mux), "{}", ir.dump());
        assert_preserves(src, "f", &[vec![1, 9], vec![-1, 9]]);
    }

    #[test]
    fn constant_lut_folds() {
        let src = "const uint8 t[4] = {9, 8, 7, 6};
          void f(int a, uint8* o) { *o = t[2] + a; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let has_lut = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| i.op == Opcode::Lut);
        assert!(!has_lut, "{}", ir.dump());
        assert_preserves(src, "f", &[vec![1]]);
    }
}
