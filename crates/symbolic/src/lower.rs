//! Lowering expressions to BDDs.
//!
//! Boolean expressions lower to a single BDD over current-state bits.
//! Integer expressions lower to a **value partition**: a finite map
//! `value → BDD` whose classes are pairwise disjoint and cover every
//! type-consistent state. This is a bounded-arithmetic bit-blaster
//! driven by the finite domains: a variable's partition enumerates its
//! field cubes, and every operator combines partitions with the *same
//! scalar arithmetic as the reference evaluator* — saturating `+ − ×
//! neg`, total Euclidean `÷`/`%` with `x/0 = x%0 = 0` — so the symbolic
//! backend cannot drift from the paper's pinned semantics no matter how
//! values overflow or saturate.
//!
//! The partition width is the number of *distinct values* an expression
//! takes, not the state count: `Σᵢ cᵢ` over 16 ternary counters has 33
//! classes (each a compact counting BDD), while the underlying space has
//! 3¹⁶ states. A safety valve ([`MAX_VALUES`]) rejects pathological
//! expressions so callers can fall back to the explicit engine instead
//! of thrashing.

use std::collections::BTreeMap;

use unity_core::expr::{BinOp, Expr, NAryOp};
use unity_core::value::Value;

use crate::bdd::{Bdd, Ref, FALSE, TRUE};
use crate::encode::SymSpace;
use crate::SymbolicError;

/// Maximum number of distinct values in one integer partition before
/// lowering gives up (callers fall back to the explicit engine).
pub const MAX_VALUES: usize = 4096;

/// An integer expression as a disjoint `value → condition` partition,
/// sorted by value.
#[derive(Debug, Clone)]
pub struct ValueMap(pub Vec<(i64, Ref)>);

impl ValueMap {
    fn from_btree(map: BTreeMap<i64, Ref>) -> Result<ValueMap, SymbolicError> {
        if map.len() > MAX_VALUES {
            return Err(SymbolicError::ValueExplosion { count: map.len() });
        }
        Ok(ValueMap(
            map.into_iter().filter(|&(_, c)| c != FALSE).collect(),
        ))
    }
}

/// A lowered expression: a predicate BDD or an integer partition.
#[derive(Debug, Clone)]
pub enum Lowered {
    /// Boolean expression (predicate on states).
    Bool(Ref),
    /// Integer expression (value partition).
    Int(ValueMap),
}

impl Lowered {
    /// The predicate BDD; error if the expression was integer-typed.
    pub fn into_pred(self) -> Result<Ref, SymbolicError> {
        match self {
            Lowered::Bool(r) => Ok(r),
            Lowered::Int(_) => Err(SymbolicError::NotAPredicate),
        }
    }

    /// A value partition view of either type: booleans become
    /// `{0 → ¬b, 1 → b}` — the same 0/1 convention the compiled
    /// bytecode uses (so `unchanged` on boolean expressions agrees).
    pub fn into_values(self, bdd: &mut Bdd) -> ValueMap {
        match self {
            Lowered::Int(m) => m,
            Lowered::Bool(b) => {
                let nb = bdd.not(b);
                let mut out = Vec::new();
                if nb != FALSE {
                    out.push((0, nb));
                }
                if b != FALSE {
                    out.push((1, b));
                }
                ValueMap(out)
            }
        }
    }
}

/// Lowers a boolean predicate to a BDD over current-state bits.
pub fn lower_pred(bdd: &mut Bdd, space: &SymSpace, e: &Expr) -> Result<Ref, SymbolicError> {
    lower(bdd, space, e)?.into_pred()
}

/// Lowers any expression.
pub fn lower(bdd: &mut Bdd, space: &SymSpace, e: &Expr) -> Result<Lowered, SymbolicError> {
    Ok(match e {
        Expr::Lit(Value::Bool(b)) => Lowered::Bool(if *b { TRUE } else { FALSE }),
        Expr::Lit(Value::Int(n)) => Lowered::Int(ValueMap(vec![(*n, TRUE)])),
        Expr::Var(id) => {
            let v = id.index();
            let layout = space.layout();
            if space.is_bool(v) {
                // A boolean variable's single bit *is* the predicate.
                Lowered::Bool(bdd.var(crate::encode::cur(layout.field_shift(v))))
            } else {
                // Check the width before enumerating: a wide domain
                // would otherwise allocate or loop over every value.
                let size = layout.domain_size(v);
                if size > MAX_VALUES as u64 {
                    return Err(SymbolicError::ValueExplosion {
                        count: usize::try_from(size).unwrap_or(usize::MAX),
                    });
                }
                let mut classes = Vec::with_capacity(size as usize);
                for k in 0..size {
                    let cube = space.field_cube(bdd, v, k, false);
                    classes.push((layout.field_base(v) + k as i64, cube));
                }
                Lowered::Int(ValueMap(classes))
            }
        }
        Expr::Not(a) => {
            let a = lower_pred(bdd, space, a)?;
            Lowered::Bool(bdd.not(a))
        }
        Expr::Neg(a) => {
            let a = lower_int(bdd, space, a)?;
            let mut out = BTreeMap::new();
            for (v, c) in a.0 {
                merge(bdd, &mut out, v.saturating_neg(), c);
            }
            Lowered::Int(ValueMap::from_btree(out)?)
        }
        Expr::Bin(op, a, b) => lower_bin(bdd, space, *op, a, b)?,
        Expr::Ite(c, t, f) => {
            let c = lower_pred(bdd, space, c)?;
            let t = lower(bdd, space, t)?;
            let f = lower(bdd, space, f)?;
            match (t, f) {
                (Lowered::Bool(t), Lowered::Bool(f)) => Lowered::Bool(bdd.ite(c, t, f)),
                (t, f) => {
                    let (t, f) = (t.into_values(bdd), f.into_values(bdd));
                    let nc = bdd.not(c);
                    let mut out = BTreeMap::new();
                    for (v, cond) in t.0 {
                        let g = bdd.and(c, cond);
                        merge(bdd, &mut out, v, g);
                    }
                    for (v, cond) in f.0 {
                        let g = bdd.and(nc, cond);
                        merge(bdd, &mut out, v, g);
                    }
                    Lowered::Int(ValueMap::from_btree(out)?)
                }
            }
        }
        Expr::NAry(op, args) => match op {
            NAryOp::And => {
                let mut acc = TRUE;
                for a in args {
                    let p = lower_pred(bdd, space, a)?;
                    acc = bdd.and(acc, p);
                }
                Lowered::Bool(acc)
            }
            NAryOp::Or => {
                let mut acc = FALSE;
                for a in args {
                    let p = lower_pred(bdd, space, a)?;
                    acc = bdd.or(acc, p);
                }
                Lowered::Bool(acc)
            }
            NAryOp::Sum | NAryOp::Min | NAryOp::Max => {
                let mut acc = match args.split_first() {
                    None => ValueMap(vec![(0, TRUE)]),
                    Some((first, _)) => lower_int(bdd, space, first)?,
                };
                for a in &args[1.min(args.len())..] {
                    let b = lower_int(bdd, space, a)?;
                    let f = match op {
                        NAryOp::Sum => |x: i64, y: i64| x.saturating_add(y),
                        NAryOp::Min => |x: i64, y: i64| x.min(y),
                        _ => |x: i64, y: i64| x.max(y),
                    };
                    acc = combine_int(bdd, &acc, &b, f)?;
                }
                Lowered::Int(acc)
            }
        },
    })
}

fn lower_int(bdd: &mut Bdd, space: &SymSpace, e: &Expr) -> Result<ValueMap, SymbolicError> {
    match lower(bdd, space, e)? {
        Lowered::Int(m) => Ok(m),
        Lowered::Bool(_) => Err(SymbolicError::NotAPredicate),
    }
}

fn merge(bdd: &mut Bdd, out: &mut BTreeMap<i64, Ref>, v: i64, c: Ref) {
    if c == FALSE {
        return;
    }
    let slot = out.entry(v).or_insert(FALSE);
    *slot = bdd.or(*slot, c);
}

/// Pairwise combination of two partitions through a scalar function —
/// the single place all symbolic arithmetic funnels through.
fn combine_int(
    bdd: &mut Bdd,
    a: &ValueMap,
    b: &ValueMap,
    f: impl Fn(i64, i64) -> i64,
) -> Result<ValueMap, SymbolicError> {
    let mut out = BTreeMap::new();
    for &(va, ca) in &a.0 {
        for &(vb, cb) in &b.0 {
            let c = bdd.and(ca, cb);
            merge(bdd, &mut out, f(va, vb), c);
        }
    }
    ValueMap::from_btree(out)
}

/// Pairwise comparison of two partitions through a scalar predicate.
fn compare_int(bdd: &mut Bdd, a: &ValueMap, b: &ValueMap, f: impl Fn(i64, i64) -> bool) -> Ref {
    let mut acc = FALSE;
    for &(va, ca) in &a.0 {
        for &(vb, cb) in &b.0 {
            if f(va, vb) {
                let c = bdd.and(ca, cb);
                acc = bdd.or(acc, c);
            }
        }
    }
    acc
}

fn lower_bin(
    bdd: &mut Bdd,
    space: &SymSpace,
    op: BinOp,
    a: &Expr,
    b: &Expr,
) -> Result<Lowered, SymbolicError> {
    use unity_core::expr::eval::{euclid_div, euclid_rem};
    Ok(match op {
        BinOp::And => {
            let (a, b) = (lower_pred(bdd, space, a)?, lower_pred(bdd, space, b)?);
            Lowered::Bool(bdd.and(a, b))
        }
        BinOp::Or => {
            let (a, b) = (lower_pred(bdd, space, a)?, lower_pred(bdd, space, b)?);
            Lowered::Bool(bdd.or(a, b))
        }
        BinOp::Implies => {
            let (a, b) = (lower_pred(bdd, space, a)?, lower_pred(bdd, space, b)?);
            Lowered::Bool(bdd.implies(a, b))
        }
        BinOp::Iff => {
            let (a, b) = (lower_pred(bdd, space, a)?, lower_pred(bdd, space, b)?);
            Lowered::Bool(bdd.iff(a, b))
        }
        BinOp::Eq | BinOp::Ne => {
            // Polymorphic: booleans compare as BDDs, integers pairwise.
            let la = lower(bdd, space, a)?;
            let lb = lower(bdd, space, b)?;
            let eq = match (la, lb) {
                (Lowered::Bool(x), Lowered::Bool(y)) => bdd.iff(x, y),
                (x, y) => {
                    let (x, y) = (x.into_values(bdd), y.into_values(bdd));
                    compare_int(bdd, &x, &y, |p, q| p == q)
                }
            };
            Lowered::Bool(if matches!(op, BinOp::Eq) {
                eq
            } else {
                bdd.not(eq)
            })
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let (x, y) = (lower_int(bdd, space, a)?, lower_int(bdd, space, b)?);
            let f: fn(i64, i64) -> bool = match op {
                BinOp::Lt => |p, q| p < q,
                BinOp::Le => |p, q| p <= q,
                BinOp::Gt => |p, q| p > q,
                _ => |p, q| p >= q,
            };
            Lowered::Bool(compare_int(bdd, &x, &y, f))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let (x, y) = (lower_int(bdd, space, a)?, lower_int(bdd, space, b)?);
            let f: fn(i64, i64) -> i64 = match op {
                BinOp::Add => |p, q| p.saturating_add(q),
                BinOp::Sub => |p, q| p.saturating_sub(q),
                BinOp::Mul => |p, q| p.saturating_mul(q),
                BinOp::Div => euclid_div,
                _ => euclid_rem,
            };
            Lowered::Int(combine_int(bdd, &x, &y, f)?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unity_core::domain::Domain;
    use unity_core::expr::build::*;
    use unity_core::expr::eval::{eval, eval_bool};
    use unity_core::ident::Vocabulary;
    use unity_core::state::StateSpaceIter;

    fn vocab() -> Vocabulary {
        let mut v = Vocabulary::new();
        v.declare("b", Domain::Bool).unwrap();
        v.declare("n", Domain::int_range(-3, 4).unwrap()).unwrap();
        v.declare("m", Domain::int_range(0, 6).unwrap()).unwrap();
        v
    }

    /// Lowered predicate must agree with the reference evaluator on
    /// every type-consistent state.
    fn assert_pred_agrees(e: &Expr, v: &Vocabulary) {
        let space = SymSpace::new(v).unwrap();
        let mut bdd = Bdd::new();
        let p = lower_pred(&mut bdd, &space, e).unwrap();
        for s in StateSpaceIter::new(v) {
            let word = space.layout().pack(&s);
            let got = bdd.eval(p, |level| {
                assert_eq!(level % 2, 0, "predicates mention only current bits");
                word >> (level / 2) & 1 == 1
            });
            assert_eq!(got, eval_bool(e, &s), "state {}", s.display(v));
        }
    }

    /// Lowered integer partition must classify every state under the
    /// reference value.
    fn assert_int_agrees(e: &Expr, v: &Vocabulary) {
        let space = SymSpace::new(v).unwrap();
        let mut bdd = Bdd::new();
        let lowered = lower(&mut bdd, &space, e).unwrap();
        let m = lowered.into_values(&mut bdd);
        for s in StateSpaceIter::new(v) {
            let word = space.layout().pack(&s);
            let expect = match eval(e, &s) {
                Value::Int(n) => n,
                Value::Bool(b) => i64::from(b),
            };
            let mut hits = 0;
            for &(val, cond) in &m.0 {
                if bdd.eval(cond, |level| word >> (level / 2) & 1 == 1) {
                    assert_eq!(val, expect, "state {}", s.display(v));
                    hits += 1;
                }
            }
            assert_eq!(hits, 1, "partition covers each state exactly once");
        }
    }

    #[test]
    fn predicates_agree_with_eval() {
        let v = vocab();
        let b = v.lookup("b").unwrap();
        let n = v.lookup("n").unwrap();
        let m = v.lookup("m").unwrap();
        for e in [
            tt(),
            ff(),
            var(b),
            not(var(b)),
            lt(var(n), int(2)),
            le(add(var(n), var(m)), int(3)),
            and2(var(b), ge(var(m), int(4))),
            or2(not(var(b)), eq(var(n), var(m))),
            implies(var(b), ne(var(n), int(-3))),
            iff(var(b), gt(var(m), int(2))),
            ite(var(b), lt(var(n), int(0)), ge(var(n), int(0))),
            eq(rem(var(m), int(2)), int(0)),
            and(vec![var(b), le(var(n), int(4)), ge(var(m), int(0))]),
            or(vec![]),
        ] {
            assert_pred_agrees(&e, &v);
        }
    }

    #[test]
    fn arithmetic_agrees_with_eval() {
        let v = vocab();
        let n = v.lookup("n").unwrap();
        let m = v.lookup("m").unwrap();
        for e in [
            add(var(n), var(m)),
            sub(var(n), mul(var(m), int(2))),
            neg(var(n)),
            div(var(m), var(n)), // hits the x/0 = 0 convention at n = 0
            rem(var(m), var(n)),
            sum(vec![var(n), var(m), int(1)]),
            min(vec![var(n), var(m)]),
            max(vec![var(n), var(m), int(0)]),
            ite(lt(var(n), int(0)), neg(var(n)), var(n)),
        ] {
            assert_int_agrees(&e, &v);
        }
    }

    #[test]
    fn saturating_semantics_preserved() {
        let v = vocab();
        let n = v.lookup("n").unwrap();
        // i64::MAX + n saturates for positive n; the partition must carry
        // the saturated value, exactly like the evaluator.
        for e in [
            add(int(i64::MAX), var(n)),
            sub(int(i64::MIN), var(n)),
            mul(int(i64::MAX), var(n)),
        ] {
            assert_int_agrees(&e, &v);
        }
    }

    #[test]
    fn booleans_unify_with_the_01_convention() {
        let v = vocab();
        let b = v.lookup("b").unwrap();
        // `unchanged`-style lowering of a boolean expression.
        assert_int_agrees(&var(b), &v);
        assert_int_agrees(&ite(var(b), int(7), int(0)), &v);
    }

    #[test]
    fn wide_integer_domains_are_rejected_before_enumeration() {
        // Domains past MAX_VALUES fail fast (the 63-bit one used to
        // abort with a capacity overflow); MAX_VALUES itself lowers.
        for (hi, lowers) in [
            (MAX_VALUES as i64 - 1, true),
            (MAX_VALUES as i64, false),
            (1 << 32, false),
            (i64::MAX, false),
        ] {
            let mut v = Vocabulary::new();
            let x = v.declare("x", Domain::int_range(0, hi).unwrap()).unwrap();
            let space = SymSpace::new(&v).unwrap();
            let mut bdd = Bdd::new();
            let got = lower_pred(&mut bdd, &space, &le(var(x), int(3)));
            if lowers {
                assert!(got.is_ok(), "0..={hi}");
            } else {
                let count = usize::try_from(hi as u64 + 1).unwrap();
                assert_eq!(
                    got,
                    Err(SymbolicError::ValueExplosion { count }),
                    "0..={hi}"
                );
            }
        }
    }
}
