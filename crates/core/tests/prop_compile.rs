//! Differential property tests for the compilation layer: on random
//! well-typed expressions over a mixed bool/int vocabulary, the bytecode
//! evaluator (packed-word and state-slice forms) must agree with the
//! tree-walking reference `eval` on **every** state, and compiled
//! command steps must agree with `Command::step`.
//!
//! The literal-conjunction generators drive the packed evaluator's mask
//! path: conjunctions of `b`, `!b`, `x == c`, `c == x` and `b <=> c`
//! tests mixed with arbitrary conjuncts, constants inside and outside
//! the domain (a `0..1` field and a singleton one included), repeated
//! and conflicting pins, and commands whose updates are constants
//! inside or outside their domains.

use std::sync::Arc;

use proptest::prelude::*;
use unity_core::command::Command;
use unity_core::domain::Domain;
use unity_core::expr::build::*;
use unity_core::expr::compile::{CompiledCommand, CompiledExpr, PackedLayout, Scratch};
use unity_core::expr::eval::eval;
use unity_core::expr::Expr;
use unity_core::ident::{VarId, Vocabulary};
use unity_core::state::StateSpaceIter;
use unity_core::value::Value;

/// Test vocabulary: x:int 0..4, y:int -3..3, p:bool, q:bool,
/// z:int 0..1, k:int 5..5 (a singleton domain: a 0-bit field).
fn vocab() -> Arc<Vocabulary> {
    let mut v = Vocabulary::new();
    v.declare("x", Domain::int_range(0, 4).unwrap()).unwrap();
    v.declare("y", Domain::int_range(-3, 3).unwrap()).unwrap();
    v.declare("p", Domain::Bool).unwrap();
    v.declare("q", Domain::Bool).unwrap();
    v.declare("z", Domain::int_range(0, 1).unwrap()).unwrap();
    v.declare("k", Domain::int_range(5, 5).unwrap()).unwrap();
    Arc::new(v)
}

const X: VarId = VarId(0);
const Y: VarId = VarId(1);
const P: VarId = VarId(2);
const Q: VarId = VarId(3);
const Z: VarId = VarId(4);
const K: VarId = VarId(5);

fn arb_int_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![(-4i64..=7).prop_map(int), Just(var(X)), Just(var(Y)),];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| sub(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| mul(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| div(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| rem(a, b)),
            inner.clone().prop_map(neg),
            prop::collection::vec(inner.clone(), 1..3).prop_map(sum),
            prop::collection::vec(inner.clone(), 1..3).prop_map(min),
            prop::collection::vec(inner.clone(), 1..3).prop_map(max),
            (arb_bool_leaf(), inner.clone(), inner).prop_map(|(c, t, e)| ite(c, t, e)),
        ]
    })
}

fn arb_bool_leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![Just(tt()), Just(ff()), Just(var(P)), Just(var(Q))]
}

fn arb_bool_expr() -> impl Strategy<Value = Expr> {
    let leaf = arb_bool_leaf();
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| and2(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| or2(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| implies(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| iff(a, b)),
            (arb_int_expr(), arb_int_expr()).prop_map(|(a, b)| eq(a, b)),
            (arb_int_expr(), arb_int_expr()).prop_map(|(a, b)| ne(a, b)),
            (arb_int_expr(), arb_int_expr()).prop_map(|(a, b)| lt(a, b)),
            (arb_int_expr(), arb_int_expr()).prop_map(|(a, b)| le(a, b)),
            (arb_bool_leaf(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| ite(c, t, e)),
            prop::collection::vec(inner.clone(), 0..3).prop_map(and),
            prop::collection::vec(inner, 0..3).prop_map(or),
        ]
    })
}

/// One literal test, its constant sometimes outside the domain, and
/// sometimes with a domain index wider than its field (which must not
/// spill into the next field's pin).
fn arb_literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(var(P)),
        Just(var(Q)),
        Just(not(var(P))),
        Just(not(var(Q))),
        (-2i64..=12).prop_map(|c| eq(var(X), int(c))),
        (-5i64..=5).prop_map(|c| eq(int(c), var(Y))),
        (-1i64..=3).prop_map(|c| eq(var(Z), int(c))),
        (4i64..=6).prop_map(|c| eq(int(c), var(K))),
        any::<bool>().prop_map(|c| iff(var(P), boolean(c))),
        any::<bool>().prop_map(|c| iff(boolean(c), var(Q))),
        any::<bool>().prop_map(|c| eq(var(Q), boolean(c))),
    ]
}

/// A conjunction of literal tests and arbitrary conjuncts, as one n-ary
/// `&&` or a left-nested chain of binary ones. Few variables, so pins
/// of one field repeat and conflict often.
fn arb_mask_conjunction() -> impl Strategy<Value = Expr> {
    let conjunct = prop_oneof![arb_literal(), arb_literal(), arb_literal(), arb_bool_expr()];
    (prop::collection::vec(conjunct, 1..5), any::<bool>()).prop_map(|(parts, nary)| {
        if nary {
            and(parts)
        } else {
            let mut it = parts.into_iter();
            let first = it.next().expect("at least one conjunct");
            it.fold(first, and2)
        }
    })
}

/// Updates of distinct variables: constants inside and outside their
/// domains, or (sometimes) a computed right-hand side.
fn arb_updates() -> impl Strategy<Value = Vec<(VarId, Expr)>> {
    let x = prop_oneof![
        (-1i64..=6).prop_map(int),
        (-1i64..=6).prop_map(int),
        Just(add(var(X), int(1))),
    ];
    let p = prop_oneof![Just(tt()), Just(ff()), Just(not(var(P)))];
    let z = (-1i64..=2).prop_map(int);
    let k = (4i64..=6).prop_map(int);
    (
        (any::<bool>(), x),
        (any::<bool>(), p),
        (any::<bool>(), z),
        (any::<bool>(), k),
    )
        .prop_map(|(x, p, z, k)| {
            [(X, x), (P, p), (Z, z), (K, k)]
                .into_iter()
                .filter_map(|(v, (keep, e))| keep.then_some((v, e)))
                .collect()
        })
}

fn as_i64(v: Value) -> i64 {
    match v {
        Value::Bool(b) => i64::from(b),
        Value::Int(n) => n,
    }
}

/// `compiled_eval(e, s) == eval(e, s)` over the full state space, for
/// both the packed-word and the state-slice interpreters.
fn assert_differential(e: &Expr, vocab: &Vocabulary) {
    let layout = PackedLayout::new(vocab).expect("test vocabulary packs");
    let prog = CompiledExpr::compile(e, &layout).expect("test expressions compile");
    let mut scratch = Scratch::new();
    for s in StateSpaceIter::new(vocab) {
        let reference = as_i64(eval(e, &s));
        let word = layout.pack(&s);
        assert_eq!(
            prog.eval_packed(word, &mut scratch),
            reference,
            "packed: {e:?}"
        );
        assert_eq!(prog.eval_state(&s, &mut scratch), reference, "state: {e:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compiled_int_exprs_agree_with_eval(e in arb_int_expr()) {
        let v = vocab();
        prop_assert!(e.infer_type(&v).is_ok());
        assert_differential(&e, &v);
    }

    #[test]
    fn compiled_bool_exprs_agree_with_eval(e in arb_bool_expr()) {
        let v = vocab();
        prop_assert!(e.infer_type(&v).is_ok());
        assert_differential(&e, &v);
    }

    /// Compiled command steps agree with the reference `step` (guard,
    /// simultaneous assignment, implicit domain guard) on every state.
    #[test]
    fn compiled_commands_agree_with_step(
        guard in arb_bool_expr(),
        ex in arb_int_expr(),
        eb in arb_bool_expr(),
    ) {
        let v = vocab();
        let cmd = Command::new("c", guard, vec![(X, ex), (P, eb)], &v).unwrap();
        let layout = PackedLayout::new(&v).unwrap();
        let cc = CompiledCommand::compile(&cmd, &layout).unwrap();
        let mut scratch = Scratch::new();
        for s in StateSpaceIter::new(&v) {
            let reference = cmd.step(&s, &v);
            let got = cc.step_packed(layout.pack(&s), &layout, &mut scratch);
            prop_assert_eq!(layout.unpack(got, &v), reference, "state {}", s.display(&v));
        }
    }

    /// Literal conjunctions, decided by the mask test alone or
    /// pre-filtered by it, agree with `eval` on every state.
    #[test]
    fn mask_tested_conjunctions_agree_with_eval(e in arb_mask_conjunction()) {
        let v = vocab();
        prop_assert!(e.infer_type(&v).is_ok());
        assert_differential(&e, &v);
    }

    /// Commands with literal-conjunction guards and constant (or mixed)
    /// updates agree with `Command::step` on every state, in both the
    /// plain and the flat-index stepping forms.
    #[test]
    fn constant_update_commands_agree_with_step(
        guard in arb_mask_conjunction(),
        updates in arb_updates(),
    ) {
        let v = vocab();
        let cmd = Command::new("c", guard, updates, &v).unwrap();
        let layout = PackedLayout::new(&v).unwrap();
        let cc = CompiledCommand::compile(&cmd, &layout).unwrap();
        let mut scratch = Scratch::new();
        for (flat, s) in StateSpaceIter::new(&v).enumerate() {
            let reference = cmd.step(&s, &v);
            let w = layout.pack(&s);
            let got = cc.step_packed(w, &layout, &mut scratch);
            prop_assert_eq!(layout.unpack(got, &v), reference, "state {}", s.display(&v));
            let (w2, flat2) = cc.step_packed_flat(w, flat as u64, &layout, &mut scratch);
            prop_assert_eq!(w2, got);
            prop_assert_eq!(flat2, layout.flat_of_word(w2));
        }
    }

    /// The incremental flat-index stepping agrees with full re-encoding.
    #[test]
    fn incremental_flat_agrees_with_reencoding(
        guard in arb_bool_expr(),
        ex in arb_int_expr(),
    ) {
        let v = vocab();
        let cmd = Command::new("c", guard, vec![(Y, ex)], &v).unwrap();
        let layout = PackedLayout::new(&v).unwrap();
        let cc = CompiledCommand::compile(&cmd, &layout).unwrap();
        let mut scratch = Scratch::new();
        for (flat, s) in StateSpaceIter::new(&v).enumerate() {
            let w = layout.pack(&s);
            prop_assert_eq!(layout.flat_of_word(w), flat as u64);
            let (w2, flat2) = cc.step_packed_flat(w, flat as u64, &layout, &mut scratch);
            prop_assert_eq!(flat2, layout.flat_of_word(w2));
        }
    }
}
