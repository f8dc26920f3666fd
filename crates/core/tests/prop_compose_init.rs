//! Differential tests of the composed-`initially` consistency check.
//!
//! `compose` decides whether the conjunction of the components'
//! `initially` predicates is satisfiable group by group: conjuncts that
//! share a variable form one group, and each group's sub-product is
//! walked with the other variables fixed. The product walk over every
//! state of the shared vocabulary is the oracle here. The generated
//! inits nest `&&` both ways (binary and n-ary), include variable-free
//! conjuncts, share variables across components, and leave some
//! variables unmentioned.

use std::sync::Arc;

use proptest::prelude::*;
use unity_core::compose::{compose, InitSatCheck};
use unity_core::domain::Domain;
use unity_core::error::CoreError;
use unity_core::expr::build::*;
use unity_core::expr::eval::eval_bool;
use unity_core::expr::Expr;
use unity_core::ident::{VarId, Vocabulary};
use unity_core::program::Program;
use unity_core::state::StateSpaceIter;

const A: VarId = VarId(0);
const B: VarId = VarId(1);
const X: VarId = VarId(2);
const Y: VarId = VarId(3);
const Z: VarId = VarId(4);

/// a, b: bool; x: 0..3; y: 0..2; z: -1..1; w: 0..4 (no atom names w,
/// so it is always unmentioned). 2·2·4·3·3·5 = 720 states.
fn vocab() -> Arc<Vocabulary> {
    let mut v = Vocabulary::new();
    v.declare("a", Domain::Bool).unwrap();
    v.declare("b", Domain::Bool).unwrap();
    v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
    v.declare("y", Domain::int_range(0, 2).unwrap()).unwrap();
    v.declare("z", Domain::int_range(-1, 1).unwrap()).unwrap();
    v.declare("w", Domain::int_range(0, 4).unwrap()).unwrap();
    Arc::new(v)
}

fn arb_atom() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(var(A)),
        Just(not(var(B))),
        (0i64..=3).prop_map(|k| eq(var(X), int(k))),
        (0i64..=4).prop_map(|k| lt(var(X), int(k))),
        (0i64..=2).prop_map(|k| ne(var(Y), int(k))),
        (-1i64..=1).prop_map(|k| eq(var(Z), int(k))),
        (0i64..=6).prop_map(|k| eq(add(var(X), var(Y)), int(k))),
        (-1i64..=4).prop_map(|k| le(add(var(Y), var(Z)), int(k))),
        Just(iff(var(A), var(B))),
        Just(implies(var(B), eq(var(Z), int(1)))),
        // Variable-free conjuncts, both truth values.
        Just(tt()),
        Just(ff()),
        (0i64..=2).prop_map(|k| lt(int(k), int(1))),
    ]
}

/// A conjunct: an atom, a disjunction (kept whole by the grouping), or a
/// nested conjunction in either the binary or the n-ary form.
fn arb_init() -> impl Strategy<Value = Expr> {
    arb_atom().prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| and2(a, b)),
            prop::collection::vec(inner.clone(), 0..4).prop_map(and),
            (inner.clone(), inner).prop_map(|(a, b)| or2(a, b)),
        ]
    })
}

fn components(inits: &[Expr]) -> Vec<Program> {
    let v = vocab();
    inits
        .iter()
        .enumerate()
        .map(|(k, init)| {
            Program::builder(format!("C{k}"), v.clone())
                .init(init.clone())
                .build()
                .unwrap()
        })
        .collect()
}

/// The oracle: walk the whole product for a state every init satisfies.
fn product_walk(inits: &[Expr]) -> bool {
    let v = vocab();
    StateSpaceIter::new(&v).any(|s| inits.iter().all(|i| eval_bool(i, &s)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn per_group_decision_matches_the_product_walk(
        inits in prop::collection::vec(arb_init(), 1..4),
    ) {
        let expected = product_walk(&inits);
        let programs = components(&inits);
        let exact = compose(&programs, InitSatCheck::Exhaustive);
        prop_assert_eq!(exact.is_ok(), expected, "inits {:?}", inits);
        if let Err(e) = exact {
            prop_assert!(matches!(e, CoreError::UnsatisfiableInit { .. }), "{e:?}");
        }
        // A bound skips the groups above it and never rejects a
        // satisfiable init.
        for limit in [1, 4, 16] {
            let bounded = compose(&programs, InitSatCheck::BoundedExhaustive(limit));
            prop_assert!(bounded.is_ok() || !expected, "limit {limit}: {:?}", inits);
        }
        prop_assert!(compose(&programs, InitSatCheck::Skip).is_ok());
    }
}

/// 16⁸ = 2³² states: the product walk would never run under the default
/// 2²² bound, but every group here is small.
fn wide_vocab() -> Arc<Vocabulary> {
    let mut v = Vocabulary::new();
    for k in 0..8 {
        v.declare(&format!("v{k}"), Domain::int_range(0, 15).unwrap())
            .unwrap();
    }
    Arc::new(v)
}

fn wide_components(inits: Vec<Expr>) -> Vec<Program> {
    let v = wide_vocab();
    inits
        .into_iter()
        .enumerate()
        .map(|(k, init)| {
            Program::builder(format!("W{k}"), v.clone())
                .init(init)
                .build()
                .unwrap()
        })
        .collect()
}

#[test]
fn small_groups_are_checked_beyond_the_product_bound() {
    let v = |k: u32| var(VarId(k));
    let satisfiable = vec![
        and2(eq(v(0), int(3)), lt(v(1), v(0))),
        eq(add(v(2), v(3)), int(30)),
        eq(v(4), int(1)),
    ];
    let check = InitSatCheck::default();
    assert!(compose(&wide_components(satisfiable.clone()), check).is_ok());

    // One more component pins v4 to another value: the {v4} group (16
    // states) is unsatisfiable, and the check finds it.
    let mut unsat = satisfiable;
    unsat.push(eq(v(4), int(2)));
    let err = compose(&wide_components(unsat), check).unwrap_err();
    assert!(
        matches!(err, CoreError::UnsatisfiableInit { .. }),
        "{err:?}"
    );

    // The bound applies per group: {v5, v6, v7} (16³ = 4096 states) is
    // unsatisfiable, walked at a bound of 4096 and skipped below it.
    let group = vec![eq(v(0), int(3)), gt(sum(vec![v(5), v(6), v(7)]), int(45))];
    let err = compose(
        &wide_components(group.clone()),
        InitSatCheck::BoundedExhaustive(4096),
    )
    .unwrap_err();
    assert!(
        matches!(err, CoreError::UnsatisfiableInit { .. }),
        "{err:?}"
    );
    assert!(compose(
        &wide_components(group),
        InitSatCheck::BoundedExhaustive(4095)
    )
    .is_ok());
}
