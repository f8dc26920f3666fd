//! Differential tests of the composed-`initially` consistency check and
//! of the initial-state enumeration.
//!
//! `compose` decides whether the conjunction of the components'
//! `initially` predicates is satisfiable group by group: conjuncts that
//! share a variable form one group, and each group's sub-product is
//! walked with the other variables fixed. `Program::initial_states`
//! enumerates the product of the groups' satisfying sets. The product
//! walk over every state of the shared vocabulary is the oracle for
//! both. The generated inits (`init_gen`) nest `&&` both ways (binary
//! and n-ary), include variable-free conjuncts, share variables across
//! components, and leave some variables unmentioned.

mod init_gen;

use init_gen::{arb_init, components, vocab};
use proptest::prelude::*;
use std::sync::Arc;
use unity_core::compose::{compose, InitSatCheck};
use unity_core::domain::Domain;
use unity_core::error::CoreError;
use unity_core::expr::build::*;
use unity_core::expr::eval::eval_bool;
use unity_core::expr::Expr;
use unity_core::ident::{VarId, Vocabulary};
use unity_core::program::Program;
use unity_core::state::{State, StateSpaceIter};

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

    /// `Program::initial_states` enumerates the product of the init
    /// groups' sets and the free domains: the same states as filtering
    /// the whole product, in the same (canonical) order.
    #[test]
    fn initial_states_are_the_product_filter_in_order(
        inits in prop::collection::vec(arb_init(), 1..4),
    ) {
        let composed = compose(&components(&inits), InitSatCheck::Skip).unwrap();
        let expected: Vec<State> = StateSpaceIter::new(&composed.vocab)
            .filter(|s| composed.satisfies_init(s))
            .collect();
        prop_assert_eq!(composed.initial_states(), expected, "inits {:?}", inits);
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
