//! Property-based tests of the model checker on *random programs*:
//! symbolic/operational agreement, soundness of the paper's
//! existential/universal classification (checked semantically under
//! composition), the Transient rule's soundness against the exact fair
//! `leadsto` checker, and thread-count independence of builds and
//! verdicts.

use std::sync::Arc;

use proptest::prelude::*;
use unity_core::compose::{InitSatCheck, System};
use unity_core::domain::Domain;
use unity_core::expr::build::*;
use unity_core::expr::Expr;
use unity_core::ident::{VarId, Vocabulary};
use unity_core::program::Program;
use unity_core::properties::Property;
use unity_mc::prelude::*;

const A: VarId = VarId(0);
const B: VarId = VarId(1);
const F: VarId = VarId(2);

fn vocab() -> Arc<Vocabulary> {
    let mut v = Vocabulary::new();
    v.declare("a", Domain::int_range(0, 2).unwrap()).unwrap();
    v.declare("b", Domain::int_range(0, 2).unwrap()).unwrap();
    v.declare("f", Domain::Bool).unwrap();
    Arc::new(v)
}

/// Small pool of guards.
fn arb_guard() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(tt()),
        Just(var(F)),
        Just(not(var(F))),
        (0i64..=2).prop_map(|k| lt(var(A), int(k))),
        (0i64..=2).prop_map(|k| eq(var(B), int(k))),
        (0i64..=2).prop_map(|k| ge(add(var(A), var(B)), int(k))),
    ]
}

/// Small pool of updates (target, rhs).
fn arb_update() -> impl Strategy<Value = (VarId, Expr)> {
    prop_oneof![
        Just((A, add(var(A), int(1)))),
        Just((A, sub(var(A), int(1)))),
        Just((A, int(0))),
        Just((B, add(var(B), int(1)))),
        Just((B, var(A))),
        Just((F, not(var(F)))),
        Just((F, tt())),
        Just((F, ff())),
    ]
}

/// A random command as (guard, updates-with-distinct-targets, fair?).
fn arb_command() -> impl Strategy<Value = (Expr, Vec<(VarId, Expr)>, bool)> {
    (
        arb_guard(),
        prop::collection::vec(arb_update(), 1..3),
        any::<bool>(),
    )
        .prop_map(|(g, mut ups, fair)| {
            ups.sort_by_key(|(x, _)| *x);
            ups.dedup_by_key(|(x, _)| *x);
            (g, ups, fair)
        })
}

/// A random program over the shared vocabulary (init = all minimums).
fn arb_program(name: &'static str) -> impl Strategy<Value = Program> {
    prop::collection::vec(arb_command(), 1..4).prop_map(move |cmds| {
        let v = vocab();
        let mut builder = Program::builder(name, v).init(and(vec![
            eq(var(A), int(0)),
            eq(var(B), int(0)),
            not(var(F)),
        ]));
        for (i, (g, ups, fair)) in cmds.into_iter().enumerate() {
            builder = if fair {
                builder.fair_command(format!("{name}_c{i}"), g, ups)
            } else {
                builder.command(format!("{name}_c{i}"), g, ups)
            };
        }
        builder.build().expect("pool commands are well-typed")
    })
}

/// A small pool of predicates to check.
fn arb_pred() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0i64..=2).prop_map(|k| eq(var(A), int(k))),
        (0i64..=2).prop_map(|k| le(var(B), int(k))),
        Just(var(F)),
        Just(and2(var(F), ge(var(A), int(1)))),
        (0i64..=4).prop_map(|k| eq(add(var(A), var(B)), int(k))),
        Just(or2(not(var(F)), eq(var(A), var(B)))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn operational_next_equals_wp_next(prog in arb_program("r"), p in arb_pred(), q in arb_pred()) {
        let cfg = ScanConfig::default();
        let op = check_next(&prog, &p, &q, &cfg).is_ok();
        let sym = check_next_wp(&prog, &p, &q, &cfg).is_ok();
        prop_assert_eq!(op, sym);
    }

    #[test]
    fn stable_conjunction_is_universal_wrt_composition(
        f in arb_program("f"), g in arb_program("g"), p in arb_pred()
    ) {
        // The paper's classification, checked semantically: stable is a
        // universal property type — if both components satisfy it, the
        // composition does.
        let cfg = ScanConfig::default();
        let f_ok = check_stable(&f, &p, &cfg).is_ok();
        let g_ok = check_stable(&g, &p, &cfg).is_ok();
        let sys = System::compose(vec![f.clone(), g.clone()], InitSatCheck::Skip).unwrap();
        let both = check_stable(&sys.composed, &p, &cfg).is_ok();
        if f_ok && g_ok {
            prop_assert!(both, "stable must lift universally");
        }
        if both {
            // Conversely the composition satisfying it forces both
            // components (their commands are a subset).
            prop_assert!(f_ok && g_ok);
        }
    }

    #[test]
    fn transient_is_existential_wrt_composition(
        f in arb_program("f"), g in arb_program("g"), p in arb_pred()
    ) {
        let cfg = ScanConfig::default();
        let f_ok = check_transient(&f, &p, &cfg).is_ok();
        let g_ok = check_transient(&g, &p, &cfg).is_ok();
        let sys = System::compose(vec![f.clone(), g.clone()], InitSatCheck::Skip).unwrap();
        let composed = check_transient(&sys.composed, &p, &cfg).is_ok();
        if f_ok || g_ok {
            prop_assert!(composed, "transient must lift existentially");
        }
    }

    #[test]
    fn init_is_existential_wrt_composition(
        f in arb_program("f"), g in arb_program("g"), p in arb_pred()
    ) {
        let cfg = ScanConfig::default();
        let f_ok = check_init(&f, &p, &cfg).is_ok();
        let sys = System::compose(vec![f.clone(), g.clone()], InitSatCheck::Skip).unwrap();
        if f_ok {
            prop_assert!(
                check_init(&sys.composed, &p, &cfg).is_ok(),
                "init must survive composition (conjoined initially)"
            );
        }
    }

    #[test]
    fn transient_rule_sound_for_fair_leadsto(prog in arb_program("t"), p in arb_pred()) {
        // transient p ⊢ true ↦ ¬p — the kernel's Transient rule must be
        // sound for the exact fair checker, in both universes.
        let cfg = ScanConfig::default();
        if check_transient(&prog, &p, &cfg).is_ok() {
            for universe in [Universe::Reachable, Universe::AllStates] {
                let lt = check_leadsto(&prog, &tt(), &not(p.clone()), universe, &cfg);
                prop_assert!(lt.is_ok(), "transient held but leadsto refuted ({universe:?})");
            }
        }
    }

    #[test]
    fn invariant_inductive_implies_reachable(prog in arb_program("i"), p in arb_pred()) {
        let cfg = ScanConfig::default();
        if check_invariant(&prog, &p, &cfg).is_ok() {
            prop_assert!(check_invariant_reachable(&prog, &p, &cfg).is_ok());
        }
    }

    #[test]
    fn leadsto_monotone_in_target(prog in arb_program("m"), p in arb_pred()) {
        // p ↦ p trivially (already-there); and anything leads to `true`.
        let cfg = ScanConfig::default();
        prop_assert!(
            check_leadsto(&prog, &p, &p, Universe::Reachable, &cfg).is_ok()
        );
        prop_assert!(
            check_leadsto(&prog, &p, &tt(), Universe::Reachable, &cfg).is_ok()
        );
    }

    /// The one-shot checkers give the same result, counterexample
    /// included, whatever the thread count. The `with_threads` configs
    /// have a zero cutoff, so every parallel scan runs even on these tiny
    /// spaces.
    #[test]
    fn parallel_and_sequential_checks_agree(prog in arb_program("p"), p in arb_pred()) {
        let seq = ScanConfig {
            par: ParConfig::sequential(),
            ..Default::default()
        };
        for threads in [2usize, 4, 8] {
            let par = ScanConfig {
                par: ParConfig::with_threads(threads),
                ..Default::default()
            };
            prop_assert_eq!(
                check_stable(&prog, &p, &par), check_stable(&prog, &p, &seq),
                "stable at {} threads", threads
            );
            prop_assert_eq!(
                check_transient(&prog, &p, &par), check_transient(&prog, &p, &seq),
                "transient at {} threads", threads
            );
        }
    }

    /// Every thread count builds the same transition system as the
    /// sequential build, id for id, in both universes.
    #[test]
    fn parallel_build_equals_sequential_build(prog in arb_program("b")) {
        for universe in [Universe::Reachable, Universe::AllStates] {
            let want = TransitionSystem::build(&prog, universe, &sequential()).unwrap();
            for threads in [2usize, 4, 8] {
                let ts = TransitionSystem::build(&prog, universe, &threaded(threads)).unwrap();
                prop_assert_eq!(ts.len(), want.len(), "{} threads", threads);
                prop_assert_eq!(&ts.init, &want.init, "{} threads", threads);
                prop_assert_eq!(ts.move_count(), want.move_count(), "{} threads", threads);
                for s in 0..ts.len() {
                    prop_assert_eq!(ts.succ_row(s), want.succ_row(s), "row {}", s);
                    prop_assert_eq!(ts.move_commands(s), want.move_commands(s), "row {}", s);
                }
            }
        }
    }

    /// A verifier session reaches the same verdicts with the same
    /// counterexamples at every thread count, in both universes.
    #[test]
    fn verdicts_agree_across_thread_counts(
        prog in arb_program("v"),
        p in arb_pred(),
        q in arb_pred(),
    ) {
        let props = [
            Property::Invariant(p.clone()),
            Property::Stable(p.clone()),
            Property::Transient(p.clone()),
            Property::LeadsTo(p.clone(), q.clone()),
        ];
        for universe in [Universe::Reachable, Universe::AllStates] {
            let mut base = Verifier::new(&prog, sequential()).with_universe(universe);
            let want: Vec<_> = props.iter().map(|pr| base.verify(pr)).collect();
            for threads in [2usize, 4, 8] {
                let mut session = Verifier::new(&prog, threaded(threads)).with_universe(universe);
                for (prop, want) in props.iter().zip(&want) {
                    let got = session.verify(prop);
                    prop_assert_eq!(
                        &got.outcome, &want.outcome,
                        "{:?} at {} threads under {:?}", prop, threads, universe
                    );
                    prop_assert_eq!(got.engine, want.engine);
                }
            }
        }
    }
}

/// One worker, cutoff at infinity.
fn sequential() -> ScanConfig {
    ScanConfig {
        par: ParConfig::sequential(),
        ..Default::default()
    }
}

/// `threads` workers with a zero cutoff, so every parallel path runs.
fn threaded(threads: usize) -> ScanConfig {
    ScanConfig {
        par: ParConfig::with_threads(threads),
        ..Default::default()
    }
}

/// An unsatisfiable init predicate yields the same empty reachable
/// system on every path: no states, no init ids, zero transitions.
#[test]
fn empty_init_is_empty_everywhere() {
    let program = Program::builder("void", vocab())
        .init(ff())
        .fair_command("inc", lt(var(A), int(2)), vec![(A, add(var(A), int(1)))])
        .build()
        .unwrap();
    let configs = [2usize, 4, 8]
        .map(threaded)
        .into_iter()
        .chain([sequential(), ScanConfig::reference()]);
    for cfg in configs {
        let ts = TransitionSystem::build(&program, Universe::Reachable, &cfg).unwrap();
        assert!(ts.is_empty(), "{cfg:?}");
        assert!(ts.init.is_empty(), "{cfg:?}");
        assert_eq!(ts.transition_count(), 0, "{cfg:?}");
    }
}
