//! Differential tests of the compiled scan pipeline: every checker must
//! return the **same verdict** (and refute the same properties) under
//! the compiled engine and the tree-walking reference engine, on random
//! programs and predicates — plus fixed regressions on the paper's two
//! systems (toy counters, priority ring) pinning projection + packing
//! agreement.

use std::sync::Arc;

use proptest::prelude::*;
use unity_core::domain::Domain;
use unity_core::expr::build::*;
use unity_core::expr::eval::eval_bool;
use unity_core::expr::Expr;
use unity_core::ident::{VarId, Vocabulary};
use unity_core::program::Program;
use unity_mc::prelude::*;
use unity_mc::space::Engine;

const X: VarId = VarId(0);
const Y: VarId = VarId(1);
const B: VarId = VarId(2);

fn vocab() -> Arc<Vocabulary> {
    let mut v = Vocabulary::new();
    v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
    v.declare("y", Domain::int_range(0, 2).unwrap()).unwrap();
    v.declare("b", Domain::Bool).unwrap();
    Arc::new(v)
}

fn arb_pred() -> impl Strategy<Value = Expr> {
    let atom = prop_oneof![
        Just(tt()),
        Just(var(B)),
        (0i64..=3).prop_map(|k| le(var(X), int(k))),
        (0i64..=2).prop_map(|k| eq(var(Y), int(k))),
        (0i64..=5).prop_map(|k| lt(add(var(X), var(Y)), int(k))),
    ];
    atom.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| and2(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| or2(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| implies(a, b)),
        ]
    })
}

/// Small random programs over the fixed vocabulary.
fn arb_program() -> impl Strategy<Value = Program> {
    (arb_pred(), 0i64..=2, 1i64..=2, any::<bool>(), arb_pred()).prop_map(
        |(guard1, y0, dx, fair2, guard2)| {
            let v = vocab();
            let builder = Program::builder("rand", v)
                .init(and2(eq(var(X), int(0)), eq(var(Y), int(y0))))
                .fair_command(
                    "cx",
                    and2(guard1, lt(var(X), int(3))),
                    vec![(X, add(var(X), int(dx)))],
                );
            let cy_updates = vec![(Y, rem(add(var(Y), int(1)), int(3))), (B, not(var(B)))];
            let builder = if fair2 {
                builder.fair_command("cy", guard2, cy_updates)
            } else {
                builder.command("cy", guard2, cy_updates)
            };
            builder.build().unwrap()
        },
    )
}

/// Verdict (+ counterexample kind) must agree between engines.
fn agree<T: std::fmt::Debug, E: std::fmt::Debug>(a: &Result<T, E>, b: &Result<T, E>) -> bool {
    a.is_ok() == b.is_ok()
}

/// Predicates over one side of `arb_program`'s write split: `cx` writes
/// only `x`, `cy` only `y` and `b`, and their guards read both sides.
/// Compiled `next` scans step only the writers of q's variables, so a
/// check on one side skips the other side's command; the reference
/// engine steps both over the full support.
fn arb_side_pred(x_side: bool) -> impl Strategy<Value = Expr> {
    let atom = if x_side {
        prop_oneof![
            Just(tt()),
            (0i64..=3).prop_map(|k| le(var(X), int(k))),
            (0i64..=3).prop_map(|k| eq(var(X), int(k))),
        ]
        .boxed()
    } else {
        prop_oneof![
            Just(tt()),
            Just(var(B)),
            (0i64..=2).prop_map(|k| eq(var(Y), int(k))),
        ]
        .boxed()
    };
    atom.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| and2(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| or2(a, b)),
        ]
    })
}

/// Sequential scans report the first witness in canonical order.
fn sequential(cfg: ScanConfig) -> ScanConfig {
    ScanConfig {
        par: ParConfig::sequential(),
        ..cfg
    }
}

/// The counterexample a safety check produced, `None` when it passed.
fn witness(result: Result<(), McError>) -> Option<Counterexample> {
    match result {
        Ok(()) => None,
        Err(McError::Refuted { cex, .. }) => Some(cex),
        Err(other) => panic!("check aborted: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scan_verdicts_agree(p in arb_pred()) {
        let v = vocab();
        let compiled = ScanConfig::default();
        let reference = ScanConfig::reference();
        prop_assert!(agree(
            &check_valid(&v, &p, &compiled),
            &check_valid(&v, &p, &reference),
        ));
        let sat_c = find_satisfying(&v, &p, &compiled).unwrap();
        let sat_r = find_satisfying(&v, &p, &reference).unwrap();
        prop_assert_eq!(sat_c.is_some(), sat_r.is_some());
    }

    #[test]
    fn property_check_verdicts_agree(prog in arb_program(), p in arb_pred(), q in arb_pred()) {
        let compiled = ScanConfig::default();
        let reference = ScanConfig::reference();
        for prop in [
            unity_core::properties::Property::Init(p.clone()),
            unity_core::properties::Property::Stable(p.clone()),
            unity_core::properties::Property::Invariant(p.clone()),
            unity_core::properties::Property::Next(p.clone(), q.clone()),
            unity_core::properties::Property::Transient(p.clone()),
            unity_core::properties::Property::Unchanged(add(var(X), var(Y))),
        ] {
            let c = check_property(&prog, &prop, Universe::AllStates, &compiled);
            let r = check_property(&prog, &prop, Universe::AllStates, &reference);
            prop_assert!(agree(&c, &r), "engines disagree on {:?}: {:?} vs {:?}", prop, c, r);
        }
    }

    #[test]
    fn writer_only_next_scans_keep_verdict_and_witness(
        prog in arb_program(),
        x_side in (arb_side_pred(true), arb_side_pred(true)),
        yb_side in (arb_side_pred(false), arb_side_pred(false)),
    ) {
        let reference = sequential(ScanConfig::reference());
        let compiled = [
            sequential(ScanConfig::default()),
            sequential(ScanConfig::without_projection()),
        ];
        for (p, q) in [x_side, yb_side] {
            for prop in [
                unity_core::properties::Property::Next(p.clone(), q.clone()),
                unity_core::properties::Property::Stable(p.clone()),
                unity_core::properties::Property::Invariant(p.clone()),
            ] {
                let r = witness(check_property(&prog, &prop, Universe::AllStates, &reference));
                for cfg in &compiled {
                    let c = witness(check_property(&prog, &prop, Universe::AllStates, cfg));
                    prop_assert_eq!(&c, &r, "{:?} (projection {})", prop, cfg.projection);
                }
            }
        }
    }

    #[test]
    fn transition_systems_agree(prog in arb_program()) {
        for universe in [Universe::Reachable, Universe::AllStates] {
            let c = TransitionSystem::build(&prog, universe, &ScanConfig::default()).unwrap();
            let r = TransitionSystem::build(&prog, universe, &ScanConfig::reference()).unwrap();
            prop_assert_eq!(c.len(), r.len());
            prop_assert_eq!(c.move_count(), r.move_count());
            prop_assert_eq!(&c.init, &r.init);
            // Identical interning order: state-by-state equality, and
            // the same command makes each move.
            for id in 0..c.len() as u32 {
                let s = id as usize;
                prop_assert_eq!(c.state(id), r.state(id));
                prop_assert_eq!(c.succ_row(s), r.succ_row(s));
                prop_assert_eq!(c.move_commands(s), r.move_commands(s));
                // Every command's successor is its step, the state
                // itself when the command stutters.
                let state = c.state(id);
                for k in 0..prog.commands.len() {
                    prop_assert_eq!(
                        c.state(c.succ_at(s, k)),
                        prog.step(k, &state),
                        "state {} command {}", id, k
                    );
                }
            }
        }
    }

    #[test]
    fn leadsto_and_reachable_invariant_agree(prog in arb_program(), p in arb_pred(), q in arb_pred()) {
        let c = check_leadsto(&prog, &p, &q, Universe::Reachable, &ScanConfig::default());
        let r = check_leadsto(&prog, &p, &q, Universe::Reachable, &ScanConfig::reference());
        prop_assert!(agree(&c, &r), "leadsto engines disagree: {:?} vs {:?}", c, r);
        // The reachable invariant: the same verdict and the same path on
        // both engines, and the path is a real execution that violates
        // `p` only at its end.
        let c = witness(check_invariant_reachable(&prog, &p, &ScanConfig::default()));
        let r = witness(check_invariant_reachable(&prog, &p, &ScanConfig::reference()));
        prop_assert_eq!(&c, &r);
        if let Some(cex) = c {
            let Counterexample::Reach { path } = cex else {
                panic!("expected a reach path, got {cex:?}");
            };
            prop_assert!(prog.satisfies_init(&path[0]), "the path starts in an initial state");
            for w in path.windows(2) {
                prop_assert!(
                    prog.commands.iter().any(|cmd| cmd.step(&w[0], &prog.vocab) == w[1]),
                    "every step is a command step"
                );
            }
            let (last, before) = path.split_last().unwrap();
            prop_assert!(before.iter().all(|s| eval_bool(&p, s)) && !eval_bool(&p, last));
        }
    }
}

/// Regression: projection and packing agree on the toy-counter system —
/// the projected (component-support) scans and the full-product scans
/// reach the same verdicts under both engines.
#[test]
fn toy_counter_projection_and_packing_agree() {
    use unity_systems::toy_counter::{toy_system, ToySpec};
    for n in [2usize, 3] {
        let toy = toy_system(ToySpec::new(n, 2)).unwrap();
        // Component-scope properties on component 0 (it shares the big
        // composed vocabulary, so projection actually engages) and the
        // system invariant on the composition.
        let checks: [(
            &unity_core::program::Program,
            unity_core::properties::Property,
        ); 3] = [
            (&toy.system.composed, toy.system_invariant()),
            (&toy.system.components[0], toy.spec_unchanged(0)),
            (&toy.system.components[0], toy.spec_init(0)),
        ];
        let configs = [
            ScanConfig::default(),
            ScanConfig::reference(),
            ScanConfig::without_projection(),
            ScanConfig {
                engine: Engine::Reference,
                ..ScanConfig::without_projection()
            },
        ];
        for (program, prop) in &checks {
            let verdicts: Vec<bool> = configs
                .iter()
                .map(|cfg| check_property(program, prop, Universe::AllStates, cfg).is_ok())
                .collect();
            assert!(
                verdicts.iter().all(|&v| v == verdicts[0]),
                "configs disagree on {prop:?}: {verdicts:?}"
            );
            assert!(
                verdicts[0],
                "paper properties hold on the toy system: {prop:?}"
            );
        }
    }
}

/// Regression: the priority ring's safety invariant and liveness agree
/// across engines, and the packed transition system matches the
/// reference one state for state.
#[test]
fn priority_ring_packing_agrees() {
    use unity_systems::priority::PrioritySystem;
    let sys = PrioritySystem::new(Arc::new(prio_graph::topology::ring(4))).unwrap();
    let program = &sys.system.composed;
    for cfg in [ScanConfig::default(), ScanConfig::reference()] {
        check_property(program, &sys.safety_invariant(), Universe::AllStates, &cfg).unwrap();
    }
    let c = TransitionSystem::build(program, Universe::AllStates, &ScanConfig::default()).unwrap();
    let r =
        TransitionSystem::build(program, Universe::AllStates, &ScanConfig::reference()).unwrap();
    assert_eq!(c.len(), r.len());
    assert_eq!(c.move_count(), r.move_count());
    for id in 0..c.len() as u32 {
        let s = id as usize;
        assert_eq!(c.state(id), r.state(id));
        assert_eq!(c.succ_row(s), r.succ_row(s));
        assert_eq!(c.move_commands(s), r.move_commands(s));
    }
    // Exact fair liveness agrees too (it consumes the packed system).
    let goal = sys.priority_expr(2);
    let lc = check_leadsto(
        program,
        &tt(),
        &goal,
        Universe::Reachable,
        &ScanConfig::default(),
    );
    let lr = check_leadsto(
        program,
        &tt(),
        &goal,
        Universe::Reachable,
        &ScanConfig::reference(),
    );
    assert_eq!(lc.is_ok(), lr.is_ok());
}

/// Regression: a refuted `stable` on `x` reports the same first witness
/// under both engines, although the compiled scan never steps `cy` and
/// never enumerates `b`.
#[test]
fn writer_only_scan_pins_a_refuted_stable() {
    use unity_core::value::Value;
    let prog = Program::builder("split", vocab())
        .command("cy", tt(), vec![(Y, rem(add(var(Y), int(1)), int(3)))])
        .command("cx", ge(var(Y), int(2)), vec![(X, add(var(X), int(1)))])
        .build()
        .unwrap();
    let stable = unity_core::properties::Property::Stable(le(var(X), int(1)));
    // `cx` only raises x (or skips at the domain edge): this one holds.
    let monotone = unity_core::properties::Property::Stable(ge(var(X), int(1)));
    for cfg in [
        sequential(ScanConfig::reference()),
        sequential(ScanConfig::default()),
    ] {
        let cex = witness(check_property(&prog, &stable, Universe::AllStates, &cfg));
        let Some(Counterexample::Next {
            state,
            command,
            after,
        }) = cex
        else {
            panic!("{:?}: expected a next witness, got {cex:?}", cfg.engine);
        };
        assert_eq!(command.as_deref(), Some("cx"), "{:?}", cfg.engine);
        let values = |s: &unity_core::state::State| [X, Y, B].map(|v| s.get(v));
        let (n, off) = (Value::Int, Value::Bool(false));
        assert_eq!(values(&state), [n(1), n(2), off], "{:?}", cfg.engine);
        assert_eq!(values(&after), [n(2), n(2), off], "{:?}", cfg.engine);
        assert_eq!(
            witness(check_property(&prog, &monotone, Universe::AllStates, &cfg)),
            None
        );
    }
}
