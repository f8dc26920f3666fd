//! Differential tests of the worklist liveness engine: on random small
//! programs and predicates, the worklist formulation (`check_leadsto_on`)
//! must agree with the pre-worklist quiescence formulation
//! (`check_leadsto_on_reference`) — verdict and the lasso witness itself,
//! state-for-state — across both universes and every fairness shape
//! (`D = ∅`, partial, all-fair). A passing check's counters must
//! describe exactly the `¬q` region that the `p ∧ ¬q` states reach, which
//! a plain search in this file computes. Witnesses are additionally
//! replayed on the reference semantics.

use std::sync::Arc;

use proptest::prelude::*;
use unity_core::domain::Domain;
use unity_core::expr::build::*;
use unity_core::expr::eval::eval_bool;
use unity_core::expr::Expr;
use unity_core::ident::{VarId, Vocabulary};
use unity_core::program::Program;
use unity_mc::prelude::*;
use unity_mc::scc::tarjan_scc;
use unity_mc::trace::Counterexample;

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
        Just(ff()),
        Just(var(B)),
        (0i64..=3).prop_map(|k| le(var(X), int(k))),
        (0i64..=2).prop_map(|k| eq(var(Y), int(k))),
        (0i64..=5).prop_map(|k| lt(add(var(X), var(Y)), int(k))),
    ];
    atom.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| and2(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| or2(a, b)),
        ]
    })
}

/// Small random programs over the fixed vocabulary. Each command's
/// fairness is drawn independently, so the suite covers `D = ∅`
/// (skip-only fair runs: every `¬q` SCC traps), partial fairness
/// (stalls), and the all-fair case.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        arb_pred(),
        0i64..=2,
        1i64..=2,
        any::<bool>(),
        any::<bool>(),
        arb_pred(),
    )
        .prop_map(|(guard1, y0, dx, fair1, fair2, guard2)| {
            let v = vocab();
            let builder =
                Program::builder("rand", v).init(and2(eq(var(X), int(0)), eq(var(Y), int(y0))));
            let cx_guard = and2(guard1, lt(var(X), int(3)));
            let cx_updates = vec![(X, add(var(X), int(dx)))];
            let builder = if fair1 {
                builder.fair_command("cx", cx_guard, cx_updates)
            } else {
                builder.command("cx", cx_guard, cx_updates)
            };
            let cy_updates = vec![(Y, rem(add(var(Y), int(1)), int(3))), (B, not(var(B)))];
            let builder = if fair2 {
                builder.fair_command("cy", guard2, cy_updates)
            } else {
                builder.command("cy", guard2, cy_updates)
            };
            builder.build().unwrap()
        })
}

/// A lasso witness must genuinely refute `p ↦ q` on the reference
/// semantics: the prefix starts in a `p ∧ ¬q` state, every hop replays
/// as some command step, every visited state avoids `q`, and the trap
/// is a non-empty set of `¬q` states.
fn assert_replayable(program: &Program, p: &Expr, q: &Expr, cex: &Counterexample) {
    let Counterexample::LeadsTo { prefix, trap } = cex else {
        panic!("leadsto must produce a lasso, got {cex:?}");
    };
    let vocab = &program.vocab;
    assert!(!prefix.is_empty(), "prefix holds at least the start state");
    assert!(!trap.is_empty(), "a refutation names its trap");
    let start = &prefix[0];
    assert!(eval_bool(p, start), "lasso starts in a p-state");
    for s in prefix.iter().chain(trap.iter()) {
        assert!(!eval_bool(q, s), "lasso never visits q");
    }
    for pair in prefix.windows(2) {
        let stepped = program
            .commands
            .iter()
            .any(|c| c.step(&pair[0], vocab) == pair[1]);
        assert!(stepped, "prefix hop replays as a command step: {pair:?}");
    }
    // The trap entry point is the last prefix state.
    let entry = prefix.last().expect("non-empty");
    assert!(trap.contains(entry), "prefix ends inside the trap");
}

/// The `¬q` states reachable from a `p ∧ ¬q` state through `¬q` states:
/// a breadth-first search over the move rows, with `p` and `q` evaluated
/// on the decoded states.
fn decision_region(ts: &TransitionSystem, p: &Expr, q: &Expr) -> Vec<bool> {
    let not_q: Vec<bool> = (0..ts.len() as u32)
        .map(|v| !eval_bool(q, &ts.state(v)))
        .collect();
    let mut region = vec![false; ts.len()];
    let mut queue: Vec<u32> = (0..ts.len() as u32)
        .filter(|&v| not_q[v as usize] && eval_bool(p, &ts.state(v)))
        .collect();
    for &v in &queue {
        region[v as usize] = true;
    }
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        for &w in ts.succ_row(v as usize) {
            if not_q[w as usize] && !region[w as usize] {
                region[w as usize] = true;
                queue.push(w);
            }
        }
    }
    region
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Worklist ≡ quiescence on the same transition system: verdict and
    /// the lasso witness itself. A pass searched exactly the `¬q` region
    /// the `p ∧ ¬q` states reach, found no trap there, and walked no
    /// predecessor.
    #[test]
    fn worklist_equals_reference_propagation(
        program in arb_program(),
        p in arb_pred(),
        q in arb_pred(),
    ) {
        for universe in [Universe::Reachable, Universe::AllStates] {
            let ts = TransitionSystem::build(&program, universe, &ScanConfig::default()).unwrap();
            let fast = check_leadsto_on(&ts, &program, &p, &q);
            let slow = check_leadsto_on_reference(&ts, &program, &p, &q);
            match (fast, slow) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.states, b.states);
                    prop_assert_eq!(a.transitions, b.transitions);
                    let region = decision_region(&ts, &p, &q);
                    prop_assert_eq!(a.traps, 0, "a pass found no trap");
                    prop_assert_eq!(a.scanned_states, region.iter().filter(|&&r| r).count(),
                                    "the pass visits exactly the region p ∧ ¬q reaches");
                    prop_assert_eq!(a.sccs, tarjan_scc(&region, |v| ts.succ_row(v as usize)).len(),
                                    "and finds exactly that region's components");
                    prop_assert_eq!((a.pred_edges, a.worklist_pushes), (0, 0),
                                    "a pass walks no predecessor");
                }
                (Err(McError::Refuted { property: pa, cex: ca }),
                 Err(McError::Refuted { property: pb, cex: cb })) => {
                    prop_assert_eq!(pa, pb);
                    prop_assert_eq!(&ca, &cb, "witness identity, state-for-state");
                    assert_replayable(&program, &p, &q, &ca);
                }
                (a, b) => panic!("verdicts diverged under {universe:?}: {a:?} vs {b:?}"),
            }
        }
    }

    /// Full-stack parity: the default engine (packed transition system,
    /// session cache, worklist) and `ScanConfig::reference()` (explicit
    /// states, quiescence propagation) return the same verdicts.
    #[test]
    fn engine_stacks_agree_on_verdicts(
        program in arb_program(),
        p in arb_pred(),
        q in arb_pred(),
    ) {
        for universe in [Universe::Reachable, Universe::AllStates] {
            let fast = check_leadsto(&program, &p, &q, universe, &ScanConfig::default());
            let slow = check_leadsto(&program, &p, &q, universe, &ScanConfig::reference());
            prop_assert_eq!(fast.is_ok(), slow.is_ok(),
                            "verdict parity under {:?}", universe);
            if let (Err(McError::Refuted { cex, .. }), Err(McError::Refuted { cex: expect, .. }))
                = (&fast, &slow)
            {
                prop_assert_eq!(cex, expect, "witness parity across engine stacks");
                assert_replayable(&program, &p, &q, cex);
            }
        }
    }

    /// Session-cached checks answer exactly like one-shot worklist
    /// checks, and repeating them over the pooled scratch changes
    /// nothing.
    #[test]
    fn session_scratch_reuse_is_sound(
        program in arb_program(),
        p in arb_pred(),
        q in arb_pred(),
    ) {
        use unity_core::properties::Property;
        let mut session = Verifier::new(&program, ScanConfig::default());
        let props = [
            Property::LeadsTo(p.clone(), q.clone()),
            Property::LeadsTo(tt(), q.clone()),
            Property::LeadsTo(q.clone(), p.clone()),
        ];
        let first: Vec<_> = props.iter().map(|pr| session.verify(pr)).collect();
        let second: Vec<_> = props.iter().map(|pr| session.verify(pr)).collect();
        for ((prop, a), b) in props.iter().zip(&first).zip(&second) {
            prop_assert_eq!(a.passed(), b.passed(), "idempotent: {:?}", prop);
            prop_assert_eq!(a.counterexample(), b.counterexample());
            let oneshot = check_leadsto(
                &program,
                match prop { Property::LeadsTo(p, _) => p, _ => unreachable!() },
                match prop { Property::LeadsTo(_, q) => q, _ => unreachable!() },
                Universe::Reachable,
                &ScanConfig::default(),
            );
            prop_assert_eq!(a.passed(), oneshot.is_ok());
        }
    }
}

/// `D = ∅`: with no fairness obligations, skip-only runs are fair, so
/// `p ↦ q` collapses to "every reachable `p`-state already satisfies
/// `q`" — both formulations must implement exactly that.
#[test]
fn empty_fair_set_edge_case() {
    let v = vocab();
    let program = Program::builder("unfair", v)
        .init(and2(eq(var(X), int(0)), eq(var(Y), int(0))))
        .command("cx", lt(var(X), int(3)), vec![(X, add(var(X), int(1)))])
        .build()
        .unwrap();
    for universe in [Universe::Reachable, Universe::AllStates] {
        let ts = TransitionSystem::build(&program, universe, &ScanConfig::default()).unwrap();
        // p ⇒ q reachably: holds (trivially, every SCC is a trap but no
        // p ∧ ¬q state exists).
        check_leadsto_on(&ts, &program, &eq(var(X), int(1)), &ge(var(X), int(1))).unwrap();
        check_leadsto_on_reference(&ts, &program, &eq(var(X), int(1)), &ge(var(X), int(1)))
            .unwrap();
        // Any genuine progress claim fails, and every ¬q SCC is a trap.
        let fast = check_leadsto_on(&ts, &program, &tt(), &eq(var(X), int(3)));
        let slow = check_leadsto_on_reference(&ts, &program, &tt(), &eq(var(X), int(3)));
        let (Err(McError::Refuted { cex: a, .. }), Err(McError::Refuted { cex: b, .. })) =
            (fast, slow)
        else {
            panic!("skip-stuttering refutes progress when D = ∅");
        };
        assert_eq!(a, b);
    }
    let ts =
        TransitionSystem::build(&program, Universe::Reachable, &ScanConfig::default()).unwrap();
    let report = check_leadsto_on_reference(&ts, &program, &ff(), &ff()).unwrap();
    assert_eq!(
        report.sccs, report.traps,
        "with D = ∅ every ¬q SCC is a trap"
    );
    // No state satisfies p, so the worklist engine searches nothing.
    let report = check_leadsto_on(&ts, &program, &ff(), &ff()).unwrap();
    assert_eq!(
        (report.sccs, report.traps, report.scanned_states),
        (0, 0, 0)
    );
}

/// All-fair edge case on a deterministic cycle: circulation holds and
/// the worklist never fires (no traps).
#[test]
fn all_fair_cycle_edge_case() {
    let mut v = Vocabulary::new();
    let t = v.declare("t", Domain::int_range(0, 4).unwrap()).unwrap();
    let program = Program::builder("cycle", Arc::new(v))
        .init(eq(var(t), int(0)))
        .fair_command("step", tt(), vec![(t, rem(add(var(t), int(1)), int(5)))])
        .build()
        .unwrap();
    for universe in [Universe::Reachable, Universe::AllStates] {
        let ts = TransitionSystem::build(&program, universe, &ScanConfig::default()).unwrap();
        for i in 0..5i64 {
            let p = eq(var(t), int(i));
            let q = eq(var(t), int((i + 1) % 5));
            let fast = check_leadsto_on(&ts, &program, &p, &q).unwrap();
            let slow = check_leadsto_on_reference(&ts, &program, &p, &q).unwrap();
            assert_eq!(fast.traps, 0);
            assert_eq!(slow.traps, 0);
            assert_eq!(fast.worklist_pushes, 0, "no trap seeds, no propagation");
            // p's one state moves straight into q: the worklist engine
            // visits only it, the reference every ¬q state.
            assert_eq!((fast.sccs, fast.scanned_states), (1, 1));
            assert_eq!((slow.sccs, slow.scanned_states), (4, 4));
        }
    }
}
