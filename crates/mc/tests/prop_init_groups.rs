//! Initial states from per-group sets, pinned to the product walk.
//!
//! The compiled `init` scan walks only `p`'s variables and the init
//! groups that meet them, with every other group at its first
//! satisfying assignment; `invariant`'s base case comes through it. The
//! reachable transition system is seeded from the product of the
//! groups' sets. The generated inits (`init_gen`, shared with
//! `unity-core`'s `prop_compose_init.rs`) nest `&&` both ways, include
//! variable-free conjuncts of both truth values, share variables across
//! components, leave variables unmentioned and can make a group
//! unsatisfiable. The oracles walk the whole product: the reference
//! engine (support `vars(init) ∪ vars(p)`), a plain filter of every
//! state, and a transition-system build seeded by that filter.

#[path = "../../core/tests/init_gen/mod.rs"]
mod init_gen;

use std::collections::HashMap;

use init_gen::{arb_init, components, A, B, X, Y, Z};
use proptest::prelude::*;
use unity_core::compose::{compose, InitSatCheck};
use unity_core::expr::build::*;
use unity_core::expr::eval::eval_bool;
use unity_core::expr::Expr;
use unity_core::ident::VarId;
use unity_core::program::Program;
use unity_core::properties::Property;
use unity_core::state::{State, StateSpaceIter};
use unity_mc::prelude::*;

/// `w`, the variable no generated init names.
const W: VarId = VarId(5);

/// The composition of one component per init, plus commands over every
/// variable, so that `invariant`'s inductive half and the reachable
/// build have work to do.
fn program(inits: &[Expr]) -> Program {
    let composed = compose(&components(inits), InitSatCheck::Skip).unwrap();
    Program::builder("P", composed.vocab.clone())
        .init(composed.init)
        .fair_command("flip", var(A), vec![(B, not(var(B)))])
        .fair_command("inc", lt(var(X), int(3)), vec![(X, add(var(X), int(1)))])
        .command("roll", tt(), vec![(Y, rem(add(var(Y), int(1)), int(3)))])
        .command(
            "drift",
            lt(var(Z), var(Y)),
            vec![
                (Z, add(var(Z), int(1))),
                (W, rem(add(var(W), int(2)), int(5))),
            ],
        )
        .build()
        .unwrap()
}

/// A checked predicate: a generated init, sometimes disjoined with an
/// atom over `w`.
fn arb_pred() -> impl Strategy<Value = Expr> {
    prop_oneof![
        arb_init(),
        (arb_init(), 0i64..=4).prop_map(|(e, k)| or2(e, ne(var(W), int(k)))),
    ]
}

fn configs() -> [ScanConfig; 2] {
    [ParConfig::sequential(), ParConfig::with_threads(2)].map(|par| ScanConfig {
        par,
        ..ScanConfig::default()
    })
}

/// The first refuting initial state in canonical order, by filtering
/// the whole product.
fn product_walk(program: &Program, p: &Expr) -> Option<State> {
    StateSpaceIter::new(&program.vocab).find(|s| program.satisfies_init(s) && !eval_bool(p, s))
}

/// The reachable system of `program` built by the packed builder's
/// discipline (a stack frontier, commands interned in order) over
/// explicit states, seeded by filtering the whole product: states,
/// initial ids and successor rows.
#[allow(clippy::type_complexity)]
fn product_seeded_build(program: &Program) -> (Vec<State>, Vec<u32>, Vec<Vec<u32>>) {
    let mut index: HashMap<State, u32> = HashMap::new();
    let mut states: Vec<State> = Vec::new();
    let mut frontier: Vec<u32> = Vec::new();
    let mut intern = |s: State, states: &mut Vec<State>, frontier: &mut Vec<u32>| {
        *index.entry(s.clone()).or_insert_with(|| {
            states.push(s);
            frontier.push(states.len() as u32 - 1);
            states.len() as u32 - 1
        })
    };
    let mut init = Vec::new();
    for s in StateSpaceIter::new(&program.vocab).filter(|s| program.satisfies_init(s)) {
        init.push(intern(s, &mut states, &mut frontier));
    }
    let mut succ: Vec<Vec<u32>> = Vec::new();
    while let Some(id) = frontier.pop() {
        let s = states[id as usize].clone();
        let row = program
            .commands
            .iter()
            .map(|c| intern(c.step(&s, &program.vocab), &mut states, &mut frontier))
            .collect();
        if succ.len() <= id as usize {
            succ.resize(id as usize + 1, Vec::new());
        }
        succ[id as usize] = row;
    }
    succ.resize(states.len(), Vec::new());
    (states, init, succ)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Compiled `init p` and `invariant p` equal the reference engine on
    /// verdict and full witness, and a refuted `init p` reports the
    /// product walk's first refuting state, at one and two threads.
    #[test]
    fn per_group_init_and_invariant_match_the_product_walk(
        inits in prop::collection::vec(arb_init(), 1..4),
        p in arb_pred(),
    ) {
        let program = program(&inits);
        let mut reference = Verifier::new(&program, ScanConfig::reference());
        let ref_init = reference.verify(&Property::Init(p.clone()));
        let ref_inv = reference.verify(&Property::Invariant(p.clone()));
        let walked = product_walk(&program, &p);
        prop_assert_eq!(
            ref_init.counterexample().cloned(),
            walked.clone().map(|state| Counterexample::Init { state })
        );
        for cfg in configs() {
            let mut session = Verifier::new(&program, cfg.clone());
            let init = session.verify(&Property::Init(p.clone()));
            prop_assert_eq!(init.engine, Engine::Compiled);
            prop_assert_eq!(&init.outcome, &ref_init.outcome, "init, {:?} threads", cfg.par.threads);
            let inv = session.verify(&Property::Invariant(p.clone()));
            prop_assert_eq!(&inv.outcome, &ref_inv.outcome, "invariant, {:?} threads", cfg.par.threads);
        }
    }

    /// The reachable build seeded per group equals, id for id, the build
    /// seeded by filtering the whole product — under both engines and
    /// at one and two threads.
    #[test]
    fn reachable_build_equals_a_build_seeded_by_the_product_scan(
        inits in prop::collection::vec(arb_init(), 1..4),
    ) {
        let program = program(&inits);
        let (states, init, succ) = product_seeded_build(&program);
        for cfg in configs().into_iter().chain([ScanConfig::reference()]) {
            let ts = TransitionSystem::build(&program, Universe::Reachable, &cfg).unwrap();
            prop_assert_eq!(ts.len(), states.len());
            prop_assert_eq!(&ts.init, &init);
            for (id, s) in states.iter().enumerate() {
                prop_assert_eq!(&ts.state(id as u32), s, "state {}", id);
                for (c, &want) in succ[id].iter().enumerate() {
                    prop_assert_eq!(ts.succ_at(id, c), want, "state {} command {}", id, c);
                }
                let moves = succ[id].iter().filter(|&&w| w as usize != id).count();
                prop_assert_eq!(ts.succ_row(id).len(), moves, "moves of state {}", id);
            }
        }
    }
}

/// A group the property does not mention sits at its first satisfying
/// assignment, not at its domain minimum: the witness of `init x == 3`
/// under `x == 2 && y > 0` carries `y == 1`.
#[test]
fn unmentioned_groups_sit_at_their_first_satisfying_assignment() {
    let program = program(&[and2(eq(var(X), int(2)), gt(var(Y), int(0)))]);
    let p = eq(var(X), int(3));
    let expected = product_walk(&program, &p).expect("refuted");
    for cfg in configs() {
        let verdict = Verifier::new(&program, cfg).verify(&Property::Init(p.clone()));
        assert_eq!(
            verdict.outcome,
            Outcome::Fail {
                cex: Counterexample::Init {
                    state: expected.clone()
                }
            }
        );
        // The scan covered `x` alone: its group meets no other.
        let VerdictStats::Explicit { states, .. } = verdict.stats else {
            panic!("explicit counters");
        };
        assert_eq!(states, 4);
    }
}

/// An unsatisfiable group leaves no initial state: every `init p`
/// holds, and the reachable system is empty.
#[test]
fn an_unsatisfiable_group_means_no_initial_states() {
    let program = program(&[eq(var(A), tt()), lt(add(var(Y), var(Z)), int(-1))]);
    for cfg in configs() {
        let mut session = Verifier::new(&program, cfg.clone());
        assert!(session.verify(&Property::Init(ff())).passed());
        assert!(session.verify(&Property::Invariant(var(B))).failed());
        let ts = TransitionSystem::build(&program, Universe::Reachable, &cfg).unwrap();
        assert!(ts.is_empty() && ts.init.is_empty());
    }
}
