//! Exact `leadsto` checking under weak fairness.
//!
//! In the paper's model every command is total (always executable), so a
//! *fair* execution is exactly an infinite command sequence in which every
//! `d ∈ D` occurs infinitely often (the implicit `skip` may pad the
//! schedule arbitrarily). `p ↦ q` holds iff every fair execution from a
//! `p`-state eventually visits a `q`-state.
//!
//! **Decision procedure.** `p ↦ q` is violated iff the `¬q`-restricted
//! transition graph contains an SCC `S` such that *for every* `d ∈ D` some
//! state of `S` has its `d`-successor inside `S` (then a fair run can
//! circulate in `S` forever, taking each `d` infinitely often — plus
//! `skip`-stuttering for padding), and `S` is reachable from a `p ∧ ¬q`
//! state through `¬q` states. Conversely, a fair run avoiding `q` forever
//! eventually stays inside one SCC of the `¬q` graph and must take each
//! `d`-edge inside it infinitely often, so the condition is exact.
//!
//! **Engine.** The default formulation is a worklist over the session's
//! CSR predecessor index ([`crate::pred::PredIndex`]): SCCs of the `¬q`
//! subgraph come from a pooled-scratch Tarjan
//! ([`crate::scc::tarjan_scc_pooled`] — components are ranges into one
//! flat order array, no per-check allocation), and the "which `¬q`
//! states can reach a fair trap" propagation walks predecessor rows
//! from the trap members, touching `O(|¬q| + pred-edges into ¬q)`
//! states instead of rescanning the whole table until quiescence. The
//! pre-worklist formulation is kept verbatim as
//! [`check_leadsto_on_reference`] (the `leadsto` engine under
//! [`ScanConfig::reference`]); the `prop_leadsto_worklist` differential
//! suite pins the two to identical verdicts and witnesses.
//!
//! Counterexamples are lassos: a `¬q` prefix from the violating `p`-state
//! into the fair trap.

use unity_core::expr::Expr;
use unity_core::program::Program;
use unity_core::state::State;

use crate::parallel::ParConfig;
use crate::pred::PredIndex;
use crate::scc::{tarjan_scc, tarjan_scc_pooled, SccScratch};
use crate::space::{Engine, ScanConfig};
use crate::trace::{Counterexample, McError};
use crate::transition::{TransitionSystem, Universe};

/// Outcome of a leadsto analysis, including size and traversal
/// statistics.
#[derive(Debug, Clone)]
pub struct LeadsToReport {
    /// States explored.
    pub states: usize,
    /// Transitions stored (the full successor table — the check itself
    /// traverses only the `¬q` rows; see
    /// [`LeadsToReport::scanned_states`]).
    pub transitions: usize,
    /// Number of SCCs in the `¬q` subgraph.
    pub sccs: usize,
    /// Number of fair traps found (0 when the property holds).
    pub traps: usize,
    /// `¬q` states actually visited by the SCC pass — the region this
    /// check's cost scales with.
    pub scanned_states: usize,
    /// Predecessor edges walked by the backward worklist (0 on the
    /// reference formulation, which has no predecessor index).
    pub pred_edges: usize,
    /// States pushed onto the backward worklist, trap seeds included
    /// (0 on the reference formulation).
    pub worklist_pushes: usize,
    /// Wall-clock milliseconds the transition-system construction took
    /// (memoized sessions pay this once and report it on every check).
    pub build_ms: u64,
}

/// Pooled per-session buffers for the worklist liveness engine: the
/// Tarjan scratch plus trap/danger marks and the worklist itself. Held
/// in the verifier session's `EngineCache`, so a spec with many
/// `leadsto` checks reuses one set of arrays across all of them.
#[derive(Debug, Clone, Default)]
pub(crate) struct LivenessScratch {
    /// Pooled Tarjan buffers (components as flat ranges).
    scc: SccScratch,
    /// Trap flag per component of the last run.
    trap: Vec<bool>,
    /// Backward-reachability marks ("can reach a trap through `¬q`").
    dangerous: Vec<bool>,
    /// The backward worklist.
    worklist: Vec<u32>,
}

/// Checks `p ↦ q` on `program` over the chosen universe.
pub fn check_leadsto(
    program: &Program,
    p: &Expr,
    q: &Expr,
    universe: Universe,
    cfg: &ScanConfig,
) -> Result<LeadsToReport, McError> {
    check_leadsto_in(
        program,
        p,
        q,
        universe,
        cfg,
        &mut crate::verifier::EngineCache::default(),
    )
}

/// Session form of [`check_leadsto`]: the transition system, its CSR
/// predecessor index, and the liveness scratch all come from the cache,
/// so a spec with many `leadsto` checks builds each once.
pub(crate) fn check_leadsto_in(
    program: &Program,
    p: &Expr,
    q: &Expr,
    universe: Universe,
    cfg: &ScanConfig,
    cache: &mut crate::verifier::EngineCache,
) -> Result<LeadsToReport, McError> {
    into_result(check_leadsto_outcome_in(
        program, p, q, universe, cfg, cache,
    )?)
}

/// [`check_leadsto_in`] in outcome form: `Ok((report, refutation))`
/// when the analysis ran (refuted checks keep their traversal
/// counters), `Err` only for infrastructure failures (space bound,
/// typing). This is what [`crate::verifier::Verifier::verify`] consumes
/// so failing `leadsto` verdicts still carry cost stats.
pub(crate) fn check_leadsto_outcome_in(
    program: &Program,
    p: &Expr,
    q: &Expr,
    universe: Universe,
    cfg: &ScanConfig,
    cache: &mut crate::verifier::EngineCache,
) -> Result<(LeadsToReport, Option<McError>), McError> {
    p.check_pred(&program.vocab)?;
    q.check_pred(&program.vocab)?;
    let ts = cache.transition_system(program, universe, cfg)?;
    if matches!(cfg.engine, Engine::Reference) {
        // The pre-worklist formulation, kept as the semantics of record
        // for the differential suites.
        return Ok(reference_outcome(&ts, program, p, q));
    }
    let pred = cache.pred_index(&ts, universe);
    Ok(check_leadsto_worklist(
        &ts,
        &pred,
        &mut cache.liveness,
        program,
        p,
        q,
        &cfg.par,
    ))
}

/// Checks `p ↦ q` on a prebuilt transition system (the program supplies
/// the vocabulary for predicate evaluation) with the worklist engine,
/// building a throwaway predecessor index and scratch. Checking several
/// properties against one system? Use a [`LeadsToEngine`] (or a full
/// [`crate::verifier::Verifier`] session) so the index and scratch are
/// built once.
pub fn check_leadsto_on(
    ts: &TransitionSystem,
    program: &Program,
    p: &Expr,
    q: &Expr,
) -> Result<LeadsToReport, McError> {
    LeadsToEngine::new(ts).check(program, p, q)
}

/// A reusable worklist liveness engine over one prebuilt transition
/// system: the CSR predecessor index is inverted once and the scratch
/// buffers are pooled, so a battery of `p ↦ q` checks pays for both
/// exactly once. [`crate::verifier::Verifier`] sessions get the same
/// sharing through their engine cache; this type serves callers that
/// already hold a [`TransitionSystem`].
pub struct LeadsToEngine<'ts> {
    ts: &'ts TransitionSystem,
    pred: PredIndex,
    scratch: LivenessScratch,
    par: ParConfig,
}

impl<'ts> LeadsToEngine<'ts> {
    /// Builds the engine (inverts the predecessor index) with default
    /// sweep parallelism.
    pub fn new(ts: &'ts TransitionSystem) -> Self {
        Self::with_par(ts, ParConfig::default())
    }

    /// Builds the engine with explicit sweep parallelism (the
    /// predecessor inversion always runs on one thread).
    pub fn with_par(ts: &'ts TransitionSystem, par: ParConfig) -> Self {
        LeadsToEngine {
            ts,
            pred: PredIndex::build(ts),
            scratch: LivenessScratch::default(),
            par,
        }
    }

    /// Checks `p ↦ q` against the engine's transition system.
    pub fn check(
        &mut self,
        program: &Program,
        p: &Expr,
        q: &Expr,
    ) -> Result<LeadsToReport, McError> {
        p.check_pred(&program.vocab)?;
        q.check_pred(&program.vocab)?;
        into_result(check_leadsto_worklist(
            self.ts,
            &self.pred,
            &mut self.scratch,
            program,
            p,
            q,
            &self.par,
        ))
    }
}

/// The worklist liveness core: `¬q`-localized pooled Tarjan, trap
/// detection over flat component ranges, and backward trap-reachability
/// as a predecessor-row worklist. Returns the traversal report plus
/// the refutation, if any — callers that want `Result` convention use
/// [`into_result`]; the verifier keeps both so refuted checks still
/// carry their cost counters.
fn check_leadsto_worklist(
    ts: &TransitionSystem,
    pred: &PredIndex,
    scratch: &mut LivenessScratch,
    program: &Program,
    p: &Expr,
    q: &Expr,
    par: &ParConfig,
) -> (LeadsToReport, Option<McError>) {
    let n = ts.len();
    let mut not_q = ts.sat_vec_with(q, par);
    for b in &mut not_q {
        *b = !*b;
    }

    // SCCs of the ¬q-restricted graph, into the pooled scratch:
    // components are ranges of one flat order array, comp ids are dense.
    let succ = |v: u32| ts.succ_row(v as usize);
    let LivenessScratch {
        scc,
        trap,
        dangerous,
        worklist,
    } = scratch;
    tarjan_scc_pooled(&not_q, succ, scc);

    // A trap: for every fair command d, some member state keeps its
    // d-successor inside the component. (Trivial SCCs — single state whose
    // d-successors all leave or all equal itself — qualify iff the
    // self-loop condition holds for all d; with D empty every SCC is a trap
    // because skip alone realizes a fair run.)
    trap.clear();
    let mut traps = 0usize;
    for cid in 0..scc.comp_count() {
        let members = scc.members(cid);
        let is_trap = ts.fair.iter().all(|&d| {
            members.iter().any(|&v| {
                let w = ts.succ_at(v as usize, d);
                not_q[w as usize] && scc.comp_of(w) == cid as u32
            })
        });
        trap.push(is_trap);
        traps += is_trap as usize;
    }

    // Which ¬q states can reach a trap through ¬q states? Seed the
    // worklist with the trap members and walk predecessor rows: each
    // state is pushed at most once, so the propagation costs the trap
    // region's in-edges, not whole-table rescans.
    dangerous.clear();
    dangerous.resize(n, false);
    worklist.clear();
    for (cid, &is_trap) in trap.iter().enumerate() {
        if is_trap {
            for &v in scc.members(cid) {
                dangerous[v as usize] = true;
                worklist.push(v);
            }
        }
    }
    let mut worklist_pushes = worklist.len();
    let mut pred_edges = 0usize;
    while let Some(v) = worklist.pop() {
        let row = pred.row(v);
        pred_edges += row.len();
        for &u in row {
            if not_q[u as usize] && !dangerous[u as usize] {
                dangerous[u as usize] = true;
                worklist.push(u);
                worklist_pushes += 1;
            }
        }
    }

    let report = LeadsToReport {
        states: n,
        transitions: ts.transition_count(),
        sccs: scc.comp_count(),
        traps,
        scanned_states: scc.visited(),
        pred_edges,
        worklist_pushes,
        build_ms: ts.build_stats().build_ms,
    };

    // No trap ⇒ nothing is dangerous ⇒ no start state can exist: the
    // property holds without ever sweeping for `p`. (The common passing
    // case costs only the `q` sweep and the localized SCC pass.)
    if traps == 0 {
        return (report, None);
    }

    // A violation starts at any state satisfying p ∧ ¬q that is dangerous.
    // (p-states satisfying q are immediately fine.)
    let p_sat = ts.sat_vec_with(p, par);
    let start = (0..n).find(|&v| not_q[v] && dangerous[v] && p_sat[v]);

    match start {
        None => (report, None),
        Some(v0) => {
            let trap_member = |u: u32| not_q[u as usize] && trap[scc.comp_of(u) as usize];
            let (prefix_ids, target) = lasso_prefix(ts, &not_q, trap_member, v0 as u32);
            let trap_states: Vec<State> = match target {
                Some(t) => scc
                    .members(scc.comp_of(t) as usize)
                    .iter()
                    .map(|&v| ts.state(v))
                    .collect(),
                None => Vec::new(),
            };
            let err = refuted_leadsto(program, p, q, ts, prefix_ids, trap_states);
            (report, Some(err))
        }
    }
}

/// Collapses a core outcome back to the free functions' `Result`
/// convention.
fn into_result(outcome: (LeadsToReport, Option<McError>)) -> Result<LeadsToReport, McError> {
    match outcome {
        (report, None) => Ok(report),
        (_, Some(err)) => Err(err),
    }
}

/// Checks `p ↦ q` on a prebuilt transition system with the pre-worklist
/// formulation: per-check [`tarjan_scc`] materialization and the
/// whole-table backward `dangerous` fixpoint, rescanned until
/// quiescent. This is the `leadsto` engine under
/// [`ScanConfig::reference`]; the differential proptests (and the
/// `e20_leadsto` bench) pin the worklist engine against it.
pub fn check_leadsto_on_reference(
    ts: &TransitionSystem,
    program: &Program,
    p: &Expr,
    q: &Expr,
) -> Result<LeadsToReport, McError> {
    into_result(reference_outcome(ts, program, p, q))
}

/// The pre-worklist core in outcome form (report plus optional
/// refutation) — the shape the verifier consumes so refuted checks
/// keep their counters.
fn reference_outcome(
    ts: &TransitionSystem,
    program: &Program,
    p: &Expr,
    q: &Expr,
) -> (LeadsToReport, Option<McError>) {
    let n = ts.len();
    let not_q: Vec<bool> = ts.sat_vec(q).into_iter().map(|b| !b).collect();

    // SCCs of the ¬q-restricted graph.
    let succ = |v: u32| ts.succ_row(v as usize);
    let sccs = tarjan_scc(&not_q, succ);

    let mut comp_of: Vec<u32> = vec![u32::MAX; n];
    for (cid, comp) in sccs.iter().enumerate() {
        for &v in comp {
            comp_of[v as usize] = cid as u32;
        }
    }
    let is_trap = |comp: &[u32]| -> bool {
        ts.fair.iter().all(|&d| {
            comp.iter().any(|&v| {
                let w = ts.succ_at(v as usize, d);
                not_q[w as usize] && comp_of[w as usize] == comp_of[v as usize]
            })
        })
    };
    let trap_flags: Vec<bool> = sccs.iter().map(|c| is_trap(c)).collect();
    let traps = trap_flags.iter().filter(|&&t| t).count();

    // Which ¬q states can reach a trap through ¬q states? Propagate
    // backwards: mark trap members, then iterate successor scans over
    // the whole table until quiescent.
    let mut dangerous: Vec<bool> = vec![false; n];
    for (comp, &flag) in sccs.iter().zip(&trap_flags) {
        if flag {
            for &v in comp {
                dangerous[v as usize] = true;
            }
        }
    }
    loop {
        let mut changed = false;
        for v in 0..n {
            if !not_q[v] || dangerous[v] {
                continue;
            }
            if ts.succ_row(v).iter().any(|&w| dangerous[w as usize]) {
                dangerous[v] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // A violation starts at any state satisfying p ∧ ¬q that is dangerous.
    let p_sat = ts.sat_vec(p);
    let start = (0..n).find(|&v| not_q[v] && dangerous[v] && p_sat[v]);

    let report = LeadsToReport {
        states: n,
        transitions: ts.transition_count(),
        sccs: sccs.len(),
        traps,
        scanned_states: not_q.iter().filter(|&&b| b).count(),
        pred_edges: 0,
        worklist_pushes: 0,
        build_ms: ts.build_stats().build_ms,
    };

    match start {
        None => (report, None),
        Some(v0) => {
            let trap_member = |u: u32| {
                let cid = comp_of[u as usize];
                cid != u32::MAX && trap_flags[cid as usize]
            };
            let (prefix_ids, target) = lasso_prefix(ts, &not_q, trap_member, v0 as u32);
            let trap_states: Vec<State> = match target {
                // `comp_of` is already built — index it directly
                // instead of rescanning every component for membership.
                Some(t) => sccs[comp_of[t as usize] as usize]
                    .iter()
                    .map(|&v| ts.state(v))
                    .collect(),
                None => Vec::new(),
            };
            let err = refuted_leadsto(program, p, q, ts, prefix_ids, trap_states);
            (report, Some(err))
        }
    }
}

/// BFS from `v0` through `¬q` states to the nearest trap member (per
/// `trap_member`); returns the prefix state ids and the trap entry
/// point. Shared by both formulations so lassos are identical
/// witness-for-witness.
fn lasso_prefix(
    ts: &TransitionSystem,
    not_q: &[bool],
    trap_member: impl Fn(u32) -> bool,
    v0: u32,
) -> (Vec<u32>, Option<u32>) {
    match ts.shortest_path(&[v0], |w| not_q[w as usize], trap_member) {
        Some(prefix_ids) => {
            let target = prefix_ids.last().copied();
            (prefix_ids, target)
        }
        None => (vec![v0], None),
    }
}

/// Assembles the refutation error from decoded lasso pieces.
fn refuted_leadsto(
    program: &Program,
    p: &Expr,
    q: &Expr,
    ts: &TransitionSystem,
    prefix_ids: Vec<u32>,
    trap: Vec<State>,
) -> McError {
    McError::Refuted {
        property: format!(
            "{} leadsto {}",
            unity_core::expr::pretty::Render::new(p, &program.vocab),
            unity_core::expr::pretty::Render::new(q, &program.vocab)
        ),
        cex: Counterexample::LeadsTo {
            prefix: prefix_ids.into_iter().map(|v| ts.state(v)).collect(),
            trap,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use unity_core::domain::Domain;
    use unity_core::expr::build::*;
    use unity_core::ident::Vocabulary;
    use unity_core::program::Program;

    fn counter(k: i64, fair: bool) -> Program {
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, k).unwrap()).unwrap();
        let b = Program::builder("counter", Arc::new(v)).init(eq(var(x), int(0)));
        let b = if fair {
            b.fair_command("inc", lt(var(x), int(k)), vec![(x, add(var(x), int(1)))])
        } else {
            b.command("inc", lt(var(x), int(k)), vec![(x, add(var(x), int(1)))])
        };
        b.build().unwrap()
    }

    #[test]
    fn fair_counter_reaches_top() {
        let p = counter(4, true);
        let x = p.vocab.lookup("x").unwrap();
        let report = check_leadsto(
            &p,
            &tt(),
            &eq(var(x), int(4)),
            Universe::Reachable,
            &ScanConfig::default(),
        )
        .unwrap();
        assert_eq!(report.states, 5);
        assert_eq!(report.traps, 0);
        assert_eq!(report.scanned_states, 4, "only the ¬q chain is visited");
        assert_eq!(report.worklist_pushes, 0, "no traps, nothing to propagate");
        assert_eq!(report.pred_edges, 0);
    }

    #[test]
    fn unfair_counter_can_stall() {
        // Same program but `inc` not in D: skip-only runs are fair, so the
        // property fails.
        let p = counter(4, false);
        let x = p.vocab.lookup("x").unwrap();
        let err = check_leadsto(
            &p,
            &tt(),
            &eq(var(x), int(4)),
            Universe::Reachable,
            &ScanConfig::default(),
        )
        .unwrap_err();
        match err {
            McError::Refuted {
                cex: Counterexample::LeadsTo { prefix, trap },
                ..
            } => {
                assert!(!prefix.is_empty());
                assert!(!trap.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn two_counters_interleave_fairly() {
        // Both fair counters must each reach their bound.
        let mut v = Vocabulary::new();
        let a = v.declare("a", Domain::int_range(0, 2).unwrap()).unwrap();
        let b = v.declare("b", Domain::int_range(0, 2).unwrap()).unwrap();
        let p = Program::builder("two", Arc::new(v))
            .init(and2(eq(var(a), int(0)), eq(var(b), int(0))))
            .fair_command("ia", lt(var(a), int(2)), vec![(a, add(var(a), int(1)))])
            .fair_command("ib", lt(var(b), int(2)), vec![(b, add(var(b), int(1)))])
            .build()
            .unwrap();
        check_leadsto(
            &p,
            &tt(),
            &eq(var(a), int(2)),
            Universe::Reachable,
            &ScanConfig::default(),
        )
        .unwrap();
        check_leadsto(
            &p,
            &tt(),
            &eq(var(b), int(2)),
            Universe::Reachable,
            &ScanConfig::default(),
        )
        .unwrap();
        check_leadsto(
            &p,
            &tt(),
            &and2(eq(var(a), int(2)), eq(var(b), int(2))),
            Universe::Reachable,
            &ScanConfig::default(),
        )
        .unwrap();
    }

    #[test]
    fn oscillator_never_settles() {
        // x flips forever fairly: leadsto "x stays 1" fails, but
        // "eventually x == 1" holds.
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::Bool).unwrap();
        let p = Program::builder("osc", Arc::new(v))
            .init(not(var(x)))
            .fair_command("flip", tt(), vec![(x, not(var(x)))])
            .build()
            .unwrap();
        check_leadsto(
            &p,
            &tt(),
            &var(x),
            Universe::Reachable,
            &ScanConfig::default(),
        )
        .unwrap();
        check_leadsto(
            &p,
            &tt(),
            &not(var(x)),
            Universe::Reachable,
            &ScanConfig::default(),
        )
        .unwrap();
        // But it never *stays*: false leadsto is about reaching, so to see
        // failure we ask for an unreachable target.
        let mut w = Vocabulary::new();
        w.declare("x", Domain::Bool).unwrap();
        let err = check_leadsto(
            &p,
            &tt(),
            &ff(),
            Universe::Reachable,
            &ScanConfig::default(),
        );
        assert!(err.is_err(), "nothing leads to false");
    }

    #[test]
    fn all_states_universe_is_stricter() {
        // From unreachable states the property may fail even if it holds
        // reachably: start at 3 with guard x < 2 (stuck below the target).
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
        let p = Program::builder("c", Arc::new(v))
            .init(eq(var(x), int(2)))
            .fair_command("inc", lt(var(x), int(2)), vec![(x, add(var(x), int(1)))])
            .build()
            .unwrap();
        // Reachable: only state 2; x == 2 already satisfies the target.
        check_leadsto(
            &p,
            &tt(),
            &ge(var(x), int(2)),
            Universe::Reachable,
            &ScanConfig::default(),
        )
        .unwrap();
        // All states: from 0 we can only climb to 2 — fine; but target
        // x == 3 is unreachable from everywhere: fails in both universes.
        assert!(check_leadsto(
            &p,
            &tt(),
            &eq(var(x), int(3)),
            Universe::Reachable,
            &ScanConfig::default()
        )
        .is_err());
        // From state 3 itself the target x == 3 holds immediately, yet in
        // the AllStates universe state 1 can never exceed 2: still fails.
        assert!(check_leadsto(
            &p,
            &tt(),
            &eq(var(x), int(3)),
            Universe::AllStates,
            &ScanConfig::default()
        )
        .is_err());
    }

    #[test]
    fn worklist_and_reference_agree_on_the_counter_family() {
        // Spot check ahead of the property suite: identical verdicts,
        // trap counts and witnesses on the same transition system.
        for fair in [true, false] {
            let p = counter(4, fair);
            let x = p.vocab.lookup("x").unwrap();
            for universe in [Universe::Reachable, Universe::AllStates] {
                let ts = TransitionSystem::build(&p, universe, &ScanConfig::default()).unwrap();
                for q in [eq(var(x), int(4)), eq(var(x), int(2)), ff(), tt()] {
                    let fast = check_leadsto_on(&ts, &p, &tt(), &q);
                    let slow = check_leadsto_on_reference(&ts, &p, &tt(), &q);
                    match (fast, slow) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.sccs, b.sccs);
                            assert_eq!(a.traps, b.traps);
                            assert_eq!(a.scanned_states, b.scanned_states);
                        }
                        (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}")),
                        (a, b) => panic!("verdicts diverged: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn empty_fair_set_makes_every_scc_a_trap() {
        // D = ∅: skip alone is a fair run, so every ¬q SCC traps — in
        // both formulations.
        let p = counter(3, false);
        let x = p.vocab.lookup("x").unwrap();
        let ts = TransitionSystem::build(&p, Universe::Reachable, &ScanConfig::default()).unwrap();
        let q = eq(var(x), int(3));
        let fast = check_leadsto_on(&ts, &p, &tt(), &q).unwrap_err();
        let slow = check_leadsto_on_reference(&ts, &p, &tt(), &q).unwrap_err();
        assert_eq!(format!("{fast}"), format!("{slow}"));
    }

    #[test]
    fn refuted_leadsto_verdicts_keep_their_counters() {
        use unity_core::properties::Property;
        // The analysis runs in full before refuting: the verdict must
        // carry the traversal counters, on both engine stacks.
        let p = counter(4, false);
        let x = p.vocab.lookup("x").unwrap();
        for cfg in [ScanConfig::default(), ScanConfig::reference()] {
            let mut session = crate::verifier::Verifier::new(&p, cfg);
            let v = session.verify(&Property::LeadsTo(tt(), eq(var(x), int(4))));
            assert!(v.failed(), "{v:?}");
            match v.stats {
                crate::verifier::VerdictStats::Explicit {
                    states,
                    scanned_states,
                    ..
                } => {
                    assert!(states > 0);
                    assert!(scanned_states > 0);
                }
                ref other => panic!("refuted leadsto keeps explicit stats, got {other:?}"),
            }
        }
    }

    #[test]
    fn session_reuses_pred_index_and_scratch() {
        use unity_core::properties::Property;
        let p = counter(4, true);
        let x = p.vocab.lookup("x").unwrap();
        let mut session = crate::verifier::Verifier::new(&p, ScanConfig::default());
        for k in [4, 3, 2] {
            let v = session.verify(&Property::LeadsTo(tt(), ge(var(x), int(k))));
            assert!(v.passed(), "{v:?}");
        }
        // The pred index was built once and memoized.
        assert!(session.status().ts_reachable);
    }
}
