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
//! `d`-edge inside it infinitely often, so the condition is exact. Such
//! an `S` is a *fair trap*. A `d` that stutters at a member keeps its
//! successor inside `S`, so `d` is covered iff it stutters at some member
//! or moves from a member into `S`; a single state is a trap iff no fair
//! command moves there.
//!
//! **Engine.** The default formulation decides the check with one SCC
//! pass over the `¬q` states that the `p ∧ ¬q` states reach
//! ([`crate::scc::tarjan_scc_pooled`] rooted at them, with pooled
//! scratch: components are ranges into one flat order array). A trap in
//! that region is reachable from a `p`-state, so finding one refutes the
//! check, and finding none proves it: no predecessor walk, no search for
//! a start state, and none of the `¬q` states that no `p`-state reaches.
//! Each component's trap test reads its members' move rows, each at most
//! once, and never searches a row for one command.
//!
//! A refutation rebuilds the witness the reference formulation prints.
//! The "which `¬q` states can reach a fair trap" propagation walks the
//! session's CSR predecessor index ([`crate::pred::PredIndex`]) back
//! from the trap members, and the start state is the lowest-id dangerous
//! `p ∧ ¬q` state. The lasso lists its trap in the pop order of the pass
//! rooted at *every* `¬q` state, which depends on where the depth-first
//! search enters the trap; when the trap has several states and some
//! `¬q` state is not a root, that pass is rerun for the listing. The
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
    /// Transitions of the system, stutters included (states ×
    /// commands). The system stores only the moves among them, and the
    /// check itself traverses only the `¬q` rows; see
    /// [`LeadsToReport::scanned_states`].
    pub transitions: usize,
    /// Number of SCCs the SCC pass found: on the worklist engine, those
    /// of the `¬q` states reachable from `p ∧ ¬q` through `¬q`; on the
    /// reference formulation, those of every `¬q` state.
    pub sccs: usize,
    /// Number of fair traps among those SCCs. Always 0 when the property
    /// holds on the worklist engine; the reference formulation also
    /// counts traps that no `p ∧ ¬q` state reaches.
    pub traps: usize,
    /// `¬q` states actually visited by the SCC pass — the region this
    /// check's cost scales with (see [`LeadsToReport::sccs`]).
    pub scanned_states: usize,
    /// Predecessor edges walked by the backward worklist that a
    /// refutation runs (0 on a pass, and on the reference formulation,
    /// which has no predecessor index). The index holds moves only, so a
    /// stutter is never walked.
    pub pred_edges: usize,
    /// States pushed onto that backward worklist, trap seeds included
    /// (0 on a pass and on the reference formulation).
    pub worklist_pushes: usize,
    /// Wall-clock milliseconds the transition-system construction took
    /// (memoized sessions pay this once and report it on every check).
    pub build_ms: u64,
}

/// Pooled per-session buffers for the worklist liveness engine: the
/// Tarjan scratch, the trap test's fair-command table and escaping list,
/// trap/danger marks and the worklist itself. Held in the verifier session's
/// `EngineCache`, so a spec with many `leadsto` checks reuses one set of
/// arrays across all of them.
#[derive(Debug, Clone, Default)]
pub(crate) struct LivenessScratch {
    /// Pooled Tarjan buffers (components as flat ranges).
    scc: SccScratch,
    /// Whether each command is fair, by command index.
    fair: Vec<bool>,
    /// The trap test's fair commands that no member so far keeps inside
    /// the component, ascending.
    escaping: Vec<u32>,
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
    // A passing check never walks the predecessor index, and a refuted
    // one could order its danger walk by Tarjan's components instead.
    // Every explicit check still requests it: the benchmark's replay
    // builds it for each flat `leadsto` submission and requires the
    // daemon's `pred_reachable` cache outcome to match. Building it
    // lazily, or not at all, waits for that replay to accept avoided
    // work.
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

/// The worklist liveness core: a pooled Tarjan pass rooted at the
/// `p ∧ ¬q` states decides the check, and a refutation adds the
/// backward trap-reachability worklist, the start state and the lasso.
/// Returns the traversal report plus the refutation, if any — callers
/// that want `Result` convention use [`into_result`]; the verifier keeps
/// both so refuted checks still carry their cost counters.
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
    let p_sat = ts.sat_vec_with(p, par);
    let LivenessScratch {
        scc,
        fair,
        escaping,
        trap,
        dangerous,
        worklist,
    } = scratch;
    fair.clear();
    fair.resize(ts.n_commands, false);
    for &d in &ts.fair {
        fair[d] = true;
    }

    // The decision pass: SCCs of the ¬q states that the p ∧ ¬q states
    // reach through ¬q. A fair run from a p-state that avoids q forever
    // never leaves this region, so the check fails iff it holds a trap.
    let succ = |v: u32| ts.succ_row(v as usize);
    let roots = (0..n as u32).filter(|&v| not_q[v as usize] && p_sat[v as usize]);
    tarjan_scc_pooled(&not_q, roots, succ, scc);
    let traps = mark_traps(ts, scc, fair, escaping, trap);
    let mut report = LeadsToReport {
        states: n,
        transitions: ts.transition_count(),
        sccs: scc.comp_count(),
        traps,
        scanned_states: scc.visited(),
        pred_edges: 0,
        worklist_pushes: 0,
        build_ms: ts.build_stats().build_ms,
    };
    if traps == 0 {
        return (report, None);
    }

    // Which ¬q states can reach a trap through ¬q states? Seed the
    // worklist with the trap members and walk predecessor rows: each
    // state is pushed at most once, so the propagation costs the trap
    // region's in-edges, not whole-table rescans. Every trap that a
    // p ∧ ¬q state reaches lies in the decision region, so the
    // dangerous p ∧ ¬q states are those of the reference formulation.
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
    report.worklist_pushes = worklist.len();
    while let Some(v) = worklist.pop() {
        let row = pred.row(v);
        report.pred_edges += row.len();
        for &u in row {
            if not_q[u as usize] && !dangerous[u as usize] {
                dangerous[u as usize] = true;
                worklist.push(u);
                report.worklist_pushes += 1;
            }
        }
    }

    // A violation starts at the lowest-id dangerous p ∧ ¬q state; the
    // root that reaches the trap found is one.
    let v0 = (0..n)
        .find(|&v| not_q[v] && dangerous[v] && p_sat[v])
        .expect("a trap found from a p ∧ ¬q root makes that root dangerous") as u32;
    // The prefix stays in v0's ¬q region, where components and trap
    // flags are those of the pass from every ¬q state.
    let trap_member = |u: u32| trap.get(scc.comp_of(u) as usize) == Some(&true);
    let (prefix_ids, target) = lasso_prefix(ts, &not_q, trap_member, v0);
    let trap_states: Vec<State> = match target {
        Some(t) => {
            // A trap's members are listed in the pop order of the pass
            // from every ¬q state, which depends on where that pass
            // enters the trap. Rerun it unless the two passes coincide
            // (every ¬q state is a root) or the order cannot differ (a
            // single state).
            if scc.members(scc.comp_of(t) as usize).len() > 1
                && (0..n).any(|v| not_q[v] && !p_sat[v])
            {
                tarjan_scc_pooled(&not_q, 0..n as u32, succ, scc);
            }
            scc.members(scc.comp_of(t) as usize)
                .iter()
                .map(|&v| ts.state(v))
                .collect()
        }
        None => Vec::new(),
    };
    let err = refuted_leadsto(program, p, q, ts, prefix_ids, trap_states);
    (report, Some(err))
}

/// Flags each component of the last Tarjan pass in `scc` that is a fair
/// trap into `trap`, and returns how many are. A fair command escapes a
/// component if it moves out of it from every member: it neither
/// stutters at a member nor moves from one into the component. The
/// component is a trap iff no fair command escapes (with `D` empty, every
/// component is). This equals the reference's `succ_at` test. It reads
/// move rows instead: a single state traps iff no fair command moves
/// there, and a larger component narrows the escaping commands member by
/// member, stopping once none is left.
fn mark_traps(
    ts: &TransitionSystem,
    scc: &SccScratch,
    fair: &[bool],
    escaping: &mut Vec<u32>,
    trap: &mut Vec<bool>,
) -> usize {
    trap.clear();
    for cid in 0..scc.comp_count() {
        let is_trap = match scc.members(cid) {
            // A move never targets its own state, so every move leaves a
            // single state.
            [v] => !ts
                .move_commands(*v as usize)
                .iter()
                .any(|&c| fair[c as usize]),
            [first, rest @ ..] => {
                let cid = cid as u32;
                let leaves = |v: u32| {
                    let v = v as usize;
                    ts.move_commands(v)
                        .iter()
                        .zip(ts.succ_row(v))
                        .filter(move |&(_, &w)| scc.comp_of(w) != cid)
                        .map(|(&c, _)| c)
                };
                // A fair command missing from `leaves(v)` stutters at v or
                // moves from v into the component: it does not escape.
                escaping.clear();
                escaping.extend(leaves(*first).filter(|&c| fair[c as usize]));
                for &v in rest {
                    if escaping.is_empty() {
                        break;
                    }
                    let mut out = leaves(v).peekable();
                    escaping.retain(|&d| {
                        while out.next_if(|&c| c < d).is_some() {}
                        out.next_if_eq(&d).is_some()
                    });
                }
                escaping.is_empty()
            }
            [] => unreachable!("a component has a member"),
        };
        trap.push(is_trap);
    }
    trap.iter().filter(|&&t| t).count()
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
    use unity_core::ident::{VarId, Vocabulary};
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

    /// The lasso of a refuted check.
    fn lasso(err: McError) -> Counterexample {
        match err {
            McError::Refuted { cex, .. } => cex,
            other => panic!("expected a refutation, got {other:?}"),
        }
    }

    #[test]
    fn a_trap_no_p_state_reaches_leaves_the_check_passing() {
        // Over every x in 0..3, the fair `up` moves only 1 to 2. The stuck
        // states 0 and 3 are fair traps in ¬q, but no p-state reaches
        // them: the decision pass visits p's one state and finds none.
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
        let prog = Program::builder("up", Arc::new(v))
            .init(eq(var(x), int(1)))
            .fair_command("up", eq(var(x), int(1)), vec![(x, int(2))])
            .build()
            .unwrap();
        let ts =
            TransitionSystem::build(&prog, Universe::AllStates, &ScanConfig::default()).unwrap();
        let (p, q) = (eq(var(x), int(1)), eq(var(x), int(2)));
        let fast = check_leadsto_on(&ts, &prog, &p, &q).unwrap();
        assert_eq!(fast.traps, 0);
        assert_eq!((fast.sccs, fast.scanned_states), (1, 1));
        let slow = check_leadsto_on_reference(&ts, &prog, &p, &q).unwrap();
        assert_eq!(
            slow.traps, 2,
            "the reference counts the stuck states 0 and 3"
        );
    }

    #[test]
    fn a_trap_reached_only_through_non_p_states_refutes() {
        // 0 -> 1 -> 2, stuck at 2: the p-state 0 reaches the trap {2}
        // through 1, and 1 and 2 satisfy neither p nor q.
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
        let prog = Program::builder("inc", Arc::new(v))
            .init(eq(var(x), int(0)))
            .fair_command("inc", lt(var(x), int(2)), vec![(x, add(var(x), int(1)))])
            .build()
            .unwrap();
        let ts =
            TransitionSystem::build(&prog, Universe::Reachable, &ScanConfig::default()).unwrap();
        let (p, q) = (eq(var(x), int(0)), eq(var(x), int(3)));
        let fast = lasso(check_leadsto_on(&ts, &prog, &p, &q).unwrap_err());
        let slow = lasso(check_leadsto_on_reference(&ts, &prog, &p, &q).unwrap_err());
        assert_eq!(fast, slow);
        let Counterexample::LeadsTo { prefix, trap } = fast else {
            panic!("leadsto refutes with a lasso");
        };
        assert_eq!((prefix.len(), trap.len()), (3, 1));
    }

    #[test]
    fn a_multi_state_trap_is_listed_as_the_pass_from_every_not_q_state_lists_it() {
        // Over every x in 0..3: `flip` swaps 1 and 2, `drop` moves 3 to 2,
        // and q is x == 0. The trap {1, 2} is entered at 1 by the pass
        // from every ¬q state (1 is its lowest id) and at 2 by the pass
        // rooted at the p-state 3, so the two passes list its members in
        // opposite orders. The witness must list them as the reference.
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
        let prog = Program::builder("flip", Arc::new(v))
            .init(eq(var(x), int(3)))
            .fair_command(
                "flip",
                or2(eq(var(x), int(1)), eq(var(x), int(2))),
                vec![(x, sub(int(3), var(x)))],
            )
            .fair_command("drop", eq(var(x), int(3)), vec![(x, int(2))])
            .build()
            .unwrap();
        let ts =
            TransitionSystem::build(&prog, Universe::AllStates, &ScanConfig::default()).unwrap();
        let (p, q) = (eq(var(x), int(3)), eq(var(x), int(0)));

        // The premise: the two passes list the trap differently.
        let not_q: Vec<bool> = ts.sat_vec(&q).into_iter().map(|b| !b).collect();
        let succ = |v: u32| ts.succ_row(v as usize);
        let full = tarjan_scc(&not_q, succ);
        let mut rooted = SccScratch::default();
        let roots = ts.states_where(|s| unity_core::expr::eval::eval_bool(&p, s));
        tarjan_scc_pooled(&not_q, roots, succ, &mut rooted);
        let full_trap = full.iter().find(|c| c.len() == 2).expect("the trap {1, 2}");
        let rooted_trap = (0..rooted.comp_count())
            .map(|cid| rooted.members(cid))
            .find(|m| m.len() == 2)
            .expect("the trap {1, 2}");
        assert_ne!(full_trap.as_slice(), rooted_trap);

        let fast = lasso(check_leadsto_on(&ts, &prog, &p, &q).unwrap_err());
        let slow = lasso(check_leadsto_on_reference(&ts, &prog, &p, &q).unwrap_err());
        assert_eq!(fast, slow, "state for state");
        let Counterexample::LeadsTo { trap, .. } = fast else {
            panic!("leadsto refutes with a lasso");
        };
        let listed: Vec<State> = full_trap.iter().map(|&v| ts.state(v)).collect();
        assert_eq!(trap, listed);
    }

    #[test]
    fn commands_past_the_64th_count_in_the_trap_test() {
        // 64 fair commands swap x between 0 and 1; the fair command at
        // index 64 decides whether {0, 1} traps. Moving out of both states
        // it is never covered; stuck at 0 it is covered by that stutter.
        let build = |guard: fn(VarId) -> Expr| {
            let mut v = Vocabulary::new();
            let x = v.declare("x", Domain::int_range(0, 2).unwrap()).unwrap();
            let mut b = Program::builder("wide", Arc::new(v)).init(eq(var(x), int(0)));
            for k in 0..64 {
                b = b.fair_command(
                    format!("swap{k}"),
                    lt(var(x), int(2)),
                    vec![(x, sub(int(1), var(x)))],
                );
            }
            let prog = b
                .fair_command("out", guard(x), vec![(x, int(2))])
                .build()
                .unwrap();
            assert_eq!(prog.commands.len(), 65);
            (prog, x)
        };
        let (prog, x) = build(|x| lt(var(x), int(2)));
        let ts =
            TransitionSystem::build(&prog, Universe::Reachable, &ScanConfig::default()).unwrap();
        let q = eq(var(x), int(2));
        let fast = check_leadsto_on(&ts, &prog, &tt(), &q).unwrap();
        assert_eq!((fast.sccs, fast.traps), (1, 0));
        check_leadsto_on_reference(&ts, &prog, &tt(), &q).unwrap();

        let (prog, x) = build(|x| eq(var(x), int(1)));
        let ts =
            TransitionSystem::build(&prog, Universe::Reachable, &ScanConfig::default()).unwrap();
        let q = eq(var(x), int(2));
        let fast = lasso(check_leadsto_on(&ts, &prog, &tt(), &q).unwrap_err());
        let slow = lasso(check_leadsto_on_reference(&ts, &prog, &tt(), &q).unwrap_err());
        assert_eq!(fast, slow);
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
