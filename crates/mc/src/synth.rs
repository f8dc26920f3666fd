//! Automatic synthesis of kernel-checkable `leadsto` derivations.
//!
//! The paper remarks (§6) that it "found no mechanical way of bridging
//! the gap" between local properties and global liveness — the creative
//! step. This module mechanizes the *finite-instance* version of that
//! bridge: given a program and a goal `p ↦ q`, it extracts from the
//! reachable state space an **ensures chain** — layers of states, each
//! absorbed into the goal by one weakly-fair command — and emits a
//! derivation tree using only the paper's rules (Transient, PSP,
//! Implication, Disjunction, Transitivity, plus invariant elimination on
//! the left of `↦`, the move the paper itself makes in Property 8).
//!
//! The output is *checked*, never trusted: every leaf is a `transient` /
//! `next` / `init` / `stable` premise that the model checker re-verifies
//! under the paper's inductive all-states semantics, and the tree is run
//! through the proof kernel. Layer predicates are exact state-set
//! descriptors (DNF over the program's variables), so inductive and
//! reachability-restricted readings of every premise coincide; the
//! reachable set itself enters the proof as an explicit invariant,
//! mirroring the paper's own use of (26) in Property 8.
//!
//! ```
//! use std::sync::Arc;
//! use unity_core::prelude::*;
//! use unity_mc::prelude::*;
//! use unity_mc::synth::{synthesize_leadsto, SynthConfig};
//!
//! let mut v = Vocabulary::new();
//! let x = v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
//! let p = Program::builder("count", Arc::new(v))
//!     .init(eq(var(x), int(0)))
//!     .fair_command("inc", lt(var(x), int(3)), vec![(x, add(var(x), int(1)))])
//!     .build()
//!     .unwrap();
//! let synth = synthesize_leadsto(&p, &tt(), &eq(var(x), int(3)),
//!                                &SynthConfig::default(), &ScanConfig::default())
//!     .unwrap();
//! assert_eq!(synth.layers.len(), 3); // x=2, x=1, x=0 absorbed in turn
//! ```

use unity_core::expr::build::{and, and2, boolean, eq, int, not, or, or2, tt, var};
use unity_core::expr::Expr;
use unity_core::ident::Vocabulary;
use unity_core::program::Program;
use unity_core::proof::check::{check_concludes, CheckCtx, CheckStats};
use unity_core::proof::rules::Proof;
use unity_core::proof::{Discharger, Judgment, Scope};
use unity_core::properties::Property;
use unity_core::state::State;
use unity_core::value::Value;

use crate::parallel::ParConfig;
use crate::pred::PredIndex;
use crate::space::ScanConfig;
use crate::trace::McError;
use crate::transition::{TransitionSystem, Universe};
use crate::verifier::{EngineCache, Verifier};

/// Limits for the synthesizer.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Refuse to synthesize if the reachable space exceeds this (the
    /// proof embeds DNFs over reachable states, so this bounds proof
    /// size).
    pub max_states: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig { max_states: 4096 }
    }
}

/// Why synthesis failed.
#[derive(Debug)]
pub enum SynthError {
    /// Underlying model-checking failure (domain overflow etc.).
    Mc(McError),
    /// Reachable space exceeds [`SynthConfig::max_states`].
    TooLarge {
        /// Reachable state count.
        states: usize,
        /// Configured cap.
        max: usize,
    },
    /// The goal is not live: some reachable `p`-state is never absorbed
    /// by any ensures layer (the property is false or needs a
    /// non-ensures argument).
    NotLive {
        /// Reachable `p`-states left uncovered by the fixpoint.
        uncovered: Vec<State>,
    },
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::Mc(e) => write!(f, "model checking failed: {e}"),
            SynthError::TooLarge { states, max } => {
                write!(f, "reachable space {states} exceeds synthesis cap {max}")
            }
            SynthError::NotLive { uncovered } => {
                write!(f, "{} p-state(s) are never absorbed", uncovered.len())
            }
        }
    }
}

impl std::error::Error for SynthError {}

impl From<McError> for SynthError {
    fn from(e: McError) -> Self {
        SynthError::Mc(e)
    }
}

/// One ensures layer of the synthesized chain.
#[derive(Debug, Clone)]
pub struct LayerInfo {
    /// Index (into `program.commands`) of the fair command that absorbs
    /// this layer.
    pub fair_command: usize,
    /// Number of states in the layer.
    pub states: usize,
}

/// A synthesized, kernel-checkable derivation of `p ↦ q`.
#[derive(Debug)]
pub struct SynthesizedLeadsto {
    /// The derivation tree (leaves: transient/next/init/stable premises).
    pub proof: Proof,
    /// The conclusion: `system ⊨ p ↦ q`.
    pub conclusion: Judgment,
    /// The ensures chain, outermost layer last.
    pub layers: Vec<LayerInfo>,
    /// Reachable states of the instance (size of the embedded invariant).
    pub reachable_states: usize,
}

/// The exact-state-set predicate of one state: `⋀ᵥ v = value`.
fn state_conj(vocab: &Vocabulary, s: &State) -> Expr {
    let conjuncts: Vec<Expr> = vocab
        .iter()
        .map(|(id, _)| match s.get(id) {
            Value::Int(n) => eq(var(id), int(n)),
            Value::Bool(b) => eq(var(id), boolean(b)),
        })
        .collect();
    and(conjuncts)
}

/// DNF of a set of state ids (sorted for determinism).
fn dnf(vocab: &Vocabulary, ts: &TransitionSystem, ids: &[u32]) -> Expr {
    let mut ids = ids.to_vec();
    ids.sort_unstable();
    or(ids
        .iter()
        .map(|&id| state_conj(vocab, &ts.state(id)))
        .collect())
}

/// Synthesizes an ensures chain and packages it as a derivation tree.
///
/// The synthesis itself explores the *reachable* universe; the resulting
/// proof discharges under the paper's all-states semantics because every
/// embedded predicate is an exact state-set descriptor and the reachable
/// set is introduced as an explicit invariant.
pub fn synthesize_leadsto(
    program: &Program,
    p: &Expr,
    q: &Expr,
    cfg: &SynthConfig,
    scan: &ScanConfig,
) -> Result<SynthesizedLeadsto, SynthError> {
    let ts = TransitionSystem::build(program, Universe::Reachable, scan)?;
    let pred = PredIndex::build(&ts);
    synthesize_on(&ts, &pred, program, p, q, cfg, &scan.par)
}

/// [`synthesize_leadsto`] inside a [`Verifier`] session: the reachable
/// transition system comes from (and stays in) the session, so a spec
/// with several `leadsto` goals — or synthesis after checking — builds
/// it once.
pub fn synthesize_leadsto_in(
    session: &mut Verifier<'_>,
    p: &Expr,
    q: &Expr,
    cfg: &SynthConfig,
) -> Result<SynthesizedLeadsto, SynthError> {
    // Synthesis always explores the reachable universe, whatever the
    // session's `leadsto` universe is — the emitted proof re-introduces
    // reachability as an explicit invariant. The predecessor index is
    // the session's own (shared with the `leadsto` checker).
    let ts = session.transition_system(Universe::Reachable)?;
    let par = session.cfg().par.clone();
    let pred = session.cache.pred_index(&ts, Universe::Reachable);
    synthesize_on(&ts, &pred, session.program(), p, q, cfg, &par)
}

/// The synthesis core over a prebuilt reachable transition system and
/// its predecessor index.
fn synthesize_on(
    ts: &TransitionSystem,
    pred: &PredIndex,
    program: &Program,
    p: &Expr,
    q: &Expr,
    cfg: &SynthConfig,
    par: &ParConfig,
) -> Result<SynthesizedLeadsto, SynthError> {
    if ts.len() > cfg.max_states {
        return Err(SynthError::TooLarge {
            states: ts.len(),
            max: cfg.max_states,
        });
    }
    let vocab = &program.vocab;
    let n = ts.len();

    let q_sat = ts.sat_vec_with(q, par);
    let p_sat = ts.sat_vec_with(p, par);
    let q_ids: Vec<u32> = (0..n as u32).filter(|&s| q_sat[s as usize]).collect();
    let p_ids: Vec<u32> = (0..n as u32).filter(|&s| p_sat[s as usize]).collect();
    let mut in_u = vec![false; n];
    for &id in &q_ids {
        in_u[id as usize] = true;
    }
    let covered = |in_u: &[bool]| p_ids.iter().all(|&s| in_u[s as usize]);

    // Backward ensures fixpoint, stopping as soon as every reachable
    // p-state is absorbed (keeps the emitted derivation minimal).
    let mut layers: Vec<(usize, Vec<u32>)> = Vec::new();
    while !covered(&in_u) {
        let mut progressed = false;
        for &d in &ts.fair {
            // Candidate: ¬U states whose d-successor is already in U.
            let mut in_x = vec![false; n];
            let mut any = false;
            for s in 0..n {
                if !in_u[s] && in_u[ts.succ_at(s, d) as usize] {
                    in_x[s] = true;
                    any = true;
                }
            }
            if !any {
                continue;
            }
            // Refine: every command must keep X inside X ∪ U. Worklist
            // over the predecessor index: check each candidate once,
            // and when a state falls out of X re-examine only its
            // predecessors still in X — not the whole space again.
            let escapes = |s: usize, in_x: &[bool]| {
                (0..ts.n_commands).any(|c| {
                    let t = ts.succ_at(s, c) as usize;
                    !in_x[t] && !in_u[t]
                })
            };
            let mut queue: Vec<u32> = (0..n as u32).filter(|&s| in_x[s as usize]).collect();
            while let Some(s) = queue.pop() {
                if !in_x[s as usize] || !escapes(s as usize, &in_x) {
                    continue;
                }
                in_x[s as usize] = false;
                for &u in pred.row(s) {
                    if in_x[u as usize] {
                        queue.push(u);
                    }
                }
            }
            let xs: Vec<u32> = (0..n as u32).filter(|&s| in_x[s as usize]).collect();
            if xs.is_empty() {
                continue;
            }
            for &s in &xs {
                in_u[s as usize] = true;
            }
            layers.push((d, xs));
            progressed = true;
            if covered(&in_u) {
                break;
            }
        }
        if !progressed {
            break;
        }
    }

    // Every reachable p-state must be covered.
    let uncovered: Vec<State> = (0..n)
        .filter(|&s| p_sat[s] && !in_u[s])
        .map(|s| ts.state(s as u32))
        .collect();
    if !uncovered.is_empty() {
        return Err(SynthError::NotLive { uncovered });
    }

    // ---- assemble the derivation ----
    // Canonical U-expressions: u_expr[0] = dnf(q ∩ reachable);
    // u_expr[k] = or([u_expr[k-1], x_k])  (NAry shape, matching the
    // Disjunction rule's computed conclusion).
    let u0 = dnf(vocab, ts, &q_ids);
    let mut u_exprs: Vec<Expr> = vec![u0.clone()];
    let mut x_exprs: Vec<Expr> = Vec::new();
    for (_, xs) in &layers {
        let x = dnf(vocab, ts, xs);
        let prev = u_exprs.last().expect("u_exprs starts non-empty").clone();
        u_exprs.push(or(vec![prev, x.clone()]));
        x_exprs.push(x);
    }

    // d_proof[j] concludes `u_expr[j] ↦ u0`.
    let mut d_proof: Proof = Proof::LtImplication {
        p: u0.clone(),
        q: u0.clone(),
    };
    for (k, (cmd, _)) in layers.iter().enumerate() {
        let x = &x_exprs[k];
        let u_prev = &u_exprs[k];
        // ensures(x, u_prev): transient(x ∧ ¬u_prev) + (x ∧ ¬u_prev) next (x ∨ u_prev).
        let guard = and2(x.clone(), not(u_prev.clone()));
        let trans = Proof::Premise(Judgment::system(Property::Transient(guard.clone())));
        let _ = cmd; // the witnessing command index is recorded in LayerInfo
        let lt_true = Proof::LtTransient {
            sub: Box::new(trans),
        };
        let next = Proof::Premise(Judgment::system(Property::Next(
            guard,
            or2(x.clone(), u_prev.clone()),
        )));
        let psp = Proof::LtPsp {
            lt: Box::new(lt_true),
            next: Box::new(next),
        };
        // Mono to the clean `x ↦ u_prev` shape.
        let e_k = Proof::LtMono {
            sub: Box::new(psp),
            p_new: x.clone(),
            q_new: u_prev.clone(),
        };
        // x_k ↦ u0 by transitivity through u_prev.
        let t_k = Proof::LtTransitivity {
            first: Box::new(e_k),
            second: Box::new(d_proof.clone()),
        };
        // u_expr[k+1] ↦ u0 by disjunction.
        d_proof = Proof::LtDisjunction {
            subs: vec![d_proof, t_k],
        };
    }

    // Invariant: the reachable set itself.
    let all_ids: Vec<u32> = (0..n as u32).collect();
    let inv_expr = dnf(vocab, ts, &all_ids);
    let inv_proof = Proof::InvariantIntro {
        init: Box::new(Proof::Premise(Judgment::system(Property::Init(
            inv_expr.clone(),
        )))),
        stable: Box::new(Proof::Premise(Judgment::system(Property::Stable(
            inv_expr.clone(),
        )))),
    };
    // (p ∧ I) ↦ q by monotonicity from u_expr[K] ↦ u0.
    let mono = Proof::LtMono {
        sub: Box::new(d_proof),
        p_new: and2(p.clone(), inv_expr),
        q_new: q.clone(),
    };
    let proof = Proof::LtInvariantLhs {
        lt: Box::new(mono),
        inv: Box::new(inv_proof),
    };
    let conclusion = Judgment::system(Property::LeadsTo(p.clone(), q.clone()));

    Ok(SynthesizedLeadsto {
        proof,
        conclusion,
        layers: layers
            .iter()
            .map(|(d, xs)| LayerInfo {
                fair_command: *d,
                states: xs.len(),
            })
            .collect(),
        reachable_states: n,
    })
}

/// A [`Discharger`] over a single program (system scope only), backed by
/// the model checker's inductive semantics. A verification session: the
/// per-engine artifacts are memoized across premises (a synthesized
/// derivation discharges dozens against one program).
pub struct ProgramDischarger<'a> {
    /// The program all judgments refer to.
    pub program: &'a Program,
    /// Universe for `leadsto` premises (safety premises are always
    /// checked inductively over all states).
    pub universe: Universe,
    /// Scan configuration. Set it **before** the first discharge:
    /// artifacts already memoized by earlier premises were built under
    /// the configuration in effect at that time and are not rebuilt on
    /// a change.
    pub cfg: ScanConfig,
    /// Obligations discharged so far.
    pub discharged: usize,
    /// Memoized engine artifacts shared by every premise.
    cache: EngineCache,
}

impl<'a> ProgramDischarger<'a> {
    /// Builds a discharger with default configuration.
    pub fn new(program: &'a Program) -> Self {
        ProgramDischarger {
            program,
            universe: Universe::Reachable,
            cfg: ScanConfig::default(),
            discharged: 0,
            cache: EngineCache::default(),
        }
    }
}

impl Discharger for ProgramDischarger<'_> {
    fn discharge(&mut self, j: &Judgment) -> Result<(), unity_core::error::CoreError> {
        if j.scope != Scope::System {
            return Err(unity_core::error::CoreError::Discharge {
                obligation: format!("{} judgment", j.scope),
                reason: "ProgramDischarger handles system-scope judgments only".into(),
            });
        }
        crate::check::check_property_in(
            self.program,
            &j.prop,
            self.universe,
            &self.cfg,
            &mut self.cache,
        )
        .map_err(|e| unity_core::error::CoreError::Discharge {
            obligation: format!("{} premise", j.prop.kind()),
            reason: e.to_string(),
        })?;
        self.discharged += 1;
        Ok(())
    }

    fn valid(&mut self, p: &Expr) -> Result<(), unity_core::error::CoreError> {
        crate::space::check_valid_in(self.program, p, &self.cfg, &mut self.cache).map_err(|e| {
            unity_core::error::CoreError::Discharge {
                obligation: "validity side condition".into(),
                reason: e.to_string(),
            }
        })?;
        self.discharged += 1;
        Ok(())
    }

    fn equivalent(&mut self, a: &Expr, b: &Expr) -> Result<(), unity_core::error::CoreError> {
        crate::space::check_equivalent_in(self.program, a, b, &self.cfg, &mut self.cache).map_err(
            |e| unity_core::error::CoreError::Discharge {
                obligation: "equivalence side condition".into(),
                reason: e.to_string(),
            },
        )?;
        self.discharged += 1;
        Ok(())
    }
}

/// Synthesizes `p ↦ q` *and* re-checks the derivation in the proof
/// kernel with every premise and side condition discharged by the model
/// checker. This is the end-to-end "mechanical bridge": nothing in the
/// returned stats was assumed.
pub fn synthesize_and_check(
    program: &Program,
    p: &Expr,
    q: &Expr,
    cfg: &SynthConfig,
    scan: &ScanConfig,
) -> Result<(SynthesizedLeadsto, CheckStats), SynthError> {
    let synth = synthesize_leadsto(program, p, q, cfg, scan)?;
    kernel_check(program, scan, synth)
}

/// [`synthesize_and_check`] inside a [`Verifier`] session — the
/// synthesis reuses the session's reachable transition system (the
/// kernel re-check keeps its own premise session).
pub fn synthesize_and_check_in(
    session: &mut Verifier<'_>,
    p: &Expr,
    q: &Expr,
    cfg: &SynthConfig,
) -> Result<(SynthesizedLeadsto, CheckStats), SynthError> {
    let synth = synthesize_leadsto_in(session, p, q, cfg)?;
    let scan = session.cfg().clone();
    kernel_check(session.program(), &scan, synth)
}

fn kernel_check(
    program: &Program,
    scan: &ScanConfig,
    synth: SynthesizedLeadsto,
) -> Result<(SynthesizedLeadsto, CheckStats), SynthError> {
    let mut discharger = ProgramDischarger::new(program);
    discharger.cfg = scan.clone();
    let mut ctx = CheckCtx::new(&mut discharger).with_vocab(&program.vocab);
    let stats = check_concludes(&synth.proof, &synth.conclusion, &mut ctx)
        .map_err(|e| SynthError::Mc(McError::Core(e)))?;
    Ok((synth, stats))
}

/// Convenience: synthesize with `p = true` (the shape of the paper's
/// liveness specification (18)).
pub fn synthesize_always_leadsto(
    program: &Program,
    q: &Expr,
    cfg: &SynthConfig,
    scan: &ScanConfig,
) -> Result<(SynthesizedLeadsto, CheckStats), SynthError> {
    synthesize_and_check(program, &tt(), q, cfg, scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fair::check_leadsto;
    use std::sync::Arc;
    use unity_core::domain::Domain;
    use unity_core::expr::build::{add, lt as blt};
    use unity_core::ident::Vocabulary as V;

    fn counter(k: i64) -> Program {
        let mut v = V::new();
        let x = v.declare("x", Domain::int_range(0, k).unwrap()).unwrap();
        Program::builder("count", Arc::new(v))
            .init(eq(var(x), int(0)))
            .fair_command("inc", blt(var(x), int(k)), vec![(x, add(var(x), int(1)))])
            .build()
            .unwrap()
    }

    #[test]
    fn synthesizes_counter_liveness() {
        let p = counter(3);
        let x = unity_core::ident::VarId(0);
        let goal = eq(var(x), int(3));
        let (synth, stats) =
            synthesize_always_leadsto(&p, &goal, &SynthConfig::default(), &ScanConfig::default())
                .unwrap();
        assert_eq!(synth.layers.len(), 3, "one layer per distance-to-goal");
        assert_eq!(synth.reachable_states, 4);
        assert!(stats.premises >= 2 * synth.layers.len() + 2);
        // Independent cross-check by the exact fair checker.
        check_leadsto(
            &p,
            &tt(),
            &goal,
            Universe::Reachable,
            &ScanConfig::default(),
        )
        .unwrap();
    }

    #[test]
    fn refuses_dead_goals() {
        let p = counter(2);
        let x = unity_core::ident::VarId(0);
        // x = 5 is outside the domain: unreachable forever.
        let goal = eq(var(x), int(5));
        let err = synthesize_leadsto(
            &p,
            &tt(),
            &goal,
            &SynthConfig::default(),
            &ScanConfig::default(),
        )
        .unwrap_err();
        match err {
            SynthError::NotLive { uncovered } => assert!(!uncovered.is_empty()),
            other => panic!("expected NotLive, got {other}"),
        }
    }

    #[test]
    fn detects_unfair_stalls() {
        // The increment is *not* fair: nothing forces progress.
        let mut v = V::new();
        let x = v.declare("x", Domain::int_range(0, 2).unwrap()).unwrap();
        let p = Program::builder("lazy", Arc::new(v))
            .init(eq(var(x), int(0)))
            .command("inc", blt(var(x), int(2)), vec![(x, add(var(x), int(1)))])
            .build()
            .unwrap();
        let err = synthesize_leadsto(
            &p,
            &tt(),
            &eq(var(x), int(2)),
            &SynthConfig::default(),
            &ScanConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SynthError::NotLive { .. }));
    }

    #[test]
    fn respects_state_cap() {
        let p = counter(3);
        let err = synthesize_leadsto(
            &p,
            &tt(),
            &eq(var(unity_core::ident::VarId(0)), int(3)),
            &SynthConfig { max_states: 2 },
            &ScanConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SynthError::TooLarge { states: 4, max: 2 }));
    }

    #[test]
    fn two_variable_race_synthesizes() {
        // Two independent fair counters; goal needs both at max: the
        // chain must interleave both fair commands.
        let mut v = V::new();
        let x = v.declare("x", Domain::int_range(0, 1).unwrap()).unwrap();
        let y = v.declare("y", Domain::int_range(0, 1).unwrap()).unwrap();
        let p = Program::builder("pair", Arc::new(v))
            .init(and2(eq(var(x), int(0)), eq(var(y), int(0))))
            .fair_command("ix", blt(var(x), int(1)), vec![(x, add(var(x), int(1)))])
            .fair_command("iy", blt(var(y), int(1)), vec![(y, add(var(y), int(1)))])
            .build()
            .unwrap();
        let goal = and2(eq(var(x), int(1)), eq(var(y), int(1)));
        let (synth, _) = synthesize_and_check(
            &p,
            &tt(),
            &goal,
            &SynthConfig::default(),
            &ScanConfig::default(),
        )
        .unwrap();
        let used: std::collections::BTreeSet<usize> =
            synth.layers.iter().map(|l| l.fair_command).collect();
        assert_eq!(used.len(), 2, "both fair commands must appear");
    }

    #[test]
    fn zero_layer_chain_when_p_implies_q() {
        // p ⊆ q reachably: no ensures layer is needed; the derivation is
        // pure implication + invariant elimination.
        let p = counter(2);
        let x = unity_core::ident::VarId(0);
        let (synth, stats) = synthesize_and_check(
            &p,
            &eq(var(x), int(2)),
            &unity_core::expr::build::ge(var(x), int(2)),
            &SynthConfig::default(),
            &ScanConfig::default(),
        )
        .unwrap();
        assert!(synth.layers.is_empty());
        assert!(stats.rules >= 4);
    }

    #[test]
    fn trivial_goal_true_synthesizes_without_layers() {
        let p = counter(1);
        let (synth, _) = synthesize_and_check(
            &p,
            &tt(),
            &tt(),
            &SynthConfig::default(),
            &ScanConfig::default(),
        )
        .unwrap();
        assert!(synth.layers.is_empty());
    }

    #[test]
    fn conditional_goal_from_p_subset() {
        // p restricts the start: only x ≥ 1 states — still provable.
        let p = counter(2);
        let x = unity_core::ident::VarId(0);
        let (synth, _) = synthesize_and_check(
            &p,
            &unity_core::expr::build::ge(var(x), int(1)),
            &eq(var(x), int(2)),
            &SynthConfig::default(),
            &ScanConfig::default(),
        )
        .unwrap();
        assert!(!synth.layers.is_empty());
    }
}
