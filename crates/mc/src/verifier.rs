//! The verifier session: one composed program, many properties.
//!
//! The paper's method is to pose *many* universal properties against one
//! composed program. The free functions in [`crate::check`] decide each
//! property from scratch — rebuilding the compiled pipeline, the
//! transition system and its reachable set, and the symbolic engine with
//! its tuned variable order on **every call**. [`Verifier`] is the
//! session form of the same checkers: it characterizes the composite
//! once — each per-engine artifact is built lazily on first use and
//! memoized — and every subsequent property is decided against those
//! shared artifacts. The free functions remain as thin one-shot wrappers
//! over a throwaway session, so both forms return identical verdicts
//! (pinned by the `prop_session` differential suite).
//!
//! ```
//! use std::sync::Arc;
//! use unity_core::prelude::*;
//! use unity_mc::prelude::*;
//!
//! let mut v = Vocabulary::new();
//! let x = v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
//! let p = Program::builder("count", Arc::new(v))
//!     .init(eq(var(x), int(0)))
//!     .fair_command("inc", lt(var(x), int(3)), vec![(x, add(var(x), int(1)))])
//!     .build()
//!     .unwrap();
//!
//! let mut session = Verifier::new(&p, ScanConfig::default());
//! // Both checks share one set of engine artifacts.
//! let safe = session.verify(&Property::Invariant(le(var(x), int(3))));
//! assert!(safe.passed());
//! let live = session.verify(&Property::LeadsTo(tt(), eq(var(x), int(3))));
//! assert!(live.passed());
//! // A failing check carries its decoded, replayable witness.
//! let bad = session.verify(&Property::Invariant(le(var(x), int(2))));
//! assert!(bad.failed() && bad.counterexample().is_some());
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use unity_core::expr::compile::{CompiledCommand, PackedLayout};
use unity_core::expr::Expr;
use unity_core::locality::Locality;
use unity_core::program::Program;
use unity_core::properties::Property;
use unity_symbolic::{OrderMode, SymStats, SymbolicProgram};

use crate::compiled::try_layout;
use crate::report::{CheckReport, Report};
use crate::space::{Engine, ScanConfig};
use crate::trace::{Counterexample, McError};
use crate::transition::{TransitionSystem, Universe};

/// One named property check — the unit of [`Verifier::verify_all`] and
/// the shape `.unity` spec lines parse into.
#[derive(Debug, Clone)]
pub struct NamedCheck {
    /// Check label (`check<k>` when the spec line had no label).
    pub name: String,
    /// The property to check.
    pub property: Property,
    /// 1-based source line for diagnostics (0 = not from a file).
    pub line: usize,
}

/// Lazily built, memoized per-engine artifacts shared by every check of
/// one session. Inner `None` marks an engine that *cannot* serve this
/// program (vocabulary beyond 64 packed bits, uncompilable expression,
/// value-partition explosion) — the fallback is then also memoized, so
/// repeated checks don't retry a doomed build.
#[derive(Default)]
pub(crate) struct EngineCache {
    /// `try_layout` result.
    layout: Option<Option<Arc<PackedLayout>>>,
    /// Compiled commands over `layout`.
    commands: Option<Option<Arc<Vec<CompiledCommand>>>>,
    /// The symbolic engine, with its partitioned transition relations,
    /// tuned variable order, and memoized reachable set.
    sym: Option<Option<Box<SymbolicProgram>>>,
    /// Transition system + reachable set per universe
    /// (`[Reachable, AllStates]`).
    ts: [Option<Arc<TransitionSystem>>; 2],
    /// CSR predecessor index per universe, inverted once from the
    /// memoized transition system (the `leadsto` worklist walks it).
    pred: [Option<Arc<crate::pred::PredIndex>>; 2],
    /// The program's locality analysis: init groups and per-command
    /// read/write sets.
    locality: Option<Arc<Locality>>,
    /// Each init group's first satisfying assignment, packed over
    /// `layout` (see [`crate::check::GroupFirst`]).
    init_first: Option<Arc<Vec<crate::check::GroupFirst>>>,
    /// Pooled buffers for the worklist liveness engine (Tarjan scratch,
    /// trap/danger marks, worklist) — reused across `leadsto` checks.
    pub(crate) liveness: crate::fair::LivenessScratch,
    /// Whether the last check was decided symbolically (set by the
    /// bridge in [`crate::symbolic`], read back into the verdict).
    pub(crate) sym_decided: bool,
}

impl EngineCache {
    /// The packed layout, or `None` when the fast path is off/oversized.
    pub(crate) fn layout(
        &mut self,
        program: &Program,
        cfg: &ScanConfig,
    ) -> Option<Arc<PackedLayout>> {
        self.layout
            .get_or_insert_with(|| try_layout(&program.vocab, cfg).map(Arc::new))
            .clone()
    }

    /// Layout plus compiled commands, or `None` when any command fails
    /// to compile (callers fall back to the reference path).
    #[allow(clippy::type_complexity)]
    pub(crate) fn compiled(
        &mut self,
        program: &Program,
        cfg: &ScanConfig,
    ) -> Option<(Arc<PackedLayout>, Arc<Vec<CompiledCommand>>)> {
        let layout = self.layout(program, cfg)?;
        let commands = self
            .commands
            .get_or_insert_with(|| {
                program
                    .commands
                    .iter()
                    .map(|c| CompiledCommand::compile(c, &layout).ok())
                    .collect::<Option<Vec<_>>>()
                    .map(Arc::new)
            })
            .clone()?;
        Some((layout, commands))
    }

    /// The locality analysis of `program`, built on first use.
    pub(crate) fn locality(&mut self, program: &Program) -> Arc<Locality> {
        self.locality
            .get_or_insert_with(|| Arc::new(Locality::new(program)))
            .clone()
    }

    /// Each init group's first satisfying assignment as a packed word
    /// over `layout`, walked once per session. A group whose sub-product
    /// exceeds `cfg.max_states` is not walked.
    pub(crate) fn init_first(
        &mut self,
        program: &Program,
        layout: &PackedLayout,
        cfg: &ScanConfig,
    ) -> Arc<Vec<crate::check::GroupFirst>> {
        if let Some(first) = &self.init_first {
            return first.clone();
        }
        let groups = &self.locality(program).init;
        let first: Vec<_> = (0..groups.groups().len())
            .map(|g| crate::check::GroupFirst::walk(program, groups, g, layout, cfg))
            .collect();
        self.init_first.insert(Arc::new(first)).clone()
    }

    /// The symbolic engine, built on first use; `None` when the program
    /// cannot be lowered (callers fall back to the explicit engines).
    pub(crate) fn symbolic(
        &mut self,
        program: &Program,
        cfg: &ScanConfig,
    ) -> Option<&mut SymbolicProgram> {
        self.sym
            .get_or_insert_with(|| {
                SymbolicProgram::build_with(program, &cfg.symbolic)
                    .ok()
                    .map(Box::new)
            })
            .as_deref_mut()
    }

    /// The transition system over `universe`, built on first use.
    pub(crate) fn transition_system(
        &mut self,
        program: &Program,
        universe: Universe,
        cfg: &ScanConfig,
    ) -> Result<Arc<TransitionSystem>, McError> {
        let slot = match universe {
            Universe::Reachable => &mut self.ts[0],
            Universe::AllStates => &mut self.ts[1],
        };
        if let Some(ts) = slot {
            return Ok(ts.clone());
        }
        let ts = Arc::new(TransitionSystem::build(program, universe, cfg)?);
        *slot = Some(ts.clone());
        Ok(ts)
    }

    /// The CSR predecessor index of `ts` over `universe`, inverted on
    /// first use and memoized alongside the transition system.
    pub(crate) fn pred_index(
        &mut self,
        ts: &TransitionSystem,
        universe: Universe,
    ) -> Arc<crate::pred::PredIndex> {
        let slot = match universe {
            Universe::Reachable => &mut self.pred[0],
            Universe::AllStates => &mut self.pred[1],
        };
        slot.get_or_insert_with(|| Arc::new(crate::pred::PredIndex::build(ts)))
            .clone()
    }

    /// Whether a layout derivation was attempted at all (distinguishes
    /// "not yet tried" from "tried and unavailable" in
    /// [`EngineCache::status`]'s first component).
    pub(crate) fn layout_attempted(&self) -> bool {
        self.layout.is_some()
    }

    /// Whether each artifact has been built (and succeeded):
    /// `(layout, compiled commands, symbolic engine, ts-reachable,
    /// ts-all-states, pred-reachable, pred-all-states)`. Introspection
    /// for tests, tuning, and the artifact store's hit/miss accounting.
    pub(crate) fn status(&self) -> (bool, bool, bool, bool, bool, bool, bool) {
        (
            matches!(self.layout, Some(Some(_))),
            matches!(self.commands, Some(Some(_))),
            matches!(self.sym, Some(Some(_))),
            self.ts[0].is_some(),
            self.ts[1].is_some(),
            self.pred[0].is_some(),
            self.pred[1].is_some(),
        )
    }
}

/// A portable snapshot of the session artifacts worth persisting: the
/// transition systems and predecessor indexes per universe
/// (`[Reachable, AllStates]`) plus the symbolic engine's tuned field
/// order. This is what `unity-serve`'s content-hashed store saves after
/// a cold run and seeds back before a warm one — a seeded session skips
/// `TransitionSystem::build` and `PredIndex::build` entirely and starts
/// the BDD at the previously tuned order.
///
/// Artifacts are program-specific: seed a session only with a snapshot
/// exported from a session over the *same* program (the store keys
/// snapshots by spec content hash to guarantee this).
#[derive(Debug, Clone, Default)]
pub struct SessionArtifacts {
    /// Transition systems per universe (`[Reachable, AllStates]`).
    pub ts: [Option<Arc<TransitionSystem>>; 2],
    /// Predecessor indexes per universe (`[Reachable, AllStates]`).
    pub pred: [Option<Arc<crate::pred::PredIndex>>; 2],
    /// The symbolic engine's field order (a permutation of
    /// `0..vocab.len()`), exported after sifting settled.
    pub field_order: Option<Vec<usize>>,
}

impl SessionArtifacts {
    /// Whether the snapshot carries nothing.
    pub fn is_empty(&self) -> bool {
        self.ts.iter().all(Option::is_none)
            && self.pred.iter().all(Option::is_none)
            && self.field_order.is_none()
    }
}

/// Which artifacts a [`Verifier`] session has materialized so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStatus {
    /// Packed layout derived.
    pub layout: bool,
    /// Commands compiled to bytecode.
    pub compiled: bool,
    /// Symbolic engine built.
    pub symbolic: bool,
    /// Transition system over the reachable universe built.
    pub ts_reachable: bool,
    /// Transition system over the all-states universe built.
    pub ts_all_states: bool,
    /// Predecessor index over the reachable universe built.
    pub pred_reachable: bool,
    /// Predecessor index over the all-states universe built.
    pub pred_all_states: bool,
}

/// Outcome of one property check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The property holds.
    Pass,
    /// The property is refuted, with a decoded, replayable witness.
    Fail {
        /// The counterexample.
        cex: Counterexample,
    },
    /// The check could not be decided (space bound, typing error, …).
    Error {
        /// The underlying error.
        error: McError,
    },
}

/// Engine cost counters attached to a [`Verdict`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerdictStats {
    /// No counters available for this check.
    Unmeasured,
    /// Enumerating engines: `states` the deciding scan quantified over
    /// (projected onto the property's support) and, for `leadsto`,
    /// the `transitions` of the underlying transition system plus the
    /// worklist engine's traversal counters (all 0 for pure scans).
    Explicit {
        /// States the scan quantified over.
        states: u64,
        /// Transitions computed (0 for pure scans).
        transitions: u64,
        /// `¬q` states the leadsto SCC pass actually visited.
        scanned_states: u64,
        /// Predecessor edges walked by the leadsto worklist.
        pred_edges: u64,
        /// States pushed onto the leadsto worklist (trap seeds
        /// included).
        worklist_pushes: u64,
        /// Wall-clock milliseconds the transition-system build took
        /// (0 for pure scans, which build no system).
        build_ms: u64,
    },
    /// Symbolic engine: a snapshot of the session's cumulative arena
    /// counters at check completion.
    Symbolic {
        /// The engine counters.
        stats: SymStats,
    },
}

/// Machine-readable provenance of a compositional discharge: which
/// assume-guarantee rule closed the obligation, over which components,
/// and whether the supporting facts came from the certificate cache.
/// Attached to a [`Verdict`] only by
/// [`CompositionalVerifier`](crate::compositional::CompositionalVerifier)
/// sessions — flat sessions leave it `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DischargeInfo {
    /// The closing rule's name: `lift-universal`, `lift-existential`,
    /// `cone-of-influence`, or `product-fallback`.
    pub rule: String,
    /// The component indices the rule's evidence came from (empty for
    /// `lift-universal`, which rests on every component, and for the
    /// product fallback, whose evidence is the product space itself).
    pub components: Vec<usize>,
    /// Whether every supporting component fact was answered from the
    /// certificate cache (no component check ran).
    pub cached: bool,
}

/// The structured result of one property check: pass/fail with witness,
/// the engine that decided it, cost counters, and wall time.
///
/// Replaces the free functions' `Result<(), McError>` convention;
/// [`Verdict::into_result`] recovers it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a verdict carries the check's outcome; inspect or convert it"]
pub struct Verdict {
    /// The checked property, rendered with variable names.
    pub property: String,
    /// Pass, fail (with counterexample), or error.
    pub outcome: Outcome,
    /// The engine that (primarily) decided the check. `leadsto` always
    /// reports an enumerating engine — the symbolic backend does not
    /// implement it and falls back.
    pub engine: Engine,
    /// Cost counters.
    pub stats: VerdictStats,
    /// Wall-clock time of this check.
    pub elapsed: Duration,
    /// How a compositional session discharged this obligation (`None`
    /// for flat sessions).
    pub discharge: Option<DischargeInfo>,
}

impl Verdict {
    /// Whether the property holds.
    pub fn passed(&self) -> bool {
        matches!(self.outcome, Outcome::Pass)
    }

    /// Whether the property was refuted (errors are *not* failures).
    pub fn failed(&self) -> bool {
        matches!(self.outcome, Outcome::Fail { .. })
    }

    /// The counterexample of a failed check.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match &self.outcome {
            Outcome::Fail { cex } => Some(cex),
            _ => None,
        }
    }

    /// The error of an undecidable check.
    pub fn error(&self) -> Option<&McError> {
        match &self.outcome {
            Outcome::Error { error } => Some(error),
            _ => None,
        }
    }

    /// Converts back to the free functions' `Result` convention.
    pub fn into_result(self) -> Result<(), McError> {
        match self.outcome {
            Outcome::Pass => Ok(()),
            Outcome::Fail { cex } => Err(McError::Refuted {
                property: self.property,
                cex,
            }),
            Outcome::Error { error } => Err(error),
        }
    }
}

/// A verification session over one program: build the semantic artifacts
/// once, decide every property by its relation to them.
///
/// See the [module docs](crate::verifier) for a quick-start example.
/// The session is single-threaded (`&mut self` per check); the scans a
/// check runs are themselves chunk-parallel per [`ScanConfig::par`].
pub struct Verifier<'p> {
    program: &'p Program,
    cfg: ScanConfig,
    universe: Universe,
    pub(crate) cache: EngineCache,
}

impl<'p> Verifier<'p> {
    /// Opens a session on `program`. Nothing is built until the first
    /// check needs it.
    pub fn new(program: &'p Program, cfg: ScanConfig) -> Self {
        Verifier {
            program,
            cfg,
            universe: Universe::Reachable,
            cache: EngineCache::default(),
        }
    }

    /// Sets the universe `leadsto` checks quantify over (safety checks
    /// always use the paper's inductive all-states semantics). Default:
    /// [`Universe::Reachable`].
    pub fn with_universe(mut self, universe: Universe) -> Self {
        self.universe = universe;
        self
    }

    /// The program under verification.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The session's scan configuration.
    pub fn cfg(&self) -> &ScanConfig {
        &self.cfg
    }

    /// The universe `leadsto` checks run in.
    pub fn universe(&self) -> Universe {
        self.universe
    }

    /// Which artifacts have been materialized so far.
    pub fn status(&self) -> SessionStatus {
        let (layout, compiled, symbolic, ts_reachable, ts_all_states, pred_reachable, pred_all) =
            self.cache.status();
        SessionStatus {
            layout,
            compiled,
            symbolic,
            ts_reachable,
            ts_all_states,
            pred_reachable,
            pred_all_states: pred_all,
        }
    }

    /// Exports the session's shareable artifacts: every memoized
    /// transition system and predecessor index, plus the symbolic
    /// engine's current field order. Arc-cloned, not copied — cheap to
    /// call after every run.
    pub fn artifacts(&self) -> SessionArtifacts {
        SessionArtifacts {
            ts: self.cache.ts.clone(),
            pred: self.cache.pred.clone(),
            field_order: match &self.cache.sym {
                Some(Some(sym)) => Some(sym.field_order()),
                _ => None,
            },
        }
    }

    /// Seeds the session with previously exported artifacts (see
    /// [`SessionArtifacts`]). Seeded slots satisfy the first build
    /// request instead of running the explorer / CSR inversion, and a
    /// seeded field order starts the BDD at the tuned permutation
    /// (skipping the sifting warm-up).
    ///
    /// Snapshots that plainly disagree with the program — wrong state
    /// arity for the universe, a field order that is not a permutation
    /// of the vocabulary — are ignored slot by slot rather than
    /// installed: a stale or corrupt artifact must never influence a
    /// verdict. Already-built slots are kept (seeding is first-wins).
    pub fn seed(&mut self, artifacts: SessionArtifacts) {
        for (k, slot) in artifacts.ts.into_iter().enumerate() {
            let Some(ts) = slot else { continue };
            if ts.n_commands != self.program.commands.len()
                || ts.vocab().len() != self.program.vocab.len()
            {
                continue;
            }
            if self.cache.ts[k].is_none() {
                self.cache.ts[k] = Some(ts);
            }
        }
        for (k, slot) in artifacts.pred.into_iter().enumerate() {
            let Some(pred) = slot else { continue };
            // A predecessor index only makes sense next to the matching
            // transition system; require the shape to line up.
            let fits = self.cache.ts[k].as_ref().is_some_and(|ts| {
                pred.len() == ts.len() && pred.edge_count() == ts.transition_count()
            });
            if fits && self.cache.pred[k].is_none() {
                self.cache.pred[k] = Some(pred);
            }
        }
        if let Some(order) = artifacts.field_order {
            let n = self.program.vocab.len();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            let is_perm = sorted == (0..n).collect::<Vec<_>>();
            // Install only before the engine exists — a built engine's
            // order is already at least as good as the snapshot.
            if is_perm && self.cache.sym.is_none() {
                self.cfg.symbolic.order = OrderMode::Fields(order);
            }
        }
    }

    /// The memoized transition system over `universe` (builds it on
    /// first use). This *is* the reachable set when `universe` is
    /// [`Universe::Reachable`].
    pub fn transition_system(
        &mut self,
        universe: Universe,
    ) -> Result<Arc<TransitionSystem>, McError> {
        self.cache
            .transition_system(self.program, universe, &self.cfg)
    }

    /// The memoized symbolic engine, or `None` when the program cannot
    /// be lowered. Built on first use regardless of the configured
    /// engine — callers wanting symbolic-only behaviour should check
    /// `cfg().engine` themselves.
    pub fn symbolic(&mut self) -> Option<&mut SymbolicProgram> {
        self.cache.symbolic(self.program, &self.cfg)
    }

    /// Checks one property, sharing every memoized artifact with the
    /// session's other checks.
    pub fn verify(&mut self, prop: &Property) -> Verdict {
        let rendered = prop.display(&self.program.vocab).to_string();
        let t0 = Instant::now();
        self.cache.sym_decided = false;
        let (result, stats) = match prop {
            Property::LeadsTo(p, q) => {
                let result = crate::fair::check_leadsto_outcome_in(
                    self.program,
                    p,
                    q,
                    self.universe,
                    &self.cfg,
                    &mut self.cache,
                );
                match result {
                    // Refuted checks keep their counters: the analysis
                    // ran in full either way.
                    Ok((report, refutation)) => (
                        match refutation {
                            None => Ok(()),
                            Some(e) => Err(e),
                        },
                        VerdictStats::Explicit {
                            states: report.states as u64,
                            transitions: report.transitions as u64,
                            scanned_states: report.scanned_states as u64,
                            pred_edges: report.pred_edges as u64,
                            worklist_pushes: report.worklist_pushes as u64,
                            build_ms: report.build_ms,
                        },
                    ),
                    Err(e) => (Err(e), VerdictStats::Unmeasured),
                }
            }
            _ => {
                let result = crate::check::check_property_in(
                    self.program,
                    prop,
                    self.universe,
                    &self.cfg,
                    &mut self.cache,
                );
                let stats = if matches!(result, Err(ref e) if !matches!(e, McError::Refuted { .. }))
                {
                    // The check aborted before scanning (space bound,
                    // typing error): no work to account for.
                    VerdictStats::Unmeasured
                } else if self.cache.sym_decided {
                    match &mut self.cache.sym {
                        Some(Some(sym)) => VerdictStats::Symbolic { stats: sym.stats() },
                        _ => VerdictStats::Unmeasured,
                    }
                } else {
                    // The compiled `init` scan runs once the layout
                    // exists, the compiled `next` scans once the
                    // commands compiled.
                    let (layout, commands, ..) = self.cache.status();
                    let loc = self.cache.locality(self.program);
                    match scan_domain(self.program, &loc, prop, &self.cfg, (layout, commands)) {
                        Some(states) => VerdictStats::Explicit {
                            states,
                            transitions: 0,
                            scanned_states: 0,
                            pred_edges: 0,
                            worklist_pushes: 0,
                            build_ms: 0,
                        },
                        None => VerdictStats::Unmeasured,
                    }
                };
                (result, stats)
            }
        };
        self.finish(rendered, result, stats, t0)
    }

    /// The engine that (primarily) decided the last check: symbolic when
    /// the bridge recorded a symbolic decision; the reference tree-walk
    /// when it was requested *or* when the compiled fast path never
    /// materialized (oversized vocabulary — the scans then ran on the
    /// reference evaluator); the compiled scans otherwise.
    fn engine_used(&self) -> Engine {
        if self.cache.sym_decided {
            return Engine::Symbolic;
        }
        match self.cfg.engine {
            Engine::Reference => Engine::Reference,
            // The symbolic engine either decided above or fell back to
            // the compiled scans, which themselves fall back to the
            // reference evaluator when no layout exists.
            Engine::Compiled | Engine::Symbolic => match self.cache.status() {
                (false, ..) if self.cache.layout_attempted() => Engine::Reference,
                _ => Engine::Compiled,
            },
        }
    }

    /// Assembles a [`Verdict`] from a check result (shared by
    /// [`Verifier::verify`] and the side-condition checks).
    fn finish(
        &self,
        property: String,
        result: Result<(), McError>,
        stats: VerdictStats,
        t0: Instant,
    ) -> Verdict {
        let engine = self.engine_used();
        let outcome = match result {
            Ok(()) => Outcome::Pass,
            Err(McError::Refuted { cex, .. }) => Outcome::Fail { cex },
            Err(error) => Outcome::Error { error },
        };
        Verdict {
            property,
            outcome,
            engine,
            stats,
            elapsed: t0.elapsed(),
            discharge: None,
        }
    }

    /// Checks `⊨ p` over every type-consistent state (kernel validity
    /// side conditions), through the session's symbolic engine when one
    /// is configured and available.
    pub fn valid(&mut self, p: &Expr) -> Verdict {
        let rendered = format!(
            "valid {}",
            unity_core::expr::pretty::Render::new(p, &self.program.vocab)
        );
        self.side_condition(rendered, |session| {
            crate::space::check_valid_in(session.program, p, &session.cfg, &mut session.cache)
        })
    }

    /// Checks `⊨ a = b` (kernel equivalence side conditions), through
    /// the session's symbolic engine when one is configured and
    /// available.
    pub fn equivalent(&mut self, a: &Expr, b: &Expr) -> Verdict {
        let rendered = format!(
            "equivalent {} = {}",
            unity_core::expr::pretty::Render::new(a, &self.program.vocab),
            unity_core::expr::pretty::Render::new(b, &self.program.vocab)
        );
        self.side_condition(rendered, |session| {
            crate::space::check_equivalent_in(
                session.program,
                a,
                b,
                &session.cfg,
                &mut session.cache,
            )
        })
    }

    fn side_condition(
        &mut self,
        rendered: String,
        run: impl FnOnce(&mut Self) -> Result<(), McError>,
    ) -> Verdict {
        let t0 = Instant::now();
        self.cache.sym_decided = false;
        let result = run(self);
        self.finish(rendered, result, VerdictStats::Unmeasured, t0)
    }

    /// Checks every named property and assembles the machine-readable
    /// [`Report`] — the single backend behind `unity-check` (including
    /// `--json`), `--mutate`, `--synthesize` and the proof-kernel
    /// dischargers.
    pub fn verify_all(&mut self, checks: &[NamedCheck]) -> Report {
        let t0 = Instant::now();
        let results: Vec<CheckReport> = checks
            .iter()
            .map(|c| CheckReport {
                name: c.name.clone(),
                line: c.line,
                verdict: self.verify(&c.property),
            })
            .collect();
        Report {
            program: self.program.name.clone(),
            vars: self
                .program
                .vocab
                .iter()
                .map(|(_, decl)| decl.name.clone())
                .collect(),
            engine: self.cfg.engine,
            universe: self.universe,
            checks: results,
            sim: Vec::new(),
            elapsed: t0.elapsed(),
        }
    }
}

/// The number of states the dominant explicit scan of `prop` quantifies
/// over: the projection of the space onto the property's support (the
/// full product when projection is off). The supports come from the
/// functions the checks scan with. `compiled` says which compiled scans
/// ran (`(init, next)`): the `init` scan over the init groups that meet
/// `p` ([`crate::check::init_support`]), the `next`-shaped scans over
/// the writers of `q` alone ([`crate::check::next_writers`]). `None`
/// when the size overflows or the property has no scan
/// (informational only).
fn scan_domain(
    program: &Program,
    loc: &Locality,
    prop: &Property,
    cfg: &ScanConfig,
    compiled: (bool, bool),
) -> Option<u64> {
    use crate::check::{init_support, next_writers, program_support};
    use unity_core::expr::vars;
    let init = |p: &Expr| {
        if compiled.0 {
            init_support(loc, p).0
        } else {
            let mut support = vars::free_vars(&program.init);
            vars::collect(p, &mut support);
            support
        }
    };
    let next = |p: &Expr, q: &Expr| {
        if compiled.1 {
            next_writers(loc, p, q).1
        } else {
            program_support(loc, &[p, q])
        }
    };
    let support = match prop {
        Property::Init(p) => init(p),
        Property::Next(p, q) => next(p, q),
        Property::Stable(p) => next(p, p),
        Property::Transient(p) | Property::Unchanged(p) => program_support(loc, &[p]),
        Property::Invariant(p) => {
            let mut support = init(p);
            support.extend(next(p, p));
            support
        }
        Property::LeadsTo(..) => return None,
    };
    if cfg.projection && (support.len() as u64) < program.vocab.len() as u64 {
        let mut size: u64 = 1;
        for &v in &support {
            size = size.checked_mul(program.vocab.domain(v).size())?;
        }
        Some(size)
    } else {
        program.vocab.space_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use unity_core::domain::Domain;
    use unity_core::expr::build::*;
    use unity_core::ident::Vocabulary;

    fn counter() -> Program {
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
        Program::builder("count", Arc::new(v))
            .init(eq(var(x), int(0)))
            .fair_command("inc", lt(var(x), int(3)), vec![(x, add(var(x), int(1)))])
            .build()
            .unwrap()
    }

    #[test]
    fn session_memoizes_the_transition_system() {
        let p = counter();
        let x = p.vocab.lookup("x").unwrap();
        let mut s = Verifier::new(&p, ScanConfig::default());
        assert!(!s.status().ts_reachable);
        let v1 = s.verify(&Property::LeadsTo(tt(), eq(var(x), int(3))));
        assert!(v1.passed(), "{v1:?}");
        assert!(s.status().ts_reachable, "leadsto built the ts");
        let ts = s.transition_system(Universe::Reachable).unwrap();
        let again = s.transition_system(Universe::Reachable).unwrap();
        assert!(Arc::ptr_eq(&ts, &again), "memoized, not rebuilt");
    }

    #[test]
    fn session_memoizes_the_symbolic_engine() {
        let p = counter();
        let x = p.vocab.lookup("x").unwrap();
        let mut s = Verifier::new(&p, ScanConfig::symbolic());
        let v = s.verify(&Property::Invariant(le(var(x), int(3))));
        assert!(v.passed());
        assert_eq!(v.engine, Engine::Symbolic);
        assert!(matches!(v.stats, VerdictStats::Symbolic { .. }));
        assert!(s.status().symbolic);
        // Second check reuses the engine (still one build).
        let v2 = s.verify(&Property::Stable(ge(var(x), int(1))));
        assert!(v2.passed());
    }

    #[test]
    fn verdicts_match_the_free_functions() {
        let p = counter();
        let x = p.vocab.lookup("x").unwrap();
        let props = [
            Property::Invariant(le(var(x), int(3))),
            Property::Invariant(le(var(x), int(2))),
            Property::Stable(ge(var(x), int(2))),
            Property::Transient(eq(var(x), int(0))),
            Property::LeadsTo(tt(), eq(var(x), int(3))),
        ];
        for cfg in [
            ScanConfig::default(),
            ScanConfig::reference(),
            ScanConfig::symbolic(),
        ] {
            let mut s = Verifier::new(&p, cfg.clone());
            for prop in &props {
                let session = s.verify(prop);
                let oneshot = crate::check::check_property(&p, prop, Universe::Reachable, &cfg);
                assert_eq!(session.passed(), oneshot.is_ok(), "{prop:?}");
                if let (Some(cex), Err(McError::Refuted { cex: expect, .. })) =
                    (session.counterexample(), &oneshot)
                {
                    assert_eq!(cex, expect, "witness identical: {prop:?}");
                }
            }
        }
    }

    #[test]
    fn errors_become_error_verdicts() {
        let p = counter();
        let x = p.vocab.lookup("x").unwrap();
        let cfg = ScanConfig {
            max_states: 1,
            ..Default::default()
        };
        let mut s = Verifier::new(&p, cfg);
        let v = s.verify(&Property::Invariant(le(var(x), int(3))));
        assert!(v.error().is_some());
        // No scan ran, so no scan is accounted for.
        assert_eq!(v.stats, VerdictStats::Unmeasured);
        assert!(matches!(
            v.into_result(),
            Err(McError::SpaceTooLarge { .. })
        ));
    }

    #[test]
    fn oversized_vocabulary_is_attributed_to_the_reference_engine() {
        // 80 packed bits: no layout, the compiled request falls back to
        // the tree-walk — and the verdict says so.
        let mut v = Vocabulary::new();
        for i in 0..10 {
            v.declare(&format!("v{i}"), Domain::int_range(0, 255).unwrap())
                .unwrap();
        }
        let x = v.lookup("v0").unwrap();
        let p = Program::builder("wide", Arc::new(v))
            .init(eq(var(x), int(0)))
            .fair_command("inc", lt(var(x), int(255)), vec![(x, add(var(x), int(1)))])
            .build()
            .unwrap();
        let mut s = Verifier::new(&p, ScanConfig::default());
        let verdict = s.verify(&Property::Init(le(var(x), int(255))));
        assert!(verdict.passed());
        assert_eq!(verdict.engine, Engine::Reference);
    }

    #[test]
    fn seeded_sessions_reuse_exported_artifacts() {
        let p = counter();
        let x = p.vocab.lookup("x").unwrap();
        let prop = Property::LeadsTo(tt(), eq(var(x), int(3)));
        // Cold session: builds ts + pred, then exports them.
        let mut cold = Verifier::new(&p, ScanConfig::default());
        let v1 = cold.verify(&prop);
        assert!(v1.passed());
        let snapshot = cold.artifacts();
        assert!(snapshot.ts[0].is_some(), "reachable ts exported");
        assert!(snapshot.pred[0].is_some(), "pred exported");
        // Warm session: the seeded Arcs are served back, not rebuilt.
        let mut warm = Verifier::new(&p, ScanConfig::default());
        warm.seed(snapshot.clone());
        assert!(warm.status().ts_reachable, "seed shows up in status");
        assert!(warm.status().pred_reachable);
        let seeded_ts = warm.transition_system(Universe::Reachable).unwrap();
        assert!(
            Arc::ptr_eq(&seeded_ts, snapshot.ts[0].as_ref().unwrap()),
            "same allocation, no rebuild"
        );
        let v2 = warm.verify(&prop);
        assert!(v2.passed());
        assert_eq!(
            v1.counterexample(),
            v2.counterexample(),
            "warm verdict identical"
        );
        // Restored-system accounting: the warm check reports the
        // seeded system's (zero-cost) build, proving no explorer ran.
        match v2.stats {
            VerdictStats::Explicit { states, .. } => assert_eq!(states, 4),
            ref other => panic!("expected explicit stats, got {other:?}"),
        }
    }

    #[test]
    fn seed_rejects_mismatched_artifacts() {
        let p = counter();
        let x = p.vocab.lookup("x").unwrap();
        let mut donor = Verifier::new(&p, ScanConfig::default());
        let _ = donor.verify(&Property::LeadsTo(tt(), eq(var(x), int(3))));
        let snapshot = donor.artifacts();

        // A different program shape must not accept the snapshot.
        let mut v = Vocabulary::new();
        let y = v.declare("y", Domain::int_range(0, 7).unwrap()).unwrap();
        let q = Program::builder("other", Arc::new(v))
            .init(eq(var(y), int(0)))
            .fair_command("a", lt(var(y), int(7)), vec![(y, add(var(y), int(1)))])
            .fair_command("b", tt(), vec![(y, int(0))])
            .build()
            .unwrap();
        let mut s = Verifier::new(&q, ScanConfig::default());
        s.seed(snapshot);
        assert!(!s.status().ts_reachable, "mismatched ts ignored");
        assert!(!s.status().pred_reachable);
        // The session still verifies correctly from scratch.
        assert!(s
            .verify(&Property::LeadsTo(tt(), eq(var(y), int(7))))
            .failed());
    }

    #[test]
    fn seeded_field_order_feeds_the_symbolic_engine() {
        let p = counter();
        let x = p.vocab.lookup("x").unwrap();
        let mut donor = Verifier::new(&p, ScanConfig::symbolic());
        assert!(donor
            .verify(&Property::Invariant(le(var(x), int(3))))
            .passed());
        let snapshot = donor.artifacts();
        let order = snapshot.field_order.clone().expect("engine built");

        let mut warm = Verifier::new(&p, ScanConfig::symbolic());
        warm.seed(snapshot);
        assert!(warm
            .verify(&Property::Invariant(le(var(x), int(3))))
            .passed());
        let sym = warm.symbolic().expect("lowerable");
        assert_eq!(sym.field_order(), order, "tuned order restored");

        // A non-permutation order is ignored, not installed (it would
        // panic inside the engine otherwise).
        let mut bad = Verifier::new(&p, ScanConfig::symbolic());
        bad.seed(SessionArtifacts {
            field_order: Some(vec![0, 0]),
            ..Default::default()
        });
        assert!(bad
            .verify(&Property::Invariant(le(var(x), int(3))))
            .passed());
    }

    #[test]
    fn side_conditions_run_in_session() {
        let p = counter();
        let x = p.vocab.lookup("x").unwrap();
        for cfg in [ScanConfig::default(), ScanConfig::symbolic()] {
            let mut s = Verifier::new(&p, cfg);
            assert!(s.valid(&le(var(x), int(3))).passed());
            assert!(s.valid(&le(var(x), int(2))).failed());
            assert!(s
                .equivalent(&add(var(x), var(x)), &mul(int(2), var(x)))
                .passed());
            assert!(s.equivalent(&add(var(x), int(1)), &var(x)).failed());
        }
    }
}
