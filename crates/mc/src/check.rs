//! Property checkers and the proof-kernel discharger.
//!
//! All safety checks follow the paper's *inductive* semantics: they
//! quantify over **all** type-consistent states, never just reachable ones
//! (the paper explicitly avoids the substitution axiom). The one
//! reachable reading, [`check_invariant_reachable`], exists for
//! comparison and walks the reachable transition system.
//!
//! Every other public checker here is a **one-shot wrapper**: it opens
//! a throwaway engine cache and forwards to the cache-threaded `*_in`
//! form the [`Verifier`](crate::verifier::Verifier) session shares its
//! memoized artifacts through. Checking many properties of one program?
//! Use a session — same verdicts, one set of artifacts.

use std::collections::BTreeSet;
use std::sync::Arc;

use unity_core::expr::compile::{CompiledCommand, CompiledExpr, PackedLayout, Scratch};
use unity_core::expr::eval::eval_bool;
use unity_core::expr::{vars, Expr};
use unity_core::ident::VarId;
use unity_core::locality::{InitGroups, Locality};
use unity_core::program::Program;
use unity_core::properties::Property;

use crate::compiled::{decode_witness, scan_packed};
use crate::space::{scan_for, ScanConfig};
use crate::trace::{Counterexample, McError};
use crate::transition::{TransitionSystem, Universe};
use crate::verifier::EngineCache;
use crate::witness;

/// Compiled ingredients of a program-level check: the layout, compiled
/// commands, and any extra predicates lowered alongside. `None` when the
/// fast path does not apply (config opt-out, oversized vocabulary, or a
/// pathological expression the compiler rejects) — callers then use the
/// reference path. Layout and commands come from the session cache;
/// only the per-property predicates are compiled per call.
#[allow(clippy::type_complexity)]
fn compile_for_check(
    program: &Program,
    exprs: &[&Expr],
    cfg: &ScanConfig,
    cache: &mut EngineCache,
) -> Option<(
    Arc<PackedLayout>,
    Arc<Vec<CompiledCommand>>,
    Vec<CompiledExpr>,
)> {
    let (_, commands) = cache.compiled(program, cfg)?;
    let (layout, preds) = compile_preds(program, exprs, cfg, cache)?;
    Some((layout, commands, preds))
}

/// Like [`compile_for_check`] but for checks that never step commands
/// (`init`): only the predicates are lowered, so a pathological command
/// expression cannot disqualify the fast path.
fn compile_preds(
    program: &Program,
    exprs: &[&Expr],
    cfg: &ScanConfig,
    cache: &mut EngineCache,
) -> Option<(Arc<PackedLayout>, Vec<CompiledExpr>)> {
    let layout = cache.layout(program, cfg)?;
    let preds = exprs
        .iter()
        .map(|e| CompiledExpr::compile(e, &layout).ok())
        .collect::<Option<Vec<_>>>()?;
    Some((layout, preds))
}

/// Support of a program-level check over `exprs`: the expressions'
/// variables plus every command's support.
pub(crate) fn program_support(loc: &Locality, exprs: &[&Expr]) -> BTreeSet<VarId> {
    let mut out = BTreeSet::new();
    for e in exprs {
        vars::collect(e, &mut out);
    }
    loc.program_support(&mut out);
    out
}

/// The commands that can refute `p next q`, and the support a scan for
/// the refutation needs. `next` is universal (§2): a command that writes
/// none of `q`'s variables leaves `q` as the skip step does, so only the
/// writers of `vars(q)` can take a `q`-state out of `q`. The support is
/// `p`'s and `q`'s variables plus those writers' supports. Whether a
/// state refutes depends on that support alone, so a scan over it meets
/// the full scan's first witness in canonical order (non-support
/// variables sit at their minimum in both) with the same first command.
pub(crate) fn next_writers(loc: &Locality, p: &Expr, q: &Expr) -> (Vec<usize>, BTreeSet<VarId>) {
    let q_vars = vars::free_vars(q);
    let writers = loc.writers_of(&q_vars);
    let mut support = q_vars;
    vars::collect(p, &mut support);
    for &k in &writers {
        loc.command_support(k, &mut support);
    }
    (writers, support)
}

/// The support the compiled `init p` scan walks: `p`'s variables plus
/// the variables of every init group that meets them, and which groups
/// those are. The initial set is the product of the groups' satisfying
/// sets and the free domains, and whether a state refutes `init p`
/// depends only on `p`'s variables. So the product's first refuting
/// state in canonical order — its lexicographic minimum, taken
/// componentwise over disjoint variables — has every other group at its
/// first satisfying assignment and every other free variable at its
/// minimum, the same argument [`next_writers`] rests on.
pub(crate) fn init_support(loc: &Locality, p: &Expr) -> (BTreeSet<VarId>, Vec<bool>) {
    let mut support = vars::free_vars(p);
    let meets = loc.init.close_over(&mut support);
    (support, meets)
}

/// An init group's first satisfying assignment, as the compiled `init`
/// scan pins a group its property does not mention.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GroupFirst {
    /// The first satisfying assignment's packed word (every other
    /// variable at its minimum).
    Word(u64),
    /// The group has no satisfying assignment: there are no initial
    /// states.
    Unsatisfiable,
    /// The group's sub-product (`None`: beyond `u64`) exceeds
    /// `max_states`, so it was not walked.
    TooLarge(Option<u64>),
}

impl GroupFirst {
    /// Walks group `g`'s sub-product up to its first satisfying
    /// assignment, packed over `layout`.
    pub(crate) fn walk(
        program: &Program,
        groups: &InitGroups,
        g: usize,
        layout: &PackedLayout,
        cfg: &ScanConfig,
    ) -> Self {
        match groups.sub_product(&program.vocab, g) {
            Some(n) if n <= cfg.max_states => {
                let first = groups.assignments(&program.vocab, g, true);
                if first.is_empty() {
                    GroupFirst::Unsatisfiable
                } else {
                    GroupFirst::Word(groups.groups()[g].pack(layout, first.row(0)))
                }
            }
            size => GroupFirst::TooLarge(size),
        }
    }
}

fn refuted(program: &Program, prop: &Property, cex: Counterexample) -> McError {
    McError::Refuted {
        property: format!("{} [{}]", prop.display(&program.vocab), program.name),
        cex,
    }
}

/// Checks `init p`: every state satisfying the `initially` predicate
/// satisfies `p`.
pub fn check_init(program: &Program, p: &Expr, cfg: &ScanConfig) -> Result<(), McError> {
    check_init_in(program, p, cfg, &mut EngineCache::default())
}

pub(crate) fn check_init_in(
    program: &Program,
    p: &Expr,
    cfg: &ScanConfig,
    cache: &mut EngineCache,
) -> Result<(), McError> {
    p.check_pred(&program.vocab)?;
    if crate::symbolic::wants(cfg) {
        if let Some(found) = crate::symbolic::try_check_init(program, p, cfg, cache) {
            return match found {
                None => Ok(()),
                Some(cex) => Err(refuted(program, &Property::Init(p.clone()), cex)),
            };
        }
    }
    let vocab = &program.vocab;
    let found = 'found: {
        if let Some((layout, preds)) = compile_preds(program, &[&program.init, p], cfg, cache) {
            let (cinit, cp) = (&preds[0], &preds[1]);
            let loc = cache.locality(program);
            let (support, meets) = init_support(&loc, p);
            let first = cache.init_first(program, &layout, cfg);
            if first.iter().any(|f| matches!(f, GroupFirst::Unsatisfiable)) {
                // No initial state: `init p` holds vacuously.
                break 'found None;
            }
            // Every group `p` does not meet sits at its first satisfying
            // assignment. A full-product scan (projection off) walks
            // every variable itself.
            let mut base = 0u64;
            if cfg.projection {
                for (f, _) in first.iter().zip(&meets).filter(|(_, &m)| !m) {
                    match *f {
                        GroupFirst::Word(w) => base |= w,
                        GroupFirst::TooLarge(size) => {
                            return Err(McError::SpaceTooLarge {
                                size,
                                limit: cfg.max_states,
                            })
                        }
                        GroupFirst::Unsatisfiable => unreachable!("checked above"),
                    }
                }
            }
            let word = scan_packed(vocab, &layout, Some(&support), cfg, || {
                let mut scratch = Scratch::new();
                move |w: u64| {
                    let w = w | base;
                    (cinit.eval_packed_bool(w, &mut scratch)
                        && !cp.eval_packed_bool(w, &mut scratch))
                    .then_some(w)
                }
            })?;
            break 'found word.map(|w| decode_witness(&layout, vocab, w));
        }
        // The reference scan walks `vars(init) ∪ vars(p)`: it is the
        // semantics the per-group scan above is pinned against.
        let mut support = vars::free_vars(&program.init);
        vars::collect(p, &mut support);
        scan_for(vocab, Some(&support), cfg, |s| {
            (program.satisfies_init(s) && !eval_bool(p, s)).then(|| s.clone())
        })?
    };
    match found {
        None => Ok(()),
        Some(state) => Err(refuted(
            program,
            &Property::Init(p.clone()),
            Counterexample::Init { state },
        )),
    }
}

/// Checks `p next q`: from every `p`-state, the implicit `skip` and every
/// command land in `q`.
pub fn check_next(program: &Program, p: &Expr, q: &Expr, cfg: &ScanConfig) -> Result<(), McError> {
    check_next_in(program, p, q, cfg, &mut EngineCache::default())
}

pub(crate) fn check_next_in(
    program: &Program,
    p: &Expr,
    q: &Expr,
    cfg: &ScanConfig,
    cache: &mut EngineCache,
) -> Result<(), McError> {
    p.check_pred(&program.vocab)?;
    q.check_pred(&program.vocab)?;
    if crate::symbolic::wants(cfg) {
        if let Some(found) = crate::symbolic::try_check_next(program, p, q, cfg, cache) {
            return match found {
                None => Ok(()),
                Some(cex) => Err(refuted(program, &Property::Next(p.clone(), q.clone()), cex)),
            };
        }
    }
    let vocab = &program.vocab;
    // `stable p` arrives here as `p next p`: compile the predicate once.
    let pq = if p == q { vec![p] } else { vec![p, q] };
    // Both paths report the same raw witness — pre-state plus command
    // index — and the counterexample is assembled once, with the
    // post-state replayed on the reference semantics (`witness`).
    let found: Option<(unity_core::state::State, Option<usize>)> = 'found: {
        let loc = cache.locality(program);
        if let Some((layout, commands, preds)) = compile_for_check(program, &pq, cfg, cache) {
            let (cp, cq) = (&preds[0], preds.last().expect("at least one predicate"));
            let (writers, support) = next_writers(&loc, p, q);
            let writers: Vec<(usize, &CompiledCommand)> =
                writers.into_iter().map(|k| (k, &commands[k])).collect();
            let writers = &writers[..];
            let layout_ref = &*layout;
            let word = scan_packed(vocab, layout_ref, Some(&support), cfg, || {
                let mut scratch = Scratch::new();
                move |w: u64| {
                    if !cp.eval_packed_bool(w, &mut scratch) {
                        return None;
                    }
                    // Implicit skip: p-states must already satisfy q.
                    if !cq.eval_packed_bool(w, &mut scratch) {
                        return Some((w, None));
                    }
                    for &(k, c) in writers {
                        let after = c.step_packed(w, layout_ref, &mut scratch);
                        // A skipping command lands on w, where q already
                        // held — no need to re-evaluate.
                        if after != w && !cq.eval_packed_bool(after, &mut scratch) {
                            return Some((w, Some(k)));
                        }
                    }
                    None
                }
            })?;
            break 'found word.map(|(w, cmd)| (decode_witness(&layout, vocab, w), cmd));
        }
        // The reference scan keeps every command and the full support:
        // it is the semantics the restriction above is pinned against.
        let support = program_support(&loc, &[p, q]);
        scan_for(vocab, Some(&support), cfg, |s| {
            if !eval_bool(p, s) {
                return None;
            }
            // Implicit skip: p-states must already satisfy q.
            if !eval_bool(q, s) {
                return Some((s.clone(), None));
            }
            for (k, c) in program.commands.iter().enumerate() {
                let after = c.step(s, vocab);
                if !eval_bool(q, &after) {
                    return Some((s.clone(), Some(k)));
                }
            }
            None
        })?
    };
    match found {
        None => Ok(()),
        Some((state, cmd)) => Err(refuted(
            program,
            &Property::Next(p.clone(), q.clone()),
            witness::next_cex(program, state, cmd),
        )),
    }
}

/// Checks `p next q` *symbolically* via `wp`: `⊨ p ⇒ wp(c, q)` for every
/// command (plus `p ⇒ q` for the implicit skip). Must agree with
/// [`check_next`] — enforced by property tests.
pub fn check_next_wp(
    program: &Program,
    p: &Expr,
    q: &Expr,
    cfg: &ScanConfig,
) -> Result<(), McError> {
    use unity_core::expr::build::implies;
    crate::space::check_valid(&program.vocab, &implies(p.clone(), q.clone()), cfg)?;
    for c in &program.commands {
        let wp = c.wp(q, &program.vocab);
        crate::space::check_valid(&program.vocab, &implies(p.clone(), wp), cfg)?;
    }
    Ok(())
}

/// Checks `stable p` (= `p next p`).
pub fn check_stable(program: &Program, p: &Expr, cfg: &ScanConfig) -> Result<(), McError> {
    check_stable_in(program, p, cfg, &mut EngineCache::default())
}

pub(crate) fn check_stable_in(
    program: &Program,
    p: &Expr,
    cfg: &ScanConfig,
    cache: &mut EngineCache,
) -> Result<(), McError> {
    check_next_in(program, p, p, cfg, cache)
}

/// Checks `invariant p` (= `init p ∧ stable p` — the inductive definition).
pub fn check_invariant(program: &Program, p: &Expr, cfg: &ScanConfig) -> Result<(), McError> {
    check_invariant_in(program, p, cfg, &mut EngineCache::default())
}

pub(crate) fn check_invariant_in(
    program: &Program,
    p: &Expr,
    cfg: &ScanConfig,
    cache: &mut EngineCache,
) -> Result<(), McError> {
    if crate::symbolic::wants(cfg) {
        p.check_pred(&program.vocab)?;
        // One symbolic lowering decides both halves (the split call
        // below would lower the predicate twice).
        if let Some(found) = crate::symbolic::try_check_invariant(program, p, cfg, cache) {
            return match found {
                None => Ok(()),
                Some(cex) => Err(refuted(program, &Property::Invariant(p.clone()), cex)),
            };
        }
    }
    check_init_in(program, p, cfg, cache)?;
    check_stable_in(program, p, cfg, cache)
}

/// Checks `invariant p` over *reachable* states only: the
/// strongest-invariant reading the paper avoids, kept to compare with
/// the inductive [`check_invariant`]. It walks the reachable
/// [`TransitionSystem`], so like that build it refuses a vocabulary
/// whose domain product exceeds `cfg.max_states`. A violation comes
/// back as a shortest path from an initial state
/// ([`Counterexample::Reach`]).
pub fn check_invariant_reachable(
    program: &Program,
    p: &Expr,
    cfg: &ScanConfig,
) -> Result<(), McError> {
    p.check_pred(&program.vocab)?;
    let ts = TransitionSystem::build(program, Universe::Reachable, cfg)?;
    let sat = ts.sat_vec_with(p, &cfg.par);
    match ts.shortest_path(&ts.init, |_| true, |s| !sat[s as usize]) {
        None => Ok(()),
        Some(path) => {
            let path = path.into_iter().map(|s| ts.state(s)).collect();
            Err(refuted(
                program,
                &Property::Invariant(p.clone()),
                Counterexample::Reach { path },
            ))
        }
    }
}

/// Checks `unchanged e`: no command changes the value of `e` (the paper's
/// `⟨∀k :: stable (e = k)⟩` schema).
pub fn check_unchanged(program: &Program, e: &Expr, cfg: &ScanConfig) -> Result<(), McError> {
    check_unchanged_in(program, e, cfg, &mut EngineCache::default())
}

pub(crate) fn check_unchanged_in(
    program: &Program,
    e: &Expr,
    cfg: &ScanConfig,
    cache: &mut EngineCache,
) -> Result<(), McError> {
    e.infer_type(&program.vocab)?;
    if crate::symbolic::wants(cfg) {
        if let Some(found) = crate::symbolic::try_check_unchanged(program, e, cfg, cache) {
            return match found {
                None => Ok(()),
                Some(cex) => Err(refuted(program, &Property::Unchanged(e.clone()), cex)),
            };
        }
    }
    let support = program_support(&cache.locality(program), &[e]);
    let vocab = &program.vocab;
    // Raw witness: pre-state plus offending command index; before/after
    // values are recomputed once by the shared constructor (`witness`).
    let found: Option<(unity_core::state::State, usize)> = 'found: {
        if let Some((layout, commands, preds)) = compile_for_check(program, &[e], cfg, cache) {
            let ce = &preds[0];
            let commands = &commands[..];
            let layout_ref = &*layout;
            let word = scan_packed(vocab, layout_ref, Some(&support), cfg, || {
                let mut scratch = Scratch::new();
                move |w: u64| {
                    let before = ce.eval_packed(w, &mut scratch);
                    for (k, c) in commands.iter().enumerate() {
                        let after_w = c.step_packed(w, layout_ref, &mut scratch);
                        if after_w == w {
                            continue; // skip step: e cannot have changed
                        }
                        let after = ce.eval_packed(after_w, &mut scratch);
                        if after != before {
                            return Some((w, k));
                        }
                    }
                    None
                }
            })?;
            break 'found word.map(|(w, k)| (decode_witness(&layout, vocab, w), k));
        }
        scan_for(vocab, Some(&support), cfg, |s| {
            let before = unity_core::expr::eval::eval(e, s);
            for (k, c) in program.commands.iter().enumerate() {
                let after_state = c.step(s, vocab);
                if unity_core::expr::eval::eval(e, &after_state) != before {
                    return Some((s.clone(), k));
                }
            }
            None
        })?
    };
    match found {
        None => Ok(()),
        Some((state, k)) => Err(refuted(
            program,
            &Property::Unchanged(e.clone()),
            witness::unchanged_cex(program, e, state, k),
        )),
    }
}

/// Checks `transient p`: some fair command falsifies `p` from *every*
/// `p`-state.
pub fn check_transient(program: &Program, p: &Expr, cfg: &ScanConfig) -> Result<(), McError> {
    check_transient_in(program, p, cfg, &mut EngineCache::default())
}

pub(crate) fn check_transient_in(
    program: &Program,
    p: &Expr,
    cfg: &ScanConfig,
    cache: &mut EngineCache,
) -> Result<(), McError> {
    p.check_pred(&program.vocab)?;
    if crate::symbolic::wants(cfg) {
        if let Some(found) = crate::symbolic::try_check_transient(program, p, cfg, cache) {
            return match found {
                None => Ok(()),
                Some(cex) => Err(refuted(program, &Property::Transient(p.clone()), cex)),
            };
        }
    }
    let vocab = &program.vocab;
    // Session-cached commands when the whole program compiles; a
    // pathological command elsewhere only costs a per-command compile
    // here, never the fast path for the others.
    let cached_commands = cache.compiled(program, cfg).map(|(_, commands)| commands);
    let compiled = cache.layout(program, cfg).and_then(|layout| {
        let cp = CompiledExpr::compile(p, &layout).ok()?;
        Some((layout, cp))
    });
    let loc = cache.locality(program);
    let mut witnesses = Vec::new();
    for (idx, cmd) in program.fair_commands() {
        // Per-command support: p's variables plus this command's.
        let mut support = vars::free_vars(p);
        loc.command_support(idx, &mut support);
        let stuck = 'stuck: {
            if let Some((layout, cp)) = &compiled {
                let ccmd = match &cached_commands {
                    Some(commands) => Ok(commands[idx].clone()),
                    None => CompiledCommand::compile(cmd, layout),
                };
                if let Ok(ccmd) = ccmd {
                    let layout = &**layout;
                    let word = scan_packed(vocab, layout, Some(&support), cfg, || {
                        let (cp, ccmd) = (cp, &ccmd);
                        let mut scratch = Scratch::new();
                        move |w: u64| {
                            if !cp.eval_packed_bool(w, &mut scratch) {
                                return None;
                            }
                            let after = ccmd.step_packed(w, layout, &mut scratch);
                            // Skip step ⇒ still a p-state: stuck witness.
                            if after == w {
                                return Some(w);
                            }
                            cp.eval_packed_bool(after, &mut scratch).then_some(w)
                        }
                    })?;
                    break 'stuck word.map(|w| decode_witness(layout, vocab, w));
                }
            }
            scan_for(vocab, Some(&support), cfg, |s| {
                if !eval_bool(p, s) {
                    return None;
                }
                let after = cmd.step(s, vocab);
                eval_bool(p, &after).then(|| s.clone())
            })?
        };
        match stuck {
            None => return Ok(()), // this fair command is a witness
            Some(state) => witnesses.push((idx, state)),
        }
    }
    Err(refuted(
        program,
        &Property::Transient(p.clone()),
        witness::transient_cex(program, witnesses),
    ))
}

/// Checks any property on `program`. `leadsto` uses the given universe;
/// safety properties always use the inductive (all-states) semantics.
pub fn check_property(
    program: &Program,
    prop: &Property,
    universe: Universe,
    cfg: &ScanConfig,
) -> Result<(), McError> {
    check_property_in(program, prop, universe, cfg, &mut EngineCache::default())
}

pub(crate) fn check_property_in(
    program: &Program,
    prop: &Property,
    universe: Universe,
    cfg: &ScanConfig,
    cache: &mut EngineCache,
) -> Result<(), McError> {
    match prop {
        Property::Init(p) => check_init_in(program, p, cfg, cache),
        Property::Transient(p) => check_transient_in(program, p, cfg, cache),
        Property::Next(p, q) => check_next_in(program, p, q, cfg, cache),
        Property::Stable(p) => check_stable_in(program, p, cfg, cache),
        Property::Invariant(p) => check_invariant_in(program, p, cfg, cache),
        Property::Unchanged(e) => check_unchanged_in(program, e, cfg, cache),
        Property::LeadsTo(p, q) => {
            crate::fair::check_leadsto_in(program, p, q, universe, cfg, cache).map(|_| ())
        }
    }
}

/// A [`Discharger`](unity_core::proof::Discharger) backed by this model
/// checker: premises are checked semantically on the scoped program,
/// validity/equivalence side conditions by full-domain scans.
///
/// The discharger is a verification *session*: each scope (the system
/// and every component) keeps its own memoized engine artifacts across
/// premises, so a derivation with many obligations per scope pays for
/// the compiled pipeline / symbolic engine once per scope, not once per
/// premise.
pub struct McDischarger<'a> {
    /// The composed system providing component and system programs.
    pub system: &'a unity_core::compose::System,
    /// Universe for leadsto premises.
    pub universe: Universe,
    /// Scan configuration. Set it **before** the first discharge:
    /// artifacts already memoized by earlier premises were built under
    /// the configuration in effect at that time and are not rebuilt on
    /// a change.
    pub cfg: ScanConfig,
    /// Count of discharged obligations (reporting).
    pub discharged: usize,
    /// Memoized per-scope artifacts (`[system, components...]`).
    caches: Vec<EngineCache>,
}

impl<'a> McDischarger<'a> {
    /// Builds a discharger over `system` with default configuration.
    pub fn new(system: &'a unity_core::compose::System) -> Self {
        let caches = (0..=system.components.len())
            .map(|_| EngineCache::default())
            .collect();
        McDischarger {
            system,
            universe: Universe::Reachable,
            cfg: ScanConfig::default(),
            discharged: 0,
            caches,
        }
    }

    /// The scoped program plus its session cache.
    fn scope_session(
        &mut self,
        scope: &unity_core::proof::Scope,
    ) -> Result<(&'a Program, &mut EngineCache), unity_core::error::CoreError> {
        match scope {
            unity_core::proof::Scope::System => Ok((&self.system.composed, &mut self.caches[0])),
            unity_core::proof::Scope::Component(i) => {
                let program = self.system.components.get(*i).ok_or_else(|| {
                    unity_core::error::CoreError::Discharge {
                        obligation: format!("component {i}"),
                        reason: "no such component".into(),
                    }
                })?;
                Ok((program, &mut self.caches[i + 1]))
            }
        }
    }
}

fn to_core(e: McError) -> unity_core::error::CoreError {
    match e {
        McError::Core(c) => c,
        other => unity_core::error::CoreError::Discharge {
            obligation: "model-checking obligation".into(),
            reason: other.to_string(),
        },
    }
}

impl unity_core::proof::Discharger for McDischarger<'_> {
    fn discharge(
        &mut self,
        judgment: &unity_core::proof::Judgment,
    ) -> Result<(), unity_core::error::CoreError> {
        let universe = self.universe;
        let cfg = self.cfg.clone();
        let (program, cache) = self.scope_session(&judgment.scope)?;
        check_property_in(program, &judgment.prop, universe, &cfg, cache).map_err(to_core)?;
        self.discharged += 1;
        Ok(())
    }

    fn valid(&mut self, p: &Expr) -> Result<(), unity_core::error::CoreError> {
        let cfg = self.cfg.clone();
        // Side conditions range over the merged vocabulary — the system
        // scope's session (its symbolic engine, when configured) serves
        // them.
        crate::space::check_valid_in(&self.system.composed, p, &cfg, &mut self.caches[0])
            .map_err(to_core)?;
        self.discharged += 1;
        Ok(())
    }

    fn equivalent(&mut self, a: &Expr, b: &Expr) -> Result<(), unity_core::error::CoreError> {
        let cfg = self.cfg.clone();
        crate::space::check_equivalent_in(&self.system.composed, a, b, &cfg, &mut self.caches[0])
            .map_err(to_core)?;
        self.discharged += 1;
        Ok(())
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
        let c = v.declare("c", Domain::int_range(0, 3).unwrap()).unwrap();
        let big = v.declare("C", Domain::int_range(0, 3).unwrap()).unwrap();
        Program::builder("counter", Arc::new(v))
            .local(c)
            .init(and2(eq(var(c), int(0)), eq(var(big), int(0))))
            .fair_command(
                "a",
                lt(var(c), int(3)),
                vec![(c, add(var(c), int(1))), (big, add(var(big), int(1)))],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn init_checks() {
        let p = counter();
        let c = p.vocab.lookup("c").unwrap();
        let big = p.vocab.lookup("C").unwrap();
        check_init(&p, &eq(var(c), var(big)), &ScanConfig::default()).unwrap();
        assert!(check_init(&p, &eq(var(c), int(1)), &ScanConfig::default()).is_err());
    }

    #[test]
    fn unchanged_difference() {
        // The paper's key component property: C - c never changes.
        let p = counter();
        let c = p.vocab.lookup("c").unwrap();
        let big = p.vocab.lookup("C").unwrap();
        check_unchanged(&p, &sub(var(big), var(c)), &ScanConfig::default()).unwrap();
        // But C itself changes.
        assert!(check_unchanged(&p, &var(big), &ScanConfig::default()).is_err());
    }

    #[test]
    fn stable_and_next() {
        let p = counter();
        let c = p.vocab.lookup("c").unwrap();
        check_stable(&p, &ge(var(c), int(1)), &ScanConfig::default()).unwrap();
        assert!(check_stable(&p, &le(var(c), int(1)), &ScanConfig::default()).is_err());
        check_next(
            &p,
            &eq(var(c), int(1)),
            &le(var(c), int(2)),
            &ScanConfig::default(),
        )
        .unwrap();
        // skip violation: p-state not in q.
        assert!(check_next(
            &p,
            &eq(var(c), int(2)),
            &eq(var(c), int(3)),
            &ScanConfig::default()
        )
        .is_err());
    }

    #[test]
    fn wp_check_agrees() {
        let p = counter();
        let c = p.vocab.lookup("c").unwrap();
        let cases = [
            (ge(var(c), int(1)), ge(var(c), int(1))),
            (le(var(c), int(1)), le(var(c), int(1))),
            (eq(var(c), int(1)), le(var(c), int(2))),
        ];
        for (pp, qq) in cases {
            let op = check_next(&p, &pp, &qq, &ScanConfig::default()).is_ok();
            let sym = check_next_wp(&p, &pp, &qq, &ScanConfig::default()).is_ok();
            assert_eq!(op, sym, "operational and wp-based next must agree");
        }
    }

    #[test]
    fn transient_needs_fairness_and_universality() {
        // Wrap-around counter: no domain blocking, so transience is clean.
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
        let p = Program::builder("wrap", Arc::new(v))
            .init(eq(var(x), int(0)))
            .fair_command("step", tt(), vec![(x, rem(add(var(x), int(1)), int(4)))])
            .build()
            .unwrap();
        // x == 1 is transient: the fair command always moves off it.
        check_transient(&p, &eq(var(x), int(1)), &ScanConfig::default()).unwrap();
        // x <= 1 is not: from x == 0 the step lands on 1, still inside.
        assert!(check_transient(&p, &le(var(x), int(1)), &ScanConfig::default()).is_err());
    }

    #[test]
    fn transient_defeated_by_domain_blocking() {
        // In the bounded toy component, `c == 1` is NOT transient under the
        // paper's all-states semantics: in the (unreachable) state
        // c = 1 ∧ C = 3 the shared counter is saturated, the update would
        // leave C's domain, and the command behaves as skip. This is
        // exactly why the §3 derivation never needs per-counter transience
        // — only the `unchanged`-style universal safety properties.
        let p = counter();
        let c = p.vocab.lookup("c").unwrap();
        let err = check_transient(&p, &eq(var(c), int(1)), &ScanConfig::default()).unwrap_err();
        match err {
            McError::Refuted {
                cex: Counterexample::Transient { witnesses },
                ..
            } => {
                assert_eq!(witnesses.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn invariant_inductive_vs_reachable() {
        let p = counter();
        let c = p.vocab.lookup("c").unwrap();
        let big = p.vocab.lookup("C").unwrap();
        let inv = eq(var(c), var(big));
        check_invariant(&p, &inv, &ScanConfig::default()).unwrap();
        check_invariant_reachable(&p, &inv, &ScanConfig::default()).unwrap();
        // Every reachable state has C == c, so this holds there, but the
        // unreachable state c = 1, C = 0 satisfies it and steps to
        // c = 2, C = 1, which does not: it is not inductive.
        let tricky = or2(ne(var(big), int(1)), eq(var(c), int(1)));
        check_invariant_reachable(&p, &tricky, &ScanConfig::default()).unwrap();
        let r = check_invariant(&p, &tricky, &ScanConfig::default());
        assert!(
            r.is_err(),
            "non-inductive predicate must fail the inductive check"
        );
    }

    /// `x` counts up through 0..=9: `jump` adds `step` (when given),
    /// then `inc` adds 1.
    fn stepper(step: Option<i64>) -> Program {
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 9).unwrap()).unwrap();
        let mut b = Program::builder("stepper", Arc::new(v)).init(eq(var(x), int(0)));
        if let Some(k) = step {
            b = b.fair_command("jump", tt(), vec![(x, add(var(x), int(k)))]);
        }
        b.fair_command("inc", lt(var(x), int(9)), vec![(x, add(var(x), int(1)))])
            .build()
            .unwrap()
    }

    /// The `x` values along the path a refuted reachable check reports.
    fn reach_path(p: &Program, pred: &Expr, cfg: &ScanConfig) -> Vec<i64> {
        let x = p.vocab.lookup("x").unwrap();
        match check_invariant_reachable(p, pred, cfg) {
            Err(McError::Refuted {
                cex: Counterexample::Reach { path },
                ..
            }) => path
                .iter()
                .map(|s| match s.get(x) {
                    unity_core::value::Value::Int(n) => n,
                    other => panic!("x is an integer, got {other:?}"),
                })
                .collect(),
            other => panic!("expected a reach path, got {other:?}"),
        }
    }

    #[test]
    fn reachable_finds_violation_with_shortest_path() {
        let (count, jump) = (stepper(None), stepper(Some(2)));
        let x = var(count.vocab.lookup("x").unwrap());
        for cfg in [ScanConfig::default(), ScanConfig::reference()] {
            assert_eq!(
                reach_path(&count, &lt(x.clone(), int(3)), &cfg),
                [0, 1, 2, 3]
            );
            check_invariant_reachable(&count, &le(x.clone(), int(9)), &cfg).unwrap();
            // Successors are discovered in command order: `jump` reaches
            // 4 before `inc` reaches 3, both two steps from the start.
            assert_eq!(reach_path(&jump, &lt(x.clone(), int(3)), &cfg), [0, 2, 4]);
        }
    }

    #[test]
    fn reachable_checks_initial_states() {
        let count = stepper(None);
        let x = var(count.vocab.lookup("x").unwrap());
        for cfg in [ScanConfig::default(), ScanConfig::reference()] {
            assert_eq!(reach_path(&count, &gt(x.clone(), int(0)), &cfg), [0]);
        }
    }

    #[test]
    fn discharger_discharges() {
        use unity_core::compose::{InitSatCheck, System};
        use unity_core::proof::{Discharger, Judgment, Scope};
        use unity_core::properties::Property;
        let sys = System::compose(vec![counter()], InitSatCheck::Exhaustive).unwrap();
        let mut d = McDischarger::new(&sys);
        let c = sys.vocab().lookup("c").unwrap();
        let big = sys.vocab().lookup("C").unwrap();
        d.discharge(&Judgment::new(
            Scope::Component(0),
            Property::Unchanged(sub(var(big), var(c))),
        ))
        .unwrap();
        d.discharge(&Judgment::new(
            Scope::System,
            Property::LeadsTo(tt(), eq(var(c), int(3))),
        ))
        .unwrap();
        assert!(d
            .discharge(&Judgment::new(Scope::System, Property::Init(ff())))
            .is_err());
        assert_eq!(d.discharged, 2);
        d.valid(&implies(eq(var(c), int(0)), le(var(c), int(3))))
            .unwrap();
        d.equivalent(&add(var(c), var(c)), &mul(int(2), var(c)))
            .unwrap();
        assert_eq!(d.discharged, 4);
    }
}
