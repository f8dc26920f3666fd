//! The symbolic UNITY backend: transition relations, set-based
//! reachability, and the paper's inductive safety checks as BDD
//! implications.
//!
//! Every decision procedure here quantifies over **all type-consistent
//! states** — the paper's inductive semantics, identical to the explicit
//! checkers in `unity-mc` — but represents the quantification domain as
//! one BDD instead of enumerating it. A priority ring with 24 processes
//! has 2²⁴ states; its type-consistency set is the single node `true`
//! and its reachable set a few thousand nodes.
//!
//! The transition relation is kept **partitioned** (one conjunct per
//! command, constraining only the next-state bits that command writes).
//! Image computation is a fused relational product per command, with the
//! frontier *chained* through the commands inside one sweep — command
//! `k+1` sees the states command `k` just produced — which typically
//! halves the number of fixpoint iterations on token-passing systems.

use unity_core::command::Command;
use unity_core::expr::Expr;
use unity_core::program::Program;

use crate::bdd::{Bdd, Ref, FALSE};
use crate::encode::{cur, nxt, SymSpace};
use crate::lower::{lower, lower_pred, ValueMap};
use crate::order::{initial_level_order, OrderMode, SiftPolicy, SymbolicOptions};
use crate::SymbolicError;

/// Interleaved current/next pairs move as one block through sifting.
const SIFT_GROUP: usize = 2;

/// One command lowered to relational form.
#[derive(Debug, Clone)]
pub struct SymCommand {
    /// Command name (diagnostics).
    pub name: String,
    /// Indices of the written program variables.
    written: Vec<usize>,
    /// Current-state BDD variables of the written fields, sorted — the
    /// quantification cube of the image step.
    written_cur: Vec<u32>,
    /// Rename maps for the written fields' bits.
    up: Vec<(u32, u32)>, // cur → nxt
    down: Vec<(u32, u32)>, // nxt → cur
    /// The *effective* guard (declared guard ∧ implicit domain guard)
    /// over current bits: exactly the states where the command fires.
    enabled: Ref,
    /// The transition relation `enabled ∧ ⋀ₜ next(t) = rhsₜ` over current
    /// bits plus the next bits of written fields.
    trans: Ref,
}

/// Outcome of symbolic reachability.
#[derive(Debug, Clone)]
pub struct ReachReport {
    /// The reachable set (over current-state bits), pinned against the
    /// engine's collections until [`SymbolicProgram::release_pins`].
    pub set: Ref,
    /// Exact number of reachable states.
    pub count: u128,
    /// Fixpoint iterations until closure.
    pub iterations: usize,
    /// Live arena size after the fixpoint (node-count pressure metric).
    pub nodes: usize,
}

/// Engine counters surfaced by [`SymbolicProgram::stats`] (and
/// `unity-check --stats`): the current live node count plus the
/// arena's lifetime counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymStats {
    /// Live BDD nodes right now (terminals included).
    pub live_nodes: usize,
    /// The arena's lifetime counters (peak nodes, apply-cache
    /// probes/hits, sift passes, swaps, GC runs/reclaimed).
    pub bdd: crate::bdd::BddStats,
}

impl SymStats {
    /// Apply-cache hit rate in `[0, 1]` (0 without lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        self.bdd.cache_hit_rate()
    }
}

impl std::fmt::Display for SymStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nodes {} live / {} peak; apply cache {}/{} ({:.1}%); \
             {} sift pass(es), {} swap(s); {} gc run(s), {} reclaimed",
            self.live_nodes,
            self.bdd.peak_nodes,
            self.bdd.cache_hits,
            self.bdd.cache_lookups,
            100.0 * self.cache_hit_rate(),
            self.bdd.sift_passes,
            self.bdd.swaps,
            self.bdd.gc_runs,
            self.bdd.reclaimed_nodes,
        )
    }
}

/// A program lowered to the symbolic backend.
pub struct SymbolicProgram {
    bdd: Bdd,
    space: SymSpace,
    /// Type-consistent states (current bits).
    domain: Ref,
    /// `domain ∧ initially` (current bits).
    init: Ref,
    commands: Vec<SymCommand>,
    fair: Vec<usize>,
    opts: SymbolicOptions,
    policy: SiftPolicy,
    /// Caller-held `Ref`s that must survive collections: results of
    /// [`SymbolicProgram::pred`]/[`SymbolicProgram::intersect`] are
    /// pinned here automatically (see
    /// [`SymbolicProgram::release_pins`]).
    pinned: Vec<Ref>,
    /// Memoized reachability fixpoint: a long-lived engine serving many
    /// checks computes it once. The set is a permanent root (it survives
    /// [`SymbolicProgram::release_pins`] and every collection).
    reach: Option<ReachReport>,
}

impl SymbolicProgram {
    /// Lowers `program` under the default options (static dependency
    /// order plus dynamic sifting). Fails when the vocabulary exceeds
    /// 64 packed bits or an expression's value partition explodes —
    /// callers fall back to the explicit engines.
    pub fn build(program: &Program) -> Result<SymbolicProgram, SymbolicError> {
        Self::build_with(program, &SymbolicOptions::default())
    }

    /// Lowers `program` with explicit ordering options.
    pub fn build_with(
        program: &Program,
        opts: &SymbolicOptions,
    ) -> Result<SymbolicProgram, SymbolicError> {
        let space = SymSpace::new(&program.vocab).ok_or(SymbolicError::VocabularyTooWide)?;
        let mut bdd = Bdd::new();
        if let Some(level2var) = initial_level_order(program, &space, &opts.order) {
            bdd.set_order(&level2var);
        }
        let domain = space.domain(&mut bdd);
        let init_pred = lower_pred(&mut bdd, &space, &program.init)?;
        let init = bdd.and(domain, init_pred);
        let mut policy = SiftPolicy::new(opts.sift_threshold, bdd.len());
        let mut commands: Vec<SymCommand> = Vec::with_capacity(program.commands.len());
        for c in &program.commands {
            commands.push(lower_command(&mut bdd, &space, c)?);
            // Safe point: everything live is rooted in domain/init and
            // the commands lowered so far. Sweep first — lowering
            // garbage usually explains the growth; sift only when the
            // live relations themselves outgrew the watermark.
            if matches!(opts.order, OrderMode::Sifting) && policy.due(bdd.len()) {
                let roots = roots_of(domain, init, &commands);
                bdd.sweep(&roots);
                if policy.due(bdd.len()) {
                    bdd.sift(&roots, SIFT_GROUP);
                }
                policy.rearm(bdd.len());
            }
        }
        // Reclaim lowering intermediates in every mode before first use.
        let roots = roots_of(domain, init, &commands);
        bdd.sweep(&roots);
        let policy = SiftPolicy::new(opts.sift_threshold, bdd.len());
        Ok(SymbolicProgram {
            bdd,
            space,
            domain,
            init,
            commands,
            fair: program.fair.iter().copied().collect(),
            opts: opts.clone(),
            policy,
            pinned: Vec::new(),
            reach: None,
        })
    }

    /// The encoding (for decoding witnesses on the caller's side).
    pub fn space(&self) -> &SymSpace {
        &self.space
    }

    /// Current live arena size in nodes.
    pub fn node_count(&self) -> usize {
        self.bdd.len()
    }

    /// The options this engine was built with.
    pub fn options(&self) -> &SymbolicOptions {
        &self.opts
    }

    /// Engine counters (live/peak nodes, apply-cache hit rate, sift and
    /// GC activity).
    pub fn stats(&self) -> SymStats {
        SymStats {
            live_nodes: self.bdd.len(),
            bdd: self.bdd.stats().clone(),
        }
    }

    /// The BDD variable order currently in effect (`order()[l]` = the
    /// encoding-level variable at level `l`).
    pub fn level_order(&self) -> &[u32] {
        self.bdd.order()
    }

    /// The current order projected onto program variables: fields by
    /// first occurrence in the level order. This is the persistable
    /// summary of a tuned order — re-expanding it through
    /// [`OrderMode::Fields`] recovers the canonical interleaved level
    /// order for that field permutation (sifting moves individual bit
    /// pairs, so the round trip is field-granular, not bit-exact; in
    /// practice the field permutation carries nearly all of the win).
    pub fn field_order(&self) -> Vec<usize> {
        let layout = self.space.layout();
        let n = self.space.n_vars();
        // bit → owning field, by field ranges.
        let mut field_of_bit = vec![usize::MAX; self.space.total_bits() as usize];
        for v in 0..n {
            let shift = layout.field_shift(v);
            for i in 0..layout.field_bits(v) {
                field_of_bit[(shift + i) as usize] = v;
            }
        }
        let mut seen = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for &u in self.bdd.order() {
            let v = field_of_bit[(u / 2) as usize];
            if v != usize::MAX && !seen[v] {
                seen[v] = true;
                order.push(v);
            }
        }
        // Zero-bit fields (singleton domains) never appear at any
        // level; append them so the result is a full permutation.
        for (v, s) in seen.iter().enumerate() {
            if !s {
                order.push(v);
            }
        }
        order
    }

    /// The engine's persistent roots: every `Ref` that must survive a
    /// collection (domain, initial set, per-command relations).
    fn roots(&self) -> Vec<Ref> {
        let mut roots = roots_of(self.domain, self.init, &self.commands);
        roots.extend_from_slice(&self.pinned);
        if let Some(reach) = &self.reach {
            roots.push(reach.set);
        }
        roots
    }

    /// Releases every automatically pinned `Ref` (reachable sets,
    /// `pred`/`intersect` results), letting the next collection reclaim
    /// them. Call between query batches on a long-lived engine.
    pub fn release_pins(&mut self) {
        self.pinned.clear();
    }

    /// Watermark-gated service point: reclaims dead intermediates and,
    /// under [`OrderMode::Sifting`], re-optimises the variable order.
    /// `extra` lists the caller's additional live roots. An unproductive
    /// sift pass backs the watermark off so a converged order stops
    /// paying reorder cost.
    fn service(&mut self, extra: &[Ref]) {
        if !self.policy.due(self.bdd.len()) {
            return;
        }
        let mut roots = self.roots();
        roots.extend_from_slice(extra);
        // Collect first: most watermark hits are transient image/lowering
        // garbage, which a sweep reclaims at a fraction of a sift's cost.
        self.bdd.sweep(&roots);
        let before = self.bdd.len();
        if matches!(self.opts.order, OrderMode::Sifting) && self.policy.due(before) {
            // The *live* structure itself outgrew the watermark: the
            // order is genuinely bad for this fixpoint — re-optimise.
            self.bdd.sift(&roots, SIFT_GROUP);
            let after = self.bdd.len();
            if after * 10 > before * 9 {
                // Saved < 10%: the order has converged — back off hard.
                self.policy.rearm(after * 4);
                return;
            }
        }
        self.policy.rearm(self.bdd.len());
    }

    /// Number of type-consistent states.
    pub fn domain_count(&self) -> u128 {
        self.bdd.sat_count(self.domain, &self.space.all_cur_bits())
    }

    /// Number of initial states.
    pub fn initial_count(&self) -> u128 {
        self.bdd.sat_count(self.init, &self.space.all_cur_bits())
    }

    /// Decodes one state of `set` into a packed word (`None` iff empty).
    pub fn pick_word(&self, set: Ref) -> Option<u64> {
        let lits = self.bdd.pick_one(set)?;
        Some(self.space.word_of_cube(&lits))
    }

    /// Image of `from` under command `k`: the states one firing step
    /// away. States where the command skips are *not* included (the
    /// identity contributes nothing to reachability).
    fn image(&mut self, from: Ref, k: usize) -> Ref {
        let c = &self.commands[k];
        let stepped = self.bdd.relprod(from, c.trans, &c.written_cur);
        self.bdd.rename(stepped, &c.down)
    }

    /// Least fixpoint of the transition relation from the initial
    /// states, by partitioned image computation with frontier chaining.
    /// Between rounds a watermark-gated service pass reclaims dead
    /// image intermediates and (under sifting) re-optimises the
    /// variable order — swaps are in-place, so the running sets stay
    /// valid across a reorder.
    ///
    /// The fixpoint is **memoized**: a long-lived engine answering many
    /// queries (a `unity_mc` verifier session, repeated `--stats`
    /// probes) pays for it once; later calls return the cached report.
    /// The cached set is rooted for the engine's lifetime, surviving
    /// collections, sifting and [`SymbolicProgram::release_pins`].
    pub fn reachable(&mut self) -> ReachReport {
        if let Some(reach) = &self.reach {
            return reach.clone();
        }
        let mut reached = self.init;
        let mut frontier = self.init;
        let mut iterations = 0;
        while frontier != FALSE {
            iterations += 1;
            // Chain: each command's image immediately extends the layer
            // the next command steps from.
            let mut layer = frontier;
            for k in 0..self.commands.len() {
                let img = self.image(layer, k);
                layer = self.bdd.or(layer, img);
            }
            frontier = self.bdd.diff(layer, reached);
            reached = self.bdd.or(reached, frontier);
            self.service(&[reached, frontier]);
        }
        let report = ReachReport {
            set: reached,
            count: self.bdd.sat_count(reached, &self.space.all_cur_bits()),
            iterations,
            nodes: self.bdd.len(),
        };
        self.reach = Some(report.clone());
        report
    }

    /// The memoized reachability fixpoint, if [`SymbolicProgram::reachable`]
    /// has run; never computes it.
    pub fn computed_reachable(&self) -> Option<&ReachReport> {
        self.reach.as_ref()
    }

    /// Lowers a predicate over the current-state bits (for callers
    /// composing their own set algebra on top of the engine). The
    /// result is pinned across collections until
    /// [`SymbolicProgram::release_pins`].
    pub fn pred(&mut self, p: &Expr) -> Result<Ref, SymbolicError> {
        let r = lower_pred(&mut self.bdd, &self.space, p)?;
        self.pinned.push(r);
        Ok(r)
    }

    /// Set intersection/counting helpers over current-state bits.
    pub fn count_states(&self, set: Ref) -> u128 {
        self.bdd.sat_count(set, &self.space.all_cur_bits())
    }

    /// Intersects `a ∧ b` (exposed for reachable ∧ predicate queries).
    /// The result is pinned across collections until
    /// [`SymbolicProgram::release_pins`].
    pub fn intersect(&mut self, a: Ref, b: Ref) -> Ref {
        let r = self.bdd.and(a, b);
        self.pinned.push(r);
        r
    }

    /// `init p`: every initial state satisfies `p`. Returns a violating
    /// packed state word, if any.
    pub fn check_init(&mut self, p: &Expr) -> Result<Option<u64>, SymbolicError> {
        self.service(&[]);
        let p = lower_pred(&mut self.bdd, &self.space, p)?;
        let np = self.bdd.not(p);
        let bad = self.bdd.and(self.init, np);
        Ok(self.pick_word(bad))
    }

    /// `p next q`: from every type-consistent `p`-state, the implicit
    /// skip and every command land in `q`. Returns the violating
    /// pre-state and the offending command index (`None` = skip).
    #[allow(clippy::type_complexity)]
    pub fn check_next(
        &mut self,
        p: &Expr,
        q: &Expr,
    ) -> Result<Option<(Option<usize>, u64)>, SymbolicError> {
        self.service(&[]);
        let p = lower_pred(&mut self.bdd, &self.space, p)?;
        let q = lower_pred(&mut self.bdd, &self.space, q)?;
        let dp = self.bdd.and(self.domain, p);
        // Implicit skip: p-states must already satisfy q.
        let nq = self.bdd.not(q);
        let skip_bad = self.bdd.and(dp, nq);
        if let Some(w) = self.pick_word(skip_bad) {
            return Ok(Some((None, w)));
        }
        for k in 0..self.commands.len() {
            // q over the post-state: written fields read next bits, the
            // frame reads current bits unchanged.
            let q_next = self.bdd.rename(q, &self.commands[k].up);
            let nq_next = self.bdd.not(q_next);
            let fired = self.bdd.and(dp, self.commands[k].trans);
            let bad = self.bdd.and(fired, nq_next);
            if let Some(w) = self.pick_word(bad) {
                return Ok(Some((Some(k), w)));
            }
        }
        Ok(None)
    }

    /// `unchanged e`: no command changes the value of `e`. Returns the
    /// violating pre-state and command index.
    pub fn check_unchanged(&mut self, e: &Expr) -> Result<Option<(usize, u64)>, SymbolicError> {
        self.service(&[]);
        let lowered = lower(&mut self.bdd, &self.space, e)?;
        let values: ValueMap = lowered.into_values(&mut self.bdd);
        for k in 0..self.commands.len() {
            // same = ⋁ᵥ (e = v before ∧ e = v after).
            let mut same = FALSE;
            for &(_, cond) in &values.0 {
                let cond_next = self.bdd.rename(cond, &self.commands[k].up);
                let both = self.bdd.and(cond, cond_next);
                same = self.bdd.or(same, both);
            }
            let changed = self.bdd.not(same);
            let fired = self.bdd.and(self.domain, self.commands[k].trans);
            let bad = self.bdd.and(fired, changed);
            if let Some(w) = self.pick_word(bad) {
                return Ok(Some((k, w)));
            }
        }
        Ok(None)
    }

    /// `transient p`: some weakly-fair command falsifies `p` from
    /// *every* type-consistent `p`-state. Returns `None` when the
    /// property holds, otherwise one stuck witness per fair command
    /// (a `p`-state the command fails to leave `p` from).
    #[allow(clippy::type_complexity)]
    pub fn check_transient(
        &mut self,
        p: &Expr,
    ) -> Result<Option<Vec<(usize, u64)>>, SymbolicError> {
        self.service(&[]);
        let p = lower_pred(&mut self.bdd, &self.space, p)?;
        let dp = self.bdd.and(self.domain, p);
        let mut witnesses = Vec::new();
        for &k in &self.fair.clone() {
            let cmd = &self.commands[k];
            // Stuck either by skipping (effective guard false: the state
            // maps to itself, still in p) or by landing back inside p.
            let p_next = self.bdd.rename(p, &cmd.up);
            let back_in = self.bdd.and(cmd.trans, p_next);
            let not_enabled = self.bdd.not(cmd.enabled);
            let stuck_rel = self.bdd.or(not_enabled, back_in);
            let stuck = self.bdd.and(dp, stuck_rel);
            match self.pick_word(stuck) {
                None => return Ok(None), // this fair command is a witness
                Some(w) => witnesses.push((k, w)),
            }
        }
        // Every fair command got stuck somewhere (or there are none at
        // all — then `transient p` has no possible witness command and is
        // refuted with an empty list, exactly like the explicit checker).
        Ok(Some(witnesses))
    }

    /// Checks `⊨ p` over all type-consistent states; returns a
    /// falsifying packed word, if any.
    pub fn check_valid(&mut self, p: &Expr) -> Result<Option<u64>, SymbolicError> {
        let p = lower_pred(&mut self.bdd, &self.space, p)?;
        let np = self.bdd.not(p);
        let bad = self.bdd.and(self.domain, np);
        Ok(self.pick_word(bad))
    }

    /// Finds a type-consistent state satisfying `p`, if any.
    pub fn find_satisfying(&mut self, p: &Expr) -> Result<Option<u64>, SymbolicError> {
        let p = lower_pred(&mut self.bdd, &self.space, p)?;
        let sat = self.bdd.and(self.domain, p);
        Ok(self.pick_word(sat))
    }

    /// Checks `⊨ a = b` (same value in every type-consistent state)
    /// inside this engine's arena — the session-reuse form of
    /// [`equivalent_witness`]. Returns a distinguishing packed word, if
    /// any.
    pub fn check_equivalent(&mut self, a: &Expr, b: &Expr) -> Result<Option<u64>, SymbolicError> {
        self.service(&[]);
        let la = lower(&mut self.bdd, &self.space, a)?;
        let lb = lower(&mut self.bdd, &self.space, b)?;
        let same = equal_set(&mut self.bdd, la, lb);
        let differ = self.bdd.not(same);
        let bad = self.bdd.and(self.domain, differ);
        Ok(self.pick_word(bad))
    }
}

/// The set of states where two lowered expressions take equal values.
fn equal_set(bdd: &mut Bdd, la: crate::lower::Lowered, lb: crate::lower::Lowered) -> Ref {
    match (la, lb) {
        (crate::lower::Lowered::Bool(x), crate::lower::Lowered::Bool(y)) => bdd.iff(x, y),
        (x, y) => {
            let (x, y) = (x.into_values(bdd), y.into_values(bdd));
            let mut acc = FALSE;
            for &(vx, cx) in &x.0 {
                for &(vy, cy) in &y.0 {
                    if vx == vy {
                        let c = bdd.and(cx, cy);
                        acc = bdd.or(acc, c);
                    }
                }
            }
            acc
        }
    }
}

/// Checks `⊨ p` over all type-consistent states of `vocab` without a
/// program context (kernel side conditions). Returns a falsifying packed
/// word, if any.
pub fn valid_witness(
    vocab: &unity_core::ident::Vocabulary,
    p: &Expr,
) -> Result<Option<u64>, SymbolicError> {
    let space = SymSpace::new(vocab).ok_or(SymbolicError::VocabularyTooWide)?;
    let mut bdd = Bdd::new();
    let dom = space.domain(&mut bdd);
    let lowered = lower_pred(&mut bdd, &space, p)?;
    let np = bdd.not(lowered);
    let bad = bdd.and(dom, np);
    Ok(bdd.pick_one(bad).map(|lits| space.word_of_cube(&lits)))
}

/// Finds a type-consistent state of `vocab` satisfying `p`, if any.
pub fn satisfying_witness(
    vocab: &unity_core::ident::Vocabulary,
    p: &Expr,
) -> Result<Option<u64>, SymbolicError> {
    let space = SymSpace::new(vocab).ok_or(SymbolicError::VocabularyTooWide)?;
    let mut bdd = Bdd::new();
    let dom = space.domain(&mut bdd);
    let lowered = lower_pred(&mut bdd, &space, p)?;
    let sat = bdd.and(dom, lowered);
    Ok(bdd.pick_one(sat).map(|lits| space.word_of_cube(&lits)))
}

/// Checks `⊨ a = b` (same value in every type-consistent state).
/// Returns a distinguishing packed word, if any.
pub fn equivalent_witness(
    vocab: &unity_core::ident::Vocabulary,
    a: &Expr,
    b: &Expr,
) -> Result<Option<u64>, SymbolicError> {
    let space = SymSpace::new(vocab).ok_or(SymbolicError::VocabularyTooWide)?;
    let mut bdd = Bdd::new();
    let dom = space.domain(&mut bdd);
    let la = lower(&mut bdd, &space, a)?;
    let lb = lower(&mut bdd, &space, b)?;
    let same = equal_set(&mut bdd, la, lb);
    let differ = bdd.not(same);
    let bad = bdd.and(dom, differ);
    Ok(bdd.pick_one(bad).map(|lits| space.word_of_cube(&lits)))
}

/// The persistent roots of an engine state: domain, initial set, and
/// every command's effective guard and transition relation.
fn roots_of(domain: Ref, init: Ref, commands: &[SymCommand]) -> Vec<Ref> {
    let mut roots = Vec::with_capacity(2 + 2 * commands.len());
    roots.push(domain);
    roots.push(init);
    for c in commands {
        roots.push(c.enabled);
        roots.push(c.trans);
    }
    roots
}

fn lower_command(
    bdd: &mut Bdd,
    space: &SymSpace,
    command: &Command,
) -> Result<SymCommand, SymbolicError> {
    let layout = space.layout();
    let guard = lower_pred(bdd, space, &command.guard)?;
    let mut enabled = guard;
    let mut trans = guard;
    let mut written: Vec<usize> = Vec::with_capacity(command.updates.len());
    for (x, e) in &command.updates {
        let v = x.index();
        written.push(v);
        let values: ValueMap = lower(bdd, space, e)?.into_values(bdd);
        // Per-target relation: ⋁ᵥ (rhs = v ∧ next(x) encodes v), for the
        // in-domain values only; the residue (rhs out of domain) is the
        // implicit domain guard and excluded from `enabled`.
        let mut rel = FALSE;
        let mut dom_ok = FALSE;
        let base = layout.field_base(v);
        let size = layout.domain_size(v) as i64;
        for &(val, cond) in &values.0 {
            let k = val - base;
            if k < 0 || k >= size {
                continue;
            }
            dom_ok = bdd.or(dom_ok, cond);
            let enc = space.field_cube(bdd, v, k as u64, true);
            let both = bdd.and(cond, enc);
            rel = bdd.or(rel, both);
        }
        enabled = bdd.and(enabled, dom_ok);
        trans = bdd.and(trans, rel);
    }
    written.sort_unstable();
    written.dedup();
    let mut written_cur: Vec<u32> = Vec::new();
    let mut up: Vec<(u32, u32)> = Vec::new();
    for &v in &written {
        let shift = layout.field_shift(v);
        for i in 0..layout.field_bits(v) {
            written_cur.push(cur(shift + i));
            up.push((cur(shift + i), nxt(shift + i)));
        }
    }
    written_cur.sort_unstable();
    up.sort_unstable();
    let mut down: Vec<(u32, u32)> = up.iter().map(|&(c, n)| (n, c)).collect();
    down.sort_unstable();
    Ok(SymCommand {
        name: command.name.clone(),
        written,
        written_cur,
        up,
        down,
        enabled,
        trans,
    })
}

impl SymCommand {
    /// Indices of the written program variables.
    pub fn written_vars(&self) -> &[usize] {
        &self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use unity_core::domain::Domain;
    use unity_core::expr::build::*;
    use unity_core::ident::Vocabulary;

    /// The §3 toy instance used across the explicit engine's own tests.
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
    fn reachability_counts_the_diagonal() {
        // From (0,0), the lockstep increment reaches exactly the diagonal
        // c = C ∈ {0..3}.
        let p = counter();
        let mut sym = SymbolicProgram::build(&p).unwrap();
        assert_eq!(sym.domain_count(), 16);
        assert_eq!(sym.initial_count(), 1);
        let reach = sym.reachable();
        assert_eq!(reach.count, 4);
        assert!(reach.iterations >= 2);
    }

    #[test]
    fn init_and_next_checks() {
        let p = counter();
        let c = p.vocab.lookup("c").unwrap();
        let big = p.vocab.lookup("C").unwrap();
        let mut sym = SymbolicProgram::build(&p).unwrap();
        assert!(sym.check_init(&eq(var(c), var(big))).unwrap().is_none());
        let w = sym.check_init(&eq(var(c), int(1))).unwrap().unwrap();
        let state = sym.space().layout().unpack(w, &p.vocab);
        assert!(p.satisfies_init(&state), "witness is a real initial state");

        // stable (c >= 1) holds; stable (c <= 1) fails via the command.
        assert!(sym
            .check_next(&ge(var(c), int(1)), &ge(var(c), int(1)))
            .unwrap()
            .is_none());
        let (cmd, w) = sym
            .check_next(&le(var(c), int(1)), &le(var(c), int(1)))
            .unwrap()
            .unwrap();
        assert_eq!(cmd, Some(0));
        let state = sym.space().layout().unpack(w, &p.vocab);
        let after = p.commands[0].step(&state, &p.vocab);
        assert!(unity_core::expr::eval::eval_bool(
            &le(var(c), int(1)),
            &state
        ));
        assert!(!unity_core::expr::eval::eval_bool(
            &le(var(c), int(1)),
            &after
        ));
    }

    #[test]
    fn unchanged_difference_holds_symbolically() {
        let p = counter();
        let c = p.vocab.lookup("c").unwrap();
        let big = p.vocab.lookup("C").unwrap();
        let mut sym = SymbolicProgram::build(&p).unwrap();
        assert!(sym
            .check_unchanged(&sub(var(big), var(c)))
            .unwrap()
            .is_none());
        let (k, _) = sym.check_unchanged(&var(big)).unwrap().unwrap();
        assert_eq!(k, 0);
    }

    #[test]
    fn transient_respects_domain_blocking() {
        // Same scenario as the explicit engine's
        // `transient_defeated_by_domain_blocking`: c = 1 ∧ C = 3 makes
        // the update leave C's domain, so the command skips and stays in
        // p — `transient (c = 1)` fails under all-states semantics.
        let p = counter();
        let c = p.vocab.lookup("c").unwrap();
        let stuck = sym_transient(&p, &eq(var(c), int(1)));
        let witnesses = stuck.expect("refuted");
        assert_eq!(witnesses.len(), 1);
        // Wrap-around counter: transient holds.
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
        let wrap = Program::builder("wrap", Arc::new(v))
            .init(eq(var(x), int(0)))
            .fair_command("step", tt(), vec![(x, rem(add(var(x), int(1)), int(4)))])
            .build()
            .unwrap();
        assert!(sym_transient(&wrap, &eq(var(x), int(1))).is_none());
        assert!(sym_transient(&wrap, &le(var(x), int(1))).is_some());
    }

    fn sym_transient(p: &Program, pred: &Expr) -> Option<Vec<(usize, u64)>> {
        SymbolicProgram::build(p)
            .unwrap()
            .check_transient(pred)
            .unwrap()
    }

    #[test]
    fn field_order_round_trips_through_fields_mode() {
        let p = counter();
        let n = p.vocab.len();
        // A pinned permutation survives export exactly...
        let perm: Vec<usize> = (0..n).rev().collect();
        let opts = SymbolicOptions {
            order: OrderMode::Fields(perm.clone()),
            ..Default::default()
        };
        let sym = SymbolicProgram::build_with(&p, &opts).unwrap();
        assert_eq!(sym.field_order(), perm);
        // ...and any engine's export is a permutation that reproduces
        // its own level structure when re-imported.
        let tuned = SymbolicProgram::build(&p).unwrap();
        let exported = tuned.field_order();
        let mut sorted = exported.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        let replayed = SymbolicProgram::build_with(
            &p,
            &SymbolicOptions {
                order: OrderMode::Fields(exported.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(replayed.field_order(), exported);
    }

    #[test]
    fn validity_and_satisfiability() {
        let p = counter();
        let c = p.vocab.lookup("c").unwrap();
        let mut sym = SymbolicProgram::build(&p).unwrap();
        assert!(sym
            .check_valid(&or2(le(var(c), int(1)), gt(var(c), int(1))))
            .unwrap()
            .is_none());
        assert!(sym.check_valid(&le(var(c), int(2))).unwrap().is_some());
        assert!(sym.find_satisfying(&eq(var(c), int(3))).unwrap().is_some());
        assert!(sym.find_satisfying(&lt(var(c), int(0))).unwrap().is_none());
    }
}
