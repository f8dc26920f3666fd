//! Labeled transition systems of programs.
//!
//! States are interned into dense ids; for each state and each explicit
//! command we store the unique successor id (commands are total functions —
//! guard or domain failure means "stay put"). The implicit `skip` is the
//! identity on every state and is left implicit here too; the fairness
//! analysis accounts for it.

use std::sync::Arc;

use unity_core::expr::compile::{CompiledExpr, PackedLayout, Scratch};
use unity_core::expr::eval::eval_bool;
use unity_core::expr::Expr;
use unity_core::hash::FxHashMap;
use unity_core::ident::Vocabulary;
use unity_core::locality::{packed_weights, InitGroups};
use unity_core::program::Program;
use unity_core::state::{State, StateSpaceIter};

use crate::compiled::CompiledProgram;
use crate::parallel::{par_chunks, ParConfig, RANGE_CHUNK};
use crate::space::ScanConfig;
use crate::stats::BuildStats;
use crate::trace::McError;

/// Which states to include when building the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Universe {
    /// States reachable from the initial states (standard model checking).
    Reachable,
    /// The full domain product (the paper's inductive semantics — no
    /// reachability strengthening).
    AllStates,
}

/// How a transition system stores its states.
///
/// The compiled builders keep states **packed** — one `u64` word each
/// (or nothing at all for the full product, whose id ↔ word mapping is
/// pure arithmetic) — and materialize explicit [`State`]s only on
/// demand. Predicate sweeps over the state set go through
/// [`TransitionSystem::sat_vec`], which evaluates compiled bytecode
/// straight over the packed words.
#[derive(Debug, Clone)]
enum StateStore {
    /// Explicit states (reference builders, oversized vocabularies).
    Explicit(Vec<State>),
    /// Interned packed words (reachable universe, compiled builder).
    PackedWords {
        layout: PackedLayout,
        words: Vec<u64>,
    },
    /// The full domain product: state `id`'s word is
    /// `layout.word_of_flat(id)` — nothing is stored.
    PackedRange { layout: PackedLayout, n: usize },
}

/// An explicit-state labeled transition system.
#[derive(Debug, Clone)]
pub struct TransitionSystem {
    /// The vocabulary states decode against.
    vocab: Arc<Vocabulary>,
    /// State storage (packed on the compiled path).
    store: StateStore,
    /// Successor table, row-major: the post-state of command `c` from
    /// state `s` is `succ[s * n_commands + c]`. One flat allocation
    /// instead of a `Vec` per state — access through
    /// [`TransitionSystem::succ_row`] / [`TransitionSystem::succ_at`].
    succ: Vec<u32>,
    /// Ids of initial states.
    pub init: Vec<u32>,
    /// Number of explicit commands (the row stride of `succ`).
    pub n_commands: usize,
    /// Indices (into commands) of the weakly-fair subset `D`.
    pub fair: Vec<usize>,
    /// Cost accounting for the construction (wall time).
    build: BuildStats,
}

/// The packed words of the initial states, in canonical (ascending flat
/// id) order: the product of the init groups' satisfying sets, each
/// walked over its own sub-product, and the free variables' domains
/// ([`InitGroups::for_each_initial`]). The domain product is never
/// walked.
fn collect_init_words(program: &Program, cp: &CompiledProgram) -> Vec<u64> {
    let groups = InitGroups::new(&program.vocab, &program.init);
    let sets = groups.all_assignments(&program.vocab);
    let weights = packed_weights(&cp.layout);
    // At most the domain product, which the caller bounded.
    let mut words = Vec::with_capacity(
        groups
            .count(&program.vocab, &sets)
            .map_or(0, |n| n as usize),
    );
    groups.for_each_initial(&program.vocab, &sets, &weights, |w, _| words.push(w));
    words
}

impl TransitionSystem {
    /// Builds the transition system of `program` over the chosen universe.
    ///
    /// The reachable universe is explored sequentially whatever
    /// `cfg.par` says, from initial states enumerated per init group.
    /// With `cfg.par.threads > 1` the full-product compiled path fills
    /// rows chunk-parallel. Every thread count yields the same system,
    /// id for id. The wall-clock cost is stamped into
    /// [`TransitionSystem::build_stats`].
    pub fn build(program: &Program, universe: Universe, cfg: &ScanConfig) -> Result<Self, McError> {
        let t0 = std::time::Instant::now();
        let mut ts = match universe {
            Universe::Reachable => Self::build_reachable(program, cfg),
            Universe::AllStates => Self::build_all(program, cfg),
        }?;
        ts.build.build_ms = t0.elapsed().as_millis() as u64;
        Ok(ts)
    }

    fn build_reachable(program: &Program, cfg: &ScanConfig) -> Result<Self, McError> {
        crate::space::space_size(&program.vocab, cfg)?;
        if let Some(cp) = CompiledProgram::try_compile(program, cfg) {
            return Ok(Self::build_reachable_packed(program, cp));
        }
        let n_commands = program.commands.len();
        let mut index: FxHashMap<State, u32> = FxHashMap::default();
        let mut states: Vec<State> = Vec::new();
        let mut succ: Vec<u32> = Vec::new();
        let mut frontier: Vec<u32> = Vec::new();

        let intern = |s: State,
                      states: &mut Vec<State>,
                      index: &mut FxHashMap<State, u32>,
                      frontier: &mut Vec<u32>| {
            if let Some(&id) = index.get(&s) {
                return id;
            }
            let id = states.len() as u32;
            states.push(s.clone());
            index.insert(s, id);
            frontier.push(id);
            id
        };

        let mut init = Vec::new();
        for s in program.initial_states() {
            let id = intern(s, &mut states, &mut index, &mut frontier);
            init.push(id);
        }
        init.sort_unstable();
        init.dedup();

        while let Some(id) = frontier.pop() {
            // Rows may be produced out of id order (interning extends
            // `states`); the flat table is grown with placeholder zeros
            // and written in place, exactly like the packed path — no
            // per-state row allocation or final flatten.
            let state = states[id as usize].clone();
            let at = id as usize * n_commands;
            if succ.len() < at + n_commands {
                succ.resize(at + n_commands, 0);
            }
            for (c, cmd) in program.commands.iter().enumerate() {
                let next = cmd.step(&state, &program.vocab);
                let nid = intern(next, &mut states, &mut index, &mut frontier);
                succ[at + c] = nid;
            }
        }
        succ.resize(states.len() * n_commands, 0);
        Ok(TransitionSystem {
            vocab: program.vocab.clone(),
            store: StateStore::Explicit(states),
            succ,
            init,
            n_commands,
            fair: program.fair.iter().copied().collect(),
            build: BuildStats::default(),
        })
    }

    /// Packed construction: states intern as `u64` words in an
    /// integer-keyed table (no per-probe hashing of value slices) and
    /// successors come from compiled command steps. Ids follow discovery
    /// order, but the last discovered state is expanded first, so they
    /// are not breadth-first. Explicit [`State`]s are decoded on demand.
    fn build_reachable_packed(program: &Program, cp: CompiledProgram) -> Self {
        let n_commands = program.commands.len();
        let layout = &cp.layout;
        let mut index: FxHashMap<u64, u32> = FxHashMap::default();
        let mut words: Vec<u64> = Vec::new();
        let mut succ: Vec<u32> = Vec::new();
        let mut frontier: Vec<u32> = Vec::new();

        let intern = |w: u64,
                      words: &mut Vec<u64>,
                      index: &mut FxHashMap<u64, u32>,
                      frontier: &mut Vec<u32>| {
            *index.entry(w).or_insert_with(|| {
                let id = words.len() as u32;
                words.push(w);
                frontier.push(id);
                id
            })
        };

        // Initial states in canonical order, so they intern as ids
        // 0, 1, … in that order.
        let mut init = Vec::new();
        for w in collect_init_words(program, &cp) {
            init.push(intern(w, &mut words, &mut index, &mut frontier));
        }
        init.sort_unstable();
        init.dedup();

        let mut scratch = Scratch::new();
        while let Some(id) = frontier.pop() {
            // Each interned id enters the frontier exactly once, so each
            // row is written exactly once (possibly out of id order —
            // the flat table is grown with placeholder zeros and written
            // in place).
            let w = words[id as usize];
            let at = id as usize * n_commands;
            if succ.len() < at + n_commands {
                succ.resize(at + n_commands, 0);
            }
            for (c, cc) in cp.commands.iter().enumerate() {
                let next = cc.step_packed(w, layout, &mut scratch);
                succ[at + c] = intern(next, &mut words, &mut index, &mut frontier);
            }
        }
        succ.resize(words.len() * n_commands, 0);

        TransitionSystem {
            vocab: program.vocab.clone(),
            succ,
            init,
            n_commands,
            fair: program.fair.iter().copied().collect(),
            build: BuildStats::default(),
            store: StateStore::PackedWords {
                layout: cp.layout,
                words,
            },
        }
    }

    fn build_all(program: &Program, cfg: &ScanConfig) -> Result<Self, McError> {
        let n = crate::space::space_size(&program.vocab, cfg)?;
        if let Some(cp) = CompiledProgram::try_compile(program, cfg) {
            return Ok(Self::build_all_packed(program, cp, n, cfg));
        }
        let n_commands = program.commands.len();
        let vocab = &program.vocab;
        let mut states = Vec::with_capacity(n as usize);
        for flat in 0..n {
            states.push(StateSpaceIter::decode(vocab, flat));
        }
        let mut succ: Vec<u32> = Vec::with_capacity(n as usize * n_commands);
        let mut init = Vec::new();
        for (id, s) in states.iter().enumerate() {
            for c in &program.commands {
                let next = c.step(s, vocab);
                succ.push(
                    StateSpaceIter::encode(vocab, &next).expect("in-domain successor") as u32,
                );
            }
            if program.satisfies_init(s) {
                init.push(id as u32);
            }
        }
        Ok(TransitionSystem {
            vocab: program.vocab.clone(),
            store: StateStore::Explicit(states),
            succ,
            init,
            n_commands,
            fair: program.fair.iter().copied().collect(),
            build: BuildStats::default(),
        })
    }

    /// Packed full-product construction: one incremental cursor walks the
    /// whole space in canonical order; successors are compiled command
    /// steps on `u64` words encoded back to flat ids with mixed-radix
    /// arithmetic — no hashing, no per-state allocation in the scan loop.
    /// With multiple workers the rows fill chunk-parallel (the id ↔ word
    /// map is pure arithmetic, so the output is bit-identical).
    fn build_all_packed(program: &Program, cp: CompiledProgram, n: u64, cfg: &ScanConfig) -> Self {
        let n_commands = program.commands.len();
        if cfg.par.threads > 1 && n_commands > 0 && n >= cfg.par.sequential_cutoff {
            return Self::build_all_packed_par(program, cp, n, &cfg.par);
        }
        let layout = &cp.layout;
        let vocab = &program.vocab;
        let mut scratch = Scratch::new();
        let all_vars: Vec<_> = vocab.ids().collect();
        let mut cursor = layout
            .support_cursor(&all_vars, 0)
            .expect("space_size checked by caller");
        let mut succ: Vec<u32> = Vec::with_capacity(n as usize * n_commands);
        let mut init = Vec::new();
        for id in 0..n {
            let w = cursor.word();
            for cc in &cp.commands {
                // The successor's flat id comes from the incremental
                // weighted-delta encoding — O(updates), not O(vars).
                let (_, flat) = cc.step_packed_flat(w, id, layout, &mut scratch);
                succ.push(flat as u32);
            }
            if cp.init.eval_packed_bool(w, &mut scratch) {
                init.push(id as u32);
            }
            cursor.advance(layout);
        }
        TransitionSystem {
            vocab: program.vocab.clone(),
            succ,
            init,
            n_commands,
            fair: program.fair.iter().copied().collect(),
            build: BuildStats::default(),
            store: StateStore::PackedRange {
                layout: cp.layout,
                n: n as usize,
            },
        }
    }

    /// Chunk-parallel form of [`TransitionSystem::build_all_packed`]:
    /// workers claim row-aligned windows of the flat table, each with
    /// its own scratch registers and mixed-radix cursor seeked to the
    /// window start. Init ids are collected per chunk and stitched in
    /// ascending order, so the whole system is bit-identical to the
    /// sequential construction.
    fn build_all_packed_par(
        program: &Program,
        cp: CompiledProgram,
        n: u64,
        par: &ParConfig,
    ) -> Self {
        let n_commands = program.commands.len();
        let layout = &cp.layout;
        let all_vars: Vec<_> = program.vocab.ids().collect();
        let mut succ = vec![0u32; n as usize * n_commands];
        let init_chunks: parking_lot::Mutex<Vec<(u64, Vec<u32>)>> =
            parking_lot::Mutex::new(Vec::new());
        let chunk = (RANGE_CHUNK as usize / n_commands).max(1) * n_commands;
        par_chunks(&mut succ, chunk, par, |lo, out| {
            let row0 = lo / n_commands as u64;
            let rows = out.len() / n_commands;
            let mut scratch = Scratch::new();
            let mut cursor = layout
                .support_cursor(&all_vars, row0)
                .expect("space_size checked by caller");
            let mut init_ids = Vec::new();
            for r in 0..rows {
                let id = row0 + r as u64;
                let w = cursor.word();
                for (c, cc) in cp.commands.iter().enumerate() {
                    let (_, flat) = cc.step_packed_flat(w, id, layout, &mut scratch);
                    out[r * n_commands + c] = flat as u32;
                }
                if cp.init.eval_packed_bool(w, &mut scratch) {
                    init_ids.push(id as u32);
                }
                cursor.advance(layout);
            }
            if !init_ids.is_empty() {
                init_chunks.lock().push((row0, init_ids));
            }
        });
        let mut chunks = init_chunks.into_inner();
        chunks.sort_unstable_by_key(|&(lo, _)| lo);
        let init: Vec<u32> = chunks.into_iter().flat_map(|(_, v)| v).collect();
        TransitionSystem {
            vocab: program.vocab.clone(),
            succ,
            init,
            n_commands,
            fair: program.fair.iter().copied().collect(),
            build: BuildStats::default(),
            store: StateStore::PackedRange {
                layout: cp.layout,
                n: n as usize,
            },
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        match &self.store {
            StateStore::Explicit(states) => states.len(),
            StateStore::PackedWords { words, .. } => words.len(),
            StateStore::PackedRange { n, .. } => *n,
        }
    }

    /// Whether the system has no states.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The vocabulary states decode against.
    pub fn vocab(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// The explicit state of `id` (decoded on demand on the packed
    /// store — use [`TransitionSystem::for_each_state`] or
    /// [`TransitionSystem::sat_vec`] for sweeps).
    pub fn state(&self, id: u32) -> State {
        match &self.store {
            StateStore::Explicit(states) => states[id as usize].clone(),
            StateStore::PackedWords { layout, words } => {
                layout.unpack(words[id as usize], &self.vocab)
            }
            StateStore::PackedRange { layout, .. } => {
                layout.unpack(layout.word_of_flat(id as u64), &self.vocab)
            }
        }
    }

    /// Visits every state in id order without per-state allocation (the
    /// packed stores decode into one reused scratch state).
    pub fn for_each_state(&self, mut f: impl FnMut(u32, &State)) {
        match &self.store {
            StateStore::Explicit(states) => {
                for (id, s) in states.iter().enumerate() {
                    f(id as u32, s);
                }
            }
            StateStore::PackedWords { layout, words } => {
                let mut scratch = State::minimum(&self.vocab);
                for (id, &w) in words.iter().enumerate() {
                    layout.unpack_into(w, &self.vocab, &mut scratch);
                    f(id as u32, &scratch);
                }
            }
            StateStore::PackedRange { layout, n } => {
                let mut scratch = State::minimum(&self.vocab);
                let all: Vec<_> = self.vocab.ids().collect();
                let mut cursor = layout
                    .support_cursor(&all, 0)
                    .expect("layout built from this vocabulary");
                for id in 0..*n {
                    layout.unpack_into(cursor.word(), &self.vocab, &mut scratch);
                    f(id as u32, &scratch);
                    cursor.advance(layout);
                }
            }
        }
    }

    /// Truth value of predicate `e` at every state, in id order. On the
    /// packed stores this evaluates compiled bytecode over the `u64`
    /// words directly — the fast path for the fairness analysis.
    /// Sequential; [`TransitionSystem::sat_vec_with`] is the
    /// chunk-parallel form the worklist liveness engine sweeps with.
    pub fn sat_vec(&self, e: &Expr) -> Vec<bool> {
        self.sat_vec_with(e, &crate::parallel::ParConfig::sequential())
    }

    /// [`TransitionSystem::sat_vec`] with explicit parallelism: the
    /// packed stores split the id range into chunks across the
    /// work-stealing scan workers (each with its own register file and,
    /// on the full product, its own mixed-radix cursor seeked to the
    /// chunk start). The explicit store stays sequential — it is the
    /// reference path. Output is identical to the sequential form.
    pub fn sat_vec_with(&self, e: &Expr, par: &crate::parallel::ParConfig) -> Vec<bool> {
        match &self.store {
            StateStore::Explicit(_) => {}
            StateStore::PackedWords { layout, words } => {
                if let Ok(prog) = CompiledExpr::compile(e, layout) {
                    let mut out = vec![false; words.len()];
                    crate::parallel::par_fill(&mut out, par, |lo, chunk| {
                        let mut scratch = Scratch::new();
                        for (k, b) in chunk.iter_mut().enumerate() {
                            *b = prog.eval_packed_bool(words[lo as usize + k], &mut scratch);
                        }
                    });
                    return out;
                }
            }
            StateStore::PackedRange { layout, n } => {
                if let Ok(prog) = CompiledExpr::compile(e, layout) {
                    let all: Vec<_> = self.vocab.ids().collect();
                    let mut out = vec![false; *n];
                    crate::parallel::par_fill(&mut out, par, |lo, chunk| {
                        let mut scratch = Scratch::new();
                        let mut cursor = layout
                            .support_cursor(&all, lo)
                            .expect("layout built from this vocabulary");
                        for b in chunk.iter_mut() {
                            *b = prog.eval_packed_bool(cursor.word(), &mut scratch);
                            cursor.advance(layout);
                        }
                    });
                    return out;
                }
            }
        }
        let mut out = vec![false; self.len()];
        self.for_each_state(|id, s| out[id as usize] = eval_bool(e, s));
        out
    }

    /// Total number of stored transitions.
    pub fn transition_count(&self) -> usize {
        self.succ.len()
    }

    /// Cost accounting for how this system was built (wall time).
    pub fn build_stats(&self) -> &BuildStats {
        &self.build
    }

    /// The successor row of state `s` (one entry per command).
    #[inline(always)]
    pub fn succ_row(&self, s: usize) -> &[u32] {
        &self.succ[s * self.n_commands..(s + 1) * self.n_commands]
    }

    /// The successor of state `s` under command `c`.
    #[inline(always)]
    pub fn succ_at(&self, s: usize, c: usize) -> u32 {
        self.succ[s * self.n_commands + c]
    }

    /// The ids along a shortest path from one of `roots` to a state
    /// satisfying `target`, through states satisfying `enter`. The walk
    /// is breadth first: the roots in order, then each state's
    /// successors in command order. A state is tested when it is first
    /// discovered, so the path ends at the first target in that order.
    /// `None` when no target can be reached.
    pub(crate) fn shortest_path(
        &self,
        roots: &[u32],
        enter: impl Fn(u32) -> bool,
        target: impl Fn(u32) -> bool,
    ) -> Option<Vec<u32>> {
        const UNSEEN: u32 = u32::MAX;
        // The state each state was discovered from; a root is its own
        // parent.
        let mut parent = vec![UNSEEN; self.len()];
        let mut queue = Vec::new();
        let mut head = 0;
        // `None` expands the roots, `Some(s)` the successors of `s`.
        let mut from = None;
        loop {
            let row = match from {
                None => roots,
                Some(s) => self.succ_row(s as usize),
            };
            for &s in row {
                if parent[s as usize] != UNSEEN || !enter(s) {
                    continue;
                }
                parent[s as usize] = from.unwrap_or(s);
                if target(s) {
                    let mut path = vec![s];
                    let mut at = s;
                    while parent[at as usize] != at {
                        at = parent[at as usize];
                        path.push(at);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push(s);
            }
            from = Some(*queue.get(head)?);
            head += 1;
        }
    }

    /// Ids of states satisfying `pred`.
    pub fn states_where(&self, mut pred: impl FnMut(&State) -> bool) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_state(|id, s| {
            if pred(s) {
                out.push(id);
            }
        });
        out
    }

    /// Serializes the system into the persistent artifact payload
    /// (see [`crate::artifact`] for the framing).
    ///
    /// Only the packed stores serialize — their state set is a `u64`
    /// word list (or pure arithmetic), so the payload is the flat
    /// tables verbatim. The explicit store (oversized vocabularies,
    /// reference builders) returns `None`; those systems are rebuilt
    /// instead of cached, exactly like an uncompilable program skips
    /// the fast path.
    ///
    /// `build_ms` is construction accounting, not semantics, and is
    /// not persisted: a restored system reports `build_ms == 0`, which
    /// is truthful — restoring did not run the explorer.
    pub fn to_artifact_bytes(&self) -> Option<Vec<u8>> {
        use crate::artifact::ByteWriter;
        let mut w = ByteWriter::new();
        match &self.store {
            StateStore::Explicit(_) => return None,
            StateStore::PackedWords { words, .. } => {
                w.u8(1);
                w.u32(self.n_commands as u32);
                w.u64(words.len() as u64);
                w.u64_slice(words);
            }
            StateStore::PackedRange { n, .. } => {
                w.u8(2);
                w.u32(self.n_commands as u32);
                w.u64(*n as u64);
            }
        }
        w.u32_slice(&self.init);
        let fair: Vec<u32> = self.fair.iter().map(|&c| c as u32).collect();
        w.u32_slice(&fair);
        w.u32_slice(&self.succ);
        Some(w.into_vec())
    }

    /// Rebuilds a system from [`TransitionSystem::to_artifact_bytes`]
    /// output, for the *same* program under the *same* configuration
    /// (the artifact store keys payloads by spec content hash, which
    /// pins both). The packed layout is re-derived from the program —
    /// it is deterministic — so the payload never has to be trusted
    /// about the vocabulary.
    ///
    /// Every id is bounds-checked; a payload that disagrees with the
    /// program (command count, universe size, out-of-range ids) is an
    /// error, which the store treats as a cache miss.
    pub fn from_artifact_bytes(
        program: &Program,
        cfg: &ScanConfig,
        bytes: &[u8],
    ) -> Result<Self, String> {
        use crate::artifact::ByteReader;
        let layout = crate::compiled::try_layout(&program.vocab, cfg)
            .ok_or("program has no packed layout; artifact cannot apply")?;
        let mut r = ByteReader::new(bytes);
        let kind = r.u8()?;
        let n_commands = r.u32()? as usize;
        if n_commands != program.commands.len() {
            return Err(format!(
                "artifact has {n_commands} commands, program has {}",
                program.commands.len()
            ));
        }
        let n = r.u64()? as usize;
        let store = match kind {
            1 => {
                let words = r.u64_vec()?;
                if words.len() != n {
                    return Err(format!("artifact stores {} of {n} words", words.len()));
                }
                StateStore::PackedWords { layout, words }
            }
            2 => {
                let size = program
                    .vocab
                    .space_size()
                    .ok_or("state space size overflows")?;
                if n as u64 != size {
                    return Err(format!("artifact covers {n} states, product has {size}"));
                }
                StateStore::PackedRange { layout, n }
            }
            other => return Err(format!("unknown transition-store kind {other}")),
        };
        let init = r.u32_vec()?;
        let fair_raw = r.u32_vec()?;
        let succ = r.u32_vec()?;
        r.finish()?;
        if succ.len() != n * n_commands {
            return Err(format!(
                "successor table has {} entries, expected {}",
                succ.len(),
                n * n_commands
            ));
        }
        let bound = n as u32;
        if succ.iter().any(|&id| id >= bound) {
            return Err("successor id out of range".into());
        }
        if init.iter().any(|&id| id >= bound) {
            return Err("initial-state id out of range".into());
        }
        if fair_raw.iter().any(|&c| c as usize >= n_commands) {
            return Err("fair command index out of range".into());
        }
        Ok(TransitionSystem {
            vocab: program.vocab.clone(),
            store,
            succ,
            init,
            n_commands,
            fair: fair_raw.into_iter().map(|c| c as usize).collect(),
            build: BuildStats::default(),
        })
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
    use unity_core::value::Value;

    fn counter(k: i64) -> Program {
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, k).unwrap()).unwrap();
        Program::builder("counter", Arc::new(v))
            .init(eq(var(x), int(0)))
            .fair_command("inc", lt(var(x), int(k)), vec![(x, add(var(x), int(1)))])
            .build()
            .unwrap()
    }

    #[test]
    fn reachable_chain() {
        let p = counter(5);
        let ts = TransitionSystem::build(&p, Universe::Reachable, &ScanConfig::default()).unwrap();
        assert_eq!(ts.len(), 6, "0..=5 reachable");
        assert_eq!(ts.init.len(), 1);
        assert_eq!(ts.n_commands, 1);
        assert_eq!(ts.fair, vec![0]);
        // The final state self-loops (guard blocks).
        let last = ts.states_where(|s| s.get(unity_core::ident::VarId(0)) == Value::Int(5))[0];
        assert_eq!(ts.succ_at(last as usize, 0), last);
    }

    #[test]
    fn all_states_universe() {
        let p = counter(5);
        let ts = TransitionSystem::build(&p, Universe::AllStates, &ScanConfig::default()).unwrap();
        assert_eq!(ts.len(), 6);
        assert_eq!(ts.transition_count(), 6);
        assert_eq!(ts.init.len(), 1);
    }

    #[test]
    fn reachable_smaller_than_all() {
        // Start at 3: states 0..3 unreachable.
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 5).unwrap()).unwrap();
        let p = Program::builder("c", Arc::new(v))
            .init(eq(var(x), int(3)))
            .fair_command("inc", lt(var(x), int(5)), vec![(x, add(var(x), int(1)))])
            .build()
            .unwrap();
        let reach =
            TransitionSystem::build(&p, Universe::Reachable, &ScanConfig::default()).unwrap();
        let all = TransitionSystem::build(&p, Universe::AllStates, &ScanConfig::default()).unwrap();
        assert_eq!(reach.len(), 3); // 3, 4, 5
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn sat_vec_parallel_matches_sequential() {
        // Both packed stores, forced-parallel vs sequential: bit-for-bit
        // identical sweeps. The space (32768 states) spans four
        // RANGE_CHUNK windows, so workers genuinely fill chunks with
        // nonzero `lo` — on the full product that exercises the
        // per-chunk cursor seek.
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 63).unwrap()).unwrap();
        let y = v.declare("y", Domain::int_range(0, 63).unwrap()).unwrap();
        let z = v.declare("z", Domain::int_range(0, 7).unwrap()).unwrap();
        let p = Program::builder("grid", Arc::new(v))
            .init(and2(
                and2(eq(var(x), int(0)), eq(var(y), int(0))),
                eq(var(z), int(0)),
            ))
            .fair_command("ix", lt(var(x), int(63)), vec![(x, add(var(x), int(1)))])
            .fair_command("iy", lt(var(y), int(63)), vec![(y, add(var(y), int(1)))])
            .fair_command("iz", lt(var(z), int(7)), vec![(z, add(var(z), int(1)))])
            .build()
            .unwrap();
        let preds = [
            lt(add(var(x), var(y)), int(40)),
            eq(rem(add(var(x), var(z)), int(3)), int(1)),
            tt(),
        ];
        let n = 64 * 64 * 8;
        assert!(n as u64 > 3 * crate::parallel::RANGE_CHUNK, "multi-chunk");
        let par = crate::parallel::ParConfig::with_threads(4);
        for universe in [Universe::Reachable, Universe::AllStates] {
            let ts = TransitionSystem::build(&p, universe, &ScanConfig::default()).unwrap();
            assert_eq!(ts.len(), n);
            for e in &preds {
                assert_eq!(ts.sat_vec(e), ts.sat_vec_with(e, &par), "{e:?}");
            }
        }
    }

    #[test]
    fn artifact_bytes_round_trip_both_packed_stores() {
        // Reachable = PackedWords, AllStates = PackedRange.
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 7).unwrap()).unwrap();
        let y = v.declare("y", Domain::int_range(0, 3).unwrap()).unwrap();
        let p = Program::builder("grid", Arc::new(v))
            .init(and2(eq(var(x), int(2)), eq(var(y), int(0))))
            .fair_command("ix", lt(var(x), int(7)), vec![(x, add(var(x), int(1)))])
            .command("iy", lt(var(y), int(3)), vec![(y, add(var(y), int(1)))])
            .build()
            .unwrap();
        let cfg = ScanConfig::default();
        for universe in [Universe::Reachable, Universe::AllStates] {
            let ts = TransitionSystem::build(&p, universe, &cfg).unwrap();
            let bytes = ts.to_artifact_bytes().expect("packed stores serialize");
            let back = TransitionSystem::from_artifact_bytes(&p, &cfg, &bytes).unwrap();
            assert_eq!(back.len(), ts.len(), "{universe:?}");
            assert_eq!(back.init, ts.init);
            assert_eq!(back.succ, ts.succ);
            assert_eq!(back.fair, ts.fair);
            assert_eq!(back.n_commands, ts.n_commands);
            // States decode identically (word list / range arithmetic).
            for id in 0..ts.len() as u32 {
                assert_eq!(back.state(id), ts.state(id));
            }
            // Restored systems report zero build cost.
            assert_eq!(back.build_stats().build_ms, 0);
            // And the restored bytes re-serialize identically.
            assert_eq!(back.to_artifact_bytes().unwrap(), bytes);
        }
    }

    #[test]
    fn artifact_decode_rejects_corruption() {
        let p = counter(9);
        let cfg = ScanConfig::default();
        let ts = TransitionSystem::build(&p, Universe::Reachable, &cfg).unwrap();
        let bytes = ts.to_artifact_bytes().unwrap();
        // Truncations fail.
        for cut in 0..bytes.len() {
            assert!(
                TransitionSystem::from_artifact_bytes(&p, &cfg, &bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // Unknown store kind fails.
        let mut bad = bytes.clone();
        bad[0] = 9;
        assert!(TransitionSystem::from_artifact_bytes(&p, &cfg, &bad).is_err());
        // A command-count mismatch (artifact from a different program
        // shape) fails.
        let mut bad = bytes.clone();
        bad[1..5].copy_from_slice(&7u32.to_le_bytes());
        assert!(TransitionSystem::from_artifact_bytes(&p, &cfg, &bad).is_err());
        // An out-of-range successor id fails.
        let mut bad = bytes.clone();
        let at = bad.len() - 4;
        bad[at..].copy_from_slice(&(ts.len() as u32).to_le_bytes());
        assert!(TransitionSystem::from_artifact_bytes(&p, &cfg, &bad).is_err());
        // The reference (explicit) store does not serialize.
        let ts_ref =
            TransitionSystem::build(&p, Universe::Reachable, &ScanConfig::reference()).unwrap();
        assert!(ts_ref.to_artifact_bytes().is_none());
    }

    /// The initial words by a scan of the whole domain product with the
    /// compiled init predicate, in canonical order: the oracle for the
    /// per-group seeding.
    fn product_scan_init_words(program: &Program, cp: &CompiledProgram) -> Vec<u64> {
        let all: Vec<_> = program.vocab.ids().collect();
        let mut cursor = cp.layout.support_cursor(&all, 0).expect("small space");
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        for _ in 0..cursor.size() {
            if cp.init.eval_packed_bool(cursor.word(), &mut scratch) {
                out.push(cursor.word());
            }
            cursor.advance(&cp.layout);
        }
        out
    }

    /// Reference search over packed words, independent of the builder.
    fn reference_reachable(program: &Program, cp: &CompiledProgram) -> Vec<u64> {
        let mut scratch = Scratch::new();
        let mut seen: std::collections::HashSet<u64> =
            product_scan_init_words(program, cp).into_iter().collect();
        let mut frontier: Vec<u64> = seen.iter().copied().collect();
        while let Some(w) = frontier.pop() {
            for cc in &cp.commands {
                let nw = cc.step_packed(w, &cp.layout, &mut scratch);
                if seen.insert(nw) {
                    frontier.push(nw);
                }
            }
        }
        let mut out: Vec<u64> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn reachable_build_matches_reference_bfs() {
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 31).unwrap()).unwrap();
        let y = v.declare("y", Domain::int_range(0, 31).unwrap()).unwrap();
        let p = Program::builder("grid", Arc::new(v))
            .init(and2(le(var(x), int(1)), eq(var(y), int(0))))
            .fair_command("ix", lt(var(x), int(31)), vec![(x, add(var(x), int(1)))])
            .fair_command("iy", lt(var(y), int(31)), vec![(y, add(var(y), int(1)))])
            .build()
            .unwrap();
        let cp = CompiledProgram::try_compile(&p, &ScanConfig::default()).expect("compilable");
        let expected = reference_reachable(&p, &cp);
        let mut expected_init = product_scan_init_words(&p, &cp);
        expected_init.sort_unstable();
        for threads in [1usize, 2, 4, 8] {
            let cfg = ScanConfig {
                par: ParConfig::with_threads(threads),
                ..Default::default()
            };
            let ts = TransitionSystem::build(&p, Universe::Reachable, &cfg).unwrap();
            let StateStore::PackedWords { words, .. } = &ts.store else {
                panic!("compiled reachable build stores packed words");
            };

            let mut got = words.clone();
            got.sort_unstable();
            assert_eq!(got, expected, "state set differs at {threads} threads");

            // Successors agree word for word with the compiled step.
            let mut scratch = Scratch::new();
            for (id, &w) in words.iter().enumerate() {
                for (c, cc) in cp.commands.iter().enumerate() {
                    let nw = cc.step_packed(w, &cp.layout, &mut scratch);
                    assert_eq!(words[ts.succ_at(id, c) as usize], nw, "({id}, {c})");
                }
            }

            let mut got_init: Vec<u64> = ts.init.iter().map(|&i| words[i as usize]).collect();
            got_init.sort_unstable();
            assert_eq!(got_init, expected_init, "init at {threads} threads");
        }
    }

    #[test]
    fn empty_init_is_an_empty_system() {
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 7).unwrap()).unwrap();
        let p = Program::builder("void", Arc::new(v))
            .init(ff())
            .fair_command("ix", lt(var(x), int(7)), vec![(x, add(var(x), int(1)))])
            .build()
            .unwrap();
        let cp = CompiledProgram::try_compile(&p, &ScanConfig::default()).expect("compilable");
        assert!(collect_init_words(&p, &cp).is_empty());
        for threads in [1usize, 2, 4, 8] {
            let cfg = ScanConfig {
                par: ParConfig::with_threads(threads),
                ..Default::default()
            };
            let ts = TransitionSystem::build(&p, Universe::Reachable, &cfg).unwrap();
            assert!(ts.is_empty(), "{threads} threads");
            assert!(ts.init.is_empty());
            assert!(ts.succ.is_empty());
        }
    }

    #[test]
    fn multi_command_product() {
        let mut v = Vocabulary::new();
        let a = v.declare("a", Domain::Bool).unwrap();
        let b = v.declare("b", Domain::Bool).unwrap();
        let p = Program::builder("flip", Arc::new(v))
            .init(and2(not(var(a)), not(var(b))))
            .fair_command("fa", tt(), vec![(a, not(var(a)))])
            .fair_command("fb", tt(), vec![(b, not(var(b)))])
            .build()
            .unwrap();
        let ts = TransitionSystem::build(&p, Universe::Reachable, &ScanConfig::default()).unwrap();
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.transition_count(), 8);
        // Every state's row is filled.
        for s in 0..ts.len() {
            assert_eq!(ts.succ_row(s).len(), 2);
        }
    }
}
