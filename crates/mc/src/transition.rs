//! Labeled transition systems of programs.
//!
//! States are interned into dense ids. Commands are total functions:
//! a command whose guard is false, or whose update would leave a
//! domain, acts as `skip` and leaves the state unchanged. `stable`,
//! `invariant` and `leadsto` cannot tell such a stutter from no step,
//! so the system stores only **moves**, the command steps that change
//! the state, as one row of `(command, target)` pairs per state. A
//! command missing from a row stutters there, exactly like the implicit
//! `skip`, which is never stored either. Only the accessors below know
//! this: [`TransitionSystem::succ_at`] returns the state itself for a
//! stutter, and [`TransitionSystem::succ_row`] lists the move targets
//! in command order.

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
    /// The moves, one row per state.
    moves: MoveRows,
    /// Ids of initial states.
    pub init: Vec<u32>,
    /// Number of explicit commands.
    pub n_commands: usize,
    /// Indices (into commands) of the weakly-fair subset `D`.
    pub fair: Vec<usize>,
    /// Cost accounting for the construction (wall time).
    build: BuildStats,
}

/// Move rows: the moves of state `s` are entries `spans[s].0 ..
/// spans[s].1` of `targets` and `commands`, commands ascending.
/// Stutters are not stored. The reachable builder writes rows in
/// expansion order, which is not id order, so each state keeps its own
/// span; segments store the rows in id order.
#[derive(Debug, Clone, Default)]
struct MoveRows {
    /// The `(start, end)` of each state's row.
    spans: Vec<(u32, u32)>,
    /// The post-state of each move.
    targets: Vec<u32>,
    /// The command of each move.
    commands: Vec<u32>,
}

impl MoveRows {
    /// Records a move of command `c` onto `target` in the open row.
    #[inline(always)]
    fn push(&mut self, c: usize, target: u32) {
        self.targets.push(target);
        // Lossless: `TransitionSystem::build` refuses programs whose
        // command count does not fit a `u32`.
        self.commands.push(c as u32);
    }

    /// The end of the open row.
    #[inline]
    fn end(&self) -> Result<u32, McError> {
        u32::try_from(self.targets.len()).map_err(|_| too_many_moves())
    }

    /// Closes the open row as the next state's, in id order.
    #[inline]
    fn close_row(&mut self) -> Result<(), McError> {
        let lo = self.spans.last().map_or(0, |&(_, hi)| hi);
        let hi = self.end()?;
        self.spans.push((lo, hi));
        Ok(())
    }

    /// Appends the rows of the next states, built elsewhere.
    fn append(&mut self, part: MoveRows) -> Result<(), McError> {
        let base = self.end()?;
        for (lo, hi) in part.spans {
            let shift = |k: u32| base.checked_add(k).ok_or_else(too_many_moves);
            self.spans.push((shift(lo)?, shift(hi)?));
        }
        self.targets.extend_from_slice(&part.targets);
        self.commands.extend_from_slice(&part.commands);
        Ok(())
    }

    /// The span of state `s`'s row.
    #[inline(always)]
    fn span(&self, s: usize) -> std::ops::Range<usize> {
        let (lo, hi) = self.spans[s];
        lo as usize..hi as usize
    }

    /// Writes the rows in state-id order as CSR: the row offsets
    /// (`n + 1` of them), then every target, then every command.
    fn write(&self, w: &mut crate::artifact::ByteWriter) {
        let n = self.spans.len();
        w.u64(n as u64 + 1);
        let mut at = 0u32;
        w.u32(at);
        for s in 0..n {
            // The rows partition the moves, so every offset fits.
            at += self.span(s).len() as u32;
            w.u32(at);
        }
        for column in [&self.targets, &self.commands] {
            w.u64(column.len() as u64);
            for s in 0..n {
                for &v in &column[self.span(s)] {
                    w.u32(v);
                }
            }
        }
    }

    /// Reads what [`MoveRows::write`] wrote, for a system of `n` states
    /// and `n_commands` commands. Refused: offsets that do not ascend
    /// from 0 to the move count, and rows whose commands are not
    /// strictly ascending below `n_commands` or whose targets are out
    /// of range or the row's own state.
    fn read(
        r: &mut crate::artifact::ByteReader<'_>,
        n: usize,
        n_commands: usize,
    ) -> Result<Self, String> {
        let row = r.u32_vec()?;
        let targets = r.u32_vec()?;
        let commands = r.u32_vec()?;
        if n.checked_add(1) != Some(row.len())
            || row[0] != 0
            || row.windows(2).any(|w| w[0] > w[1])
            || row[n] as usize != targets.len()
            || commands.len() != targets.len()
        {
            return Err("move offsets disagree with the move count".into());
        }
        let spans: Vec<(u32, u32)> = row.windows(2).map(|w| (w[0], w[1])).collect();
        for (s, &(lo, hi)) in spans.iter().enumerate() {
            let (lo, hi) = (lo as usize, hi as usize);
            let row_commands = &commands[lo..hi];
            if row_commands.windows(2).any(|w| w[0] >= w[1])
                || row_commands.iter().any(|&c| c as usize >= n_commands)
            {
                return Err(format!(
                    "state {s}: move commands not strictly ascending below {n_commands}"
                ));
            }
            if targets[lo..hi]
                .iter()
                .any(|&t| t as usize >= n || t as usize == s)
            {
                return Err(format!("state {s}: move target out of range or a stutter"));
            }
        }
        Ok(MoveRows {
            spans,
            targets,
            commands,
        })
    }
}

fn too_many_moves() -> McError {
    McError::Message("transition system exceeds 2^32 moves".into())
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

/// The initial ids and move rows of full-product states `lo .. hi`,
/// spans relative to `lo`'s row. The successor's flat id comes
/// from the incremental weighted-delta encoding: O(updates), not
/// O(vars).
fn all_packed_rows(
    cp: &CompiledProgram,
    all_vars: &[unity_core::ident::VarId],
    lo: u64,
    hi: u64,
) -> Result<(Vec<u32>, MoveRows), McError> {
    let layout = &cp.layout;
    let mut scratch = Scratch::new();
    let mut cursor = layout
        .support_cursor(all_vars, lo)
        .expect("space_size checked by caller");
    let mut init = Vec::new();
    let mut moves = MoveRows::default();
    for id in lo..hi {
        let w = cursor.word();
        for (c, cc) in cp.commands.iter().enumerate() {
            let (next, flat) = cc.step_packed_flat(w, id, layout, &mut scratch);
            if next != w {
                moves.push(c, flat as u32);
            }
        }
        moves.close_row()?;
        if cp.init.eval_packed_bool(w, &mut scratch) {
            init.push(id as u32);
        }
        cursor.advance(layout);
    }
    Ok((init, moves))
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
        if u32::try_from(program.commands.len()).is_err() {
            return Err(McError::Message(format!(
                "{} commands exceed the u32 command index",
                program.commands.len()
            )));
        }
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
            return Self::build_reachable_packed(program, cp);
        }
        let mut index: FxHashMap<State, u32> = FxHashMap::default();
        let mut states: Vec<State> = Vec::new();
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

        // Rows are produced out of id order, exactly like the packed
        // path: each expansion appends its moves and records its span.
        let mut moves = MoveRows::default();
        while let Some(id) = frontier.pop() {
            let state = states[id as usize].clone();
            let lo = moves.end()?;
            for (c, cmd) in program.commands.iter().enumerate() {
                let next = cmd.step(&state, &program.vocab);
                if next != state {
                    let nid = intern(next, &mut states, &mut index, &mut frontier);
                    moves.push(c, nid);
                }
            }
            let hi = moves.end()?;
            moves.spans.resize(states.len(), (0, 0));
            moves.spans[id as usize] = (lo, hi);
        }
        Ok(TransitionSystem {
            vocab: program.vocab.clone(),
            store: StateStore::Explicit(states),
            moves,
            init,
            n_commands: program.commands.len(),
            fair: program.fair.iter().copied().collect(),
            build: BuildStats::default(),
        })
    }

    /// Packed construction: states intern as `u64` words in an
    /// integer-keyed table (no per-probe hashing of value slices) and
    /// successors come from compiled command steps. Ids follow discovery
    /// order, but the last discovered state is expanded first, so they
    /// are not breadth-first. A stutter is a step that returns its own
    /// word; it is neither interned nor stored. Explicit [`State`]s are
    /// decoded on demand.
    fn build_reachable_packed(program: &Program, cp: CompiledProgram) -> Result<Self, McError> {
        let layout = &cp.layout;
        let mut index: FxHashMap<u64, u32> = FxHashMap::default();
        let mut words: Vec<u64> = Vec::new();
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

        // Each interned id enters the frontier exactly once, so each row
        // is written exactly once, in expansion order, and found through
        // its span.
        let mut scratch = Scratch::new();
        let mut moves = MoveRows::default();
        while let Some(id) = frontier.pop() {
            let w = words[id as usize];
            let lo = moves.end()?;
            for (c, cc) in cp.commands.iter().enumerate() {
                let next = cc.step_packed(w, layout, &mut scratch);
                if next != w {
                    moves.push(c, intern(next, &mut words, &mut index, &mut frontier));
                }
            }
            let hi = moves.end()?;
            moves.spans.resize(words.len(), (0, 0));
            moves.spans[id as usize] = (lo, hi);
        }

        Ok(TransitionSystem {
            vocab: program.vocab.clone(),
            moves,
            init,
            n_commands: program.commands.len(),
            fair: program.fair.iter().copied().collect(),
            build: BuildStats::default(),
            store: StateStore::PackedWords {
                layout: cp.layout,
                words,
            },
        })
    }

    fn build_all(program: &Program, cfg: &ScanConfig) -> Result<Self, McError> {
        let n = crate::space::space_size(&program.vocab, cfg)?;
        if let Some(cp) = CompiledProgram::try_compile(program, cfg) {
            return Self::build_all_packed(program, cp, n, cfg);
        }
        let vocab = &program.vocab;
        let mut states = Vec::with_capacity(n as usize);
        for flat in 0..n {
            states.push(StateSpaceIter::decode(vocab, flat));
        }
        let mut moves = MoveRows::default();
        let mut init = Vec::new();
        for (id, s) in states.iter().enumerate() {
            for (c, cmd) in program.commands.iter().enumerate() {
                let next = cmd.step(s, vocab);
                if next != *s {
                    let flat = StateSpaceIter::encode(vocab, &next).expect("in-domain successor");
                    moves.push(c, flat as u32);
                }
            }
            moves.close_row()?;
            if program.satisfies_init(s) {
                init.push(id as u32);
            }
        }
        Ok(TransitionSystem {
            vocab: program.vocab.clone(),
            store: StateStore::Explicit(states),
            moves,
            init,
            n_commands: program.commands.len(),
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
    fn build_all_packed(
        program: &Program,
        cp: CompiledProgram,
        n: u64,
        cfg: &ScanConfig,
    ) -> Result<Self, McError> {
        let n_commands = program.commands.len();
        if cfg.par.threads > 1 && n_commands > 0 && n >= cfg.par.sequential_cutoff {
            return Self::build_all_packed_par(program, cp, n, &cfg.par);
        }
        let all_vars: Vec<_> = program.vocab.ids().collect();
        let (init, moves) = all_packed_rows(&cp, &all_vars, 0, n)?;
        Ok(TransitionSystem {
            vocab: program.vocab.clone(),
            moves,
            init,
            n_commands,
            fair: program.fair.iter().copied().collect(),
            build: BuildStats::default(),
            store: StateStore::PackedRange {
                layout: cp.layout,
                n: n as usize,
            },
        })
    }

    /// Chunk-parallel form of [`TransitionSystem::build_all_packed`]:
    /// workers claim windows of rows, each with its own scratch
    /// registers and mixed-radix cursor seeked to the window start.
    /// Windows are stitched in ascending order, so the whole system is
    /// bit-identical to the sequential construction.
    fn build_all_packed_par(
        program: &Program,
        cp: CompiledProgram,
        n: u64,
        par: &ParConfig,
    ) -> Result<Self, McError> {
        let n_commands = program.commands.len();
        let all_vars: Vec<_> = program.vocab.ids().collect();
        let window = (RANGE_CHUNK / n_commands as u64).max(1);
        let mut parts: Vec<Result<(Vec<u32>, MoveRows), McError>> = (0..n.div_ceil(window))
            .map(|_| Ok(Default::default()))
            .collect();
        // One slot per window: the slot count is far below the state
        // count the caller compared with the cutoff.
        par_chunks(
            &mut parts,
            1,
            &ParConfig::with_threads(par.threads),
            |k, slot| {
                let lo = k * window;
                slot[0] = all_packed_rows(&cp, &all_vars, lo, (lo + window).min(n));
            },
        );
        let mut init = Vec::new();
        let mut moves = MoveRows::default();
        for part in parts {
            let (ids, rows) = part?;
            init.extend(ids);
            moves.append(rows)?;
        }
        Ok(TransitionSystem {
            vocab: program.vocab.clone(),
            moves,
            init,
            n_commands,
            fair: program.fair.iter().copied().collect(),
            build: BuildStats::default(),
            store: StateStore::PackedRange {
                layout: cp.layout,
                n: n as usize,
            },
        })
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

    /// Number of transitions, stutters included: states × commands.
    /// The system stores only the [`TransitionSystem::move_count`] of
    /// them that change the state.
    pub fn transition_count(&self) -> usize {
        self.len().saturating_mul(self.n_commands)
    }

    /// Number of stored moves: transitions that change the state.
    pub fn move_count(&self) -> usize {
        self.moves.targets.len()
    }

    /// Cost accounting for how this system was built (wall time).
    pub fn build_stats(&self) -> &BuildStats {
        &self.build
    }

    /// The targets of state `s`'s moves, in command order. A command
    /// that stutters at `s` has no entry.
    #[inline(always)]
    pub fn succ_row(&self, s: usize) -> &[u32] {
        &self.moves.targets[self.moves.span(s)]
    }

    /// The commands of state `s`'s moves, strictly ascending, entry for
    /// entry with [`TransitionSystem::succ_row`].
    #[inline(always)]
    pub fn move_commands(&self, s: usize) -> &[u32] {
        &self.moves.commands[self.moves.span(s)]
    }

    /// The successor of state `s` under command `c`: `s` itself when
    /// `c` stutters there.
    #[inline]
    pub fn succ_at(&self, s: usize, c: usize) -> u32 {
        let span = self.moves.span(s);
        match self.moves.commands[span.clone()]
            .iter()
            .position(|&k| k as usize == c)
        {
            Some(k) => self.moves.targets[span.start + k],
            None => s as u32,
        }
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
    /// word list (or pure arithmetic), so the payload is the word list
    /// and the move rows verbatim. The explicit store (oversized vocabularies,
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
        self.moves.write(&mut w);
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
    /// program (command count, universe size, out-of-range ids) or
    /// whose move rows are malformed (offsets that disagree with the
    /// move count, commands not strictly ascending below the command
    /// count, a move onto its own state) is an error, which the store
    /// treats as a cache miss.
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
        let moves = MoveRows::read(&mut r, n, n_commands)?;
        r.finish()?;
        let bound = n as u32;
        if init.iter().any(|&id| id >= bound) {
            return Err("initial-state id out of range".into());
        }
        if fair_raw.iter().any(|&c| c as usize >= n_commands) {
            return Err("fair command index out of range".into());
        }
        Ok(TransitionSystem {
            vocab: program.vocab.clone(),
            store,
            moves,
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
    fn parallel_all_states_build_matches_sequential_across_windows() {
        // 32768 states over 4 commands: a window holds 2048 states, so
        // the chunk-parallel builder stitches 16 windows. The literal
        // guard with constant updates takes the mask path.
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 63).unwrap()).unwrap();
        let y = v.declare("y", Domain::int_range(0, 63).unwrap()).unwrap();
        let z = v.declare("z", Domain::int_range(0, 7).unwrap()).unwrap();
        let p = Program::builder("grid", Arc::new(v))
            .init(and2(eq(var(x), int(0)), eq(var(z), int(0))))
            .fair_command("ix", lt(var(x), int(63)), vec![(x, add(var(x), int(1)))])
            .command("iy", lt(var(y), int(63)), vec![(y, add(var(y), int(1)))])
            .fair_command("iz", lt(var(z), int(7)), vec![(z, add(var(z), int(1)))])
            .command(
                "reset",
                and2(eq(var(x), int(63)), eq(var(z), int(7))),
                vec![(x, int(0)), (z, int(0))],
            )
            .build()
            .unwrap();
        let sequential = ScanConfig {
            par: ParConfig::sequential(),
            ..Default::default()
        };
        let parallel = ScanConfig {
            par: ParConfig::with_threads(4),
            ..Default::default()
        };
        let want = TransitionSystem::build(&p, Universe::AllStates, &sequential).unwrap();
        let got = TransitionSystem::build(&p, Universe::AllStates, &parallel).unwrap();
        assert_eq!(want.len(), 64 * 64 * 8);
        assert!(want.len() as u64 / (RANGE_CHUNK / 4) > 1, "multi-window");
        assert_eq!(got.init, want.init);
        assert_eq!(Csr::of(&got), Csr::of(&want));
        // Every command's successor is its step, at a spread of states.
        for id in (0..got.len() as u32).step_by(97) {
            let s = got.state(id);
            for c in 0..p.commands.len() {
                assert_eq!(got.state(got.succ_at(id as usize, c)), p.step(c, &s));
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
            assert_eq!(Csr::of(&back), Csr::of(&ts));
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
        // x in 0..9 stepping up and down: interior rows hold two moves.
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 9).unwrap()).unwrap();
        let p = Program::builder("updown", Arc::new(v))
            .init(eq(var(x), int(0)))
            .fair_command("inc", lt(var(x), int(9)), vec![(x, add(var(x), int(1)))])
            .fair_command("dec", gt(var(x), int(0)), vec![(x, sub(var(x), int(1)))])
            .build()
            .unwrap();
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
        // Malformed move rows fail: each mutation below breaks one rule
        // of the row format.
        type Mutation = (&'static str, fn(&mut Csr));
        let malformed: [Mutation; 7] = [
            ("target out of range", |m| m.targets[0] = 10),
            ("commands not strictly ascending", |m| {
                let s = (0..m.row.len() - 1)
                    .find(|&s| m.row[s + 1] - m.row[s] == 2)
                    .unwrap();
                m.commands.swap(m.row[s] as usize, m.row[s] as usize + 1);
            }),
            ("move onto its own state", |m| {
                let s = (0..m.row.len() - 1)
                    .find(|&s| m.row[s] < m.row[s + 1])
                    .unwrap();
                m.targets[m.row[s] as usize] = s as u32;
            }),
            ("command out of range", |m| m.commands[0] = 2),
            ("offsets disagree with the move count", |m| {
                *m.row.last_mut().unwrap() += 1;
            }),
            ("offsets descend", |m| m.row[1] = 0),
            ("commands and targets differ in length", |m| {
                m.commands.push(0);
            }),
        ];
        let csr = Csr::of(&ts);
        assert_eq!(csr.payload(&ts), bytes, "the test encoding is the real one");
        for (what, mutate) in malformed {
            let mut bad = csr.clone();
            mutate(&mut bad);
            assert!(
                TransitionSystem::from_artifact_bytes(&p, &cfg, &bad.payload(&ts)).is_err(),
                "{what}"
            );
        }
        // The reference (explicit) store does not serialize.
        let ts_ref =
            TransitionSystem::build(&p, Universe::Reachable, &ScanConfig::reference()).unwrap();
        assert!(ts_ref.to_artifact_bytes().is_none());
    }

    /// A system's move rows as raw CSR arrays in state-id order, the
    /// form segments store.
    #[derive(Debug, Clone, PartialEq)]
    struct Csr {
        row: Vec<u32>,
        targets: Vec<u32>,
        commands: Vec<u32>,
    }

    impl Csr {
        fn of(ts: &TransitionSystem) -> Csr {
            let mut csr = Csr {
                row: vec![0],
                targets: Vec::new(),
                commands: Vec::new(),
            };
            for s in 0..ts.len() {
                csr.targets.extend_from_slice(ts.succ_row(s));
                csr.commands.extend_from_slice(ts.move_commands(s));
                csr.row.push(csr.targets.len() as u32);
            }
            csr
        }

        /// `ts`'s reachable-store payload with these rows.
        fn payload(&self, ts: &TransitionSystem) -> Vec<u8> {
            let StateStore::PackedWords { words, .. } = &ts.store else {
                panic!("reachable packed store");
            };
            let mut w = crate::artifact::ByteWriter::new();
            w.u8(1);
            w.u32(ts.n_commands as u32);
            w.u64(words.len() as u64);
            w.u64_slice(words);
            w.u32_slice(&ts.init);
            let fair: Vec<u32> = ts.fair.iter().map(|&c| c as u32).collect();
            w.u32_slice(&fair);
            w.u32_slice(&self.row);
            w.u32_slice(&self.targets);
            w.u32_slice(&self.commands);
            w.into_vec()
        }
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
            assert_eq!(ts.move_count(), 0);
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
