//! Which parts of a program can affect which: the locality analysis
//! every scan restricts itself by.
//!
//! The composed `initially` is the conjunction of the components' (§2),
//! and a UNITY command touches only the variables it reads and writes.
//! [`Locality`] records both facts once per program:
//!
//! * the **init groups** ([`InitGroups`]): the `initially` predicate
//!   flattened into conjuncts (binary and n-ary `&&`), with the
//!   variables that share a conjunct union-found into groups. The
//!   initial set is the product of the groups' satisfying assignments
//!   and the full domains of the *free* variables, which no conjunct
//!   mentions. Variable-free conjuncts form one group with a one-state
//!   sub-product.
//! * the **per-command sets**: what each command reads (guard and
//!   right-hand sides) and writes (targets), and the writers of each
//!   variable.
//!
//! Nothing is enumerated when the analysis is built: a group's
//! satisfying assignments are walked on demand, over that group's
//! sub-product only ([`InitGroups::assignments`]), and
//! [`InitGroups::for_each_initial`] enumerates their product in
//! canonical order.

use std::collections::BTreeSet;

use crate::expr::compile::PackedLayout;
use crate::expr::eval::eval_bool;
use crate::expr::{vars, BinOp, Expr, NAryOp};
use crate::ident::{VarId, Vocabulary};
use crate::program::Program;
use crate::state::State;

/// One init group: conjuncts of `initially` that share variables,
/// transitively, and the variables they mention.
#[derive(Debug, Clone)]
pub struct InitGroup {
    /// The group's variables, ascending (empty for the variable-free
    /// group).
    pub vars: Vec<VarId>,
    /// The group's conjuncts.
    pub conjuncts: Vec<Expr>,
}

impl InitGroup {
    /// The packed word of one of this group's assignments, every other
    /// variable at its minimum.
    pub fn pack(&self, layout: &PackedLayout, row: &[u64]) -> u64 {
        self.vars.iter().zip(row).fold(0, |w, (v, &d)| {
            w | d.checked_shl(layout.field_shift(v.index())).unwrap_or(0)
        })
    }
}

/// The weights that make [`InitGroups::for_each_initial`]'s code the
/// packed word: `1 << shift(v)`, and 0 for a one-value (zero-bit)
/// variable, whose field may sit at shift 64.
pub fn packed_weights(layout: &PackedLayout) -> Vec<u64> {
    (0..layout.len())
        .map(|v| 1u64.checked_shl(layout.field_shift(v)).unwrap_or(0))
        .collect()
}

/// The `initially` predicate split into independent groups (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct InitGroups {
    groups: Vec<InitGroup>,
    /// The group of each variable; `None` for a free variable.
    group_of: Vec<Option<usize>>,
}

/// The satisfying assignments of one init group, as rows of canonical
/// domain indices (one per group variable, ascending variable order),
/// in canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignments {
    width: usize,
    rows: usize,
    digits: Vec<u64>,
}

impl Assignments {
    fn new(width: usize) -> Self {
        Assignments {
            width,
            rows: 0,
            digits: Vec::new(),
        }
    }

    fn push(&mut self, row: &[u64]) {
        self.digits.extend_from_slice(row);
        self.rows += 1;
    }

    /// Number of assignments.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the group has no satisfying assignment.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Assignment `i`: one domain index per group variable.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.digits[i * self.width..(i + 1) * self.width]
    }
}

/// Appends the conjuncts of `e` to `out`, flattening nested `&&`.
fn conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::NAry(NAryOp::And, args) => args.iter().for_each(|a| conjuncts(a, out)),
        Expr::Bin(BinOp::And, a, b) => {
            conjuncts(a, out);
            conjuncts(b, out);
        }
        _ => out.push(e),
    }
}

/// Union-find root of `v`, halving paths on the way up.
fn root(parent: &mut [usize], mut v: usize) -> usize {
    while parent[v] != v {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    v
}

impl InitGroups {
    /// Groups the conjuncts of `init` over `vocab`: the variable-free
    /// group first (when there is one), then the others by their
    /// smallest variable.
    pub fn new(vocab: &Vocabulary, init: &Expr) -> Self {
        let mut parts = Vec::new();
        conjuncts(init, &mut parts);
        let n = vocab.len();
        let mut parent: Vec<usize> = (0..n).collect();
        let mut mentioned = vec![false; n];
        let mut scratch = BTreeSet::new();
        // Each conjunct's smallest variable (`None`: variable-free),
        // with the conjunct's variables united behind it.
        let firsts: Vec<Option<usize>> = parts
            .iter()
            .map(|c| {
                scratch.clear();
                vars::collect(c, &mut scratch);
                let first = scratch.first()?.index();
                let a = root(&mut parent, first);
                for v in &scratch {
                    mentioned[v.index()] = true;
                    let b = root(&mut parent, v.index());
                    parent[b] = a;
                }
                Some(first)
            })
            .collect();
        let empty = || InitGroup {
            vars: Vec::new(),
            conjuncts: Vec::new(),
        };
        let mut groups = Vec::new();
        if firsts.iter().any(Option::is_none) {
            groups.push(empty());
        }
        let mut group_of_root = vec![None; n];
        let mut group_of = vec![None; n];
        for v in (0..n).filter(|&v| mentioned[v]) {
            let r = root(&mut parent, v);
            let g = *group_of_root[r].get_or_insert_with(|| {
                groups.push(empty());
                groups.len() - 1
            });
            groups[g].vars.push(VarId(v as u32));
            group_of[v] = Some(g);
        }
        for (c, first) in parts.into_iter().zip(firsts) {
            let g = first.map_or(0, |v| group_of[v].expect("a mentioned variable"));
            groups[g].conjuncts.push(c.clone());
        }
        InitGroups { groups, group_of }
    }

    /// The groups.
    pub fn groups(&self) -> &[InitGroup] {
        &self.groups
    }

    /// The group of `v`, or `None` when no conjunct mentions it.
    fn group_of(&self, v: VarId) -> Option<usize> {
        self.group_of[v.index()]
    }

    /// Adds to `support` the variables of every group that meets it,
    /// and returns which groups those are.
    pub fn close_over(&self, support: &mut BTreeSet<VarId>) -> Vec<bool> {
        let mut meets = vec![false; self.groups.len()];
        for v in support.iter() {
            if let Some(g) = self.group_of(*v) {
                meets[g] = true;
            }
        }
        for (group, _) in self.groups.iter().zip(&meets).filter(|(_, &m)| m) {
            support.extend(group.vars.iter().copied());
        }
        meets
    }

    /// Number of states in group `g`'s sub-product (`None` on overflow).
    pub fn sub_product(&self, vocab: &Vocabulary, g: usize) -> Option<u64> {
        self.groups[g]
            .vars
            .iter()
            .try_fold(1u64, |n, &v| n.checked_mul(vocab.domain(v).size()))
    }

    /// Whether every group whose sub-product has at most `limit` states
    /// has a satisfying assignment; larger groups are not walked and
    /// count as satisfiable. Each walk stops at its group's first
    /// satisfying assignment.
    pub fn satisfiable(&self, vocab: &Vocabulary, limit: u64) -> bool {
        (0..self.groups.len()).all(|g| {
            self.sub_product(vocab, g).is_none_or(|n| n > limit)
                || !self.assignments(vocab, g, true).is_empty()
        })
    }

    /// The satisfying assignments of group `g`, found by walking its
    /// sub-product (every other variable at its domain minimum) in
    /// canonical order with the reference evaluator; with `first_only`,
    /// at most the first one.
    pub fn assignments(&self, vocab: &Vocabulary, g: usize, first_only: bool) -> Assignments {
        let group = &self.groups[g];
        let width = group.vars.len();
        let mut out = Assignments::new(width);
        let mut digits = vec![0u64; width];
        let mut scratch = State::minimum(vocab);
        loop {
            if group.conjuncts.iter().all(|c| eval_bool(c, &scratch)) {
                out.push(&digits);
                if first_only {
                    return out;
                }
            }
            // Advance the odometer, last variable fastest.
            let mut k = width;
            loop {
                if k == 0 {
                    return out;
                }
                k -= 1;
                let v = group.vars[k];
                let d = vocab.domain(v);
                digits[k] += 1;
                if digits[k] < d.size() {
                    scratch.set(v, d.value_at(digits[k]));
                    break;
                }
                digits[k] = 0;
                scratch.set(v, d.value_at(0));
            }
        }
    }

    /// Every group's satisfying assignments, walked by
    /// [`InitGroups::assignments`].
    pub fn all_assignments(&self, vocab: &Vocabulary) -> Vec<Assignments> {
        (0..self.groups.len())
            .map(|g| self.assignments(vocab, g, false))
            .collect()
    }

    /// Visits every initial state — the product of `sets` (one per
    /// group, from [`InitGroups::all_assignments`]) and the free
    /// variables' domains — in ascending canonical order (first
    /// variable slowest). `visit` receives each state's code
    /// `Σ digit[v] · weights[v]` (wrapping) and its domain indices: with
    /// [`packed_weights`] the code is the packed word.
    ///
    /// The order is the lexicographic one over all variables. Each
    /// group's rows are sorted the same way over its own variables, so
    /// the rows agreeing with the choices made so far for a group's
    /// earlier variables form one contiguous range, narrowed at each of
    /// its variables.
    pub fn for_each_initial(
        &self,
        vocab: &Vocabulary,
        sets: &[Assignments],
        weights: &[u64],
        mut visit: impl FnMut(u64, &[u64]),
    ) {
        assert_eq!(sets.len(), self.groups.len(), "one set per group");
        if sets.iter().any(Assignments::is_empty) {
            return;
        }
        // A variable with one possible value — in a group with one
        // satisfying assignment, or free over a one-value domain — is
        // set once; only the others get a level.
        let mut digits = vec![0u64; vocab.len()];
        let mut code = 0u64;
        let mut levels = Vec::new();
        for (v, g) in self.group_of.iter().enumerate() {
            let level = match *g {
                Some(g) => {
                    let col = self.groups[g]
                        .vars
                        .binary_search(&VarId(v as u32))
                        .expect("a variable lies in its own group");
                    if sets[g].len() == 1 {
                        digits[v] = sets[g].row(0)[col];
                        code = code.wrapping_add(digits[v].wrapping_mul(weights[v]));
                        continue;
                    }
                    Level::Group { g, col }
                }
                None => match vocab.domain(VarId(v as u32)).size() {
                    1 => continue,
                    size => Level::Free(size),
                },
            };
            levels.push((v, level));
        }
        let mut ranges: Vec<(usize, usize)> = sets.iter().map(|set| (0, set.len())).collect();
        product(
            &levels,
            sets,
            weights,
            &mut ranges,
            &mut digits,
            code,
            &mut visit,
        );
    }

    /// The number of initial states [`InitGroups::for_each_initial`]
    /// visits for `sets` (`None` on overflow).
    pub fn count(&self, vocab: &Vocabulary, sets: &[Assignments]) -> Option<u64> {
        let free = self
            .group_of
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_none())
            .map(|(v, _)| vocab.domain(VarId(v as u32)).size());
        sets.iter()
            .map(|set| set.len() as u64)
            .chain(free)
            .try_fold(1u64, u64::checked_mul)
    }

    /// The initial states in canonical order.
    pub fn initial_states(&self, vocab: &Vocabulary) -> Vec<State> {
        let sets = self.all_assignments(vocab);
        let weights = vec![0u64; vocab.len()];
        let mut out = Vec::with_capacity(self.count(vocab, &sets).map_or(0, |n| n as usize));
        self.for_each_initial(vocab, &sets, &weights, |_, digits| {
            out.push(State::new(
                vocab
                    .iter()
                    .zip(digits)
                    .map(|((_, decl), &d)| decl.domain.value_at(d))
                    .collect(),
            ));
        });
        out
    }
}

/// How one variable of the canonical-order product turns.
#[derive(Clone, Copy)]
enum Level {
    /// A free variable with this many values.
    Free(u64),
    /// Column `col` of group `g`'s rows.
    Group { g: usize, col: usize },
}

/// Visits the product of `levels` (`(variable, level)`, ascending
/// variables) in canonical order, every variable before them already
/// set in `digits` and `code`. `ranges[g]` holds the rows of group `g`
/// that agree with the choices made so far.
fn product(
    levels: &[(usize, Level)],
    sets: &[Assignments],
    weights: &[u64],
    ranges: &mut [(usize, usize)],
    digits: &mut [u64],
    code: u64,
    visit: &mut impl FnMut(u64, &[u64]),
) {
    let Some((&(v, level), rest)) = levels.split_first() else {
        return visit(code, digits);
    };
    let mut descend = |d: u64, ranges: &mut [(usize, usize)], digits: &mut [u64]| {
        digits[v] = d;
        let code = code.wrapping_add(d.wrapping_mul(weights[v]));
        if rest.is_empty() {
            visit(code, digits);
        } else {
            product(rest, sets, weights, ranges, digits, code, visit);
        }
    };
    match level {
        Level::Free(size) => (0..size).for_each(|d| descend(d, ranges, digits)),
        Level::Group { g, col } => {
            let (lo, hi) = ranges[g];
            let mut at = lo;
            while at < hi {
                let d = sets[g].row(at)[col];
                let mut end = at + 1;
                while end < hi && sets[g].row(end)[col] == d {
                    end += 1;
                }
                ranges[g] = (at, end);
                descend(d, ranges, digits);
                at = end;
            }
            ranges[g] = (lo, hi);
        }
    }
}

/// The locality analysis of one program: its init groups and what each
/// command reads and writes.
#[derive(Debug, Clone)]
pub struct Locality {
    /// The `initially` predicate's groups.
    pub init: InitGroups,
    /// Per command: the variables its guard and right-hand sides read.
    reads: Vec<BTreeSet<VarId>>,
    /// Per command: the variables it writes.
    writes: Vec<BTreeSet<VarId>>,
    /// Per variable: the commands writing it, ascending.
    writers: Vec<Vec<usize>>,
}

impl Locality {
    /// Analyses `program`. Linear in the program's size; nothing is
    /// enumerated.
    pub fn new(program: &Program) -> Self {
        let mut reads = Vec::with_capacity(program.commands.len());
        let mut writes = Vec::with_capacity(program.commands.len());
        let mut writers = vec![Vec::new(); program.vocab.len()];
        for (k, c) in program.commands.iter().enumerate() {
            let mut r = vars::free_vars(&c.guard);
            let mut w = BTreeSet::new();
            for (x, e) in &c.updates {
                w.insert(*x);
                vars::collect(e, &mut r);
            }
            for x in &w {
                writers[x.index()].push(k);
            }
            reads.push(r);
            writes.push(w);
        }
        Locality {
            init: InitGroups::new(&program.vocab, &program.init),
            reads,
            writes,
            writers,
        }
    }

    /// The commands writing `v`, ascending.
    pub fn writers(&self, v: VarId) -> &[usize] {
        &self.writers[v.index()]
    }

    /// The commands writing any of `vs`, ascending and distinct.
    pub fn writers_of(&self, vs: &BTreeSet<VarId>) -> Vec<usize> {
        let mut out: Vec<usize> = vs.iter().flat_map(|&v| self.writers(v)).copied().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Adds command `c`'s support (what it reads and writes) to `out`.
    pub fn command_support(&self, c: usize, out: &mut BTreeSet<VarId>) {
        out.extend(self.reads[c].iter().copied());
        out.extend(self.writes[c].iter().copied());
    }

    /// Adds every command's support to `out`.
    pub fn program_support(&self, out: &mut BTreeSet<VarId>) {
        for c in 0..self.reads.len() {
            self.command_support(c, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::expr::build::*;
    use crate::state::StateSpaceIter;
    use std::sync::Arc;

    /// a: bool, x: 0..3, b: bool, y: 0..2, z: 0..1, w: 0..15.
    fn vocab() -> Arc<Vocabulary> {
        let mut v = Vocabulary::new();
        v.declare("a", Domain::Bool).unwrap();
        v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
        v.declare("b", Domain::Bool).unwrap();
        v.declare("y", Domain::int_range(0, 2).unwrap()).unwrap();
        v.declare("z", Domain::int_range(0, 1).unwrap()).unwrap();
        v.declare("w", Domain::int_range(0, 15).unwrap()).unwrap();
        Arc::new(v)
    }

    const A: VarId = VarId(0);
    const X: VarId = VarId(1);
    const B: VarId = VarId(2);
    const Y: VarId = VarId(3);
    const W: VarId = VarId(5);

    /// Interleaved groups {a, b} and {x, y, w}, free z, a variable-free
    /// conjunct, nested both ways.
    fn interleaved() -> Expr {
        and(vec![
            and2(or2(var(A), var(B)), lt(int(0), int(1))),
            and2(ne(add(var(X), var(Y)), int(2)), lt(var(W), var(X))),
        ])
    }

    #[test]
    fn groups_union_variables_that_share_a_conjunct() {
        let v = vocab();
        let groups = InitGroups::new(&v, &interleaved());
        assert_eq!(groups.groups().len(), 3);
        assert!(groups.groups()[0].vars.is_empty(), "variable-free group");
        assert_eq!(groups.group_of(A), groups.group_of(B));
        assert_eq!(groups.group_of(X), groups.group_of(Y));
        assert_eq!(groups.group_of(X), groups.group_of(W));
        assert_ne!(groups.group_of(A), groups.group_of(X));
        assert_eq!(groups.group_of(VarId(4)), None);
        let mut support: BTreeSet<VarId> = [X].into_iter().collect();
        let meets = groups.close_over(&mut support);
        assert_eq!(support, [X, Y, W].into_iter().collect());
        assert_eq!(meets.iter().filter(|&&m| m).count(), 1);
    }

    #[test]
    fn product_enumeration_is_the_canonical_filter() {
        let v = vocab();
        for init in [
            interleaved(),
            tt(),
            ff(),
            and2(eq(var(Y), int(1)), not(var(A))),
            and2(var(B), eq(var(X), int(9))),
        ] {
            let groups = InitGroups::new(&v, &init);
            let expected: Vec<State> = StateSpaceIter::new(&v)
                .filter(|s| eval_bool(&init, s))
                .collect();
            assert_eq!(groups.initial_states(&v), expected, "{init:?}");
            // With the packed weights, the codes are the packed words of
            // the same states.
            let layout = PackedLayout::new(&v).unwrap();
            let sets = groups.all_assignments(&v);
            let weights = packed_weights(&layout);
            let mut words = Vec::new();
            groups.for_each_initial(&v, &sets, &weights, |w, _| words.push(w));
            let expected_words: Vec<u64> = expected.iter().map(|s| layout.pack(s)).collect();
            assert_eq!(words, expected_words, "{init:?}");
        }
    }

    #[test]
    fn satisfiable_stops_at_the_bound() {
        let v = vocab();
        let unsat = and2(eq(add(var(X), var(Y)), int(9)), var(A));
        assert!(!InitGroups::new(&v, &unsat).satisfiable(&v, u64::MAX));
        // The {x, y} group has 12 states: a bound of 11 skips it.
        assert!(InitGroups::new(&v, &unsat).satisfiable(&v, 11));
        assert!(!InitGroups::new(&v, &unsat).satisfiable(&v, 12));
        assert!(InitGroups::new(&v, &interleaved()).satisfiable(&v, u64::MAX));
    }

    #[test]
    fn command_sets_and_writers() {
        let v = vocab();
        let p = Program::builder("p", v.clone())
            .command("c0", var(A), vec![(X, add(var(Y), int(1)))])
            .command("c1", tt(), vec![(B, var(A)), (X, int(0))])
            .build()
            .unwrap();
        let loc = Locality::new(&p);
        let support = |c| {
            let mut out = BTreeSet::new();
            loc.command_support(c, &mut out);
            out
        };
        assert_eq!(support(0), [A, X, Y].into_iter().collect());
        assert_eq!(support(1), [A, X, B].into_iter().collect());
        assert_eq!(loc.writers(X), &[0, 1]);
        assert_eq!(loc.writers(A), &[] as &[usize]);
        assert_eq!(loc.writers_of(&[B, X].into_iter().collect()), vec![0, 1]);
        let mut all = BTreeSet::new();
        loc.program_support(&mut all);
        assert_eq!(all, p.mentioned_vars());
    }
}
