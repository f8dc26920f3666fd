//! State encoding: packed bit layout → interleaved BDD variables.
//!
//! The compiled pipeline already fixes a canonical bit layout for states
//! ([`PackedLayout`]): variable `v` occupies `field_bits(v)` bits at
//! `field_shift(v)`, storing the canonical index of its value. The
//! symbolic engine reuses **exactly** that layout, so packed `u64` words
//! and BDD assignments describe the same states bit for bit — a witness
//! cube decodes straight into a packed word, and from there into a
//! [`State`](unity_core::state::State) through existing code.
//!
//! Each packed bit `b` becomes *two* BDD variables: level `2b` is the
//! current-state bit, level `2b + 1` the next-state bit. Interleaving
//! keeps each variable's current/next copies adjacent in the order,
//! which keeps transition-relation BDDs small and makes the
//! current↔next renamings order-preserving single-level shifts.

use unity_core::expr::compile::PackedLayout;
use unity_core::ident::Vocabulary;

use crate::bdd::{Bdd, Ref, FALSE, TRUE};

/// The BDD variable carrying current-state bit `b`.
#[inline]
pub fn cur(b: u32) -> u32 {
    2 * b
}

/// The BDD variable carrying next-state bit `b`.
#[inline]
pub fn nxt(b: u32) -> u32 {
    2 * b + 1
}

/// Per-program encoding metadata: the packed layout plus derived
/// constants the engine needs in its inner loops.
#[derive(Debug, Clone)]
pub struct SymSpace {
    layout: PackedLayout,
    /// Whether each variable is `Bool`-typed (an `int 0..1` variable has
    /// the same one-bit field but different typing, so this cannot be
    /// recovered from the layout).
    bools: Vec<bool>,
    n_vars: usize,
    total_bits: u32,
}

impl SymSpace {
    /// Builds the encoding for `vocab`, or `None` when the vocabulary
    /// does not pack into 64 bits (the symbolic engine then does not
    /// apply, like the compiled fast path).
    pub fn new(vocab: &Vocabulary) -> Option<SymSpace> {
        let layout = PackedLayout::new(vocab)?;
        Some(SymSpace {
            bools: vocab
                .iter()
                .map(|(_, d)| matches!(d.domain, unity_core::domain::Domain::Bool))
                .collect(),
            n_vars: vocab.len(),
            total_bits: layout.total_bits(),
            layout,
        })
    }

    /// Whether program variable `v` is boolean-typed.
    pub fn is_bool(&self, v: usize) -> bool {
        self.bools[v]
    }

    /// The shared packed layout.
    pub fn layout(&self) -> &PackedLayout {
        &self.layout
    }

    /// Number of program variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of packed state bits (the BDD uses twice as many levels).
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// The current-state BDD variables of program variable `v`, lowest
    /// bit first.
    pub fn cur_bits(&self, v: usize) -> impl Iterator<Item = u32> + '_ {
        let shift = self.layout.field_shift(v);
        (0..self.layout.field_bits(v)).map(move |i| cur(shift + i))
    }

    /// All current-state BDD variables, ascending — the counting set for
    /// state-set cardinalities.
    pub fn all_cur_bits(&self) -> Vec<u32> {
        (0..self.total_bits).map(cur).collect()
    }

    /// The cube `field(v) = k` over current (or next) bits: one literal
    /// per bit of the field.
    pub fn field_cube(&self, bdd: &mut Bdd, v: usize, k: u64, next: bool) -> Ref {
        let shift = self.layout.field_shift(v);
        let bits = self.layout.field_bits(v);
        let mut acc = TRUE;
        // Highest bit first keeps `mk` building bottom-up in one pass.
        for i in (0..bits).rev() {
            let level = if next { nxt(shift + i) } else { cur(shift + i) };
            let lit = if k >> i & 1 == 1 {
                bdd.var(level)
            } else {
                bdd.nvar(level)
            };
            acc = bdd.and(acc, lit);
        }
        acc
    }

    /// The set `field(v) < size(v)` over current bits: type-consistency
    /// of one variable (non-trivial only for non-power-of-two domains).
    /// Built as a comparator, one step per bit, so its cost does not
    /// grow with the domain size.
    pub fn field_in_domain(&self, bdd: &mut Bdd, v: usize) -> Ref {
        let size = self.layout.domain_size(v);
        let shift = self.layout.field_shift(v);
        let bits = self.layout.field_bits(v);
        if size == 1u64 << bits {
            return TRUE;
        }
        // From the lowest bit up, `acc` is "the bits below i are less
        // than size's": bit i decides where it differs from size's bit
        // i and defers to `acc` where it matches.
        let mut acc = FALSE;
        for i in 0..bits {
            let x = bdd.var(cur(shift + i));
            acc = if size >> i & 1 == 1 {
                bdd.ite(x, acc, TRUE)
            } else {
                bdd.ite(x, FALSE, acc)
            };
        }
        acc
    }

    /// The set of all type-consistent states (over current bits) — the
    /// paper's quantification domain.
    pub fn domain(&self, bdd: &mut Bdd) -> Ref {
        let mut acc = TRUE;
        for v in 0..self.n_vars {
            let d = self.field_in_domain(bdd, v);
            acc = bdd.and(acc, d);
        }
        acc
    }

    /// The identity `next(v) = cur(v)` for one variable (frame condition).
    pub fn frame(&self, bdd: &mut Bdd, v: usize) -> Ref {
        let shift = self.layout.field_shift(v);
        let mut acc = TRUE;
        for i in 0..self.layout.field_bits(v) {
            let c = bdd.var(cur(shift + i));
            let n = bdd.var(nxt(shift + i));
            let eq = bdd.iff(c, n);
            acc = bdd.and(acc, eq);
        }
        acc
    }

    /// Decodes a (possibly partial) satisfying assignment into a packed
    /// word: assigned current bits are copied, don't-cares default to 0
    /// (the canonical minimum — matching [`Bdd::pick_one`]'s low-branch
    /// preference, this yields the canonically smallest witness).
    pub fn word_of_cube(&self, literals: &[(u32, bool)]) -> u64 {
        let mut word = 0u64;
        for &(level, val) in literals {
            if val && level % 2 == 0 {
                let bit = level / 2;
                if bit < self.total_bits {
                    word |= 1u64 << bit;
                }
            }
        }
        word
    }

    /// Lifts a packed word into its current-bits cube.
    pub fn cube_of_word(&self, bdd: &mut Bdd, word: u64) -> Ref {
        let lits: Vec<(u32, bool)> = (0..self.total_bits)
            .map(|b| (cur(b), word >> b & 1 == 1))
            .collect();
        bdd.cube(&lits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unity_core::domain::Domain;
    use unity_core::state::StateSpaceIter;

    fn vocab() -> Vocabulary {
        let mut v = Vocabulary::new();
        v.declare("b", Domain::Bool).unwrap();
        v.declare("n", Domain::int_range(0, 4).unwrap()).unwrap(); // 5 values, 3 bits
        v.declare("m", Domain::int_range(-2, 1).unwrap()).unwrap(); // 4 values, 2 bits
        v
    }

    #[test]
    fn domain_counts_type_consistent_states() {
        let v = vocab();
        let space = SymSpace::new(&v).unwrap();
        let mut bdd = Bdd::new();
        let dom = space.domain(&mut bdd);
        assert_eq!(
            bdd.sat_count(dom, &space.all_cur_bits()),
            v.space_size().unwrap() as u128
        );
    }

    #[test]
    fn field_cubes_partition_the_domain() {
        let v = vocab();
        let space = SymSpace::new(&v).unwrap();
        let mut bdd = Bdd::new();
        let n = 1; // the 5-valued variable
        let mut union = crate::bdd::FALSE;
        for k in 0..5 {
            let c = space.field_cube(&mut bdd, n, k, false);
            assert_eq!(bdd.and(union, c), crate::bdd::FALSE, "disjoint");
            union = bdd.or(union, c);
        }
        let dom_n = space.field_in_domain(&mut bdd, n);
        assert_eq!(union, dom_n);
    }

    #[test]
    fn field_in_domain_matches_the_cube_union_at_every_size() {
        for hi in 0..40i64 {
            let mut v = Vocabulary::new();
            v.declare("x", Domain::int_range(-3, hi - 3).unwrap())
                .unwrap();
            let space = SymSpace::new(&v).unwrap();
            let mut bdd = Bdd::new();
            let mut union = FALSE;
            for k in 0..=hi as u64 {
                let c = space.field_cube(&mut bdd, 0, k, false);
                union = bdd.or(union, c);
            }
            assert_eq!(
                space.field_in_domain(&mut bdd, 0),
                union,
                "{} values",
                hi + 1
            );
        }
        // A 2^32 + 1 value domain costs 33 comparator steps.
        let mut v = Vocabulary::new();
        v.declare("x", Domain::int_range(0, 1 << 32).unwrap())
            .unwrap();
        let space = SymSpace::new(&v).unwrap();
        let mut bdd = Bdd::new();
        let dom = space.domain(&mut bdd);
        assert_eq!(bdd.sat_count(dom, &space.all_cur_bits()), (1u128 << 32) + 1);
    }

    #[test]
    fn words_roundtrip_through_cubes() {
        let v = vocab();
        let space = SymSpace::new(&v).unwrap();
        let mut bdd = Bdd::new();
        for s in StateSpaceIter::new(&v) {
            let word = space.layout().pack(&s);
            let cube = space.cube_of_word(&mut bdd, word);
            let lits = bdd.pick_one(cube).unwrap();
            assert_eq!(space.word_of_cube(&lits), word);
        }
    }

    #[test]
    fn frame_is_the_identity_relation() {
        let v = vocab();
        let space = SymSpace::new(&v).unwrap();
        let mut bdd = Bdd::new();
        let fr = space.frame(&mut bdd, 2);
        // For each current value cube, conjoining the frame pins the next
        // bits to the same value.
        for k in 0..4 {
            let c = space.field_cube(&mut bdd, 2, k, false);
            let n = space.field_cube(&mut bdd, 2, k, true);
            let both = bdd.and(c, fr);
            let expect = bdd.and(c, n);
            assert_eq!(both, expect);
        }
    }
}
