//! Program composition `F ∥ G` (§2 of the paper).
//!
//! The composition of programs is the union of their variables and command
//! sets, the union of their fair subsets, and the conjunction of their
//! `initially` predicates. Composition is *partial*: it must respect
//! variable locality (a variable declared `local` in one component may not
//! be written — nor redeclared local — by another) and must admit at least
//! one initial state. [`compatible`] implements the paper's `F ⊥ G` check
//! and [`compose`]/[`System::compose`] build `F ∥ G`.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::error::CoreError;
use crate::expr::build::and;
use crate::expr::Expr;
use crate::ident::{VarId, Vocabulary};
use crate::locality::InitGroups;
use crate::program::Program;
use crate::state::State;

/// How (and whether) to check that the composed `initially` predicate is
/// satisfiable.
///
/// The composed `initially` is the conjunction of the components' (§2),
/// so the check never walks the whole domain product. It runs on the
/// init groups of [`InitGroups`]: conjuncts that share a variable
/// (transitively) form a group, and each group's sub-product is walked,
/// with every other variable fixed, up to its first satisfying
/// assignment. Groups over disjoint variables are satisfiable
/// independently, and a variable no conjunct mentions is free because
/// domains are non-empty: the predicate is satisfiable iff every group
/// is. The decision is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitSatCheck {
    /// Walk every group (exact; exponential in the largest group only).
    Exhaustive,
    /// Walk only the groups whose sub-product has at most this many
    /// states; a larger group is assumed satisfiable, unchecked.
    BoundedExhaustive(u64),
    /// Do not check.
    Skip,
}

impl Default for InitSatCheck {
    fn default() -> Self {
        InitSatCheck::BoundedExhaustive(1 << 22)
    }
}

/// Checks the paper's compatibility relation `F ⊥ G` pairwise over
/// `programs`: no program writes (or re-declares local) a variable another
/// program declared local, and shared variable names agree on domains.
///
/// Programs must already share a vocabulary (see [`merge_programs`] for the
/// remapping path). Initial-state existence is checked by [`compose`].
pub fn compatible(programs: &[&Program]) -> Result<(), CoreError> {
    for (i, f) in programs.iter().enumerate() {
        for (j, g) in programs.iter().enumerate() {
            if i == j {
                continue;
            }
            debug_assert!(
                Arc::ptr_eq(&f.vocab, &g.vocab) || f.vocab == g.vocab,
                "compatible() requires a shared vocabulary"
            );
            let g_writes = g.write_set();
            for &l in &f.locals {
                if g_writes.contains(&l) {
                    return Err(CoreError::LocalityViolation {
                        writer: g.name.clone(),
                        owner: f.name.clone(),
                        var: f.vocab.name(l).to_string(),
                    });
                }
                if i < j && g.locals.contains(&l) {
                    return Err(CoreError::LocalityViolation {
                        writer: g.name.clone(),
                        owner: f.name.clone(),
                        var: format!("{} (declared local twice)", f.vocab.name(l)),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Composes `programs` (already over a shared vocabulary) into one program,
/// enforcing compatibility and initial-state existence.
pub fn compose(programs: &[Program], init_check: InitSatCheck) -> Result<Program, CoreError> {
    assert!(!programs.is_empty(), "cannot compose zero programs");
    let refs: Vec<&Program> = programs.iter().collect();
    compatible(&refs)?;
    let vocab = programs[0].vocab.clone();

    let mut commands = Vec::new();
    let mut fair = BTreeSet::new();
    let mut locals = BTreeSet::new();
    let mut inits = Vec::new();
    let mut names = Vec::new();
    for p in programs {
        let base = commands.len();
        commands.extend(p.commands.iter().cloned());
        fair.extend(p.fair.iter().map(|&i| base + i));
        locals.extend(p.locals.iter().copied());
        if !p.init.is_true() {
            inits.push(p.init.clone());
        }
        names.push(p.name.clone());
    }
    let init = and(inits);
    let composed = Program {
        name: names.join(" || "),
        vocab: vocab.clone(),
        locals,
        init,
        commands,
        fair,
    };

    let limit = match init_check {
        InitSatCheck::Exhaustive => Some(u64::MAX),
        InitSatCheck::BoundedExhaustive(limit) => Some(limit),
        InitSatCheck::Skip => None,
    };
    if let Some(limit) = limit {
        if !InitGroups::new(&vocab, &composed.init).satisfiable(&vocab, limit) {
            return Err(CoreError::UnsatisfiableInit { programs: names });
        }
    }
    Ok(composed)
}

/// Merges programs built over *different* vocabularies by name-unifying
/// their variables (shared names must agree on domains), remapping all
/// expressions, and returning the rebased programs over the shared
/// vocabulary. This is the entry point for composing DSL-parsed programs.
pub fn merge_programs(programs: &[Program]) -> Result<Vec<Program>, CoreError> {
    let mut vocab = Vocabulary::new();
    let mut maps = Vec::with_capacity(programs.len());
    for p in programs {
        maps.push(vocab.merge(&p.vocab)?);
    }
    let shared = Arc::new(vocab);
    let mut out = Vec::with_capacity(programs.len());
    for (p, map) in programs.iter().zip(&maps) {
        out.push(remap_program(p, map, shared.clone())?);
    }
    Ok(out)
}

fn remap_program(p: &Program, map: &[VarId], vocab: Arc<Vocabulary>) -> Result<Program, CoreError> {
    let remap_expr = |e: &Expr| remap(e, map);
    let mut commands = Vec::with_capacity(p.commands.len());
    for c in &p.commands {
        commands.push(crate::command::Command::new(
            c.name.clone(),
            remap_expr(&c.guard),
            c.updates
                .iter()
                .map(|(x, e)| (map[x.index()], remap_expr(e)))
                .collect(),
            &vocab,
        )?);
    }
    let prog = Program {
        name: p.name.clone(),
        vocab,
        locals: p.locals.iter().map(|l| map[l.index()]).collect(),
        init: remap_expr(&p.init),
        commands,
        fair: p.fair.clone(),
    };
    prog.validate()?;
    Ok(prog)
}

/// Rewrites variable ids in `e` through `map`.
pub fn remap(e: &Expr, map: &[VarId]) -> Expr {
    match e {
        Expr::Lit(v) => Expr::Lit(*v),
        Expr::Var(id) => Expr::Var(map[id.index()]),
        Expr::Not(a) => Expr::Not(Box::new(remap(a, map))),
        Expr::Neg(a) => Expr::Neg(Box::new(remap(a, map))),
        Expr::Bin(op, a, b) => Expr::Bin(*op, Box::new(remap(a, map)), Box::new(remap(b, map))),
        Expr::Ite(c, t, f) => Expr::Ite(
            Box::new(remap(c, map)),
            Box::new(remap(t, map)),
            Box::new(remap(f, map)),
        ),
        Expr::NAry(op, args) => Expr::NAry(*op, args.iter().map(|a| remap(a, map)).collect()),
    }
}

/// A composed system that remembers its components.
///
/// The paper's reasoning pattern constantly switches between "property of
/// `Component_i`" and "property of the system"; keeping both programs around
/// makes each check well-scoped.
#[derive(Debug, Clone)]
pub struct System {
    /// The component programs (over the shared vocabulary).
    pub components: Vec<Program>,
    /// Their composition.
    pub composed: Program,
    /// For each composed command index, `(component index, local index)`.
    pub provenance: Vec<(usize, usize)>,
}

impl System {
    /// Composes components that already share a vocabulary.
    pub fn compose(components: Vec<Program>, init_check: InitSatCheck) -> Result<Self, CoreError> {
        let composed = compose(&components, init_check)?;
        let mut provenance = Vec::with_capacity(composed.commands.len());
        for (ci, p) in components.iter().enumerate() {
            for li in 0..p.commands.len() {
                provenance.push((ci, li));
            }
        }
        Ok(System {
            components,
            composed,
            provenance,
        })
    }

    /// Merges vocabularies first (DSL path), then composes.
    pub fn compose_merging(
        components: &[Program],
        init_check: InitSatCheck,
    ) -> Result<Self, CoreError> {
        let rebased = merge_programs(components)?;
        Self::compose(rebased, init_check)
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Arc<Vocabulary> {
        &self.composed.vocab
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the system has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Initial states of the composed program.
    pub fn initial_states(&self) -> Vec<State> {
        self.composed.initial_states()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::expr::build::*;
    use crate::value::Value;

    fn two_counters() -> (Arc<Vocabulary>, Program, Program) {
        let mut v = Vocabulary::new();
        let c0 = v.declare("c0", Domain::int_range(0, 2).unwrap()).unwrap();
        let c1 = v.declare("c1", Domain::int_range(0, 2).unwrap()).unwrap();
        let big = v.declare("C", Domain::int_range(0, 4).unwrap()).unwrap();
        let vocab = Arc::new(v);
        let p0 = Program::builder("P0", vocab.clone())
            .local(c0)
            .init(and2(eq(var(c0), int(0)), eq(var(big), int(0))))
            .fair_command(
                "a0",
                lt(var(c0), int(2)),
                vec![(c0, add(var(c0), int(1))), (big, add(var(big), int(1)))],
            )
            .build()
            .unwrap();
        let p1 = Program::builder("P1", vocab.clone())
            .local(c1)
            .init(and2(eq(var(c1), int(0)), eq(var(big), int(0))))
            .fair_command(
                "a1",
                lt(var(c1), int(2)),
                vec![(c1, add(var(c1), int(1))), (big, add(var(big), int(1)))],
            )
            .build()
            .unwrap();
        (vocab, p0, p1)
    }

    #[test]
    fn compose_unions() {
        let (_, p0, p1) = two_counters();
        let sys = System::compose(vec![p0, p1], InitSatCheck::Exhaustive).unwrap();
        assert_eq!(sys.composed.commands.len(), 2);
        assert_eq!(sys.composed.fair.len(), 2);
        assert_eq!(sys.composed.locals.len(), 2);
        assert_eq!(sys.provenance, vec![(0, 0), (1, 0)]);
        assert_eq!(sys.composed.name, "P0 || P1");
        // Exactly one initial state: all zeros.
        let inits = sys.initial_states();
        assert_eq!(inits.len(), 1);
        assert!(inits[0].values().iter().all(|v| *v == Value::Int(0)));
    }

    #[test]
    fn locality_violation_rejected() {
        let (vocab, p0, _) = two_counters();
        let c0 = vocab.lookup("c0").unwrap();
        // Evil writes P0's local c0.
        let evil = Program::builder("Evil", vocab.clone())
            .command("w", tt(), vec![(c0, int(0))])
            .build()
            .unwrap();
        let err = System::compose(vec![p0, evil], InitSatCheck::Skip).unwrap_err();
        assert!(matches!(err, CoreError::LocalityViolation { .. }));
    }

    #[test]
    fn double_local_rejected() {
        let (vocab, p0, _) = two_counters();
        let c0 = vocab.lookup("c0").unwrap();
        let q = Program::builder("Q", vocab.clone())
            .local(c0)
            .build()
            .unwrap();
        let err = System::compose(vec![p0, q], InitSatCheck::Skip).unwrap_err();
        assert!(matches!(err, CoreError::LocalityViolation { .. }));
    }

    #[test]
    fn unsat_init_rejected() {
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::Bool).unwrap();
        let vocab = Arc::new(v);
        let f = Program::builder("F", vocab.clone())
            .init(var(x))
            .build()
            .unwrap();
        let g = Program::builder("G", vocab.clone())
            .init(not(var(x)))
            .build()
            .unwrap();
        let err = System::compose(vec![f, g], InitSatCheck::Exhaustive).unwrap_err();
        assert!(matches!(err, CoreError::UnsatisfiableInit { .. }));
    }

    #[test]
    fn reading_foreign_locals_is_allowed() {
        // The paper forbids *writing* another's locals; reading is fine.
        let (vocab, p0, _) = two_counters();
        let c0 = vocab.lookup("c0").unwrap();
        let big = vocab.lookup("C").unwrap();
        let reader = Program::builder("R", vocab.clone())
            .command("r", eq(var(c0), int(1)), vec![(big, var(big))])
            .build()
            .unwrap();
        assert!(System::compose(vec![p0, reader], InitSatCheck::Exhaustive).is_ok());
    }

    #[test]
    fn merge_programs_unifies_names() {
        // Two programs built over separate vocabularies sharing "C".
        let mut va = Vocabulary::new();
        let a = va.declare("a", Domain::Bool).unwrap();
        let ca = va.declare("C", Domain::int_range(0, 3).unwrap()).unwrap();
        let pa = Program::builder("A", Arc::new(va))
            .local(a)
            .command("t", var(a), vec![(ca, add(var(ca), int(1)))])
            .build()
            .unwrap();
        let mut vb = Vocabulary::new();
        let cb = vb.declare("C", Domain::int_range(0, 3).unwrap()).unwrap();
        let b = vb.declare("b", Domain::Bool).unwrap();
        let pb = Program::builder("B", Arc::new(vb))
            .local(b)
            .command("u", var(b), vec![(cb, add(var(cb), int(1)))])
            .build()
            .unwrap();
        let sys = System::compose_merging(&[pa, pb], InitSatCheck::Exhaustive).unwrap();
        assert_eq!(sys.vocab().len(), 3); // a, C, b
        assert_eq!(sys.composed.commands.len(), 2);
        // Both commands now write the same "C".
        let w0: Vec<_> = sys.composed.commands[0].writes().into_iter().collect();
        let w1: Vec<_> = sys.composed.commands[1].writes().into_iter().collect();
        assert_eq!(w0, w1);
    }

    #[test]
    fn composition_is_commutative_up_to_reindexing() {
        let (_, p0, p1) = two_counters();
        let s01 = System::compose(vec![p0.clone(), p1.clone()], InitSatCheck::Skip).unwrap();
        let s10 = System::compose(vec![p1, p0], InitSatCheck::Skip).unwrap();
        // Same command multiset.
        let mut names01: Vec<_> = s01
            .composed
            .commands
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let mut names10: Vec<_> = s10
            .composed
            .commands
            .iter()
            .map(|c| c.name.clone())
            .collect();
        names01.sort();
        names10.sort();
        assert_eq!(names01, names10);
        assert_eq!(s01.composed.locals, s10.composed.locals);
    }
}
