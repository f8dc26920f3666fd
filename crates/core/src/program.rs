//! Programs: the unit of composition.
//!
//! Following §2 of the paper, a program consists of a set of typed
//! variables, an `initially` predicate, a finite set `C` of commands
//! (always containing `skip` — kept *implicit* here and accounted for by
//! every checker), and a subset `D ⊆ C` of commands subject to weak
//! fairness.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::command::Command;
use crate::error::CoreError;
use crate::expr::eval::eval_bool;
use crate::expr::{vars, Expr};
use crate::ident::{VarId, Vocabulary};
use crate::locality::InitGroups;
use crate::state::State;

/// A UNITY-style program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Program name (used in composition diagnostics).
    pub name: String,
    /// The vocabulary of variables the program may mention. Composed
    /// programs and their components share one vocabulary.
    pub vocab: Arc<Vocabulary>,
    /// Variables declared `local` to this program: no *other* program may
    /// write them.
    pub locals: BTreeSet<VarId>,
    /// The `initially` predicate.
    pub init: Expr,
    /// The explicit command set (excluding the implicit `skip`).
    pub commands: Vec<Command>,
    /// Indices into `commands` forming the weakly-fair subset `D`.
    pub fair: BTreeSet<usize>,
}

impl Program {
    /// Starts building a program over `vocab`.
    pub fn builder(name: impl Into<String>, vocab: Arc<Vocabulary>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            vocab,
            locals: BTreeSet::new(),
            init: crate::expr::build::tt(),
            commands: Vec::new(),
            fair: BTreeSet::new(),
            error: None,
        }
    }

    /// The set of variables any command of this program may write.
    pub fn write_set(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        for c in &self.commands {
            out.extend(c.writes());
        }
        out
    }

    /// The set of variables mentioned anywhere (init, guards, updates).
    pub fn mentioned_vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        vars::collect(&self.init, &mut out);
        for c in &self.commands {
            vars::collect(&c.guard, &mut out);
            for (x, e) in &c.updates {
                out.insert(*x);
                vars::collect(e, &mut out);
            }
        }
        out
    }

    /// Executes command `idx` from `state` (`skip` semantics on guard or
    /// domain failure).
    pub fn step(&self, idx: usize, state: &State) -> State {
        self.commands[idx].step(state, &self.vocab)
    }

    /// Whether `state` satisfies the `initially` predicate.
    pub fn satisfies_init(&self, state: &State) -> bool {
        eval_bool(&self.init, state)
    }

    /// Enumerates the initial states (all type-consistent states satisfying
    /// `init`) in canonical order. Each init group's sub-product is
    /// walked on its own and the initial set is enumerated as their
    /// product (see [`crate::locality::InitGroups`]), so the cost follows
    /// the groups and the number of initial states, not the domain
    /// product.
    pub fn initial_states(&self) -> Vec<State> {
        InitGroups::new(&self.vocab, &self.init).initial_states(&self.vocab)
    }

    /// The weakly-fair commands (the paper's set `D`).
    pub fn fair_commands(&self) -> impl Iterator<Item = (usize, &Command)> {
        self.fair.iter().map(move |&i| (i, &self.commands[i]))
    }

    /// Number of explicit commands.
    pub fn command_count(&self) -> usize {
        self.commands.len()
    }

    /// Checks structural well-formedness: `init` is boolean, all commands
    /// type check (re-validation; builders enforce this on construction),
    /// fairness indices are in range, and locals exist in the vocabulary.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.init.check_pred(&self.vocab)?;
        for c in &self.commands {
            // Re-run the constructor checks.
            Command::new(
                c.name.clone(),
                c.guard.clone(),
                c.updates.clone(),
                &self.vocab,
            )?;
        }
        if let Some(&bad) = self.fair.iter().find(|&&i| i >= self.commands.len()) {
            return Err(CoreError::ProofShape {
                rule: "fairness",
                detail: format!("fair index {bad} out of range"),
            });
        }
        for &l in &self.locals {
            if l.index() >= self.vocab.len() {
                return Err(CoreError::UnknownVar {
                    name: l.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Renders a human-readable listing of the program.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "program {}", self.name);
        for (id, d) in self.vocab.iter() {
            let loc = if self.locals.contains(&id) {
                " local"
            } else {
                ""
            };
            let _ = writeln!(out, "  var {} : {}{}", d.name, d.domain, loc);
        }
        let _ = writeln!(
            out,
            "  init {}",
            crate::expr::pretty::Render::new(&self.init, &self.vocab)
        );
        for (i, c) in self.commands.iter().enumerate() {
            let kw = if self.fair.contains(&i) {
                "fair cmd"
            } else {
                "cmd"
            };
            let _ = writeln!(out, "  {} {}", kw, c.display(&self.vocab));
        }
        let _ = writeln!(out, "end");
        out
    }
}

/// Incremental builder for [`Program`], collecting the first error.
pub struct ProgramBuilder {
    name: String,
    vocab: Arc<Vocabulary>,
    locals: BTreeSet<VarId>,
    init: Expr,
    commands: Vec<Command>,
    fair: BTreeSet<usize>,
    error: Option<CoreError>,
}

impl ProgramBuilder {
    /// Declares `v` local to this program.
    pub fn local(mut self, v: VarId) -> Self {
        self.locals.insert(v);
        self
    }

    /// Conjoins `p` onto the `initially` predicate.
    pub fn init(mut self, p: Expr) -> Self {
        if self.error.is_none() {
            if let Err(e) = p.check_pred(&self.vocab) {
                self.error = Some(e);
                return self;
            }
            self.init = if self.init.is_true() {
                p
            } else {
                crate::expr::build::and2(
                    std::mem::replace(&mut self.init, crate::expr::build::tt()),
                    p,
                )
            };
        }
        self
    }

    /// Adds a non-fair command.
    pub fn command(
        mut self,
        name: impl Into<String>,
        guard: Expr,
        updates: Vec<(VarId, Expr)>,
    ) -> Self {
        if self.error.is_none() {
            match Command::new(name, guard, updates, &self.vocab) {
                Ok(c) => self.commands.push(c),
                Err(e) => self.error = Some(e),
            }
        }
        self
    }

    /// Adds a weakly-fair command (member of `D`).
    pub fn fair_command(
        mut self,
        name: impl Into<String>,
        guard: Expr,
        updates: Vec<(VarId, Expr)>,
    ) -> Self {
        if self.error.is_none() {
            match Command::new(name, guard, updates, &self.vocab) {
                Ok(c) => {
                    self.commands.push(c);
                    self.fair.insert(self.commands.len() - 1);
                }
                Err(e) => self.error = Some(e),
            }
        }
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Result<Program, CoreError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let p = Program {
            name: self.name,
            vocab: self.vocab,
            locals: self.locals,
            init: self.init,
            commands: self.commands,
            fair: self.fair,
        };
        p.validate()?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::expr::build::*;
    use crate::value::Value;

    fn counter_program() -> Program {
        let mut v = Vocabulary::new();
        let c = v.declare("c", Domain::int_range(0, 2).unwrap()).unwrap();
        let big = v.declare("C", Domain::int_range(0, 2).unwrap()).unwrap();
        let vocab = Arc::new(v);
        Program::builder("counter", vocab)
            .local(c)
            .init(and2(eq(var(c), int(0)), eq(var(big), int(0))))
            .fair_command(
                "a",
                lt(var(c), int(2)),
                vec![(c, add(var(c), int(1))), (big, add(var(big), int(1)))],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn builder_builds() {
        let p = counter_program();
        assert_eq!(p.command_count(), 1);
        assert_eq!(p.fair.len(), 1);
        assert_eq!(p.locals.len(), 1);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn initial_states_satisfy_init() {
        let p = counter_program();
        let inits = p.initial_states();
        assert_eq!(inits.len(), 1);
        assert!(p.satisfies_init(&inits[0]));
        assert_eq!(inits[0].get(VarId(0)), Value::Int(0));
    }

    #[test]
    fn write_and_mentioned_sets() {
        let p = counter_program();
        let w = p.write_set();
        assert_eq!(w.len(), 2);
        let m = p.mentioned_vars();
        assert!(w.is_subset(&m));
    }

    #[test]
    fn step_executes() {
        let p = counter_program();
        let s0 = p.initial_states().remove(0);
        let s1 = p.step(0, &s0);
        assert_eq!(s1.get(VarId(0)), Value::Int(1));
        assert_eq!(s1.get(VarId(1)), Value::Int(1));
    }

    #[test]
    fn builder_propagates_errors() {
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::Bool).unwrap();
        let r = Program::builder("bad", Arc::new(v))
            .init(var(x))
            .command("c", int(0), vec![]) // non-boolean guard
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn listing_is_parseable_shape() {
        let p = counter_program();
        let l = p.listing();
        assert!(l.contains("program counter"));
        assert!(l.contains("var c : int 0..2 local"));
        assert!(l.contains("fair cmd a:"));
        assert!(l.trim_end().ends_with("end"));
    }
}
