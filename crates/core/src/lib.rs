//! # unity-core
//!
//! The programming model, property language, composition operator and proof
//! kernel of Charpentier & Chandy, *Examples of Program Composition
//! Illustrating the Use of Universal Properties* (IPPS 1999).
//!
//! A program ([`program::Program`]) is a set of typed variables over finite
//! domains, an `initially` predicate, a finite command set `C` (with an
//! implicit `skip`) and a weakly-fair subset `D ⊆ C`. Programs compose by
//! union ([`compose`]), subject to variable locality and initial-state
//! existence. Properties ([`properties::Property`]) follow the paper's
//! inductive definitions; [`classify`] records which property types are
//! existential and which universal, and [`proof`] provides a checked
//! derivation-tree kernel implementing the paper's inference rules —
//! including the two *lifting* rules that turn component-scope judgments
//! into system-scope judgments.
//!
//! [`locality`] records which parts of a program can affect which: the
//! `initially` predicate's independent groups, whose product is the
//! initial set, and each command's read and write sets.
//!
//! Semantic discharge of base facts (`transient`, `next`, validity, ...) is
//! delegated to the `unity-mc` model checker through the
//! [`proof::Discharger`] trait.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use unity_core::prelude::*;
//!
//! // Build the paper's toy component: a local counter c0 and the shared C.
//! let mut vocab = Vocabulary::new();
//! let c0 = vocab.declare("c0", Domain::int_range(0, 2).unwrap()).unwrap();
//! let big = vocab.declare("C", Domain::int_range(0, 2).unwrap()).unwrap();
//! let vocab = Arc::new(vocab);
//! let component = Program::builder("Component0", vocab.clone())
//!     .local(c0)
//!     .init(and2(eq(var(c0), int(0)), eq(var(big), int(0))))
//!     .fair_command(
//!         "a0",
//!         lt(var(c0), int(2)),
//!         vec![(c0, add(var(c0), int(1))), (big, add(var(big), int(1)))],
//!     )
//!     .build()
//!     .unwrap();
//! assert_eq!(component.initial_states().len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classify;
pub mod command;
pub mod compose;
pub mod conserve;
pub mod domain;
pub mod dsl;
pub mod error;
pub mod expr;
pub mod guarantee;
pub mod hash;
pub mod ident;
pub mod locality;
pub mod program;
pub mod proof;
pub mod properties;
pub mod rg;
pub mod state;
pub mod value;

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::classify::{classify, PropertyClass};
    pub use crate::command::Command;
    pub use crate::compose::{compose, InitSatCheck, System};
    pub use crate::conserve::{
        conserved_linear_combinations, invariant_from_combo, ConservedBasis, LinearCombo,
    };
    pub use crate::domain::Domain;
    pub use crate::error::CoreError;
    pub use crate::expr::build::*;
    pub use crate::expr::compile::{CompiledCommand, CompiledExpr, PackedLayout, Scratch};
    pub use crate::expr::eval::{eval, eval_bool, eval_int};
    pub use crate::expr::pretty::Render;
    pub use crate::expr::simplify::simplify;
    pub use crate::expr::subst::Subst;
    pub use crate::expr::{BinOp, Expr, NAryOp};
    pub use crate::guarantee::calculus::{
        check_gproof, eliminate, prop_entails, set_entails, CalcCtx, GProof, GuaranteeClause,
        PropSet,
    };
    pub use crate::guarantee::Guarantees;
    pub use crate::ident::{VarId, Vocabulary};
    pub use crate::program::Program;
    pub use crate::proof::check::{check, check_concludes, CheckCtx, CheckStats};
    pub use crate::proof::rules::{induction_step_goal, psp_goal, Proof};
    pub use crate::proof::{AssumeAll, Discharger, FactBase, Judgment, Scope};
    pub use crate::properties::Property;
    pub use crate::rg::{
        action_implies, invariant_via_rg, locality_rely, parallel_rule, preserves, stable_under,
        steps_satisfy, unchanged_vars, ActionPred, ActionVocab, RelyGuarantee, RgError,
        RgViolation,
    };
    pub use crate::state::{State, StateSpaceIter};
    pub use crate::value::{Type, Value};
}
