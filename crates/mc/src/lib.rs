//! # unity-mc
//!
//! Model checker for `unity-core` programs, with three interchangeable
//! engines (reference tree-walk, compiled bytecode over packed states,
//! and the symbolic BDD backend — see [`space::Engine`]).
//!
//! * Safety properties (`init`, `next`, `stable`, `invariant`,
//!   `unchanged`, `transient`) are decided with the paper's **inductive**
//!   semantics: quantification over *all* type-consistent states (no
//!   substitution axiom, no reachability strengthening). Both operational
//!   (execute the command) and symbolic (`wp` + validity scan) deciders are
//!   provided and must agree.
//! * `p ↦ q` is decided **exactly under weak fairness** by SCC analysis of
//!   the `¬q`-restricted transition graph (see [`fair`]), with lasso
//!   counterexamples. The default engine is a worklist over a CSR
//!   predecessor index ([`pred`]) with pooled Tarjan scratch — each
//!   check scales with the `¬q` region, not the whole table.
//! * Scans are chunk-parallel over the flat state index
//!   ([`parallel`]), using `crossbeam` scoped threads with atomic early
//!   exit that still reports the lowest witness. So is the full-product
//!   transition-system fill. The reachable transition system has one
//!   builder, a sequential packed search
//!   ([`transition::TransitionSystem::build`]) seeded from the init
//!   groups of `unity_core::locality`, and the predecessor index is
//!   inverted on one thread, so state numbering and counterexamples do
//!   not depend on `ParConfig::threads`.
//! * Scans walk only the variables that can matter: `init p` the
//!   variables of `p` and of the init groups it meets, `next`-shaped
//!   checks the writers of `q` ([`check`]).
//! * Under [`space::Engine::Symbolic`] the safety checks route through
//!   `unity-symbolic` ([`symbolic`]): state sets as BDDs over the packed
//!   bit layout, with identical verdicts and replayable counterexamples
//!   — the engine whose cost does not grow with the state count.
//! * [`check::McDischarger`] plugs the checker into the `unity-core` proof
//!   kernel as the semantic back-end for premises and side conditions.
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
//! // Safety: x never exceeds 3 (inductive).
//! check_invariant(&p, &le(var(x), int(3)), &ScanConfig::default()).unwrap();
//! // Liveness under weak fairness: x reaches 3.
//! check_leadsto(&p, &tt(), &eq(var(x), int(3)), Universe::Reachable,
//!               &ScanConfig::default()).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod check;
pub mod compiled;
pub mod compositional;
pub mod fair;
pub mod json;
pub mod mutate;
pub mod parallel;
pub mod pred;
pub mod report;
pub mod scc;
pub mod space;
pub mod spec;
pub mod stats;
pub mod symbolic;
pub mod synth;
pub mod trace;
pub mod transition;
pub mod verifier;
mod witness;

/// Commonly used items.
pub mod prelude {
    pub use crate::check::{
        check_init, check_invariant, check_invariant_reachable, check_next, check_next_wp,
        check_property, check_stable, check_transient, check_unchanged, McDischarger,
    };
    pub use crate::compiled::{scan_packed, try_layout, CompiledProgram};
    pub use crate::compositional::{CompositionalStats, CompositionalVerifier};
    pub use crate::fair::{
        check_leadsto, check_leadsto_on, check_leadsto_on_reference, LeadsToEngine, LeadsToReport,
    };
    pub use crate::mutate::{
        mutants, mutation_audit, mutation_audit_checks, mutation_audit_in, same_behavior,
        AuditError, Mutant, MutantOutcome, MutationKind, MutationReport, Spec,
    };
    pub use crate::parallel::{validate_build_threads_env, ParConfig};
    pub use crate::pred::PredIndex;
    pub use crate::report::{CheckReport, Report, SimCheck};
    pub use crate::space::{check_equivalent, check_valid, find_satisfying, Engine, ScanConfig};
    pub use crate::stats::BuildStats;
    pub use crate::symbolic::{reachable_count, reachable_count_with};
    pub use crate::synth::{
        synthesize_always_leadsto, synthesize_and_check, synthesize_and_check_in,
        synthesize_leadsto, synthesize_leadsto_in, ProgramDischarger, SynthConfig, SynthError,
        SynthesizedLeadsto,
    };
    pub use crate::trace::{Counterexample, McError};
    pub use crate::transition::{TransitionSystem, Universe};
    pub use crate::verifier::{
        DischargeInfo, NamedCheck, Outcome, SessionArtifacts, SessionStatus, Verdict, VerdictStats,
        Verifier,
    };
    pub use unity_symbolic::{OrderMode, SymStats, SymbolicOptions, SymbolicProgram};
}
