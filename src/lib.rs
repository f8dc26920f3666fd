//! # unity-composition
//!
//! Umbrella crate re-exporting the full workspace: a production-quality
//! reproduction of Charpentier & Chandy, *Examples of Program Composition
//! Illustrating the Use of Universal Properties* (IPPS 1999).
//!
//! See the individual crates:
//!
//! * [`unity_core`] — programming model, properties, composition, proof
//!   kernel, DSL.
//! * [`prio_graph`] — conflict graphs, orientations, closures, the acyclic
//!   priority-graph lemmas.
//! * [`unity_mc`] — explicit-state model checker with exact weak-fairness
//!   `leadsto` checking.
//! * [`unity_sim`] — operational simulator with weakly-fair schedulers and
//!   metrics.
//! * [`unity_systems`] — the paper's systems (§3 toy counter, §4 priority
//!   mechanism), baselines and applications, with machine-checked proofs.
//! * [`unity_dist`] — distributed message-passing realization of §4
//!   (token-based edge reversal) with Chandy–Lamport snapshot monitoring
//!   and a per-step refinement check onto the abstract orientation
//!   semantics.

#![forbid(unsafe_code)]

pub use prio_graph;
pub use unity_core;
pub use unity_dist;
pub use unity_mc;
pub use unity_sim;
pub use unity_systems;

pub use unity_core::prelude;
