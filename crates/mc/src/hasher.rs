//! Fast non-cryptographic hashing (re-export).
//!
//! The Fx multiply-rotate hasher moved to [`unity_core::hash`] so the
//! compositional layer (`unity-ag`) can content-hash component programs
//! with the same function the checker's intern tables use. This module
//! re-exports it under the historical `unity_mc::hasher` path.

pub use unity_core::hash::{FxBuildHasher, FxHashMap, FxHasher};
