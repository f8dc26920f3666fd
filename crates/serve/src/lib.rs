//! `unity-serve` — a persistent, incremental verification service.
//!
//! The paper's method is *characterize once, answer many*: a component's
//! universal properties are established one time and every later
//! composition inherits them. The batch CLI loses the computational
//! half of that bargain — each `unity-check` run rebuilds the packed
//! transition system, reachable set, predecessor index, and BDD order,
//! then throws them away at exit. This crate keeps them: a long-running
//! daemon with
//!
//! - a **content-hashed artifact store** ([`store`]) — submissions are
//!   keyed by spec hash; the expensive session artifacts persist as
//!   checksummed segment files and re-submissions only recompute what
//!   the hash says changed;
//! - an **append-only verdict journal** ([`journal`]) — every report is
//!   a durable, sequence-numbered record, replayed on startup so a
//!   restart (or `kill -9`) loses no history;
//! - a **bounded worker pool** ([`pool`]) — concurrent sessions with
//!   per-job timeouts, and panics contained to an error response;
//! - a thin **hand-rolled HTTP/1.1 protocol** ([`http`], [`proto`],
//!   [`server`]) — `POST /verify`, `GET /status`, `GET /history`,
//!   consumed by `unity-check --serve URL` or anything that speaks
//!   JSON over a socket.
//!
//! The daemon binary lives in `src/main.rs` (`unity-serve --data-dir
//! DIR`); [`service::Service`] is the transport-free core, usable
//! in-process (that is how the test suites and benches drive it).
//!
//! # Resilience
//!
//! The failure surface is explicit and tested, not hoped about. Every
//! fallible syscall boundary carries a named [`unity_fault`] failpoint
//! (zero-cost unless the `failpoints` feature is on); a crash-torture
//! suite kills the real daemon binary at each one and asserts the
//! journal/store invariants across restart. Operationally: per-socket
//! timeouts plus a whole-request deadline (slowloris defense), bounded
//! admission with `503` + `Retry-After` shedding, sticky degraded mode
//! when the disk fails (answers continue, persistence stops, `GET
//! /status` says so), idempotent retry via `request_id`, and graceful
//! drain on `SIGTERM`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod history;
pub mod http;
pub mod journal;
pub mod pool;
pub mod proto;
pub mod server;
pub mod service;
pub mod store;

pub use proto::{CacheInfo, CacheState, StatusResponse, VerifyRequest, VerifyResponse};
pub use server::{start, start_with, Server, ServerOptions};
pub use service::{Service, ServiceConfig, ServiceError};
pub use store::spec_hash;
