//! The verification service: submissions in, cached verdicts out.
//!
//! [`Service`] ties the layers together. One `POST /verify` flows as:
//!
//! 1. content-hash the spec ([`crate::store::spec_hash`]) — the
//!    *submission* identity used for the journal, history, and reply
//!    cache;
//! 2. on a pool worker (bounded, timeout-guarded, panic-contained):
//!    parse + compose the spec, content-hash the composed *program*
//!    ([`unity_ag::cert::program_hash`] — the *artifact* key, stable
//!    under check-line edits), [`ArtifactStore::load`] whatever the
//!    store holds for that program, seed a [`Verifier`] session with
//!    it, run every check, then export and persist the session's
//!    artifacts. A `"compositional": true` submission runs a
//!    [`CompositionalVerifier`] instead: per-component certificates are
//!    loaded by component hash, obligations discharge in component
//!    spaces, and only the dirty certificates (plus any product
//!    artifacts a fallback built) are written back;
//! 3. append the [`Report`] to the journal (synced before the sequence
//!    number is returned) and answer with per-artifact cache outcomes.
//!
//! Cache accounting is taken from the session itself, not the store's
//! claims: an artifact is a **hit** if it was installed at seed time
//! (the session's status showed it present before any check ran), a
//! **miss** if the session had to build it, and **unused** if the
//! submission's checks never demanded it. A corrupt or shape-mismatched
//! stored artifact therefore reports as the miss it operationally is.
//!
//! # Resilience discipline
//!
//! Three behaviors added for end-to-end fault tolerance:
//!
//! - **Load shedding.** Admissions are bounded: when
//!   [`ServiceConfig::queue_limit`] submissions are already in flight,
//!   new ones are refused with [`ServiceError::Overloaded`] (the HTTP
//!   layer turns that into `503` + `Retry-After`) instead of queueing
//!   without bound.
//! - **Degraded mode.** The first persistence failure — journal append,
//!   artifact save — flips a sticky `degraded` flag. From then on the
//!   service still *answers* (verdicts are computed and returned, with
//!   sequence numbers from [`Journal::reserve_seq`]) but persists
//!   nothing, and `GET /status` says so. A restart with a healthy disk
//!   clears the mode; verdicts served while degraded were never
//!   journaled and honestly vanish from history.
//! - **Idempotent replay.** A request carrying a `request_id` the
//!   service has already answered gets the cached [`VerifyResponse`]
//!   back — same sequence number, no second verification, no second
//!   journal record — which is what makes client-side retry safe.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use unity_ag::cert::program_hash;
use unity_mc::prelude::{CompositionalVerifier, Report, ScanConfig, SessionStatus, Verifier};
use unity_mc::spec::load_spec;

use crate::history::History;
use crate::journal::Journal;
use crate::pool::{JobOutcome, WorkerPool};
use crate::proto::{
    CacheInfo, CacheState, HistoryEntry, StatusResponse, VerifyRequest, VerifyResponse,
};
use crate::store::{spec_hash, ArtifactStore};

/// Answered `request_id`s remembered for idempotent replay (FIFO).
pub const REPLY_CACHE_SIZE: usize = 128;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Root directory for the artifact store and journal.
    pub data_dir: PathBuf,
    /// Worker-pool size (concurrent verifications).
    pub workers: usize,
    /// Default per-submission timeout (`None` = unlimited; requests
    /// can override per-call).
    pub default_timeout: Option<Duration>,
    /// Maximum submissions in flight (running + queued) before new ones
    /// are shed with [`ServiceError::Overloaded`].
    pub queue_limit: usize,
}

impl ServiceConfig {
    /// The default admission bound for a pool of `workers`: the workers
    /// themselves plus a short queue behind them.
    pub fn default_queue_limit(workers: usize) -> usize {
        workers.max(1) * 4
    }
}

/// Why a submission produced no verdict.
#[derive(Debug)]
pub enum ServiceError {
    /// The submission itself is at fault (parse error, bad options).
    BadRequest(String),
    /// The job exceeded its deadline; reports the deadline in ms.
    Timeout(u64),
    /// The daemon failed (verification panic, store/journal I/O).
    Internal(String),
    /// Admission control refused the submission; carries the suggested
    /// `Retry-After` seconds.
    Overloaded(u64),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadRequest(m) => write!(f, "{m}"),
            ServiceError::Timeout(ms) => write!(f, "verification exceeded {ms} ms"),
            ServiceError::Internal(m) => write!(f, "{m}"),
            ServiceError::Overloaded(secs) => {
                write!(f, "service at capacity, retry in {secs}s")
            }
        }
    }
}

/// What a verification job reports back to the request thread.
struct JobOutput {
    report: Report,
    cache: CacheInfo,
    /// Artifact persistence failed; the verdict itself is intact. The
    /// request thread flips degraded mode and still answers.
    persist_error: Option<String>,
}

enum JobError {
    /// Submitter's fault: unparsable spec.
    Spec(String),
}

/// Bounded `request_id → response` memory for idempotent resubmission.
struct ReplyCache {
    map: HashMap<String, VerifyResponse>,
    order: VecDeque<String>,
}

/// The long-running verification service (transport-agnostic; the HTTP
/// layer in [`crate::server`] is one front end, tests drive it
/// directly).
pub struct Service {
    store: Arc<ArtifactStore>,
    journal: Mutex<Journal>,
    history: Mutex<History>,
    pool: WorkerPool,
    default_timeout: Option<Duration>,
    queue_limit: usize,
    in_flight: AtomicUsize,
    degraded: Mutex<Option<String>>,
    replies: Mutex<ReplyCache>,
    started: Instant,
    /// Cumulative certificate-cache accounting across every
    /// compositional submission (reported by `GET /status`).
    cert_hits: AtomicU64,
    cert_misses: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn cache_state(seeded: bool, present: bool) -> CacheState {
    match (seeded, present) {
        (true, _) => CacheState::Hit,
        (false, true) => CacheState::Miss,
        (false, false) => CacheState::Unused,
    }
}

/// Per-artifact accounting from the session status just after seeding
/// (`pre`) vs just after the checks (`post`), plus whether a stored
/// field order was handed to the symbolic configuration.
fn cache_info(pre: &SessionStatus, post: &SessionStatus, order_seeded: bool) -> CacheInfo {
    CacheInfo {
        ts_reachable: cache_state(pre.ts_reachable, post.ts_reachable),
        ts_all_states: cache_state(pre.ts_all_states, post.ts_all_states),
        pred_reachable: cache_state(pre.pred_reachable, post.pred_reachable),
        pred_all_states: cache_state(pre.pred_all_states, post.pred_all_states),
        field_order: cache_state(order_seeded && post.symbolic, post.symbolic),
        cert_hits: 0,
        cert_misses: 0,
    }
}

/// Decrements the in-flight gauge on every exit path, including panics.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Service {
    /// Opens the service: creates the data dir, opens the store,
    /// replays the journal, spawns the worker pool.
    pub fn open(cfg: ServiceConfig) -> Result<Service, String> {
        std::fs::create_dir_all(&cfg.data_dir)
            .map_err(|e| format!("{}: {e}", cfg.data_dir.display()))?;
        let store = ArtifactStore::open(cfg.data_dir.join("store"))
            .map_err(|e| format!("artifact store: {e}"))?;
        let (journal, replayed) = Journal::open(&cfg.data_dir.join("journal.log"))?;
        let mut history = History::default();
        for rec in &replayed {
            history.push(rec.seq, &rec.spec_hash, &rec.report);
        }
        Ok(Service {
            store: Arc::new(store),
            journal: Mutex::new(journal),
            history: Mutex::new(history),
            pool: WorkerPool::new(cfg.workers.max(1)),
            default_timeout: cfg.default_timeout,
            queue_limit: cfg.queue_limit.max(1),
            in_flight: AtomicUsize::new(0),
            degraded: Mutex::new(None),
            replies: Mutex::new(ReplyCache {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            started: Instant::now(),
            cert_hits: AtomicU64::new(0),
            cert_misses: AtomicU64::new(0),
        })
    }

    /// Verifies one submission end to end (hash → seed → check →
    /// persist → journal). Blocking; concurrency comes from the
    /// transport calling this from many connection threads, multiplexed
    /// over the bounded pool.
    pub fn verify(&self, req: VerifyRequest) -> Result<VerifyResponse, ServiceError> {
        // Idempotent replay: a retried request_id is answered from the
        // reply cache — no admission charge, no second verification.
        if let Some(id) = &req.request_id {
            if let Some(hit) = lock(&self.replies).map.get(id) {
                return Ok(hit.clone());
            }
        }
        // Admission control. fetch_add first, judge after: two racing
        // submissions can't both slip under the limit.
        let admitted = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        let _guard = InFlightGuard(&self.in_flight);
        if admitted > self.queue_limit {
            return Err(ServiceError::Overloaded(self.retry_after_hint()));
        }
        let hash = spec_hash(&req.spec);
        let timeout = match req.timeout_ms {
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
            None => self.default_timeout,
        };
        let store = Arc::clone(&self.store);
        let spec_src = req.spec;
        let (engine, universe) = (req.engine, req.universe);
        let compositional = req.compositional;
        // While degraded, persistence is off: the job skips the store
        // write instead of rediscovering the dead disk on every call.
        let skip_persist = self.degraded().is_some();
        let outcome = self
            .pool
            .run(timeout, move || -> Result<JobOutput, JobError> {
                let spec =
                    load_spec(&spec_src).map_err(|e| JobError::Spec(format!("spec: {e}")))?;
                let program = &spec.system.composed;
                let cfg = ScanConfig {
                    engine,
                    ..ScanConfig::default()
                };
                // Artifacts key by the composed *program's* content, not
                // the spec text: editing a check line keeps the hash, so
                // everything expensive is reused (delta keying).
                let prog_hash = program_hash(program);
                if compositional {
                    let mut session =
                        CompositionalVerifier::new(&spec.system, cfg).with_universe(universe);
                    // Components plus the cone slices this battery will
                    // decide on — the full certificate key space.
                    let hashes = session.plan_hashes(&spec.checks);
                    let seeded = store.load_certs(&hashes);
                    let mut session = session.with_certs(seeded);
                    let report = session.verify_all(&spec.checks);
                    let stats = session.stats().clone();
                    let persist_error = if skip_persist {
                        None
                    } else {
                        let mut result = store.save_certs(session.certs());
                        if result.is_ok() {
                            // A fallback's product artifacts file under
                            // the composed hash, warming later flat runs.
                            if let Some(arts) = session.product_artifacts() {
                                result = store.save(&prog_hash, &spec_src, &arts);
                            }
                        }
                        result.err().map(|e| format!("artifact store: {e}"))
                    };
                    // Product artifacts were never seeded, so the status
                    // after the run tells built (miss) from untouched
                    // (unused) — `None` means the product never existed.
                    let mut cache = cache_info(
                        &SessionStatus::default(),
                        &session.product_status().unwrap_or_default(),
                        false,
                    );
                    cache.cert_hits = stats.cert_hits;
                    cache.cert_misses = stats.cert_misses;
                    return Ok(JobOutput {
                        report,
                        cache,
                        persist_error,
                    });
                }
                let stored = store.load(&prog_hash, program, &cfg);
                let order_seeded = stored.field_order.is_some();
                let mut session = Verifier::new(program, cfg).with_universe(universe);
                session.seed(stored);
                let pre = session.status();
                let report = session.verify_all(&spec.checks);
                let post = session.status();
                let persist_error = if skip_persist {
                    None
                } else {
                    store
                        .save(&prog_hash, &spec_src, &session.artifacts())
                        .err()
                        .map(|e| format!("artifact store: {e}"))
                };
                Ok(JobOutput {
                    report,
                    cache: cache_info(&pre, &post, order_seeded),
                    persist_error,
                })
            });
        let output = match outcome {
            JobOutcome::Completed(Ok(output)) => output,
            JobOutcome::Completed(Err(JobError::Spec(msg))) => {
                return Err(ServiceError::BadRequest(msg))
            }
            JobOutcome::Panicked(msg) => {
                return Err(ServiceError::Internal(format!(
                    "verification panicked: {msg}"
                )))
            }
            JobOutcome::TimedOut => {
                return Err(ServiceError::Timeout(
                    timeout.map(|d| d.as_millis() as u64).unwrap_or(0),
                ))
            }
        };
        self.cert_hits
            .fetch_add(output.cache.cert_hits, Ordering::Relaxed);
        self.cert_misses
            .fetch_add(output.cache.cert_misses, Ordering::Relaxed);
        if let Some(msg) = output.persist_error {
            self.enter_degraded(msg);
        }
        // Crashpoint: verdict computed, nothing journaled, nothing
        // acked. The torture suite proves a crash here loses no *acked*
        // response — the client never saw a sequence number.
        unity_fault::fail_point!("service.verify.pre_journal");
        // Journal before answering: the sequence number a client sees
        // is durable by the time it sees it — unless the disk already
        // failed, in which case the number is reserved, not persisted,
        // and /status says so.
        let seq = if self.degraded().is_some() {
            lock(&self.journal).reserve_seq()
        } else {
            // Bind before matching: a `match` on the locked call would
            // keep the journal guard alive into the arms, and the
            // error arm locks the journal again to reserve a number.
            let appended = lock(&self.journal).append(&hash, &output.report);
            match appended {
                Ok(seq) => seq,
                Err(msg) => {
                    self.enter_degraded(msg);
                    lock(&self.journal).reserve_seq()
                }
            }
        };
        lock(&self.history).push(seq, &hash, &output.report);
        let response = VerifyResponse {
            seq,
            spec_hash: hash,
            cache: output.cache,
            report: output.report,
        };
        if let Some(id) = req.request_id {
            let mut replies = lock(&self.replies);
            if replies.map.insert(id.clone(), response.clone()).is_none() {
                replies.order.push_back(id);
                if replies.order.len() > REPLY_CACHE_SIZE {
                    if let Some(evicted) = replies.order.pop_front() {
                        replies.map.remove(&evicted);
                    }
                }
            }
        }
        Ok(response)
    }

    /// The `GET /status` summary.
    pub fn status(&self) -> StatusResponse {
        let degraded_reason = self.degraded();
        StatusResponse {
            specs: self.store.known_programs(),
            verdicts: lock(&self.history).len() as u64,
            workers: self.pool.workers() as u64,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            last_seq: lock(&self.journal).next_seq().saturating_sub(1),
            queue_depth: self.pool.queued() as u64,
            degraded: degraded_reason.is_some(),
            degraded_reason,
            cert_hits: self.cert_hits.load(Ordering::Relaxed),
            cert_misses: self.cert_misses.load(Ordering::Relaxed),
        }
    }

    /// The verdict history, optionally restricted to one spec hash.
    pub fn history(&self, spec: Option<&str>) -> Vec<HistoryEntry> {
        lock(&self.history).entries(spec)
    }

    /// The sticky degraded reason, if persistence has failed.
    pub fn degraded(&self) -> Option<String> {
        lock(&self.degraded).clone()
    }

    /// Flips degraded mode (first reason wins; later errors are noise
    /// from the same dead disk).
    fn enter_degraded(&self, reason: String) {
        let mut flag = lock(&self.degraded);
        if flag.is_none() {
            eprintln!("unity-serve: entering degraded mode: {reason}");
            *flag = Some(reason);
        }
    }

    /// Submissions currently admitted (running or queued).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// The `Retry-After` hint for shed load: roughly one slot-drain per
    /// queued job, clamped to something a client would actually wait.
    fn retry_after_hint(&self) -> u64 {
        (self.pool.queued() as u64 + 1).clamp(1, 30)
    }

    /// Graceful-drain support: blocks until every admitted submission
    /// has finished (or `timeout` passes). The transport stops
    /// accepting first, so `in_flight` can only fall. Returns whether
    /// the service fully drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.in_flight() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    }

    /// Test hook: drops the store's in-memory layer so the next load
    /// decodes from segment files.
    pub fn drop_memory_cache(&self) {
        self.store.drop_memory_cache();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use unity_mc::prelude::{Engine, Universe};

    const SPEC: &str = "program P\n  var a : int 0..3\n  var b : int 0..3\n  init a == 0 && b == 0\n  fair cmd right: a < 3 -> a := a + 1\n  fair cmd up: b < 3 -> b := b + 1\nend\nspec S\n  cap: invariant a <= 3\n  done: true leadsto a == 3 && b == 3\nend";

    fn tmp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("unity_serve_service_{}_{name}", std::process::id()))
    }

    fn tmp_service(name: &str) -> Service {
        let dir = tmp_dir(name);
        let _ = std::fs::remove_dir_all(&dir);
        Service::open(ServiceConfig {
            data_dir: dir,
            workers: 2,
            default_timeout: Some(Duration::from_secs(60)),
            queue_limit: 8,
        })
        .unwrap()
    }

    #[test]
    fn cold_then_warm_submission_flips_misses_to_hits() {
        let service = tmp_service("cold_warm");
        let cold = service.verify(VerifyRequest::new(SPEC)).unwrap();
        assert_eq!(cold.seq, 1);
        assert!(cold.report.all_passed());
        assert_eq!(cold.cache.ts_reachable, CacheState::Miss);
        assert_eq!(cold.cache.pred_reachable, CacheState::Miss);
        assert_eq!(cold.cache.ts_all_states, CacheState::Unused);
        assert_eq!(cold.cache.field_order, CacheState::Unused);

        let warm = service.verify(VerifyRequest::new(SPEC)).unwrap();
        assert_eq!(warm.seq, 2);
        assert_eq!(warm.spec_hash, cold.spec_hash);
        assert_eq!(warm.cache.ts_reachable, CacheState::Hit);
        assert_eq!(warm.cache.pred_reachable, CacheState::Hit);
        // Verdicts identical witness-for-witness.
        for (c, w) in cold.report.checks.iter().zip(&warm.report.checks) {
            assert_eq!(c.verdict.outcome, w.verdict.outcome, "{}", c.name);
        }

        // And again with the memory layer dropped: disk segments only.
        service.drop_memory_cache();
        let disk = service.verify(VerifyRequest::new(SPEC)).unwrap();
        assert_eq!(disk.cache.ts_reachable, CacheState::Hit);
        assert_eq!(disk.cache.pred_reachable, CacheState::Hit);
    }

    #[test]
    fn bad_specs_are_rejected_not_journaled() {
        let service = tmp_service("bad_spec");
        let err = service.verify(VerifyRequest::new("banana")).unwrap_err();
        assert!(matches!(err, ServiceError::BadRequest(_)), "{err}");
        assert_eq!(service.history(None).len(), 0);
        assert_eq!(service.status().verdicts, 0);
        assert_eq!(service.in_flight(), 0, "admission gauge fully released");
    }

    #[test]
    fn history_filters_by_spec_hash() {
        let service = tmp_service("history");
        let a = service.verify(VerifyRequest::new(SPEC)).unwrap();
        let other = SPEC.replace("a == 3 && b == 3", "a == 3");
        let b = service.verify(VerifyRequest::new(other)).unwrap();
        assert_ne!(a.spec_hash, b.spec_hash);
        assert_eq!(service.history(None).len(), 2);
        let filtered = service.history(Some(&a.spec_hash));
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered[0].seq, a.seq);
        assert!(service.history(Some("ffff")).is_empty());
        // The two submissions differ only in a check line, so they share
        // one *program* hash — one store directory (delta keying) — even
        // though their spec hashes (journal identities) differ.
        assert_eq!(service.status().specs, 1);
        assert_eq!(service.status().last_seq, 2);
        assert_eq!(service.status().queue_depth, 0);
        assert!(!service.status().degraded);
    }

    #[test]
    fn failing_checks_are_verdicts_not_errors() {
        let service = tmp_service("failing");
        let spec = SPEC.replace("invariant a <= 3", "invariant a <= 2");
        let resp = service.verify(VerifyRequest::new(spec)).unwrap();
        assert!(!resp.report.all_passed());
        assert!(resp.report.checks[0].verdict.failed());
        let entries = service.history(Some(&resp.spec_hash));
        assert_eq!(entries.len(), 1);
        assert!(!entries[0].passed);
    }

    #[test]
    fn engines_and_universes_share_the_store_coherently() {
        let service = tmp_service("engines");
        for engine in [Engine::Compiled, Engine::Reference, Engine::Symbolic] {
            for universe in [Universe::Reachable, Universe::AllStates] {
                let mut req = VerifyRequest::new(SPEC);
                req.engine = engine;
                req.universe = universe;
                let resp = service.verify(req).unwrap();
                assert!(
                    resp.report.all_passed(),
                    "{engine:?}/{universe:?}: {:?}",
                    resp.report.checks
                );
            }
        }
    }

    #[test]
    fn duplicate_request_ids_replay_the_same_verdict() {
        let service = tmp_service("idempotent");
        let mut req = VerifyRequest::new(SPEC);
        req.request_id = Some("retry-key-1".into());
        let first = service.verify(req.clone()).unwrap();
        let replay = service.verify(req).unwrap();
        assert_eq!(replay.seq, first.seq, "no second journal record");
        assert_eq!(service.history(None).len(), 1);

        // A different id is a genuinely new submission.
        let mut req2 = VerifyRequest::new(SPEC);
        req2.request_id = Some("retry-key-2".into());
        let second = service.verify(req2).unwrap();
        assert_eq!(second.seq, first.seq + 1);
    }

    #[test]
    fn edited_checks_reuse_program_keyed_artifacts() {
        let service = tmp_service("delta_keying");
        let cold = service.verify(VerifyRequest::new(SPEC)).unwrap();
        assert_eq!(cold.cache.ts_reachable, CacheState::Miss);

        // Same programs, different check line: a different spec hash,
        // but the program-keyed transition system is reused — from disk,
        // not just the memory layer.
        service.drop_memory_cache();
        let edited = SPEC.replace("a == 3 && b == 3", "a == 3");
        let warm = service.verify(VerifyRequest::new(edited)).unwrap();
        assert_ne!(warm.spec_hash, cold.spec_hash);
        assert_eq!(warm.cache.ts_reachable, CacheState::Hit);
        assert_eq!(warm.cache.pred_reachable, CacheState::Hit);
        assert!(warm.report.all_passed());
    }

    const TWO_COMPONENT_SPEC: &str = "program A\n  var a : int 0..3\n  init a == 0\n  fair cmd inc_a: a < 3 -> a := a + 1\nend\nprogram B\n  var b : int 0..3\n  init b == 0\n  fair cmd inc_b: b < 3 -> b := b + 1\nend\nspec S\n  cap_a: invariant a <= 3\n  go_a: true leadsto a == 3\nend";

    #[test]
    fn compositional_submissions_cache_certificates() {
        let service = tmp_service("compositional");
        let mut req = VerifyRequest::new(TWO_COMPONENT_SPEC);
        req.compositional = true;

        let cold = service.verify(req.clone()).unwrap();
        assert!(cold.report.all_passed());
        assert!(cold.cache.cert_misses > 0, "{:?}", cold.cache);
        assert_eq!(cold.cache.cert_hits, 0);
        // Every obligation discharged compositionally: the product
        // state space was never touched.
        assert_eq!(cold.cache.ts_reachable, CacheState::Unused);

        // Re-submission answers every component fact from persisted
        // certificates — no component re-checked.
        let warm = service.verify(req.clone()).unwrap();
        assert_eq!(warm.cache.cert_misses, 0, "{:?}", warm.cache);
        assert_eq!(warm.cache.cert_hits, cold.cache.cert_misses);

        // /status accumulates across submissions.
        let status = service.status();
        assert_eq!(status.cert_hits, warm.cache.cert_hits);
        assert_eq!(status.cert_misses, cold.cache.cert_misses);

        // Editing component B invalidates only B's certificates: A's
        // facts (and the cone slice over A) still answer from cache.
        let mut edited = req.clone();
        edited.spec = TWO_COMPONENT_SPEC.replace("inc_b: b < 3", "inc_b: b < 2");
        let partial = service.verify(edited).unwrap();
        assert!(partial.cache.cert_hits > 0, "{:?}", partial.cache);
        assert!(partial.cache.cert_misses > 0, "{:?}", partial.cache);

        // Verdict-and-witness identical to the flat path.
        let flat = service
            .verify(VerifyRequest::new(TWO_COMPONENT_SPEC))
            .unwrap();
        for (c, f) in cold.report.checks.iter().zip(&flat.report.checks) {
            assert_eq!(c.verdict.outcome, f.verdict.outcome, "{}", c.name);
        }
    }

    #[test]
    fn concurrent_saves_of_one_segment_both_succeed() {
        use std::sync::Barrier;
        let service = tmp_service("concurrent_saves");
        for round in 0..8 {
            // A fresh check line per round: both submissions miss the
            // same component certificate and rewrite A's `certs.seg`.
            let spec = TWO_COMPONENT_SPEC
                .replace("invariant a <= 3", &format!("invariant a <= {}", 3 + round));
            let barrier = Barrier::new(2);
            std::thread::scope(|scope| {
                let submit = || {
                    let mut req = VerifyRequest::new(spec.clone());
                    req.compositional = true;
                    barrier.wait();
                    service.verify(req)
                };
                let handles = [scope.spawn(submit), scope.spawn(submit)];
                for handle in handles {
                    let resp = handle.join().unwrap().unwrap();
                    assert!(resp.report.all_passed(), "round {round}");
                }
            });
            assert_eq!(service.degraded(), None, "round {round}");
        }
        // Every segment decodes, and no temp file is left behind.
        let mut certs = 0;
        for dir in std::fs::read_dir(tmp_dir("concurrent_saves").join("store")).unwrap() {
            for file in std::fs::read_dir(dir.unwrap().path()).unwrap() {
                let path = file.unwrap().path();
                assert_ne!(path.extension().unwrap(), "tmp", "{}", path.display());
                if path.file_name().unwrap() == "certs.seg" {
                    let bytes = std::fs::read(&path).unwrap();
                    let (kind, _) = unity_mc::artifact::decode_segment(&bytes).unwrap();
                    assert_eq!(kind, crate::store::KIND_CERTS);
                    certs += 1;
                }
            }
        }
        assert!(certs > 0);
    }

    #[test]
    fn history_replays_canonical_and_other_spec_strings_verbatim() {
        use crate::proto::history_to_json;
        let report = tmp_service("replay_source")
            .verify(VerifyRequest::new(SPEC))
            .unwrap()
            .report;
        let dir = tmp_dir("replay_history");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A journal written by hand or by another tool may carry spec
        // strings `spec_hash` never produces.
        let specs = [
            spec_hash(SPEC),
            "0123456789ABCDEF0123456789ABCDEF".to_string(),
            "hand-edited".to_string(),
            String::new(),
            spec_hash(SPEC),
        ];
        {
            let (mut journal, _) = Journal::open(&dir.join("journal.log")).unwrap();
            for spec in &specs {
                journal.append(spec, &report).unwrap();
            }
        }
        let service = Service::open(ServiceConfig {
            data_dir: dir,
            workers: 1,
            default_timeout: None,
            queue_limit: 4,
        })
        .unwrap();
        let expected: Vec<HistoryEntry> = specs
            .iter()
            .enumerate()
            .map(|(k, spec)| HistoryEntry {
                seq: k as u64 + 1,
                spec_hash: spec.clone(),
                program: report.program.clone(),
                passed: report.all_passed(),
                checks: report.checks.len() as u64,
            })
            .collect();
        assert_eq!(service.history(None), expected);
        assert_eq!(
            history_to_json(&service.history(None)),
            history_to_json(&expected)
        );
        for spec in &specs {
            let only: Vec<HistoryEntry> = expected
                .iter()
                .filter(|e| &e.spec_hash == spec)
                .cloned()
                .collect();
            assert_eq!(service.history(Some(spec)), only, "{spec:?}");
        }
        assert!(service
            .history(Some("0123456789abcdef0123456789abcdef"))
            .is_empty());
        assert_eq!(service.status().verdicts, 5);
        // A fresh verdict lands after the replayed ones.
        let next = service.verify(VerifyRequest::new(SPEC)).unwrap();
        assert_eq!(next.seq, 6);
        assert_eq!(service.history(Some(&next.spec_hash)).len(), 3);
    }

    // Degraded-mode, admission-shedding, and fault-injection coverage
    // lives in `tests/fault_injection.rs`: the failpoint registry is
    // process-global, so tests that configure points get their own test
    // binary (their own process) instead of racing the unit tests here.
}
