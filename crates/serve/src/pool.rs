//! A bounded worker pool with per-job timeouts and panic containment.
//!
//! The daemon multiplexes concurrent verification sessions over a fixed
//! set of `std::thread` workers (the sessions themselves fan out
//! further through `unity_mc::parallel` during state-space builds).
//! Three properties the service needs:
//!
//! - **bounded**: at most `workers` verifications run at once; excess
//!   submissions queue in FIFO order.
//! - **contained**: a panicking job is caught with
//!   [`std::panic::catch_unwind`] and surfaces as
//!   [`JobOutcome::Panicked`] with the panic message — the daemon never
//!   dies with a submission.
//! - **time-bounded**: the submitter stops waiting after its deadline
//!   ([`JobOutcome::TimedOut`]). Threads cannot be killed, so the
//!   abandoned job keeps its worker busy until it finishes on its own —
//!   the timeout bounds the *caller's* latency and the outcome is
//!   reported honestly.
//!
//! Built on `std::sync::{Mutex, Condvar}` (the vendored `parking_lot`
//! subset has no condvar); lock poisoning is recovered everywhere since
//! worker bodies never panic while holding a lock anyway.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Each worker's stack: a main thread's 8 MiB, so a spec `unity-check`
/// parses also parses here. The DSL parser and the passes after it
/// recurse once per nesting level, up to
/// [`unity_core::dsl::parser::MAX_DEPTH`]; an unoptimized build spends
/// about 16 KiB of stack per level of parentheses, which a default
/// 2 MiB thread cannot hold. The pages are committed only when touched.
const WORKER_STACK_BYTES: usize = 8 << 20;

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// How a submitted job ended, from the submitter's point of view.
#[derive(Debug)]
pub enum JobOutcome<T> {
    /// The job ran to completion.
    Completed(T),
    /// The job panicked; the payload message is attached.
    Panicked(String),
    /// The deadline passed first. The job itself may still be running
    /// on its worker; its eventual result is discarded.
    TimedOut,
}

/// A fixed-size FIFO worker pool. Dropping it drains nothing: pending
/// jobs are discarded, running jobs are joined.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` (≥ 1) worker threads.
    pub fn new(workers: usize) -> WorkerPool {
        assert!(workers >= 1, "a pool needs at least one worker");
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                #[allow(clippy::expect_used)] // thread spawn at startup: no caller can recover
                std::thread::Builder::new()
                    .name(format!("unity-serve-worker-{k}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// The pool size.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs accepted but not yet picked up by a worker — the `/status`
    /// queue-depth signal.
    pub fn queued(&self) -> usize {
        lock(&self.shared.queue).jobs.len()
    }

    /// Runs `f` on a pool worker and waits for it, up to `timeout`
    /// (`None` waits indefinitely).
    pub fn run<T, F>(&self, timeout: Option<Duration>, f: F) -> JobOutcome<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        type Slot<T> = (Mutex<Option<std::thread::Result<T>>>, Condvar);
        let slot: Arc<Slot<T>> = Arc::new((Mutex::new(None), Condvar::new()));
        let done = Arc::clone(&slot);
        {
            let mut q = lock(&self.shared.queue);
            q.jobs.push_back(Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    // Inside the unwind boundary: a `panic` rule here
                    // exercises the containment path end to end.
                    unity_fault::fail_point!("pool.job");
                    f()
                }));
                *lock(&done.0) = Some(result);
                done.1.notify_all();
            }));
        }
        self.shared.ready.notify_one();

        let deadline = timeout.map(|d| Instant::now() + d);
        let mut guard = lock(&slot.0);
        loop {
            if let Some(result) = guard.take() {
                return match result {
                    Ok(v) => JobOutcome::Completed(v),
                    Err(payload) => JobOutcome::Panicked(panic_message(payload.as_ref())),
                };
            }
            guard = match deadline {
                None => slot.1.wait(guard).unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return JobOutcome::TimedOut;
                    }
                    slot.1
                        .wait_timeout(guard, deadline - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        job();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
            q.jobs.clear();
        }
        self.shared.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_complete_with_their_results() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        for k in 0..20usize {
            match pool.run(None, move || k * k) {
                JobOutcome::Completed(v) => assert_eq!(v, k * k),
                other => panic!("job {k}: {other:?}"),
            }
        }
    }

    #[test]
    fn panics_are_contained_with_their_message() {
        let pool = WorkerPool::new(1);
        match pool.run::<(), _>(None, || panic!("artifact store on fire")) {
            JobOutcome::Panicked(msg) => assert!(msg.contains("on fire"), "{msg}"),
            other => panic!("{other:?}"),
        }
        // The worker survives and serves the next job.
        match pool.run(None, || 7) {
            JobOutcome::Completed(v) => assert_eq!(v, 7),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deadlines_produce_timed_out_and_the_worker_recovers() {
        let pool = WorkerPool::new(1);
        let finished = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&finished);
        let outcome = pool.run(Some(Duration::from_millis(20)), move || {
            std::thread::sleep(Duration::from_millis(200));
            f2.fetch_add(1, Ordering::SeqCst);
        });
        assert!(matches!(outcome, JobOutcome::TimedOut), "{outcome:?}");
        // The abandoned job still runs to completion on its worker,
        // after which the pool serves new jobs again.
        match pool.run(None, || 1) {
            JobOutcome::Completed(v) => assert_eq!(v, 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(finished.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn queue_is_bounded_by_worker_count() {
        let pool = WorkerPool::new(2);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (pool, running, peak) = (&pool, Arc::clone(&running), Arc::clone(&peak));
                s.spawn(move || {
                    let out = pool.run(None, move || {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(30));
                        running.fetch_sub(1, Ordering::SeqCst);
                    });
                    assert!(matches!(out, JobOutcome::Completed(())));
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "{peak:?}");
    }
}
