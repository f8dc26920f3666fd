//! Chunk-parallel search over flat index ranges.
//!
//! Validity scans, `next` checks and the like are embarrassingly parallel
//! over the state index; we split the range into chunks across scoped
//! `crossbeam` threads with an atomic early-exit bound. Ranges shorter
//! than [`ParConfig::sequential_cutoff`] run on the calling thread; the
//! default cutoff of 2¹⁴ items is a fixed setting, not a measured
//! crossover. A path keeps its threads only where it wins its own
//! measurement: the reachable build, its initial-state enumeration and
//! the predecessor index run on one thread at every thread count.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Parallelism settings.
#[derive(Debug, Clone)]
pub struct ParConfig {
    /// Number of worker threads (1 = sequential).
    pub threads: usize,
    /// Below this many items, run sequentially regardless of `threads`.
    pub sequential_cutoff: u64,
}

/// The `UNITY_BUILD_THREADS` environment override, read once per
/// process: CI pins the default thread count with it so the tier-1
/// suite runs once over the parallel scans and fills and once (`=1`)
/// over their sequential forms. An explicit `--threads` /
/// [`ParConfig::with_threads`] still wins — the override only affects
/// [`ParConfig::default`].
fn env_threads() -> Option<usize> {
    static CACHE: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("UNITY_BUILD_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1)
    })
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            threads: env_threads()
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
            sequential_cutoff: 1 << 14,
        }
    }
}

/// Validates a `UNITY_BUILD_THREADS` value: a positive integer, like
/// `--threads`. [`ParConfig::default`] silently ignores garbage (a
/// library must not abort on environment noise); binaries call
/// [`validate_build_threads_env`] up front and exit 2 instead.
fn validate_threads_value(s: &str) -> Result<(), String> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(()),
        Ok(_) => Err("UNITY_BUILD_THREADS must be at least 1".into()),
        Err(_) => Err(format!(
            "UNITY_BUILD_THREADS must be a positive integer, got `{s}`"
        )),
    }
}

/// Entry-point validation of the `UNITY_BUILD_THREADS` override:
/// `Ok(())` when the variable is unset or a positive integer, `Err`
/// with a usage message otherwise. The binaries (`unity-check`,
/// `unity-serve`) reject a bad override with exit code 2 — the same
/// contract as `--threads 0` — instead of silently falling back to the
/// machine default as [`ParConfig::default`] would.
pub fn validate_build_threads_env() -> Result<(), String> {
    match std::env::var("UNITY_BUILD_THREADS") {
        Err(std::env::VarError::NotPresent) => Ok(()),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("UNITY_BUILD_THREADS is not valid UTF-8".into())
        }
        Ok(s) => validate_threads_value(&s),
    }
}

impl ParConfig {
    /// A strictly sequential configuration.
    pub fn sequential() -> Self {
        ParConfig {
            threads: 1,
            sequential_cutoff: u64::MAX,
        }
    }

    /// A configuration with exactly `threads` workers and no cutoff.
    pub fn with_threads(threads: usize) -> Self {
        ParConfig {
            threads: threads.max(1),
            sequential_cutoff: 0,
        }
    }
}

/// Chunk size for [`par_find_ranges`]: big enough to amortize the atomic
/// claim and per-chunk setup (cursor decode, scratch registers), small
/// enough for prompt early exit and load balance.
pub const RANGE_CHUNK: u64 = 8 * 1024;

/// Searches `0..n` by handing contiguous **ranges** to workers: `f(lo,
/// hi)` scans `[lo, hi)` and returns a witness if it finds one. Workers
/// claim chunks in ascending order from a shared atomic counter (work
/// stealing), so skewed chunk costs balance out. The result is the
/// witness of the **lowest** chunk that has one: once a chunk reports,
/// no worker starts a chunk above it, and every chunk below it was
/// already claimed and runs to completion. When `f` returns the first
/// witness of its range, that is exactly the sequential scan's witness,
/// at any thread count. The range interface lets both engines pay
/// their per-chunk setup once: the compiled scans decode a packed
/// cursor, the reference scans clone a scratch state.
pub fn par_find_ranges<T, F>(n: u64, cfg: &ParConfig, f: F) -> Option<T>
where
    T: Send,
    F: Fn(u64, u64) -> Option<T> + Sync,
{
    if cfg.threads <= 1 || n < cfg.sequential_cutoff {
        return f(0, n);
    }
    let threads = cfg
        .threads
        .min(usize::try_from(n.div_ceil(RANGE_CHUNK)).unwrap_or(usize::MAX))
        .max(1);
    let found: Mutex<Option<(u64, T)>> = Mutex::new(None);
    // Lowest chunk start that produced a witness so far (`u64::MAX`:
    // none). Relaxed is enough: it publishes no data (the witness goes
    // through `found`'s lock), and it only ever decreases, so a stale
    // read merely scans one chunk too many.
    let lowest = AtomicU64::new(u64::MAX);
    let next = AtomicU64::new(0);
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            let f = &f;
            let found = &found;
            let lowest = &lowest;
            let next = &next;
            scope.spawn(move |_| loop {
                let lo = next.fetch_add(RANGE_CHUNK, Ordering::Relaxed);
                if lo >= n || lo > lowest.load(Ordering::Relaxed) {
                    return;
                }
                let hi = (lo + RANGE_CHUNK).min(n);
                if let Some(w) = f(lo, hi) {
                    lowest.fetch_min(lo, Ordering::Relaxed);
                    let mut best = found.lock();
                    if best.as_ref().is_none_or(|&(at, _)| lo < at) {
                        *best = Some((lo, w));
                    }
                    return;
                }
            });
        }
    })
    .expect("scan worker panicked");
    found.into_inner().map(|(_, w)| w)
}

/// Fills `out` chunk-parallel: `f(lo, chunk)` computes the elements of
/// `out[lo..lo + chunk.len()]` in place. Unlike [`par_find_ranges`]
/// this is a *total* sweep — no early exit — so it suits dense
/// per-state maps like [`TransitionSystem::sat_vec`]: the output is
/// pre-split into [`RANGE_CHUNK`]-sized windows that workers claim from
/// a shared queue (work stealing), each paying its per-chunk setup
/// (scratch registers, cursor decode) once.
///
/// [`TransitionSystem::sat_vec`]: crate::transition::TransitionSystem::sat_vec
pub fn par_fill<T, F>(out: &mut [T], cfg: &ParConfig, f: F)
where
    T: Send,
    F: Fn(u64, &mut [T]) + Sync,
{
    par_chunks(out, RANGE_CHUNK as usize, cfg, f)
}

/// [`par_fill`] with an explicit chunk size. `f(lo, chunk)` computes
/// `out[lo..lo + chunk.len()]`; every chunk except possibly the last
/// has exactly `chunk` elements. The parallel full-product builder
/// passes chunk 1 over one result slot per window of states, so each
/// worker claims a whole window; it sets a zero cutoff because the
/// slot count is far below the state count it compared with
/// `sequential_cutoff`.
pub fn par_chunks<T, F>(out: &mut [T], chunk: usize, cfg: &ParConfig, f: F)
where
    T: Send,
    F: Fn(u64, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    let n = out.len() as u64;
    if cfg.threads <= 1 || n < cfg.sequential_cutoff {
        f(0, out);
        return;
    }
    let threads = cfg
        .threads
        .min(usize::try_from(n.div_ceil(chunk as u64)).unwrap_or(usize::MAX))
        .max(1);
    // Chunks are handed out newest-first (a plain `Vec` pop); the lock
    // is held only to claim a window, never while filling it.
    let jobs: Mutex<Vec<(u64, &mut [T])>> = Mutex::new(
        out.chunks_mut(chunk)
            .enumerate()
            .map(|(i, c)| (i as u64 * chunk as u64, c))
            .collect(),
    );
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            let f = &f;
            let jobs = &jobs;
            scope.spawn(move |_| loop {
                let job = jobs.lock().pop();
                match job {
                    Some((lo, chunk)) => f(lo, chunk),
                    None => return,
                }
            });
        }
    })
    .expect("fill worker panicked");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-index search on top of the range interface, as the scan
    /// drivers use it.
    fn find<T: Send>(n: u64, cfg: &ParConfig, f: impl Fn(u64) -> Option<T> + Sync) -> Option<T> {
        par_find_ranges(n, cfg, |lo, hi| (lo..hi).find_map(&f))
    }

    #[test]
    fn finds_witness_sequential_and_parallel() {
        for cfg in [ParConfig::sequential(), ParConfig::with_threads(4)] {
            let w = find(1_000_000, &cfg, |i| (i == 777_777).then_some(i));
            assert_eq!(w, Some(777_777));
            let none = find(10_000, &cfg, |_| None::<u64>);
            assert_eq!(none, None);
        }
    }

    #[test]
    fn empty_range() {
        assert_eq!(find(0, &ParConfig::default(), Some::<u64>), None);
    }

    #[test]
    fn every_index_is_visited_exactly_once_without_witness() {
        use std::sync::atomic::AtomicU64;
        for cfg in [ParConfig::sequential(), ParConfig::with_threads(3)] {
            let visited = AtomicU64::new(0);
            let n = 100_000u64;
            let r = par_find_ranges(n, &cfg, |lo, hi| {
                visited.fetch_add(hi - lo, Ordering::Relaxed);
                None::<()>
            });
            assert!(r.is_none());
            assert_eq!(visited.load(Ordering::Relaxed), n);
        }
    }

    #[test]
    fn parallel_matches_sequential_on_randomish_predicate() {
        // Witnesses scattered over most chunks, none in the first: every
        // thread count must report the sequential scan's (lowest) one.
        let pred = |i: u64| (i >= 10_000 && i * i % 104_729 < 64).then_some(i);
        let seq = find(50_000, &ParConfig::sequential(), pred);
        assert!(seq.is_some());
        for threads in [2, 4, 8] {
            let par = find(50_000, &ParConfig::with_threads(threads), pred);
            assert_eq!(par, seq, "{threads} threads");
        }
    }

    #[test]
    fn lowest_witness_wins_when_a_higher_chunk_reports_last() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        // Chunks 0 and 1 both hold a witness and run on different
        // workers: chunk 0 returns only once chunk 1 has started, and
        // chunk 1 returns only after chunk 0 has, plus a delay. The
        // later report must not displace the lower witness.
        let wait_for = |flag: &AtomicBool| {
            let t0 = Instant::now();
            while !flag.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(5) {
                std::thread::yield_now();
            }
        };
        for threads in [2, 4, 8] {
            let one_started = AtomicBool::new(false);
            let zero_done = AtomicBool::new(false);
            let got = par_find_ranges(
                8 * RANGE_CHUNK,
                &ParConfig::with_threads(threads),
                |lo, _| match lo / RANGE_CHUNK {
                    0 => {
                        wait_for(&one_started);
                        zero_done.store(true, Ordering::SeqCst);
                        Some(lo)
                    }
                    1 => {
                        one_started.store(true, Ordering::SeqCst);
                        wait_for(&zero_done);
                        std::thread::sleep(Duration::from_millis(20));
                        Some(lo)
                    }
                    _ => None,
                },
            );
            assert_eq!(got, Some(0), "{threads} threads");
        }
    }

    #[test]
    fn par_fill_matches_sequential() {
        let n = 100_000usize;
        let mut seq = vec![0u64; n];
        par_fill(&mut seq, &ParConfig::sequential(), |lo, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (lo + k as u64) * 3 + 1;
            }
        });
        let mut par = vec![0u64; n];
        par_fill(&mut par, &ParConfig::with_threads(7), |lo, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (lo + k as u64) * 3 + 1;
            }
        });
        assert_eq!(seq, par);
        assert_eq!(par[0], 1);
        assert_eq!(par[n - 1], (n as u64 - 1) * 3 + 1);
    }

    #[test]
    fn par_fill_empty_and_tiny() {
        let mut empty: Vec<u8> = Vec::new();
        par_fill(&mut empty, &ParConfig::with_threads(4), |_, _| {
            panic!("no chunks for an empty slice")
        });
        let mut one = vec![0u8; 1];
        par_fill(&mut one, &ParConfig::with_threads(4), |lo, chunk| {
            assert_eq!(lo, 0);
            chunk[0] = 9;
        });
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn par_chunks_respects_stride() {
        let nc = 3usize;
        let mut out = vec![0u32; 999 * nc];
        par_chunks(
            &mut out,
            64 * nc,
            &ParConfig::with_threads(4),
            |lo, chunk| {
                assert_eq!(lo as usize % nc, 0, "chunk start off stride");
                assert_eq!(chunk.len() % nc, 0, "chunk length off stride");
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (lo as usize + k) as u32;
                }
            },
        );
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    #[test]
    fn workers_receive_aligned_chunks() {
        let cfg = ParConfig::with_threads(4);
        let bad = par_find_ranges(100_000, &cfg, |lo, hi| {
            (lo % RANGE_CHUNK != 0 || hi > 100_000 || lo >= hi).then_some((lo, hi))
        });
        assert_eq!(bad, None);
    }

    #[test]
    fn build_threads_values_are_validated_like_dash_dash_threads() {
        assert!(validate_threads_value("1").is_ok());
        assert!(validate_threads_value("64").is_ok());
        let zero = validate_threads_value("0").unwrap_err();
        assert!(zero.contains("at least 1"), "{zero}");
        for bad in ["", "abc", "-3", "1.5", " 2"] {
            let err = validate_threads_value(bad).unwrap_err();
            assert!(err.contains("positive integer"), "{bad}: {err}");
        }
    }
}
