//! `cli_battery`: the batch user's path from `.unity` bytes to an exit
//! code, one `unity-check` process at a time over a seeded corpus.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::gen::{self, Digest, Expect, Rng};
use crate::stats;
use crate::sys;
use crate::Metrics;

/// The hand-written verdict oracle for the shipped specs: every check,
/// in file order, and whether it must pass.
pub const SHIPPED: [(&str, &[(&str, bool)]); 5] = [
    (
        "toy",
        &[
            ("conservation", true),
            ("weakened0", true),
            ("saturation", true),
        ],
    ),
    // Counter1 bumps its local counter without the shared total: the
    // conservation law breaks and the total can never reach 4.
    (
        "broken",
        &[
            ("conservation", false),
            ("weakened0", true),
            ("saturation", false),
        ],
    ),
    (
        "priority_ring3",
        &[
            ("excl01", true),
            ("excl12", true),
            ("excl02", true),
            ("acyclic", true),
            ("live0", true),
            ("live1", true),
            ("live2", true),
        ],
    ),
    ("priority_ring16", &[("live0", true)]),
    (
        "stabilize_ring3",
        &[
            ("pigeonhole", true),
            ("closure", true),
            ("convergence", true),
        ],
    ),
];

/// How `unity-check` is asked to decide the file, spelled as a user
/// types it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Explicit,
    Symbolic,
    Compositional,
}

impl Mode {
    pub const ALL: [Mode; 3] = [Mode::Explicit, Mode::Symbolic, Mode::Compositional];

    pub fn args(self) -> &'static [&'static str] {
        match self {
            Mode::Explicit => &["--engine", "explicit"],
            Mode::Symbolic => &["--engine", "symbolic"],
            Mode::Compositional => &["--compositional"],
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Mode::Explicit => "explicit",
            Mode::Symbolic => "symbolic",
            Mode::Compositional => "compositional",
        }
    }
}

/// One corpus file under one mode.
#[derive(Debug, Clone)]
pub struct Entry {
    pub label: String,
    pub file: PathBuf,
    pub mode: Mode,
    pub expect: Vec<Expect>,
}

/// Writes the generated corpus into `dir` and returns every entry (each
/// file under each mode; every file has several components) plus the
/// digest of all file contents.
pub fn corpus(root: &Path, seed: u64, dir: &Path) -> Result<(Vec<Entry>, String), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<(String, PathBuf, Vec<Expect>)> = Vec::new();
    let mut digest = Digest::default();
    for (name, checks) in SHIPPED {
        let path = root.join("examples/specs").join(format!("{name}.unity"));
        let src = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        digest.add(&src);
        let expect = checks.iter().map(|&(c, p)| (c.to_string(), p)).collect();
        files.push((name.to_string(), path, expect));
    }
    for case in gen::cli_corpus(seed) {
        let path = dir.join(format!("{}.unity", case.name));
        std::fs::write(&path, &case.src).map_err(|e| format!("{}: {e}", path.display()))?;
        digest.add(case.src.as_bytes());
        files.push((case.name, path, case.expect));
    }
    let entries = files
        .into_iter()
        .flat_map(|(name, path, expect)| {
            Mode::ALL.map(|mode| Entry {
                label: format!("{name}/{}", mode.label()),
                file: path.clone(),
                mode,
                expect: expect.clone(),
            })
        })
        .collect();
    Ok((entries, digest.hex()))
}

/// One `unity-check` invocation.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub wall_ms: f64,
    pub cpu_ms: f64,
    /// Exit 2 or killed by a signal: no verdict came back.
    pub failed: bool,
}

/// Compares `unity-check`'s printed verdict lines with the oracle.
pub fn check_verdicts(label: &str, stdout: &str, expect: &[Expect]) -> Result<(), String> {
    let got: Vec<(String, bool)> = stdout
        .lines()
        .filter_map(|l| {
            let (pass, rest) = match l.split_once(' ') {
                Some(("PASS", rest)) => (true, rest),
                Some(("FAIL", rest)) => (false, rest),
                _ => return None,
            };
            Some((rest.split(':').next()?.to_string(), pass))
        })
        .collect();
    if got != expect {
        return Err(format!("{label}: verdicts {got:?}, oracle says {expect:?}"));
    }
    Ok(())
}

/// Runs one entry as a process and checks its verdicts and exit code.
/// A verdict that disagrees with the oracle is an error, never a sample.
pub fn run_entry(bin: &Path, e: &Entry) -> Result<Run, String> {
    let before = sys::children_usage();
    let t0 = Instant::now();
    let out = Command::new(bin)
        .arg(&e.file)
        .args(e.mode.args())
        .env_remove("UNITY_BUILD_THREADS")
        .env_remove("UNITY_FAILPOINTS")
        .stdin(Stdio::null())
        .output()
        .map_err(|err| format!("{}: {err}", bin.display()))?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = sys::children_usage().cpu_ms - before.cpu_ms;
    let failed = !matches!(out.status.code(), Some(0) | Some(1));
    if !failed {
        check_verdicts(&e.label, &String::from_utf8_lossy(&out.stdout), &e.expect)?;
        let want = if e.expect.iter().all(|(_, p)| *p) {
            0
        } else {
            1
        };
        if out.status.code() != Some(want) {
            return Err(format!(
                "{}: exit {:?}, oracle says {want}",
                e.label,
                out.status.code()
            ));
        }
    }
    Ok(Run {
        wall_ms,
        cpu_ms,
        failed,
    })
}

/// A run sets up at least this many times, and until at least
/// [`SETUP_MIN_SECONDS`] have gone into set-up; `setup_s` is the median.
/// A cheap set-up thus repeats more often, which keeps its median steady.
pub const SETUPS: usize = 5;

/// See [`SETUPS`].
pub const SETUP_MIN_SECONDS: f64 = 1.0;

/// Whether another set-up is due after `setups` (seconds each).
pub fn more_setups(setups: &[f64]) -> bool {
    setups.len() < SETUPS || setups.iter().sum::<f64>() < SETUP_MIN_SECONDS
}

/// Samples per entry from the timed loop, plus per-round totals.
pub struct Battery {
    pub entries: Vec<Entry>,
    pub runs: Vec<Vec<Run>>,
    /// Per round: wall seconds and child CPU milliseconds.
    pub rounds: Vec<(f64, f64)>,
}

impl Battery {
    /// Each entry's median wall time, in entry order.
    pub fn medians(&self) -> Vec<f64> {
        self.runs
            .iter()
            .map(|rs| stats::median(&rs.iter().map(|r| r.wall_ms).collect::<Vec<_>>()))
            .collect()
    }
}

/// The timed closed loop: whole rounds over every entry, each round in
/// seeded order, until `seconds` have passed.
pub fn timed_loop(
    bin: &Path,
    entries: Vec<Entry>,
    seed: u64,
    seconds: f64,
) -> Result<Battery, String> {
    let mut rng = Rng::new(seed ^ 0x6261_7474);
    let mut runs = vec![Vec::new(); entries.len()];
    let mut rounds = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let mut order: Vec<usize> = (0..entries.len()).collect();
        rng.shuffle(&mut order);
        let (start, mut cpu) = (Instant::now(), 0.0);
        for k in order {
            let run = run_entry(bin, &entries[k])?;
            cpu += run.cpu_ms;
            runs[k].push(run);
        }
        rounds.push((start.elapsed().as_secs_f64(), cpu));
    }
    Ok(Battery {
        entries,
        runs,
        rounds,
    })
}

/// The end-to-end `cli_battery` run. Returns the metrics plus
/// `(attempted, failed)`.
pub fn run(
    root: &Path,
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<(Metrics, u64, u64), String> {
    // Set-up: write the corpus, then one untimed pass that also settles
    // the page cache for the binary and the files.
    let mut setups = Vec::new();
    let mut entries = Vec::new();
    for k in 0.. {
        if !more_setups(&setups) {
            break;
        }
        let t0 = Instant::now();
        let (e, digest) = corpus(root, seed, &work.join(format!("corpus{k}")))?;
        for entry in &e {
            run_entry(bin, entry)?;
        }
        setups.push(t0.elapsed().as_secs_f64());
        if k == 0 {
            println!("inputs: {} entries, digest {digest}", e.len());
        }
        entries = e;
    }
    let battery = timed_loop(bin, entries, seed, seconds)?;
    let all: Vec<Run> = battery.runs.iter().flatten().copied().collect();
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|r| r.failed).count() as u64;
    let medians = battery.medians();
    let per_round = battery.entries.len() as f64;
    // A run with no verdict misses every latency bound.
    let latencies: Vec<f64> = all
        .iter()
        .map(|r| if r.failed { seconds * 1e3 } else { r.wall_ms })
        .collect();
    let tail = stats::tail(&latencies, 95).ok_or("too few samples for a tail percentile")?;
    let refuted: usize = battery
        .entries
        .iter()
        .map(|e| e.expect.iter().filter(|(_, p)| !p).count())
        .sum();
    let checks: usize = battery.entries.iter().map(|e| e.expect.len()).sum();
    println!(
        "shares: refuted checks {refuted}/{checks} = {:.3}; distinct programs {}; rounds {}",
        refuted as f64 / checks as f64,
        battery.entries.len() / Mode::ALL.len(),
        battery.runs.iter().map(Vec::len).min().unwrap_or(0),
    );
    println!(
        "latency_ms_p95 is p{} over {} samples",
        tail.percentile, tail.samples
    );
    let mut by_entry: Vec<String> = battery
        .entries
        .iter()
        .zip(&medians)
        .map(|(e, m)| format!("{}={m:.1}", e.label))
        .collect();
    by_entry.sort();
    println!("entry median wall ms: {}", by_entry.join(" "));
    println!(
        "setup_s samples: {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let metrics = vec![
        ("setup_s", stats::median(&setups), "s"),
        ("wall_ms_geomean", stats::geomean(&medians), "ms"),
        ("battery_s", medians.iter().sum::<f64>() / 1e3, "s"),
        ("latency_ms_p50", stats::median(&latencies), "ms"),
        ("latency_ms_p95", tail.value, "ms"),
        // Per-round rates, then their median: a slow spell of the host
        // moves one round, not the result.
        (
            "capacity_rps",
            stats::median(
                &battery
                    .rounds
                    .iter()
                    .map(|r| per_round / r.0)
                    .collect::<Vec<_>>(),
            ),
            "1/s",
        ),
        (
            "cpu_ms_per_verdict",
            stats::median(
                &battery
                    .rounds
                    .iter()
                    .map(|r| r.1 / per_round)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        ("peak_rss_mb", sys::children_usage().max_rss_mb, "MB"),
    ];
    Ok((metrics, attempted, failed))
}
