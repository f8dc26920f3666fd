//! `serve_resubmit` and `compose_edit`: one `unity-serve` daemon over
//! loopback, driven by a single generator process with at most `nproc`
//! connection threads — an open loop at a fixed Poisson rate, then a
//! closed loop that measures capacity.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use unity_serve::http::{request_with, ClientOptions};
use unity_serve::{CacheInfo, CacheState, StatusResponse, VerifyRequest, VerifyResponse};

use crate::gen::{Kind, Request, Schedule};
use crate::stats;
use crate::sys;
use crate::Metrics;

/// A running daemon.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Starts `unity-serve` with default flags on `data_dir` and waits
    /// for its listening line. `failpoints` sets `UNITY_FAILPOINTS`.
    pub fn spawn(bin: &Path, data_dir: &Path, failpoints: Option<&str>) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--data-dir")
            .arg(data_dir)
            .args(["--addr", "127.0.0.1:0"])
            .env_remove("UNITY_BUILD_THREADS")
            .env_remove("UNITY_FAILPOINTS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        match failpoints {
            Some(schedule) => cmd.env("UNITY_FAILPOINTS", schedule).stderr(Stdio::piped()),
            None => cmd.stderr(Stdio::null()),
        };
        let mut child = cmd.spawn().map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Ok(Daemon { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "unity-serve did not report a listening address (got `{}`)",
                    line.trim()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful stop (SIGTERM drains), then waits; returns its stderr
    /// when that was captured.
    pub fn stop(mut self) -> String {
        sys::signal(self.child.id(), sys::SIGTERM);
        let mut err = String::new();
        if let Some(mut e) = self.child.stderr.take() {
            let _ = e.read_to_string(&mut err);
        }
        let _ = self.child.wait();
        err
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on early exits; `stop` consumes the daemon.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Refuses a daemon built with fault injection compiled in: such a
/// binary announces the armed schedule on start-up.
pub fn refuse_failpoint_build(bin: &Path, data_dir: &Path) -> Result<(), String> {
    let daemon = Daemon::spawn(bin, data_dir, Some("perfbench.probe=off"))?;
    let stderr = daemon.stop();
    let _ = std::fs::remove_dir_all(data_dir);
    if stderr.contains("failpoint(s) armed") {
        return Err(format!(
            "{} arms failpoints (a test build); build it with `cargo build --release`",
            bin.display()
        ));
    }
    Ok(())
}

/// The wire request for one generated submission.
pub fn wire(r: &Request) -> VerifyRequest {
    let mut req = VerifyRequest::new(r.case.src.clone());
    req.compositional = r.compositional;
    req
}

/// Checks a response against the request's expected verdicts, and a
/// compositional one against the promise that the product was never
/// opened.
pub fn check_response(r: &Request, resp: &VerifyResponse) -> Result<(), String> {
    let got: Vec<(String, bool)> = resp
        .report
        .checks
        .iter()
        .map(|c| (c.name.clone(), c.verdict.passed()))
        .collect();
    if got != r.case.expect {
        return Err(format!(
            "{} request: verdicts {got:?}, oracle says {:?}",
            r.kind.label(),
            r.case.expect
        ));
    }
    if r.compositional && resp.cache.ts_reachable != CacheState::Unused {
        return Err(format!(
            "compositional request opened the product: {:?}",
            resp.cache
        ));
    }
    Ok(())
}

/// What one HTTP submission came back with.
#[derive(Debug, Clone)]
pub enum Reply {
    Ok(CacheInfo),
    /// Transport error, non-200 or 503: no verdict.
    Failed {
        shed: bool,
    },
}

/// Submits `r` and validates the verdicts; an oracle mismatch is an
/// error, a transport failure or refusal is a [`Reply::Failed`].
pub fn submit(addr: &str, r: &Request) -> Result<Reply, String> {
    let body = wire(r).to_json();
    let reply = match request_with(
        addr,
        "POST",
        "/verify",
        Some(&body),
        &ClientOptions::default(),
    ) {
        Ok(reply) => reply,
        Err(_) => return Ok(Reply::Failed { shed: false }),
    };
    if reply.status != 200 {
        return Ok(Reply::Failed {
            shed: reply.status == 503,
        });
    }
    let resp =
        VerifyResponse::from_json(&reply.body).map_err(|e| format!("malformed response: {e}"))?;
    check_response(r, &resp)?;
    Ok(Reply::Ok(resp.cache))
}

/// One request of the timed phases.
#[derive(Debug, Clone)]
struct Sample {
    kind: Kind,
    /// Seconds from phase start: when it was due, sent, answered.
    due: f64,
    sent: f64,
    done: f64,
    reply: Reply,
}

/// For each request, the index of the previous request to the same
/// program slot (`usize::MAX` for the first).
fn previous_in_slot(stream: &[Request]) -> Vec<usize> {
    let mut last = std::collections::HashMap::new();
    stream
        .iter()
        .enumerate()
        .map(|(i, r)| last.insert(r.slot, i).unwrap_or(usize::MAX))
        .collect()
}

/// Sends `stream[i]` for every index the shared counter hands out, from
/// `conns` threads. Open loop: each request waits for its due time (and
/// is timed from it); closed loop: due = sent.
///
/// Each program slot is one client that waits for its previous reply
/// before it sends again, so two requests for one program are never in
/// flight together. (Two concurrent saves of the same artifact collide
/// on one temporary file name in the store and push the daemon into
/// degraded mode; the benchmark measures the daemon's healthy path.)
fn drive(
    addr: &str,
    stream: &[Request],
    next: &AtomicUsize,
    conns: usize,
    due_at: Option<&[f64]>,
    end: f64,
    t0: Instant,
) -> Result<Vec<Sample>, String> {
    let prev = previous_in_slot(stream);
    // Requests before this phase's first one were answered (or never
    // sent) by an earlier phase.
    let first = next.load(Ordering::SeqCst);
    let answered = (
        Mutex::new((0..stream.len()).map(|i| i < first).collect::<Vec<bool>>()),
        Condvar::new(),
    );
    let mark = |i: usize| {
        let (lock, cv) = &answered;
        lock.lock().expect("answered")[i] = true;
        cv.notify_all();
    };
    let samples = Mutex::new(Vec::new());
    let error = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= stream.len() {
                    break;
                }
                let now = t0.elapsed().as_secs_f64();
                let due = due_at.map_or(now, |d| d[i]);
                if due >= end || now >= end || error.lock().expect("error slot").is_some() {
                    // Release any later request of this slot waiting on it.
                    mark(i);
                    break;
                }
                if due > now {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                }
                if let Some(&p) = prev.get(i).filter(|&&p| p != usize::MAX) {
                    let (lock, cv) = &answered;
                    let mut done = lock.lock().expect("answered");
                    // The earlier request was handed out first, so it is
                    // in flight or done; a failed one is marked too.
                    while !done[p] {
                        done = cv.wait(done).expect("answered");
                    }
                }
                let sent = t0.elapsed().as_secs_f64();
                let result = submit(addr, &stream[i]);
                mark(i);
                match result {
                    Ok(reply) => samples.lock().expect("samples").push(Sample {
                        kind: stream[i].kind,
                        due,
                        sent,
                        done: t0.elapsed().as_secs_f64(),
                        reply,
                    }),
                    Err(e) => {
                        *error.lock().expect("error slot") = Some(e);
                        break;
                    }
                }
            });
        }
    });
    if let Some(e) = error.into_inner().expect("error slot") {
        return Err(e);
    }
    Ok(samples.into_inner().expect("samples"))
}

/// Fails when the daemon has left its healthy path: a degraded daemon
/// answers without persisting, which is a different program to measure.
pub fn require_healthy(addr: &str) -> Result<(), String> {
    let reply = request_with(addr, "GET", "/status", None, &ClientOptions::default())?;
    let status = StatusResponse::from_json(&reply.body).map_err(|e| format!("status: {e}"))?;
    if status.degraded {
        return Err(format!(
            "unity-serve entered degraded mode: {}",
            status.degraded_reason.unwrap_or_default()
        ));
    }
    Ok(())
}

/// Share of each measurement cycle spent in the open loop; the rest
/// measures capacity.
const OPEN_SHARE: f64 = 0.5;

/// Measurement cycles per run. Each cycle runs an open-loop phase and
/// then a closed-loop phase; per-cycle figures are reported as their
/// median over the cycles, so a slow spell of the host moves one cycle,
/// not the result.
const CYCLES: usize = 5;

/// Requests to generate for a run: the open loop's expected count with
/// head-room, plus a generous closed-loop allowance.
pub fn stream_len(rate: f64, seconds: f64) -> usize {
    let open = rate * seconds * OPEN_SHARE;
    let closed = 1000.0 * seconds * (1.0 - OPEN_SHARE);
    (open * 1.5 + closed) as usize + 50
}

/// Spawns a daemon on a fresh data dir and pre-warms its store.
fn set_up(bin: &Path, dir: &Path, schedule: &Schedule) -> Result<(Daemon, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin, dir, None)?;
    for r in &schedule.prewarm {
        if !matches!(submit(&daemon.addr, r)?, Reply::Ok(_)) {
            return Err("pre-warm submission failed".into());
        }
    }
    Ok((daemon, t0.elapsed().as_secs_f64()))
}

/// One cycle's samples and the daemon CPU it took.
struct Cycle {
    open: Vec<Sample>,
    closed: Vec<Sample>,
    closed_s: f64,
    cpu_ms: f64,
}

impl Cycle {
    fn answered(&self) -> usize {
        self.open
            .iter()
            .chain(&self.closed)
            .filter(|s| matches!(s.reply, Reply::Ok(_)))
            .count()
    }
}

/// Open-loop latency from the due time; a failed request misses every
/// bound.
fn latencies(open: &[Sample], seconds: f64) -> Vec<f64> {
    open.iter()
        .map(|s| match s.reply {
            Reply::Ok(_) => (s.done - s.due) * 1e3,
            Reply::Failed { .. } => seconds * 1e3,
        })
        .collect()
}

/// Geometric mean over request kinds of each kind's median service time
/// (sent to answered).
fn kind_medians(open: &[Sample]) -> Vec<f64> {
    let mut kinds: Vec<Kind> = open.iter().map(|s| s.kind).collect();
    kinds.sort();
    kinds.dedup();
    kinds
        .iter()
        .map(|&k| {
            let xs: Vec<f64> = open
                .iter()
                .filter(|s| s.kind == k && matches!(s.reply, Reply::Ok(_)))
                .map(|s| (s.done - s.sent) * 1e3)
                .collect();
            stats::median(&xs)
        })
        .filter(|&m| m > 0.0)
        .collect()
}

/// The end-to-end daemon run. Returns the metrics, `(attempted,
/// failed)`, the open-loop generator lag samples (ms), and the number
/// of `503` refusals.
pub fn run(
    bin: &Path,
    work: &Path,
    schedule: &Schedule,
    rate: f64,
    seconds: f64,
) -> Result<(Metrics, u64, u64, Vec<f64>, u64), String> {
    refuse_failpoint_build(bin, &work.join("probe"))?;
    // Each set-up is a fresh daemon and store; the last one serves the
    // timed phases.
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0.. {
        if !crate::cli::more_setups(&setups) {
            break;
        }
        if let Some(d) = daemon.take() {
            let _ = Daemon::stop(d);
            let _ = std::fs::remove_dir_all(work.join(format!("data{}", k - 1)));
        }
        let (d, secs) = set_up(bin, &work.join(format!("data{k}")), schedule)?;
        setups.push(secs);
        daemon = Some(d);
    }
    let daemon = daemon.expect("set-up ran");
    let conns = sys::nproc();
    let pid = daemon.pid();
    let cpu_now = || sys::proc_cpu_ms(pid).ok_or("cannot read the daemon's /proc stat");

    let cycle_s = seconds / CYCLES as f64;
    let open_s = cycle_s * OPEN_SHARE;
    let closed_s = cycle_s - open_s;
    let mut next = 0;
    let mut cycles = Vec::with_capacity(CYCLES);
    for _ in 0..CYCLES {
        let cpu0 = cpu_now()?;
        // Due times restart with the cycle; the request stream does not.
        let mut due = vec![0.0; schedule.stream.len()];
        let mut t = 0.0;
        for (i, r) in schedule.stream.iter().enumerate().skip(next) {
            t += r.gap_s;
            due[i] = t;
        }
        let counter = AtomicUsize::new(next);
        let open = drive(
            &daemon.addr,
            &schedule.stream,
            &counter,
            conns,
            Some(&due),
            open_s,
            Instant::now(),
        )?;
        next += open.len();
        let counter = AtomicUsize::new(next);
        let closed = drive(
            &daemon.addr,
            &schedule.stream,
            &counter,
            conns,
            None,
            closed_s,
            Instant::now(),
        )?;
        next += closed.len();
        cycles.push(Cycle {
            open,
            closed,
            closed_s,
            cpu_ms: cpu_now()? - cpu0,
        });
    }
    require_healthy(&daemon.addr)?;
    let peak_rss = sys::proc_peak_rss_mb(pid).ok_or("cannot read the daemon's VmHWM")?;
    let _ = daemon.stop();

    let open: Vec<Sample> = cycles.iter().flat_map(|c| c.open.iter().cloned()).collect();
    let all: Vec<&Sample> = cycles
        .iter()
        .flat_map(|c| c.open.iter().chain(&c.closed))
        .collect();
    let attempted = all.len() as u64;
    let answered = all
        .iter()
        .filter(|s| matches!(s.reply, Reply::Ok(_)))
        .count() as u64;
    let shed = all
        .iter()
        .filter(|s| matches!(s.reply, Reply::Failed { shed: true }))
        .count() as u64;
    if answered == 0
        || cycles
            .iter()
            .any(|c| c.open.is_empty() || c.answered() == 0)
    {
        return Err("a measurement cycle got no answer".into());
    }
    let lag: Vec<f64> = open.iter().map(|s| (s.sent - s.due) * 1e3).collect();
    let tail = stats::tail(&latencies(&open, seconds), 95)
        .ok_or("too few open-loop samples for a tail percentile")?;
    let per_cycle =
        |f: &dyn Fn(&Cycle) -> f64| stats::median(&cycles.iter().map(f).collect::<Vec<_>>());
    let geomean = per_cycle(&|c| stats::geomean(&kind_medians(&c.open)));
    let battery = per_cycle(&|c| kind_medians(&c.open).iter().sum::<f64>() / 1e3);
    let p50 = per_cycle(&|c| stats::median(&latencies(&c.open, seconds)));
    let capacity = per_cycle(&|c| {
        c.closed
            .iter()
            .filter(|s| matches!(s.reply, Reply::Ok(_)) && s.done <= c.closed_s)
            .count() as f64
            / c.closed_s
    });
    let cpu = per_cycle(&|c| c.cpu_ms / c.answered() as f64);

    report_shares(&open, &schedule.prewarm, &schedule.stream[..next]);
    println!(
        "latency_ms_p95 is p{} over {} samples; {CYCLES} cycles of {:.1} s open loop at {:.1}/s \
         ({} requests) and {:.1} s closed loop on {conns} connections ({} requests)",
        tail.percentile,
        tail.samples,
        open_s,
        rate,
        open.len(),
        closed_s,
        attempted as usize - open.len(),
    );
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
        ("wall_ms_geomean", geomean, "ms"),
        ("battery_s", battery, "s"),
        ("latency_ms_p50", p50, "ms"),
        ("latency_ms_p95", tail.value, "ms"),
        ("capacity_rps", capacity, "1/s"),
        ("cpu_ms_per_verdict", cpu, "ms"),
        ("peak_rss_mb", peak_rss, "MB"),
    ];
    Ok((metrics, attempted, attempted - answered, lag, shed))
}

/// Prints the traffic shares later claims may rely on.
fn report_shares(open: &[Sample], prewarm: &[Request], sent: &[Request]) {
    let n = open.len().max(1) as f64;
    let share = |k: Kind| open.iter().filter(|s| s.kind == k).count() as f64 / n;
    let (mut hit, mut miss, mut unused, mut cert_hits, mut cert_all) = (0, 0, 0, 0, 0);
    for s in open {
        if let Reply::Ok(c) = &s.reply {
            match c.ts_reachable {
                CacheState::Hit => hit += 1,
                CacheState::Miss => miss += 1,
                CacheState::Unused => unused += 1,
            }
            cert_hits += c.cert_hits;
            cert_all += c.cert_hits + c.cert_misses;
        }
    }
    let mut programs: Vec<(usize, u64)> = prewarm
        .iter()
        .chain(sent)
        .map(|r| (r.slot, r.program))
        .collect();
    programs.sort_unstable();
    programs.dedup();
    println!(
        "shares: resubmit {:.3} check_edit {:.3} program_edit {:.3} component_edit {:.3}; \
         store ts hit/miss/unused {hit}/{miss}/{unused}; cert hits {cert_hits}/{cert_all}; \
         refuted checks 0; distinct programs {} (store memory layer holds {})",
        share(Kind::Resubmit),
        share(Kind::CheckEdit),
        share(Kind::ProgramEdit),
        share(Kind::ComponentEdit),
        programs.len(),
        unity_serve::store::MEM_CACHE_SPECS,
    );
}
