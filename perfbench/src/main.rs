//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload cli_battery|serve_resubmit|compose_edit --seed N
//!           --seconds S --trace 0|1 [--root DIR] [--bin-dir DIR]
//! ```
//!
//! With `--trace 0` it drives the release binaries `unity-check` and
//! `unity-serve` and prints the end-to-end metrics; with `--trace 1` it
//! replays the same seeded inputs in-process, layer by layer, and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Any verdict
//! that disagrees with the oracle ends the run with exit code 1 and no
//! result. `perfbench/README.md` describes the workloads and metrics.

mod cli;
mod gen;
mod replay;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Metric name, value, unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The end-to-end metrics of the result line with `--trace 0`, on every
/// workload. `wall_ms_geomean`, `latency_ms_p50` and `latency_ms_p95`
/// are measured and printed too, but left out of the result: on the
/// 2-core host the benchmark was defined on, their ten-seed spread
/// outgrew the widest bound a gate may have whenever the host slowed.
const END_TO_END: &[&str] = &[
    "setup_s",
    "battery_s",
    "capacity_rps",
    "cpu_ms_per_verdict",
    "peak_rss_mb",
];

/// The per-layer metrics of the result line with `--trace 1`, on every
/// workload.
const PER_LAYER: &[&str] = &[
    "spec.ms",
    "mc.build.ms",
    "mc.build.states",
    "mc.build.transitions",
    "mc.build.steals",
    "mc.build.cross_shard_ratio",
    "mc.pred.ms",
    "mc.pred.edges",
    "mc.safety.ms",
    "mc.safety.states",
    "mc.leadsto.ms",
    "mc.leadsto.scanned_states",
    "mc.leadsto.pred_edges",
    "mc.leadsto.worklist_pushes",
    "symbolic.ms",
    "symbolic.peak_nodes",
    "symbolic.cache_hit_ratio",
    "symbolic.sift_swaps",
    "symbolic.fallback_ratio",
    "ag.ms",
    "ag.obligations",
    "ag.component_checks",
    "ag.cert_hit_ratio",
    "ag.product_fallback_ratio",
    "report.ms",
    "report.bytes",
    "serve.store.load_ms",
    "serve.store.save_ms",
    "serve.store.cert_load_ms",
    "serve.store.cert_save_ms",
    "serve.store.hit_ratio",
    "serve.store.bytes_written",
    "serve.journal.append_ms",
    "serve.service.ms",
    "serve.service.shed_ratio",
    "serve.http.ms",
    "process.ms",
    "loadgen.lag_ms_p95",
    "trace.coverage",
    "trace.overhead",
    "trace.unattributed_ms",
    "trace.request_ms",
    "mix.resubmit_share",
    "mix.check_edit_share",
    "mix.program_edit_share",
    "mix.refuted_share",
    "mix.distinct_programs",
];

/// `serve_resubmit`: open-loop Poisson rate per second, frozen when the
/// benchmark was defined at about a quarter of the capacity it measured
/// (~190/s on 2 cores). At half, the host's slow spells built backlogs
/// that made the latency figures too unsteady to gate on.
const SERVE_RATE: f64 = 50.0;

/// `compose_edit`: likewise (~280/s measured).
const COMPOSE_RATE: f64 = 35.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    bin_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload cli_battery|serve_resubmit|compose_edit \
                     --seed N --seconds S --trace 0|1 [--root DIR] [--bin-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut root = PathBuf::from(".");
    let mut bin_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--root" => root = PathBuf::from(value),
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`; {USAGE}")),
        }
    }
    let workload = workload.ok_or(USAGE)?;
    if !["cli_battery", "serve_resubmit", "compose_edit"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`; {USAGE}"));
    }
    let bin_dir = bin_dir.unwrap_or_else(|| root.join(".bench_build/release"));
    Ok(Args {
        workload,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        trace: trace.ok_or(USAGE)?,
        root,
        bin_dir,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let out = args.root.join(".bench_out");
    let work = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = measure(&args, &out, &work);
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, attempted, failed) = result?;

    for &(name, value, unit) in &metrics {
        println!("metric {name} = {value:.6} {unit}");
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut body = Vec::new();
    for &name in names {
        let &(_, value, unit) = metrics
            .iter()
            .find(|m| m.0 == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "fail_ratio = {:.6} ({failed} of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

fn measure(args: &Args, out: &Path, work: &Path) -> Result<(Metrics, u64, u64), String> {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance: {}", sys::provenance(&args.root));
    let check = args.bin_dir.join("unity-check");
    let daemon = args.bin_dir.join("unity-serve");
    for bin in [&check, &daemon] {
        if !bin.is_file() {
            return Err(format!(
                "{} is missing: build the release binaries first",
                bin.display()
            ));
        }
    }
    let trace_file = out.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let rate = match args.workload.as_str() {
        "serve_resubmit" => SERVE_RATE,
        "compose_edit" => COMPOSE_RATE,
        _ => {
            return if args.trace {
                replay::cli(&args.root, &check, work, args.seed, &trace_file)
            } else {
                cli::run(&args.root, &check, work, args.seed, args.seconds)
            };
        }
    };
    let n = serve::stream_len(rate, args.seconds);
    let schedule = if args.workload == "serve_resubmit" {
        gen::serve_schedule(args.seed, n, rate)
    } else {
        gen::compose_schedule(args.seed, n, rate)
    };
    println!(
        "inputs: {} pre-warm + {} stream requests, digest {}",
        schedule.prewarm.len(),
        schedule.stream.len(),
        schedule.digest()
    );
    let (metrics, attempted, failed, lag, shed) =
        serve::run(&daemon, work, &schedule, rate, args.seconds)?;
    if !args.trace {
        return Ok((metrics, attempted, failed));
    }
    let shed_ratio = shed as f64 / attempted.max(1) as f64;
    let m = replay::serve(&daemon, work, &schedule, &lag, shed_ratio, &trace_file)?;
    Ok((m, attempted, failed))
}
