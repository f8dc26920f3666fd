//! `unity-check` — check a `.unity` specification file.
//!
//! ```text
//! unity-check FILE [--engine explicit|symbolic|reference]
//!             [--order declaration|static|sift] [--stats]
//!             [--universe reachable|all] [--compositional]
//!             [--threads N] [--sim STEPS] [--seed N]
//!             [--serve HOST:PORT] [--trace FILE] [--json FILE]
//!             [--list] [--quiet] [--conserve] [--synthesize]
//!             [--mutate] [--help] [--version]
//! ```
//!
//! Parses the file's `program` blocks, composes them (vocabularies merged
//! by name, locality and init-consistency enforced), then decides every
//! `spec` check with the exact model checker: safety properties with the
//! paper's inductive all-states semantics, `leadsto` exactly under weak
//! fairness over the chosen universe. Exit code: `0` if all checks pass,
//! `1` if any fails, `2` on usage/parse errors (unknown flags included).
//!
//! All checks run in **one verifier session** (`unity_mc::Verifier`):
//! the compiled pipeline, transition system + reachable set, and
//! symbolic engine are built at most once per run and shared by every
//! check, `--stats`, `--synthesize` and the simulation monitors.
//!
//! `--json FILE` writes the whole run as a machine-readable
//! `unity_mc::Report` (stable schema: per-check verdict, decoded
//! counterexample witness, deciding engine, cost counters, wall times,
//! simulation monitor outcomes). Exit codes are unchanged by `--json`.
//!
//! `--engine` selects the evaluation engine for every check:
//! `explicit` (default — the compiled bytecode/packed-state scans),
//! `symbolic` (the BDD set-based engine; safety checks never enumerate
//! states, `leadsto` falls back to the explicit engine), or `reference`
//! (the tree-walking evaluator, the semantics of record). All engines
//! return identical verdicts — pinned by the differential test suites.
//!
//! `--order` picks the symbolic engine's BDD variable-order strategy:
//! `declaration` (the packed-layout order, an accident of how the spec
//! was written), `static` (derived from the program's variable-
//! dependency graph at construction), or `sift` (static start plus
//! dynamic Rudell sifting when the arena grows — the default). The
//! explicit engines ignore it.
//!
//! `--threads N` sets the worker count for the chunk-parallel paths:
//! validity and safety scans, predicate sweeps and the `--universe all`
//! transition-system fill. The reachable transition system is always
//! explored by one thread, from initial states enumerated per init
//! group, and the predecessor index is always inverted by one thread.
//! Output, counterexamples included, is the same at every thread count.
//! The default is the machine's available parallelism, or the
//! `UNITY_BUILD_THREADS` environment variable when set.
//!
//! `--stats` prints engine counters after the checks, for the work the
//! checks did and never more: the states and transitions of the
//! transition system plus its build's wall time when a check built
//! one, otherwise the states the safety scans counted; live/peak BDD
//! nodes, apply-cache hit rate, sift passes/swaps and GC activity for
//! the symbolic engine, with the reachable set only when a check
//! computed it. With `leadsto` checks it adds one `STATS leadsto:` line
//! summed over them: the `¬q` states each check's SCC pass visited
//! (those reachable from `p ∧ ¬q`), and the predecessor edges and
//! worklist pushes of the backward walk that only a refuted check runs.
//! Adding `--stats` never changes what a run computes.
//!
//! `--compositional` verifies assume-guarantee style instead of on the
//! flat product: each obligation discharges in component state spaces
//! (kernel-validated `lift-universal` / `lift-existential`, or the
//! cone-of-influence slice for `leadsto`), with the product space built
//! only for the residue. Verdicts and witnesses are identical to a flat
//! run by construction; each `PASS` line names the rule that closed the
//! obligation, `--json` reports carry the same provenance
//! machine-readably, and `--stats` prints the discharge/certificate
//! counters. Local analyses that require the flat session
//! (`--synthesize`, `--mutate`) do not combine with it. With `--serve`
//! the flag is forwarded: the daemon verifies compositionally and
//! answers component obligations from its persistent certificate cache.
//!
//! `--sim N` additionally runs an `N`-step weakly-fair simulation
//! (aged-lottery scheduler) with every `invariant` check attached as a
//! runtime monitor; `--trace FILE` dumps the simulated trace as JSON.
//!
//! Analysis modes (informational; they do not affect the exit code):
//!
//! * `--conserve` prints the basis of linear combinations conserved by
//!   every command (the mechanical §3.3 bridge) with derived invariants;
//! * `--synthesize` attempts an ensures-chain derivation for every
//!   `leadsto` check and re-verifies it in the proof kernel;
//! * `--mutate` runs a mutation audit of the file's own `spec` checks
//!   and reports the kill ratio and any survivors (spec gaps).
//!
//! `--serve HOST:PORT` delegates the run to a `unity-serve` daemon
//! instead of verifying locally: the file is submitted as-is over
//! `POST /verify` (with `--engine`/`--universe` forwarded), the
//! returned report prints like a local run plus a `CACHE` line showing
//! which session artifacts the daemon served from its store, and the
//! exit code contract is unchanged. Transient failures — connect/read
//! errors and `503` load shedding — are retried a bounded number of
//! times with exponential backoff (honoring the server's `Retry-After`
//! hint); every resubmission carries the same idempotency key, so a
//! request that committed just as its reply was lost replays the
//! recorded verdict instead of re-verifying. The local-analysis flags
//! (`--stats`, `--sim`, `--trace`, `--list`, `--conserve`,
//! `--synthesize`, `--mutate`, `--order`, `--threads`) do not apply to
//! a remote session and are rejected in combination with `--serve`.

use std::process::ExitCode;

use unity_core::conserve::{conserved_linear_combinations, invariant_from_combo};
use unity_core::properties::Property;
use unity_mc::prelude::*;
use unity_mc::spec::load_spec;
use unity_mc::synth::{synthesize_and_check_in, SynthConfig, SynthError};
use unity_mc::verifier::Outcome;
use unity_sim::prelude::*;

struct Options {
    file: String,
    engine: Engine,
    order: OrderMode,
    stats: bool,
    universe: Universe,
    compositional: bool,
    threads: Option<usize>,
    sim_steps: u64,
    seed: u64,
    serve: Option<String>,
    trace: Option<String>,
    json: Option<String>,
    list: bool,
    quiet: bool,
    conserve: bool,
    synthesize: bool,
    mutate: bool,
}

const USAGE: &str = "usage: unity-check FILE [--engine explicit|symbolic|reference] \
                     [--order declaration|static|sift] [--stats] \
                     [--universe reachable|all] [--compositional] \
                     [--threads N] [--sim STEPS] [--seed N] \
                     [--serve HOST:PORT] [--trace FILE] [--json FILE] \
                     [--list] [--quiet] [--conserve] [--synthesize] \
                     [--mutate] [--help] [--version]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut file = None;
    let mut opts = Options {
        file: String::new(),
        engine: Engine::Compiled,
        order: OrderMode::default(),
        stats: false,
        universe: Universe::Reachable,
        compositional: false,
        threads: None,
        sim_steps: 0,
        seed: 1,
        serve: None,
        trace: None,
        json: None,
        list: false,
        quiet: false,
        conserve: false,
        synthesize: false,
        mutate: false,
    };
    let mut it = args.iter();
    let mut order_given = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--engine" => {
                opts.engine = match it.next().map(String::as_str) {
                    Some("explicit") | Some("compiled") => Engine::Compiled,
                    Some("symbolic") => Engine::Symbolic,
                    Some("reference") => Engine::Reference,
                    other => return Err(format!("bad --engine {other:?}; {USAGE}")),
                }
            }
            "--order" => {
                order_given = true;
                opts.order = match it.next().map(String::as_str) {
                    Some("declaration") => OrderMode::Declaration,
                    Some("static") => OrderMode::Static,
                    Some("sift") | Some("sifting") => OrderMode::Sifting,
                    other => return Err(format!("bad --order {other:?}; {USAGE}")),
                }
            }
            "--stats" => opts.stats = true,
            "--universe" => {
                opts.universe = match it.next().map(String::as_str) {
                    Some("reachable") => Universe::Reachable,
                    Some("all") => Universe::AllStates,
                    other => return Err(format!("bad --universe {other:?}; {USAGE}")),
                }
            }
            "--compositional" => opts.compositional = true,
            "--threads" => {
                let t: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("--threads needs a count; {USAGE}"))?;
                if t == 0 {
                    return Err(format!("--threads must be at least 1; {USAGE}"));
                }
                opts.threads = Some(t);
            }
            "--sim" => {
                opts.sim_steps = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("--sim needs a step count; {USAGE}"))?;
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("--seed needs a number; {USAGE}"))?;
            }
            "--serve" => {
                opts.serve = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("--serve needs HOST:PORT; {USAGE}"))?,
                );
            }
            "--trace" => {
                opts.trace = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("--trace needs a path; {USAGE}"))?,
                );
            }
            "--json" => {
                opts.json = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("--json needs a path; {USAGE}"))?,
                );
            }
            "--list" => opts.list = true,
            "--quiet" => opts.quiet = true,
            "--conserve" => opts.conserve = true,
            "--synthesize" => opts.synthesize = true,
            "--mutate" => opts.mutate = true,
            "--help" | "-h" => {
                // Asked-for help goes to stdout and exits 0 — only
                // *unasked* usage (bad flags, no FILE) is exit 2.
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--version" | "-V" => {
                println!("unity-check {}", env!("CARGO_PKG_VERSION"));
                std::process::exit(0);
            }
            // Anything dash-prefixed that is not a known flag is an
            // error (exit 2) — never a FILE candidate, even before FILE
            // is set; and once FILE is set, every stray argument is
            // rejected rather than silently shadowing it.
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`; {USAGE}"))
            }
            other if file.is_none() => {
                file = Some(other.to_string());
            }
            other => {
                return Err(format!(
                    "unexpected argument `{other}` (FILE already given as `{}`); {USAGE}",
                    file.as_deref().unwrap_or("")
                ))
            }
        }
    }
    opts.file = file.ok_or_else(|| USAGE.to_string())?;
    if opts.serve.is_some() {
        // A remote session runs none of the local analysis machinery.
        let local_only = [
            (opts.stats, "--stats"),
            (opts.sim_steps > 0, "--sim"),
            (opts.trace.is_some(), "--trace"),
            (opts.list, "--list"),
            (opts.conserve, "--conserve"),
            (opts.synthesize, "--synthesize"),
            (opts.mutate, "--mutate"),
            (opts.threads.is_some(), "--threads"),
            (order_given, "--order"),
        ];
        if let Some((_, flag)) = local_only.iter().find(|(given, _)| *given) {
            return Err(format!("{flag} does not apply with --serve; {USAGE}"));
        }
    }
    if opts.compositional {
        // These analyses require the flat product session.
        let flat_only = [(opts.synthesize, "--synthesize"), (opts.mutate, "--mutate")];
        if let Some((_, flag)) = flat_only.iter().find(|(given, _)| *given) {
            return Err(format!(
                "{flag} does not apply with --compositional; {USAGE}"
            ));
        }
    }
    Ok(opts)
}

/// Retry policy for `--serve`. Only *transient* failures are retried:
/// transport errors (connect refused/reset, timeouts) and `503` load
/// shedding. Any other reply — a verdict, a `4xx`, a `500` — is final
/// on the first attempt. Both the attempt count and the total wall
/// clock are bounded, so an unreachable daemon stays a fast exit-2
/// infrastructure error rather than a hang.
const RETRY_ATTEMPTS: u32 = 4;
const RETRY_BUDGET: std::time::Duration = std::time::Duration::from_secs(10);
const BACKOFF_BASE_MS: u64 = 100;
const BACKOFF_CAP_MS: u64 = 2_000;

/// Exponential backoff with multiplicative jitter in `[0.5, 1.5)` of
/// the base, raised to the server's `Retry-After` hint when one came
/// back with the `503`, capped so the retry budget stays meaningful.
fn backoff_delay(attempt: u32, hint_secs: Option<u64>, seed: &mut u64) -> std::time::Duration {
    // xorshift64*: cheap, stateful, good enough to decorrelate clients.
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    let base = (BACKOFF_BASE_MS << attempt.min(10)).min(BACKOFF_CAP_MS);
    let jittered = base / 2 + seed.wrapping_mul(0x2545_F491_4F6C_DD1D) % base;
    let hinted = hint_secs.unwrap_or(0).saturating_mul(1_000);
    std::time::Duration::from_millis(jittered.max(hinted).min(BACKOFF_CAP_MS))
}

/// Suffix naming the rule a compositional session closed this verdict
/// with (` [lift-universal]` and friends); empty for flat verdicts.
fn rule_tag(v: &Verdict) -> String {
    v.discharge
        .as_ref()
        .map(|d| format!(" [{}]", d.rule))
        .unwrap_or_default()
}

/// `--serve`: delegate the run to a `unity-serve` daemon. Prints the
/// returned report like a local run (plus the daemon's cache line) and
/// preserves the exit-code contract.
fn run_remote(opts: &Options, addr: &str) -> Result<bool, String> {
    let src = std::fs::read_to_string(&opts.file).map_err(|e| format!("{}: {e}", opts.file))?;
    // The idempotency key is fixed before the first attempt and reused
    // verbatim by every retry: if an earlier attempt committed but its
    // reply was lost, the daemon replays the recorded verdict (same
    // sequence number) instead of verifying twice.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1);
    let request_id = format!(
        "{}-{}-{nanos:x}",
        unity_serve::spec_hash(&src),
        std::process::id()
    );
    let mut req = unity_serve::VerifyRequest::new(src);
    req.engine = opts.engine;
    req.universe = opts.universe;
    req.compositional = opts.compositional;
    req.request_id = Some(request_id);
    let payload = req.to_json();
    let client = unity_serve::http::ClientOptions::default();

    let started = std::time::Instant::now();
    let mut seed = nanos | 1;
    let mut attempt = 0u32;
    let reply = loop {
        attempt += 1;
        let (why, hint) =
            match unity_serve::http::request_with(addr, "POST", "/verify", Some(&payload), &client)
            {
                Ok(r) if r.status != 503 => break r,
                Ok(r) => ("service at capacity (HTTP 503)".to_string(), r.retry_after),
                Err(e) => (e, None),
            };
        if attempt >= RETRY_ATTEMPTS || started.elapsed() >= RETRY_BUDGET {
            return Err(format!("{addr}: {why} (after {attempt} attempt(s))"));
        }
        let delay = backoff_delay(attempt, hint, &mut seed);
        if !opts.quiet {
            eprintln!(
                "unity-check: {addr}: {why}; retrying in {}ms (attempt {attempt}/{RETRY_ATTEMPTS})",
                delay.as_millis()
            );
        }
        std::thread::sleep(delay);
    };
    let (status, body) = (reply.status, reply.body);
    if status != 200 {
        let msg = unity_serve::proto::error_message(&body)
            .unwrap_or_else(|| format!("HTTP {status} from {addr}"));
        return Err(format!("{addr}: {msg}"));
    }
    let resp = unity_serve::VerifyResponse::from_json(&body)
        .map_err(|e| format!("{addr}: malformed response: {e}"))?;
    if !opts.quiet {
        println!(
            "verified by {addr} as spec {} (verdict #{})",
            resp.spec_hash, resp.seq
        );
        let c = &resp.cache;
        println!(
            "CACHE ts[reachable]={:?} ts[all]={:?} pred[reachable]={:?} pred[all]={:?} order={:?} certs={}h/{}m",
            c.ts_reachable, c.ts_all_states, c.pred_reachable, c.pred_all_states, c.field_order,
            c.cert_hits, c.cert_misses
        );
    }
    for c in &resp.report.checks {
        match &c.verdict.outcome {
            Outcome::Pass => {
                if !opts.quiet {
                    println!(
                        "PASS {}: {}{}",
                        c.name,
                        c.verdict.property,
                        rule_tag(&c.verdict)
                    );
                }
            }
            Outcome::Fail { .. } => {
                println!("FAIL {}: {}", c.name, c.verdict.property);
            }
            Outcome::Error { .. } => {}
        }
    }
    if let Some(path) = &opts.json {
        std::fs::write(path, resp.report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        if !opts.quiet {
            println!("report written to {path}");
        }
    }
    if let Some(errored) = resp.report.first_error() {
        let error = errored.verdict.error().expect("error outcome");
        return Err(format!("check `{}`: {error}", errored.name));
    }
    Ok(resp.report.all_passed())
}

fn run(opts: &Options) -> Result<bool, String> {
    if let Some(addr) = &opts.serve {
        return run_remote(opts, addr);
    }
    let src = std::fs::read_to_string(&opts.file).map_err(|e| format!("{}: {e}", opts.file))?;
    let spec = load_spec(&src).map_err(|e| format!("{}: {e}", opts.file))?;
    let vocab = spec.system.vocab().clone();

    if !opts.quiet {
        println!(
            "composed {} program(s), {} variable(s), {} command(s), {} check(s)",
            spec.system.len(),
            vocab.len(),
            spec.system.composed.commands.len(),
            spec.checks.len()
        );
    }
    if opts.list {
        for c in &spec.checks {
            println!(
                "  {} (line {}): {}",
                c.name,
                c.line,
                c.property.display(&vocab)
            );
        }
        return Ok(true);
    }

    let cfg = ScanConfig {
        engine: opts.engine,
        symbolic: SymbolicOptions {
            order: opts.order.clone(),
            ..Default::default()
        },
        par: match opts.threads {
            // One thread pins the exact sequential reference builder.
            Some(1) => ParConfig::sequential(),
            Some(t) => ParConfig {
                threads: t,
                ..Default::default()
            },
            // Default honors UNITY_BUILD_THREADS, then the machine.
            None => ParConfig::default(),
        },
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    if opts.compositional {
        return run_compositional(opts, &spec, cfg, t0);
    }
    // One session serves every check and every analysis mode below: the
    // compiled pipeline, transition system + reachable set, and symbolic
    // engine are built at most once per run.
    let mut session = Verifier::new(&spec.system.composed, cfg).with_universe(opts.universe);
    let mut report = session.verify_all(&spec.checks);
    for c in &report.checks {
        match &c.verdict.outcome {
            Outcome::Pass => {
                if !opts.quiet {
                    println!("PASS {}: {}", c.name, c.verdict.property);
                }
            }
            Outcome::Fail { cex } => {
                println!("FAIL {}: {}", c.name, c.verdict.property);
                println!("     {}", cex.display(&vocab));
            }
            // Infrastructure errors surface after the other modes (and
            // after --json persists the partial report) as exit code 2.
            Outcome::Error { .. } => {}
        }
    }

    if opts.stats {
        stats_report(opts, &mut session, &spec.checks, &report);
    }
    if opts.sim_steps > 0 {
        report.sim = simulate(opts, &spec)?;
        // The report covers the simulation too; keep its wall time
        // honest (checks + simulation).
        report.elapsed = t0.elapsed();
    }
    if opts.conserve {
        conserve_report(&spec);
    }
    if opts.synthesize {
        synthesize_report(opts, &mut session, &spec);
    }
    if opts.mutate {
        mutate_report(&mut session, &spec);
    }
    if let Some(path) = &opts.json {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        if !opts.quiet {
            println!("report written to {path}");
        }
    }
    if let Some(errored) = report.first_error() {
        let error = errored.verdict.error().expect("error outcome");
        return Err(format!("check `{}`: {error}", errored.name));
    }
    Ok(report.all_passed())
}

/// `--compositional`: verify assume-guarantee style. Obligations
/// discharge in component state spaces (or a cone-of-influence slice);
/// the flat product is built only for the residue, so verdicts and
/// witnesses match a flat run by construction. Every `PASS` line names
/// the kernel rule that closed it.
fn run_compositional(
    opts: &Options,
    spec: &unity_mc::spec::SpecFile,
    cfg: ScanConfig,
    t0: std::time::Instant,
) -> Result<bool, String> {
    let vocab = spec.system.vocab().clone();
    let mut session = CompositionalVerifier::new(&spec.system, cfg).with_universe(opts.universe);
    let mut report = session.verify_all(&spec.checks);
    for c in &report.checks {
        match &c.verdict.outcome {
            Outcome::Pass => {
                if !opts.quiet {
                    println!(
                        "PASS {}: {}{}",
                        c.name,
                        c.verdict.property,
                        rule_tag(&c.verdict)
                    );
                }
            }
            Outcome::Fail { cex } => {
                println!(
                    "FAIL {}: {}{}",
                    c.name,
                    c.verdict.property,
                    rule_tag(&c.verdict)
                );
                println!("     {}", cex.display(&vocab));
            }
            Outcome::Error { .. } => {}
        }
    }
    if opts.stats {
        let s = session.stats();
        println!(
            "STATS compositional: {} obligation(s): {} lift-universal, \
             {} lift-existential, {} cone, {} product fallback(s); \
             {} component check(s), {} cert hit(s), {} cert miss(es)",
            s.obligations,
            s.lift_universal,
            s.lift_existential,
            s.cone,
            s.product_fallbacks,
            s.component_checks,
            s.cert_hits,
            s.cert_misses
        );
    }
    if opts.sim_steps > 0 {
        report.sim = simulate(opts, spec)?;
        report.elapsed = t0.elapsed();
    }
    if opts.conserve {
        conserve_report(spec);
    }
    if let Some(path) = &opts.json {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        if !opts.quiet {
            println!("report written to {path}");
        }
    }
    if let Some(errored) = report.first_error() {
        let error = errored.verdict.error().expect("error outcome");
        return Err(format!("check `{}`: {error}", errored.name));
    }
    Ok(report.all_passed())
}

/// `--stats`: print engine counters for the file's composed program
/// (informational). It reports only work the checks did and never
/// starts more: the transition system's size and build time when a
/// check built it, otherwise the states the safety scans counted; the
/// symbolic engine's arena/reorder/cache counters, with the reachable
/// set only when a check computed it; and, when the spec has `leadsto`
/// checks, the worklist liveness engine's traversal counters
/// aggregated across them (the predecessor walk runs only for a
/// refuted check).
fn stats_report(
    opts: &Options,
    session: &mut Verifier<'_>,
    checks: &[NamedCheck],
    report: &Report,
) {
    // Aggregate the counters per property kind — keyed on the kind
    // (refuted checks carry their counters too), not on any counter
    // being nonzero.
    let mut leadsto_checks = 0u64;
    let (mut scanned, mut edges, mut pushes) = (0u64, 0u64, 0u64);
    let (mut safety_checks, mut safety_states) = (0u64, 0u64);
    for (named, c) in checks.iter().zip(&report.checks) {
        let VerdictStats::Explicit {
            states,
            scanned_states,
            pred_edges,
            worklist_pushes,
            ..
        } = &c.verdict.stats
        else {
            continue;
        };
        if matches!(named.property, Property::LeadsTo(..)) {
            leadsto_checks += 1;
            scanned += scanned_states;
            edges += pred_edges;
            pushes += worklist_pushes;
        } else {
            safety_checks += 1;
            safety_states += states;
        }
    }
    if leadsto_checks > 0 {
        println!(
            "STATS leadsto: {leadsto_checks} check(s), {scanned} state(s) scanned, \
             {edges} predecessor edge(s) walked, {pushes} worklist push(es)"
        );
    }
    let status = session.status();
    match opts.engine {
        // Only an engine a check built is asked for its counters:
        // `symbolic()` would build one.
        Engine::Symbolic => match status.symbolic.then(|| session.symbolic()).flatten() {
            Some(sym) => {
                let reach = sym
                    .computed_reachable()
                    .map(|r| {
                        format!(
                            "{} reachable state(s) in {} iteration(s); ",
                            r.count, r.iterations
                        )
                    })
                    .unwrap_or_default();
                println!(
                    "STATS symbolic: {reach}order {:?}; {}",
                    opts.order,
                    sym.stats()
                );
            }
            None => println!("STATS symbolic: no check was decided symbolically"),
        },
        Engine::Compiled | Engine::Reference => {
            let built = match opts.universe {
                Universe::Reachable => status.ts_reachable,
                Universe::AllStates => status.ts_all_states,
            };
            if !built {
                println!(
                    "STATS explicit: {safety_states} state(s) scanned by {safety_checks} \
                     safety check(s); no transition system built"
                );
                return;
            }
            match session.transition_system(opts.universe) {
                Ok(ts) => {
                    println!(
                        "STATS explicit: {} state(s) visited, {} transition(s) computed ({:?} universe)",
                        ts.len(),
                        ts.transition_count(),
                        opts.universe
                    );
                    println!("STATS build: {}", ts.build_stats());
                }
                Err(e) => println!("STATS explicit: {e}"),
            }
        }
    }
}

/// `--conserve`: print the conserved-combination basis and any derived
/// invariants (informational).
fn conserve_report(spec: &unity_mc::spec::SpecFile) {
    let program = &spec.system.composed;
    let vocab = spec.system.vocab();
    let basis = conserved_linear_combinations(program);
    println!(
        "CONSERVE: basis dimension {} ({} tainted variable(s))",
        basis.dimension(),
        basis.tainted.len()
    );
    for combo in &basis.combos {
        let e = combo.to_expr();
        print!(
            "  unchanged {}",
            unity_core::expr::pretty::Render::new(&e, vocab)
        );
        match invariant_from_combo(program, combo) {
            Some(inv) => println!(
                "   => invariant {}",
                unity_core::expr::pretty::Render::new(&inv, vocab)
            ),
            None => println!("   (initial value not pinned by init)"),
        }
    }
}

/// `--synthesize`: attempt a kernel-checked ensures-chain derivation for
/// every `leadsto` check (informational). The synthesis explores the
/// session's memoized reachable transition system — with several
/// `leadsto` goals in one file it is built once, not per goal.
fn synthesize_report(opts: &Options, session: &mut Verifier<'_>, spec: &unity_mc::spec::SpecFile) {
    let vocab = spec.system.vocab();
    let cfg = SynthConfig::default();
    for c in &spec.checks {
        let Property::LeadsTo(p, q) = &c.property else {
            continue;
        };
        match synthesize_and_check_in(session, p, q, &cfg) {
            Ok((synth, stats)) => println!(
                "SYNTH {}: {} ensures layer(s) over {} state(s); kernel: {} rules, {} premises, {} side conditions",
                c.name,
                synth.layers.len(),
                synth.reachable_states,
                stats.rules,
                stats.premises,
                stats.side_conditions
            ),
            Err(SynthError::NotLive { uncovered }) => {
                println!(
                    "SYNTH-FAIL {}: {} state(s) never absorbed (property false or beyond ensures chains)",
                    c.name,
                    uncovered.len()
                );
                if !opts.quiet {
                    if let Some(s) = uncovered.first() {
                        println!("     e.g. {}", s.display(vocab));
                    }
                }
            }
            Err(e) => println!("SYNTH-ERROR {}: {e}", c.name),
        }
    }
}

/// `--mutate`: audit the file's own `spec` checks by mutation
/// (informational). Session-backed: the original-program pass reuses
/// the run's main session, and each mutant's checks share one fresh
/// session over that mutant. The audit runs under the session's engine
/// configuration (`--engine`), where it previously always used the
/// compiled default.
fn mutate_report(session: &mut Verifier<'_>, spec: &unity_mc::spec::SpecFile) {
    match mutation_audit_in(session, &spec.checks) {
        Ok(report) => print!("MUTATE: {}", report.summary()),
        Err(e) => println!("MUTATE-ERROR: {e}"),
    }
}

/// Runs the weakly-fair simulation with invariant monitors and optional
/// trace export. Returns one [`SimCheck`] per monitored invariant for
/// the run's [`Report`].
fn simulate(opts: &Options, spec: &unity_mc::spec::SpecFile) -> Result<Vec<SimCheck>, String> {
    let program = &spec.system.composed;
    let mut invariants: Vec<(String, InvariantMonitor)> = spec
        .checks
        .iter()
        .filter_map(|c| match &c.property {
            Property::Invariant(p) => Some((c.name.clone(), InvariantMonitor::new(p.clone()))),
            _ => None,
        })
        .collect();
    let mut recorder = TraceRecorder::new(if opts.trace.is_some() {
        opts.sim_steps as usize
    } else {
        0
    });

    let mut sched = AgedLottery::new(opts.seed, 64);
    let mut ex = Executor::from_first_initial(program);
    {
        let mut monitors: Vec<&mut dyn Monitor> = Vec::new();
        for (_, m) in invariants.iter_mut() {
            monitors.push(m);
        }
        monitors.push(&mut recorder);
        ex.run(opts.sim_steps, &mut sched, &mut monitors);
    }

    let mut outcomes = Vec::with_capacity(invariants.len());
    for (name, m) in &invariants {
        if m.clean() {
            if !opts.quiet {
                println!("SIM-PASS {name}: no violation in {} steps", opts.sim_steps);
            }
        } else {
            println!("SIM-FAIL {name}: violated during simulation");
        }
        let violation = m.first_violation();
        outcomes.push(SimCheck {
            name: name.clone(),
            steps: opts.sim_steps,
            passed: m.clean(),
            violation_step: violation.map(|(step, _)| *step),
            violation_state: violation.map(|(_, state)| state.clone()),
        });
    }
    if let Some(path) = &opts.trace {
        std::fs::write(path, recorder.to_json(program)).map_err(|e| format!("{path}: {e}"))?;
        if !opts.quiet {
            println!("trace written to {path}");
        }
    }
    Ok(outcomes)
}

fn main() -> ExitCode {
    // Same contract as `--threads 0`: a bad override is a usage error,
    // not a silent fallback to the machine default.
    if let Err(msg) = validate_build_threads_env() {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
