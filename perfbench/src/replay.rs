//! The traced run: the same seeded inputs, in the same order, replayed
//! in-process through each layer's public functions with a span around
//! every call.
//!
//! The replay makes the calls `unity-check` and `Service::verify` make,
//! in their order, but forces the lazily built artifacts up front so
//! each lands in its own span: the transition system
//! (`Verifier::transition_system`, layer `mc.build`), the predecessor
//! index (`PredIndex::build_with` then `Verifier::seed`, `mc.pred`) and
//! the BDD engine (`Verifier::symbolic`, `symbolic`). It forces exactly
//! the artifacts the plain call sequence builds, and checks that it did:
//! every replayed verdict must equal the oracle's, and every replayed
//! cache outcome the daemon's, or the run fails instead of measuring a
//! different program.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use unity_ag::cert::program_hash;
use unity_core::properties::Property;
use unity_mc::prelude::{
    CheckReport, CompositionalVerifier, Engine, NamedCheck, Outcome, PredIndex, Report, ScanConfig,
    SessionArtifacts, SessionStatus, Universe, Verdict, VerdictStats, Verifier,
};
use unity_mc::spec::load_spec;
use unity_serve::http::{request_with, ClientOptions};
use unity_serve::journal::Journal;
use unity_serve::store::{spec_hash, ArtifactStore};
use unity_serve::{CacheInfo, CacheState, Service, ServiceConfig, VerifyResponse};

use crate::cli::{self, Entry, Mode};
use crate::gen::{Expect, Kind, Request, Schedule};
use crate::serve::{self, Daemon, Reply};
use crate::stats;
use crate::trace::Tracer;
use crate::Metrics;

/// Counters taken at the same boundaries as the spans.
#[derive(Debug, Default)]
struct Counters {
    verdicts: u64,
    build_states: u64,
    build_transitions: u64,
    build_steals: u64,
    build_cross_shard: u64,
    pred_edges: u64,
    safety_states: u64,
    leadsto_scanned: u64,
    leadsto_pred_edges: u64,
    leadsto_pushes: u64,
    sym_peak_nodes: u64,
    sym_cache_hits: u64,
    sym_cache_lookups: u64,
    sym_swaps: u64,
    sym_checks: u64,
    sym_fallbacks: u64,
    ag_obligations: u64,
    ag_component_checks: u64,
    ag_cert_hits: u64,
    ag_cert_misses: u64,
    ag_fallbacks: u64,
    report_bytes: u64,
    store_hits: u64,
    store_lookups: u64,
    bytes_written: u64,
    checks: u64,
    refuted: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The layers, in report order, with the span names they own.
const LAYERS: [(&str, &str); 13] = [
    ("spec.ms", "spec"),
    ("mc.build.ms", "mc.build"),
    ("mc.pred.ms", "mc.pred"),
    ("mc.safety.ms", "mc.safety"),
    ("mc.leadsto.ms", "mc.leadsto"),
    ("symbolic.ms", "symbolic"),
    ("ag.ms", "ag"),
    ("report.ms", "report"),
    ("serve.store.load_ms", "serve.store.load"),
    ("serve.store.save_ms", "serve.store.save"),
    ("serve.store.cert_load_ms", "serve.store.cert_load"),
    ("serve.store.cert_save_ms", "serve.store.cert_save"),
    ("serve.journal.append_ms", "serve.journal"),
];

/// Decides every check of a flat session one by one, each in the span
/// of the layer that decided it, and assembles the report
/// `Verifier::verify_all` would.
fn flat_checks(
    tr: &mut Tracer,
    c: &mut Counters,
    session: &mut Verifier<'_>,
    checks: &[NamedCheck],
) -> Report {
    let t0 = Instant::now();
    let mut results = Vec::with_capacity(checks.len());
    for check in checks {
        let id = tr.begin("check");
        let verdict = session.verify(&check.property);
        let leadsto = matches!(check.property, Property::LeadsTo(..));
        let layer = match (verdict.engine, leadsto) {
            (Engine::Symbolic, _) => "symbolic",
            (_, true) => "mc.leadsto",
            (_, false) => "mc.safety",
        };
        tr.end_as(id, layer);
        count_verdict(c, &verdict, leadsto, session.cfg().engine);
        results.push(CheckReport {
            name: check.name.clone(),
            line: check.line,
            verdict,
        });
    }
    let program = session.program();
    Report {
        program: program.name.clone(),
        vars: program.vocab.iter().map(|(_, d)| d.name.clone()).collect(),
        engine: session.cfg().engine,
        universe: session.universe(),
        checks: results,
        sim: Vec::new(),
        elapsed: t0.elapsed(),
    }
}

fn count_verdict(c: &mut Counters, v: &Verdict, leadsto: bool, engine: Engine) {
    if engine == Engine::Symbolic {
        c.sym_checks += 1;
        c.sym_fallbacks += u64::from(v.engine != Engine::Symbolic);
    }
    if let VerdictStats::Explicit {
        states,
        scanned_states,
        pred_edges,
        worklist_pushes,
        ..
    } = v.stats
    {
        if leadsto {
            c.leadsto_scanned += scanned_states;
            c.leadsto_pred_edges += pred_edges;
            c.leadsto_pushes += worklist_pushes;
        } else {
            c.safety_states += states;
        }
    }
}

/// Builds, in their own spans, the reachable transition system and its
/// predecessor index when `want` says the plain sequence builds them and
/// the session does not hold them yet.
fn force_explicit(
    tr: &mut Tracer,
    c: &mut Counters,
    session: &mut Verifier<'_>,
    want: &SessionStatus,
) -> Result<(), String> {
    let have = session.status();
    if want.ts_reachable && !have.ts_reachable {
        let ts = tr
            .span("mc.build", || {
                session.transition_system(Universe::Reachable)
            })
            .map_err(|e| format!("transition system: {e}"))?;
        let b = ts.build_stats();
        c.build_states += ts.len() as u64;
        c.build_transitions += ts.transition_count() as u64;
        c.build_steals += b.steals;
        c.build_cross_shard += b.cross_shard_edges;
    }
    if want.pred_reachable && !have.pred_reachable {
        let ts = session
            .transition_system(Universe::Reachable)
            .map_err(|e| format!("transition system: {e}"))?;
        let par = session.cfg().par.clone();
        let id = tr.begin("mc.pred");
        let pred = PredIndex::build_with(&ts, &par);
        c.pred_edges += pred.edge_count() as u64;
        session.seed(SessionArtifacts {
            pred: [Some(Arc::new(pred)), None],
            ..SessionArtifacts::default()
        });
        tr.end(id);
    }
    Ok(())
}

/// Renders the verdict lines `unity-check` prints, witnesses decoded.
fn render(report: &Report, vocab: &unity_core::ident::Vocabulary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for c in &report.checks {
        let rule = c
            .verdict
            .discharge
            .as_ref()
            .map(|d| format!(" [{}]", d.rule))
            .unwrap_or_default();
        match &c.verdict.outcome {
            Outcome::Pass => {
                let _ = writeln!(out, "PASS {}: {}{rule}", c.name, c.verdict.property);
            }
            Outcome::Fail { cex } => {
                let _ = writeln!(out, "FAIL {}: {}{rule}", c.name, c.verdict.property);
                let _ = writeln!(out, "     {}", cex.display(vocab));
            }
            Outcome::Error { .. } => {}
        }
    }
    out
}

fn verdicts(report: &Report) -> Vec<Expect> {
    report
        .checks
        .iter()
        .map(|c| (c.name.clone(), c.verdict.passed()))
        .collect()
}

/// One `unity-check` entry in-process. `plan` is the final session
/// status of the plain sequence, whose artifacts are forced up front;
/// `None` runs the plain sequence itself. Returns the final status.
fn cli_entry(
    tr: &mut Tracer,
    c: &mut Counters,
    e: &Entry,
    plan: Option<&SessionStatus>,
) -> Result<SessionStatus, String> {
    let root = tr.begin("request");
    let spec = tr.span("spec", || {
        std::fs::read_to_string(&e.file)
            .map_err(|err| err.to_string())
            .and_then(|src| load_spec(&src).map_err(|err| err.to_string()))
    });
    let spec = spec.map_err(|err| format!("{}: {err}", e.label))?;
    let cfg = ScanConfig {
        engine: if e.mode == Mode::Symbolic {
            Engine::Symbolic
        } else {
            Engine::Compiled
        },
        ..ScanConfig::default()
    };
    let vocab = spec.system.vocab().clone();
    let (report, status) = if e.mode == Mode::Compositional {
        let mut session = tr.span("ag", || {
            CompositionalVerifier::new(&spec.system, cfg).with_universe(Universe::Reachable)
        });
        let report = tr.span("ag", || session.verify_all(&spec.checks));
        let s = session.stats();
        c.ag_obligations += s.obligations;
        c.ag_component_checks += s.component_checks;
        c.ag_cert_hits += s.cert_hits;
        c.ag_cert_misses += s.cert_misses;
        c.ag_fallbacks += s.product_fallbacks;
        (report, SessionStatus::default())
    } else {
        let mut session =
            Verifier::new(&spec.system.composed, cfg).with_universe(Universe::Reachable);
        if let Some(want) = plan {
            force_explicit(tr, c, &mut session, want)?;
            if want.symbolic {
                tr.span("symbolic", || {
                    session.symbolic();
                });
            }
        }
        let report = flat_checks(tr, c, &mut session, &spec.checks);
        let status = session.status();
        if status.symbolic {
            if let Some(sym) = session.symbolic() {
                let s = sym.stats();
                c.sym_peak_nodes = c.sym_peak_nodes.max(s.bdd.peak_nodes as u64);
                c.sym_cache_hits += s.bdd.cache_hits;
                c.sym_cache_lookups += s.bdd.cache_lookups;
                c.sym_swaps += s.bdd.swaps;
            }
        }
        (report, status)
    };
    let lines = tr.span("report", || render(&report, &vocab));
    tr.end(root);
    c.report_bytes += lines.len() as u64;
    c.verdicts += 1;
    c.checks += report.checks.len() as u64;
    c.refuted += report.checks.iter().filter(|r| r.verdict.failed()).count() as u64;
    if verdicts(&report) != e.expect {
        return Err(format!(
            "{} (replay): verdicts {:?}, oracle says {:?}",
            e.label,
            verdicts(&report),
            e.expect
        ));
    }
    if let Some(want) = plan {
        if status != *want {
            return Err(format!(
                "{} (replay): built {status:?}, the plain sequence built {want:?}",
                e.label
            ));
        }
    }
    Ok(status)
}

/// Time of each span named `name`, per request id.
fn per_request(tr: &Tracer, name: &str) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in tr.spans().iter().zip(tr.self_times()) {
        if s.name == name {
            *out.entry(s.request).or_insert(0) += t;
        }
    }
    out
}

/// Layer metrics shared by both replays.
fn layer_metrics(tr: &Tracer, c: &Counters, verdicts: u64) -> Metrics {
    let by_name = tr.self_time_by_name();
    let per_verdict_ms =
        |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e6 / verdicts.max(1) as f64;
    let per_verdict = |x: u64| x as f64 / verdicts.max(1) as f64;
    let mut m: Metrics = LAYERS
        .iter()
        .map(|&(metric, span)| (metric, per_verdict_ms(span), "ms"))
        .collect();
    m.extend([
        ("mc.build.states", per_verdict(c.build_states), "count"),
        (
            "mc.build.transitions",
            per_verdict(c.build_transitions),
            "count",
        ),
        ("mc.build.steals", per_verdict(c.build_steals), "count"),
        (
            "mc.build.cross_shard_ratio",
            ratio(c.build_cross_shard, c.build_transitions),
            "ratio",
        ),
        ("mc.pred.edges", per_verdict(c.pred_edges), "count"),
        ("mc.safety.states", per_verdict(c.safety_states), "count"),
        (
            "mc.leadsto.scanned_states",
            per_verdict(c.leadsto_scanned),
            "count",
        ),
        (
            "mc.leadsto.pred_edges",
            per_verdict(c.leadsto_pred_edges),
            "count",
        ),
        (
            "mc.leadsto.worklist_pushes",
            per_verdict(c.leadsto_pushes),
            "count",
        ),
        ("symbolic.peak_nodes", c.sym_peak_nodes as f64, "count"),
        (
            "symbolic.cache_hit_ratio",
            ratio(c.sym_cache_hits, c.sym_cache_lookups),
            "ratio",
        ),
        ("symbolic.sift_swaps", per_verdict(c.sym_swaps), "count"),
        (
            "symbolic.fallback_ratio",
            ratio(c.sym_fallbacks, c.sym_checks),
            "ratio",
        ),
        ("ag.obligations", per_verdict(c.ag_obligations), "count"),
        (
            "ag.component_checks",
            per_verdict(c.ag_component_checks),
            "count",
        ),
        (
            "ag.cert_hit_ratio",
            ratio(c.ag_cert_hits, c.ag_cert_hits + c.ag_cert_misses),
            "ratio",
        ),
        (
            "ag.product_fallback_ratio",
            ratio(c.ag_fallbacks, c.ag_obligations),
            "ratio",
        ),
        ("report.bytes", per_verdict(c.report_bytes), "B"),
        (
            "serve.store.hit_ratio",
            ratio(c.store_hits, c.store_lookups),
            "ratio",
        ),
        (
            "serve.store.bytes_written",
            per_verdict(c.bytes_written),
            "B",
        ),
    ]);
    let roots: Vec<(u64, u64)> = tr
        .spans()
        .iter()
        .zip(tr.self_times())
        .filter(|(s, _)| s.name == "request")
        .map(|(s, own)| (s.end - s.start, own))
        .collect();
    let total: u64 = roots.iter().map(|r| r.0).sum();
    let unattributed: u64 = roots.iter().map(|r| r.1).sum();
    m.extend([
        ("trace.request_ms", per_verdict(total) / 1e6, "ms"),
        (
            "trace.unattributed_ms",
            per_verdict(unattributed) / 1e6,
            "ms",
        ),
        ("trace.coverage", 1.0 - ratio(unattributed, total), "ratio"),
    ]);
    m
}

/// Prints each layer's share of in-process request time.
fn print_shares(m: &Metrics) {
    let get = |name: &str| m.iter().find(|x| x.0 == name).map_or(0.0, |x| x.1);
    let total = get("trace.request_ms");
    let mut line = String::from("layer shares of in-process request time:");
    for (metric, _) in LAYERS
        .iter()
        .chain(&[("serve.service.ms", ""), ("serve.http.ms", "")])
    {
        let v = get(metric);
        if total > 0.0 {
            line.push_str(&format!(
                " {}={:.3}",
                metric.trim_end_matches(".ms").trim_end_matches("_ms"),
                v / total
            ));
        }
    }
    line.push_str(&format!(
        " unattributed={:.3}",
        get("trace.unattributed_ms") / total.max(1e-9)
    ));
    println!("{line}");
}

/// Writes the spans as Chrome trace-event JSON.
fn write_trace(tr: &Tracer, path: &Path) -> Result<(), String> {
    std::fs::write(path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace: {} spans written to {}",
        tr.spans().len(),
        path.display()
    );
    Ok(())
}

/// Rounds of each kind per entry in the `cli_battery` replay.
const CLI_ROUNDS: usize = 3;

/// The traced `cli_battery` run.
pub fn cli(
    root: &Path,
    bin: &Path,
    work: &Path,
    seed: u64,
    trace_file: &Path,
) -> Result<(Metrics, u64, u64), String> {
    let (entries, digest) = cli::corpus(root, seed, &work.join("corpus"))?;
    println!("replay inputs: {} entries, digest {digest}", entries.len());
    let n = entries.len();
    let (mut process, mut plain, mut traced) =
        (vec![Vec::new(); n], vec![Vec::new(); n], vec![0f64; n]);
    let mut off = Tracer::new(false);
    let mut scratch = Counters::default();
    // Warm-up: one process run and one plain replay per entry; the plain
    // replay's final session status says which artifacts to force.
    let mut plans = Vec::with_capacity(n);
    for e in &entries {
        cli::run_entry(bin, e)?;
        plans.push(cli_entry(&mut off, &mut scratch, e, None)?);
    }
    let mut tr = Tracer::new(true);
    let mut c = Counters::default();
    for round in 0..CLI_ROUNDS {
        for (k, e) in entries.iter().enumerate() {
            process[k].push(cli::run_entry(bin, e)?.wall_ms);
            // Plain and traced replays alternate which goes first, so
            // neither is always the one running on warmer caches.
            for traced_first in [(round + k) % 2 == 0, (round + k) % 2 == 1] {
                let t0 = Instant::now();
                if traced_first {
                    tr.set_request((round * n + k) as u64);
                    cli_entry(&mut tr, &mut c, e, Some(&plans[k]))?;
                    traced[k] += t0.elapsed().as_secs_f64() * 1e3;
                } else {
                    cli_entry(&mut off, &mut scratch, e, None)?;
                    plain[k].push(t0.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
    }
    write_trace(&tr, trace_file)?;
    let plain_med: Vec<f64> = plain.iter().map(|xs| stats::median(xs)).collect();
    let process_ms = process
        .iter()
        .zip(&plain_med)
        .map(|(p, q)| stats::median(p) - q)
        .sum::<f64>()
        / n as f64;
    let plain_total: f64 = plain.iter().flatten().sum();
    let mut m = layer_metrics(&tr, &c, c.verdicts);
    m.extend([
        ("serve.service.ms", 0.0, "ms"),
        ("serve.service.shed_ratio", 0.0, "ratio"),
        ("serve.http.ms", 0.0, "ms"),
        ("process.ms", process_ms, "ms"),
        (
            "trace.overhead",
            traced.iter().sum::<f64>() / plain_total - 1.0,
            "ratio",
        ),
        ("loadgen.lag_ms_p95", 0.0, "ms"),
        ("mix.resubmit_share", 0.0, "ratio"),
        ("mix.check_edit_share", 0.0, "ratio"),
        ("mix.program_edit_share", 0.0, "ratio"),
        ("mix.refuted_share", ratio(c.refuted, c.checks), "ratio"),
        (
            "mix.distinct_programs",
            (n / Mode::ALL.len()) as f64,
            "count",
        ),
    ]);
    print_shares(&m);
    // Every process run and every in-process replay, warm-up included,
    // answered.
    Ok((m, (n * (2 + 3 * CLI_ROUNDS)) as u64, 0))
}

/// A replay's private store and journal, as `Service::open` lays them out.
struct Backend {
    store: ArtifactStore,
    journal: Journal,
}

impl Backend {
    fn open(dir: &Path) -> Result<Backend, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let store = ArtifactStore::open(dir.join("store")).map_err(|e| format!("store: {e}"))?;
        let (journal, _) = Journal::open(&dir.join("journal.log"))?;
        Ok(Backend { store, journal })
    }
}

fn cache_state(seeded: bool, present: bool) -> CacheState {
    match (seeded, present) {
        (true, _) => CacheState::Hit,
        (false, true) => CacheState::Miss,
        (false, false) => CacheState::Unused,
    }
}

/// The cache outcome as `Service::verify` derives it: seeded before the
/// checks is a hit, built by them a miss, never needed unused.
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

fn files_bytes(paths: &[PathBuf]) -> u64 {
    paths
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

fn dir_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default()
}

/// One `POST /verify` in the order `Service::verify` makes its calls.
/// Returns the cache outcome and the response body.
fn serve_request(
    tr: &mut Tracer,
    c: &mut Counters,
    b: &mut Backend,
    r: &Request,
) -> Result<(CacheInfo, String), String> {
    let src = &r.case.src;
    let root = tr.begin("request");
    let (hash, spec) = tr.span("spec", || (spec_hash(src), load_spec(src)));
    let spec = spec.map_err(|e| format!("spec: {e}"))?;
    let program = &spec.system.composed;
    let prog_hash = tr.span("spec", || program_hash(program));
    let cfg = ScanConfig::default();
    let mut written = 0;
    let (report, cache) = if r.compositional {
        let (session, hashes) = tr.span("ag", || {
            let mut s =
                CompositionalVerifier::new(&spec.system, cfg).with_universe(Universe::Reachable);
            let h = s.plan_hashes(&spec.checks);
            (s, h)
        });
        let seeded = tr.span("serve.store.cert_load", || b.store.load_certs(&hashes));
        let mut session = session.with_certs(seeded);
        let report = tr.span("ag", || session.verify_all(&spec.checks));
        let dirty: Vec<PathBuf> = session
            .certs()
            .dirty()
            .map(|(k, _)| b.store.program_dir(&k.program).join("certs.seg"))
            .collect();
        tr.span("serve.store.cert_save", || {
            b.store.save_certs(session.certs())
        })?;
        written += files_bytes(&dirty);
        if let Some(arts) = session.product_artifacts() {
            tr.span("serve.store.save", || b.store.save(&prog_hash, src, &arts))?;
        }
        let s = session.stats();
        c.ag_obligations += s.obligations;
        c.ag_component_checks += s.component_checks;
        c.ag_cert_hits += s.cert_hits;
        c.ag_cert_misses += s.cert_misses;
        c.ag_fallbacks += s.product_fallbacks;
        let mut cache = cache_info(
            &SessionStatus::default(),
            &session.product_status().unwrap_or_default(),
            false,
        );
        cache.cert_hits = s.cert_hits;
        cache.cert_misses = s.cert_misses;
        (report, cache)
    } else {
        let mut session = Verifier::new(program, cfg).with_universe(Universe::Reachable);
        let order_seeded = tr.span("serve.store.load", || {
            let stored = b.store.load(&prog_hash, program, session.cfg());
            let order_seeded = stored.field_order.is_some();
            session.seed(stored);
            order_seeded
        });
        let pre = session.status();
        let leadsto = spec
            .checks
            .iter()
            .any(|ch| matches!(ch.property, Property::LeadsTo(..)));
        let want = SessionStatus {
            ts_reachable: leadsto,
            pred_reachable: leadsto,
            ..SessionStatus::default()
        };
        force_explicit(tr, c, &mut session, &want)?;
        let report = flat_checks(tr, c, &mut session, &spec.checks);
        let post = session.status();
        let dir = b.store.program_dir(&prog_hash);
        let before = files_bytes(&dir_files(&dir));
        tr.span("serve.store.save", || {
            b.store.save(&prog_hash, src, &session.artifacts())
        })?;
        written += files_bytes(&dir_files(&dir)).saturating_sub(before);
        let cache = cache_info(&pre, &post, order_seeded);
        if cache.ts_reachable != CacheState::Unused {
            c.store_lookups += 1;
            c.store_hits += u64::from(cache.ts_reachable == CacheState::Hit);
        }
        (report, cache)
    };
    let seq = tr.span("serve.journal", || b.journal.append(&hash, &report))?;
    let got = verdicts(&report);
    let body = tr.span("report", || {
        VerifyResponse {
            seq,
            spec_hash: hash,
            cache,
            report,
        }
        .to_json()
    });
    tr.end(root);
    c.bytes_written += written;
    c.report_bytes += body.len() as u64;
    c.verdicts += 1;
    c.checks += got.len() as u64;
    c.refuted += got.iter().filter(|(_, p)| !p).count() as u64;
    if got != r.case.expect {
        return Err(format!(
            "{} request (replay): verdicts {got:?}, oracle says {:?}",
            r.kind.label(),
            r.case.expect
        ));
    }
    Ok((cache, body))
}

/// The cache outcome each request kind must get when requests are
/// answered one at a time in schedule order.
fn expected_cache(r: &Request, cache: &CacheInfo) -> Result<(), String> {
    let ok = match r.kind {
        Kind::Prewarm if r.compositional => cache.cert_hits == 0,
        Kind::Prewarm | Kind::ProgramEdit => cache.ts_reachable == CacheState::Miss,
        Kind::Resubmit if r.compositional => cache.cert_misses == 0 && cache.cert_hits > 0,
        Kind::Resubmit | Kind::CheckEdit => cache.ts_reachable == CacheState::Hit,
        Kind::ComponentEdit => cache.cert_misses > 0 && cache.cert_hits > 0,
    };
    if !ok {
        return Err(format!(
            "{} request: unexpected cache outcome {cache:?}",
            r.kind.label()
        ));
    }
    Ok(())
}

fn service_config(dir: &Path) -> ServiceConfig {
    // `unity-serve`'s defaults.
    let workers = crate::sys::nproc().min(4);
    ServiceConfig {
        data_dir: dir.to_path_buf(),
        workers,
        default_timeout: Some(Duration::from_secs(300)),
        queue_limit: ServiceConfig::default_queue_limit(workers),
    }
}

/// Requests of the stream replayed in-process, after the pre-warm.
pub const SERVE_REPLAY: usize = 160;

/// The traced daemon-workload run. `lag` and `shed` come from the
/// untraced open loop that ran just before.
pub fn serve(
    bin: &Path,
    work: &Path,
    schedule: &Schedule,
    lag: &[f64],
    shed_ratio: f64,
    trace_file: &Path,
) -> Result<Metrics, String> {
    let timed = &schedule.stream[..SERVE_REPLAY.min(schedule.stream.len())];
    let seq: Vec<&Request> = schedule.prewarm.iter().chain(timed).collect();
    let warm = schedule.prewarm.len();

    // Every request goes to the daemon first (one at a time, in schedule
    // order), then to four in-process variants, each with a store and
    // journal of its own: the plain and the traced layer-by-layer replay,
    // `Service::verify`, and HTTP to an in-process server. The variants
    // take turns going first, so none always runs on the warmest caches.
    let daemon = Daemon::spawn(bin, &work.join("replay-daemon"), None)?;
    let mut plain_b = Backend::open(&work.join("replay-plain"))?;
    let mut traced_b = Backend::open(&work.join("replay-traced"))?;
    let svc = Service::open(service_config(&work.join("replay-service")))?;
    let http_svc = Arc::new(Service::open(service_config(&work.join("replay-http")))?);
    let server = unity_serve::start(Arc::clone(&http_svc), "127.0.0.1:0")?;
    let addr = server.local_addr().to_string();
    let mut tr = Tracer::new(false);
    let mut off = Tracer::new(false);
    let (mut c, mut scratch) = (Counters::default(), Counters::default());
    let mut ms = [
        vec![0f64; seq.len()],
        vec![0f64; seq.len()],
        vec![0f64; seq.len()],
        vec![0f64; seq.len()],
    ];
    for (i, r) in seq.iter().enumerate() {
        let cache = match serve::submit(&daemon.addr, r)? {
            Reply::Ok(cache) => cache,
            Reply::Failed { .. } => return Err("daemon refused a sequential request".into()),
        };
        expected_cache(r, &cache)?;
        let timed = i >= warm;
        tr.set_enabled(timed);
        tr.set_request(i as u64);
        for k in 0..4 {
            let variant = (i + k) % 4;
            let t0 = Instant::now();
            let got = match variant {
                0 => serve_request(&mut off, &mut scratch, &mut plain_b, r)?.0,
                1 => {
                    serve_request(
                        &mut tr,
                        if timed { &mut c } else { &mut scratch },
                        &mut traced_b,
                        r,
                    )?
                    .0
                }
                2 => {
                    let resp = svc
                        .verify(serve::wire(r))
                        .map_err(|e| format!("Service::verify: {e}"))?;
                    ms[2][i] = t0.elapsed().as_secs_f64() * 1e3;
                    serve::check_response(r, &resp)?;
                    resp.cache
                }
                _ => {
                    let body = serve::wire(r).to_json();
                    let t0 = Instant::now();
                    let reply = request_with(
                        &addr,
                        "POST",
                        "/verify",
                        Some(&body),
                        &ClientOptions::default(),
                    )?;
                    ms[3][i] = t0.elapsed().as_secs_f64() * 1e3;
                    let resp = VerifyResponse::from_json(&reply.body)
                        .map_err(|e| format!("in-process HTTP: {e}"))?;
                    serve::check_response(r, &resp)?;
                    resp.cache
                }
            };
            if variant < 2 {
                ms[variant][i] = t0.elapsed().as_secs_f64() * 1e3;
            }
            if got != cache {
                return Err(format!(
                    "in-process variant {variant} drifted from the daemon at request {i}: {got:?} vs {cache:?}"
                ));
            }
        }
    }
    serve::require_healthy(&daemon.addr)?;
    let _ = daemon.stop();
    server.shutdown();
    drop((svc, http_svc));

    write_trace(&tr, trace_file)?;
    let encode = per_request(&tr, "report");
    let enc = |i: usize| encode.get(&(i as u64)).copied().unwrap_or(0) as f64 / 1e6;
    let [plain_ms, traced_ms, svc_ms, http_ms] = &ms;
    // Medians of per-request differences: the service's own work beyond
    // the layers it calls, and HTTP's beyond the service and the
    // response encoding.
    let service_ms = stats::median(
        &(warm..seq.len())
            .map(|i| svc_ms[i] - (plain_ms[i] - enc(i)))
            .collect::<Vec<_>>(),
    );
    let http_ms_med = stats::median(
        &(warm..seq.len())
            .map(|i| http_ms[i] - svc_ms[i] - enc(i))
            .collect::<Vec<_>>(),
    );
    let sum = |xs: &[f64]| xs[warm..].iter().sum::<f64>();
    let mut m = layer_metrics(&tr, &c, c.verdicts);
    let share =
        |k: Kind| timed.iter().filter(|r| r.kind == k).count() as f64 / timed.len().max(1) as f64;
    let mut programs: Vec<(usize, u64)> = seq.iter().map(|r| (r.slot, r.program)).collect();
    programs.sort_unstable();
    programs.dedup();
    m.extend([
        ("serve.service.ms", service_ms, "ms"),
        ("serve.service.shed_ratio", shed_ratio, "ratio"),
        ("serve.http.ms", http_ms_med, "ms"),
        ("process.ms", 0.0, "ms"),
        (
            "trace.overhead",
            sum(traced_ms) / sum(plain_ms) - 1.0,
            "ratio",
        ),
        (
            "loadgen.lag_ms_p95",
            stats::tail(lag, 95).map_or(0.0, |t| t.value),
            "ms",
        ),
        ("mix.resubmit_share", share(Kind::Resubmit), "ratio"),
        ("mix.check_edit_share", share(Kind::CheckEdit), "ratio"),
        (
            "mix.program_edit_share",
            share(Kind::ProgramEdit) + share(Kind::ComponentEdit),
            "ratio",
        ),
        ("mix.refuted_share", ratio(c.refuted, c.checks), "ratio"),
        ("mix.distinct_programs", programs.len() as f64, "count"),
    ]);
    print_shares(&m);
    Ok(m)
}
