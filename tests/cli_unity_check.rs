//! End-to-end tests of the `unity-check` binary against the shipped
//! example specifications.

use std::process::Command;

fn unity_check(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_unity-check"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn toy_spec_passes() {
    let out = unity_check(&["examples/specs/toy.unity"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("PASS conservation"), "{stdout}");
    assert!(stdout.contains("PASS weakened0"), "{stdout}");
    assert!(stdout.contains("PASS saturation"), "{stdout}");
    assert!(!stdout.contains("FAIL"), "{stdout}");
}

#[test]
fn priority_ring_spec_passes() {
    let out = unity_check(&["examples/specs/priority_ring3.unity"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for check in [
        "excl01", "excl12", "excl02", "live0", "live1", "live2", "acyclic",
    ] {
        assert!(
            stdout.contains(&format!("PASS {check}")),
            "{check}: {stdout}"
        );
    }
}

#[test]
fn broken_spec_fails_with_counterexample() {
    let out = unity_check(&["examples/specs/broken.unity"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FAIL conservation"), "{stdout}");
    // The counterexample names the offending command.
    assert!(stdout.contains("a1"), "{stdout}");
}

#[test]
fn list_mode_shows_checks_without_checking() {
    let out = unity_check(&["examples/specs/broken.unity", "--list"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "--list must not run checks: {stdout}");
    assert!(stdout.contains("conservation"), "{stdout}");
}

#[test]
fn sim_mode_writes_a_trace() {
    let dir = std::env::temp_dir().join("unity_check_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("toy_trace.json");
    let out = unity_check(&[
        "examples/specs/toy.unity",
        "--sim",
        "200",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("SIM-PASS conservation"), "{stdout}");
    let json = std::fs::read_to_string(&trace).unwrap();
    assert!(json.starts_with("{\"program\":"));
    assert!(json.contains("\"vars\":[\"c0\",\"C\",\"c1\"]"), "{json}");
    std::fs::remove_file(&trace).ok();
}

#[test]
fn json_report_for_passing_spec() {
    use unity_composition::unity_mc::prelude::*;
    let dir = std::env::temp_dir().join("unity_check_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("toy_report.json");
    let out = unity_check(&[
        "examples/specs/toy.unity",
        "--json",
        path.to_str().unwrap(),
        "--sim",
        "50",
        "--quiet",
    ]);
    assert!(out.status.success(), "exit 0 unchanged by --json");
    let json = std::fs::read_to_string(&path).unwrap();
    let report = Report::from_json(&json).expect("schema parses");
    // Stable schema: engine/universe/vars and one verdict per check.
    assert_eq!(report.engine, Engine::Compiled);
    assert_eq!(report.universe, Universe::Reachable);
    assert_eq!(report.vars, vec!["c0", "C", "c1"]);
    let names: Vec<&str> = report.checks.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, vec!["conservation", "weakened0", "saturation"]);
    assert!(report.checks.iter().all(|c| c.verdict.passed()));
    // The leadsto check carries transition-system counters.
    assert!(matches!(
        report.checks[2].verdict.stats,
        VerdictStats::Explicit { states, .. } if states > 0
    ));
    // Simulation monitors landed in the same report.
    assert_eq!(report.sim.len(), 2, "two invariant checks monitored");
    assert!(report.sim.iter().all(|s| s.passed && s.steps == 50));
    assert!(report.all_passed());
    // Round-trip: serialized forms identical.
    assert_eq!(report.to_json(), json);
    std::fs::remove_file(&path).ok();
}

#[test]
fn json_report_for_leadsto_heavy_spec_round_trips_with_traversal_counters() {
    use unity_composition::unity_mc::prelude::*;
    let dir = std::env::temp_dir().join("unity_check_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("priority_report.json");
    // Three of the seven checks are leadsto properties: the report must
    // carry the worklist engine's traversal counters and round-trip
    // exactly.
    let out = unity_check(&[
        "examples/specs/priority_ring3.unity",
        "--json",
        path.to_str().unwrap(),
        "--stats",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    // --stats aggregates the liveness counters across leadsto checks.
    assert!(stdout.contains("STATS leadsto: 3 check(s)"), "{stdout}");
    assert!(stdout.contains("predecessor edge(s) walked"), "{stdout}");
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"scanned_states\":"), "{json}");
    assert!(json.contains("\"pred_edges\":"), "{json}");
    assert!(json.contains("\"worklist_pushes\":"), "{json}");
    let report = Report::from_json(&json).expect("schema parses");
    let live: Vec<_> = report
        .checks
        .iter()
        .filter(|c| c.name.starts_with("live"))
        .collect();
    assert_eq!(live.len(), 3);
    for c in &live {
        assert!(c.verdict.passed());
        match c.verdict.stats {
            VerdictStats::Explicit {
                states,
                transitions,
                scanned_states,
                ..
            } => {
                assert!(states > 0 && transitions > 0);
                assert!(
                    scanned_states < states,
                    "the ¬q region is a strict subset: {:?}",
                    c.verdict.stats
                );
            }
            ref other => panic!("leadsto carries explicit stats, got {other:?}"),
        }
    }
    // Round-trip: serialized forms identical, counters included.
    assert_eq!(report.to_json(), json);
    std::fs::remove_file(&path).ok();
}

#[test]
fn json_report_for_failing_spec_carries_the_witness() {
    use unity_composition::unity_mc::prelude::*;
    let dir = std::env::temp_dir().join("unity_check_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken_report.json");
    let out = unity_check(&[
        "examples/specs/broken.unity",
        "--json",
        path.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(1), "exit 1 unchanged by --json");
    let json = std::fs::read_to_string(&path).unwrap();
    let report = Report::from_json(&json).unwrap();
    let failed = report
        .checks
        .iter()
        .find(|c| c.name == "conservation")
        .unwrap();
    assert!(failed.verdict.failed());
    // The decoded witness survives serialization: a next-step with the
    // offending command and both states.
    match failed.verdict.counterexample().unwrap() {
        Counterexample::Next {
            state,
            command,
            after,
        } => {
            assert_eq!(command.as_deref(), Some("a1"));
            assert_eq!(state.values().len(), report.vars.len());
            assert_eq!(after.values().len(), report.vars.len());
        }
        other => panic!("unexpected witness {other:?}"),
    }
    assert!(!report.all_passed());
    std::fs::remove_file(&path).ok();
}

#[test]
fn json_report_on_infrastructure_error_exits_2_but_persists() {
    use unity_composition::unity_mc::prelude::*;
    let dir = std::env::temp_dir().join("unity_check_test");
    std::fs::create_dir_all(&dir).unwrap();
    // A space far past the scan budget: the check errors (exit 2), and
    // the JSON report still records the error verdict.
    let spec = dir.join("huge.unity");
    std::fs::write(
        &spec,
        "program Huge\n  var x : int 0..99999999\n  init x == 0\n  \
         fair cmd up: x < 99999999 -> x := x + 1\nend\n\
         spec S\n  cap: invariant x <= 99999999\nend\n",
    )
    .unwrap();
    let path = dir.join("huge_report.json");
    let out = unity_check(&[
        spec.to_str().unwrap(),
        "--json",
        path.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(2), "infrastructure error is exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cap"), "{stderr}");
    let report = Report::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(report.checks[0].verdict.error().is_some());
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&spec).ok();
}

#[test]
fn deeply_nested_checks_are_parse_errors_not_crashes() {
    let dir = std::env::temp_dir().join("unity_check_test");
    std::fs::create_dir_all(&dir).unwrap();
    let n = 100_000;
    for (name, check) in [
        (
            "deep_parens.unity",
            format!("{}x{}", "(".repeat(n), ")".repeat(n)),
        ),
        ("deep_and.unity", vec!["x"; n].join(" && ")),
    ] {
        let spec = dir.join(name);
        std::fs::write(
            &spec,
            format!("program P\n  var x : bool\n  init x\nend\nspec S\n  deep: invariant {check}\nend\n"),
        )
        .unwrap();
        let out = unity_check(&[spec.to_str().unwrap(), "--quiet"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains("parse error") && stderr.contains("nested deeper than"),
            "{name}: {stderr}"
        );
        std::fs::remove_file(&spec).ok();
    }
}

#[test]
fn json_flag_requires_a_path() {
    let out = unity_check(&["examples/specs/toy.unity", "--json"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn usage_errors_exit_2() {
    let out = unity_check(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = unity_check(&["examples/specs/toy.unity", "--universe", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let out = unity_check(&["/nonexistent/file.unity"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn stabilize_spec_passes_under_all_states_and_synthesizes() {
    // Dijkstra's ring has `initially = true`: convergence must hold from
    // *every* state, so the all-states universe is the honest one here.
    let out = unity_check(&[
        "examples/specs/stabilize_ring3.unity",
        "--universe",
        "all",
        "--synthesize",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for check in ["pigeonhole", "closure", "convergence"] {
        assert!(
            stdout.contains(&format!("PASS {check}")),
            "{check}: {stdout}"
        );
    }
    assert!(stdout.contains("SYNTH convergence:"), "{stdout}");
    assert!(!stdout.contains("SYNTH-FAIL"), "{stdout}");
}

#[test]
fn conserve_mode_discovers_the_law() {
    let out = unity_check(&["examples/specs/toy.unity", "--conserve", "--quiet"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("CONSERVE: basis dimension 1"), "{stdout}");
    assert!(stdout.contains("=> invariant"), "{stdout}");
}

#[test]
fn synthesize_mode_proves_the_leadsto_checks() {
    let out = unity_check(&["examples/specs/toy.unity", "--synthesize", "--quiet"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("SYNTH saturation:"), "{stdout}");
    assert!(stdout.contains("premises"), "{stdout}");
    assert!(!stdout.contains("SYNTH-FAIL"), "{stdout}");
}

#[test]
fn synthesize_mode_reports_unprovable_goals() {
    // Under the all-states universe, saturation is a reachable-only truth:
    // the synthesizer must refuse (unreachable saturated traps), while the
    // safety checks still pass.
    let out = unity_check(&[
        "examples/specs/toy.unity",
        "--universe",
        "all",
        "--synthesize",
        "--quiet",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Exit code 1 comes from the FAIL of the leadsto *check* itself.
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    // The synthesizer works over the reachable universe and still
    // succeeds — the report makes the semantic split visible.
    assert!(stdout.contains("SYNTH"), "{stdout}");
}

#[test]
fn mutate_mode_audits_the_file_specs() {
    let out = unity_check(&["examples/specs/toy.unity", "--mutate", "--quiet"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("MUTATE: mutants:"), "{stdout}");
    assert!(stdout.contains("kill ratio 1.00"), "{stdout}");
}

#[test]
fn mutate_mode_on_failing_spec_reports_error() {
    // The broken file's conservation check fails on the original program:
    // the audit must refuse rather than produce a meaningless ratio.
    let out = unity_check(&["examples/specs/broken.unity", "--mutate", "--quiet"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("MUTATE-ERROR"), "{stdout}");
}

#[test]
fn all_states_universe_distinguishes_liveness() {
    // Safety checks are insensitive to the universe, but `true ↦ C == 4`
    // is a *reachable* truth: the all-states universe contains unreachable
    // saturated states (e.g. c0=2, c1=2, C=3) where no command can fire,
    // and the checker correctly reports the trap. The CLI exposes exactly
    // this semantic distinction.
    let out = unity_check(&["examples/specs/toy.unity", "--universe", "all"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("PASS conservation"), "{stdout}");
    assert!(stdout.contains("PASS weakened0"), "{stdout}");
    assert!(stdout.contains("FAIL saturation"), "{stdout}");
    assert!(stdout.contains("fair trap"), "{stdout}");
}

#[test]
fn version_flag_prints_and_exits_0() {
    let out = unity_check(&["--version"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.starts_with("unity-check "),
        "version banner: {stdout}"
    );
    // -V shorthand, and --version wins even when other arguments follow.
    let out = unity_check(&["-V"]);
    assert!(out.status.success());
}

#[test]
fn unknown_flags_exit_2_even_with_file_set() {
    // A stray flag after FILE must be a usage error, not silently
    // ignored (or worse, treated as a second FILE).
    let out = unity_check(&["examples/specs/toy.unity", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "{stderr}");
    // Before FILE too.
    let out = unity_check(&["--bogus", "examples/specs/toy.unity"]);
    assert_eq!(out.status.code(), Some(2));
    // A second bare argument is rejected as well.
    let out = unity_check(&["examples/specs/toy.unity", "examples/specs/broken.unity"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("FILE already given"), "{stderr}");
}

#[test]
fn help_flag_lists_every_accepted_flag() {
    // `--help` is asked-for output: stdout, exit 0 — and the usage text
    // must mention every flag the parser accepts, so a flag can never
    // ship undocumented.
    for help in [&["--help"][..], &["-h"][..]] {
        let out = unity_check(help);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{help:?}: {stdout}");
        for flag in [
            "--engine",
            "--order",
            "--stats",
            "--universe",
            "--compositional",
            "--threads",
            "--sim",
            "--seed",
            "--serve",
            "--trace",
            "--json",
            "--list",
            "--quiet",
            "--conserve",
            "--synthesize",
            "--mutate",
            "--help",
            "--version",
        ] {
            assert!(stdout.contains(flag), "usage text missing {flag}: {stdout}");
        }
    }
}

#[test]
fn compositional_matches_flat_verdicts_and_names_rules() {
    // The acceptance bar for assume-guarantee checking: verdicts are
    // identical to the flat product run on every shipped spec, and each
    // discharged obligation names the rule that closed it.
    for spec in [
        "examples/specs/toy.unity",
        "examples/specs/broken.unity",
        "examples/specs/priority_ring3.unity",
        "examples/specs/stabilize_ring3.unity",
    ] {
        let flat = unity_check(&[spec]);
        let comp = unity_check(&[spec, "--compositional"]);
        assert_eq!(comp.status.code(), flat.status.code(), "{spec}");
        let verdicts = |raw: &[u8]| -> Vec<String> {
            String::from_utf8_lossy(raw)
                .lines()
                .filter(|l| l.starts_with("PASS") || l.starts_with("FAIL"))
                .map(|l| l.split(':').next().unwrap().to_string())
                .collect()
        };
        assert_eq!(verdicts(&comp.stdout), verdicts(&flat.stdout), "{spec}");
        // Every compositional verdict line carries its `[rule]` tag.
        let text = String::from_utf8_lossy(&comp.stdout);
        for line in text
            .lines()
            .filter(|l| l.starts_with("PASS") || l.starts_with("FAIL"))
        {
            assert!(line.ends_with(']'), "{spec}: no rule tag on {line:?}");
        }
    }
}

#[test]
fn compositional_stats_and_json_carry_discharge_provenance() {
    let dir = std::env::temp_dir().join("unity_check_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("compositional_report.json");
    let out = unity_check(&[
        "examples/specs/toy.unity",
        "--compositional",
        "--stats",
        "--json",
        path.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("STATS compositional:"), "{stdout}");
    assert!(stdout.contains("obligation(s)"), "{stdout}");
    assert!(stdout.contains("cert miss(es)"), "{stdout}");
    // The JSON report records the same provenance machine-readably.
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"discharge\""), "{json}");
    assert!(json.contains("\"rule\":"), "{json}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn compositional_rejects_flat_only_analyses() {
    for flag in ["--synthesize", "--mutate"] {
        let out = unity_check(&["examples/specs/toy.unity", "--compositional", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("does not apply with --compositional"),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn wide_integer_domain_errors_alike_under_every_engine() {
    // A 63-bit domain packs into one word, so the symbolic engine gets
    // to lower it; it must fall back instead of enumerating the values,
    // and report the same space-bound error as the explicit engines.
    let dir = std::env::temp_dir().join("unity_check_test");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("wide63.unity");
    std::fs::write(
        &spec,
        "program Wide\n  var x : int 0..9223372036854775807\n  init x == 0\n  \
         fair cmd inc: x < 3 -> x := x + 1\nend\n\
         spec S\n  bounded: invariant x <= 3\nend\n",
    )
    .unwrap();
    let error_line = |engine: &str| {
        let out = unity_check(&[spec.to_str().unwrap(), "--engine", engine]);
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        let line = stderr
            .lines()
            .find(|l| l.starts_with("error:"))
            .map(str::to_string);
        (out.status.code(), line, stderr)
    };
    let (code, line, stderr) = error_line("explicit");
    assert_eq!(code, Some(2), "{stderr}");
    let line = line.expect("an error line");
    assert!(line.contains("exceeds limit"), "{line}");
    for engine in ["reference", "symbolic"] {
        let (c, l, stderr) = error_line(engine);
        assert_eq!(c, code, "{engine}: {stderr}");
        assert_eq!(l.as_deref(), Some(line.as_str()), "{engine}");
    }
    std::fs::remove_file(&spec).ok();
}

#[test]
fn engine_flag_selects_identical_verdicts() {
    // Every engine must agree check-for-check on the shipped specs —
    // passing and failing alike (the acceptance bar for the symbolic
    // backend).
    for spec in [
        "examples/specs/toy.unity",
        "examples/specs/broken.unity",
        "examples/specs/priority_ring3.unity",
        "examples/specs/stabilize_ring3.unity",
    ] {
        let baseline = unity_check(&[spec, "--engine", "explicit"]);
        let base_out = String::from_utf8_lossy(&baseline.stdout).to_string();
        for engine in ["symbolic", "reference"] {
            let out = unity_check(&[spec, "--engine", engine]);
            assert_eq!(
                out.status.code(),
                baseline.status.code(),
                "{spec} under {engine}"
            );
            let text = String::from_utf8_lossy(&out.stdout);
            // PASS/FAIL lines must match verdict-for-verdict.
            let verdicts = |s: &str| -> Vec<String> {
                s.lines()
                    .filter(|l| l.starts_with("PASS") || l.starts_with("FAIL"))
                    .map(|l| l.split(':').next().unwrap().to_string())
                    .collect()
            };
            assert_eq!(
                verdicts(&text),
                verdicts(&base_out),
                "{spec} under {engine}: {text}"
            );
        }
    }
    let out = unity_check(&["examples/specs/toy.unity", "--engine", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
}

/// `priority_ring16.unity`'s four quadrant programs with `checks` as the
/// spec, written to a temp file named `name`.
fn ring16_with(name: &str, checks: &str) -> std::path::PathBuf {
    let src = std::fs::read_to_string("examples/specs/priority_ring16.unity").unwrap();
    let programs = &src[..src.find("\nspec ").expect("a spec block")];
    let dir = std::env::temp_dir().join("unity_check_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, format!("{programs}\nspec Ring16\n{checks}\nend\n")).unwrap();
    path
}

#[test]
fn stats_does_no_work_the_checks_did_not() {
    // One safety check: no check builds the 64,839-state transition
    // system or the symbolic reachable set, so `--stats` must not
    // either.
    let spec = ring16_with("stats_safety_only.unity", "  taut: invariant e0 || !e0");
    let spec = spec.to_str().unwrap();
    for engine in ["explicit", "symbolic"] {
        let plain = unity_check(&[spec, "--engine", engine]);
        let stats = unity_check(&[spec, "--engine", engine, "--stats"]);
        assert!(plain.status.success() && stats.status.success());
        let plain = String::from_utf8_lossy(&plain.stdout).to_string();
        let stats = String::from_utf8_lossy(&stats.stdout).to_string();
        let verdicts: String =
            stats
                .lines()
                .filter(|l| !l.starts_with("STATS"))
                .fold(String::new(), |mut out, l| {
                    out.push_str(l);
                    out.push('\n');
                    out
                });
        assert_eq!(verdicts, plain, "{engine}");
        assert!(!stats.contains("STATS build:"), "{engine}: {stats}");
        assert!(!stats.contains("reachable state(s)"), "{engine}: {stats}");
    }
    let stats = unity_check(&[spec, "--stats"]);
    let stats = String::from_utf8_lossy(&stats.stdout);
    assert!(
        stats.contains("STATS explicit: 8 state(s) scanned by 1 safety check(s)"),
        "{stats}"
    );
    // A leadsto check builds the system, and `--stats` reports it.
    let live = unity_check(&["examples/specs/priority_ring16.unity", "--stats"]);
    let live = String::from_utf8_lossy(&live.stdout);
    assert!(
        live.contains("STATS explicit: 64839 state(s) visited"),
        "{live}"
    );
    assert!(live.contains("STATS build:"), "{live}");
    std::fs::remove_file(spec).ok();
}

#[test]
fn output_is_identical_at_every_thread_count() {
    // Every shipped spec in both universes, plus a ring whose lasso once
    // depended on the thread count: stdout must not depend on
    // `--threads`.
    let lasso = ring16_with(
        "threads_lasso.unity",
        "  lasso: e1 && e2 leadsto !e1 && !e2 && !e3 && !e5 && !e6",
    );
    let mut specs: Vec<std::path::PathBuf> = std::fs::read_dir("examples/specs")
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "unity"))
        .collect();
    specs.sort();
    specs.push(lasso.clone());
    for spec in &specs {
        let spec = spec.to_str().unwrap();
        for universe in ["reachable", "all"] {
            let run = |threads: &str| {
                let out = unity_check(&[spec, "--universe", universe, "--threads", threads]);
                (out.status.code(), out.stdout)
            };
            let one = run("1");
            for threads in ["2", "4"] {
                assert!(
                    run(threads) == one,
                    "{spec} --universe {universe}: --threads {threads} differs from --threads 1"
                );
            }
        }
    }
    std::fs::remove_file(lasso).ok();
}
