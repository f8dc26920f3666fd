//! Golden witness outputs: `unity-check`'s stdout and exit code on every
//! shipped spec (`examples/specs/*.unity`) and every spec under
//! `tests/golden/`, under each engine × universe × flat/compositional,
//! must equal the recorded `tests/golden/<spec>.out`.
//!
//! Verdict tests elsewhere check pass/fail; these files also pin the
//! witnesses: lasso prefixes and trap examples of refuted `leadsto`
//! checks, and the pre-state and command of refuted safety checks. A
//! change to how the transition system is stored, built or walked must
//! leave them byte-identical.
//!
//! Each `.out` file lists its runs in a fixed order, one block per run:
//! a `$ unity-check --engine E --universe U [--compositional]` line, the
//! run's stdout, and an `exit N` line. Regenerate only for an intended
//! output change, and review the diff, from the repository root after
//! `cargo build --release`:
//!
//! ```text
//! for s in examples/specs/*.unity tests/golden/*.unity; do o=tests/golden/$(basename $s .unity).out; : > $o; for e in explicit symbolic reference; do for u in reachable all; do for m in "" " --compositional"; do echo "\$ unity-check --engine $e --universe $u$m" >> $o; ./target/release/unity-check $s --engine $e --universe $u$m >> $o; echo "exit $?" >> $o; done; done; done; done
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

const ENGINES: [&str; 3] = ["explicit", "symbolic", "reference"];
const UNIVERSES: [&str; 2] = ["reachable", "all"];
const MODES: [&str; 2] = ["", " --compositional"];

/// The recorded form of every run of `spec`.
fn render(spec: &Path) -> String {
    let mut out = String::new();
    for engine in ENGINES {
        for universe in UNIVERSES {
            for mode in MODES {
                out.push_str(&format!(
                    "$ unity-check --engine {engine} --universe {universe}{mode}\n"
                ));
                let mut cmd = Command::new(env!("CARGO_BIN_EXE_unity-check"));
                cmd.arg(spec)
                    .args(["--engine", engine, "--universe", universe]);
                if !mode.is_empty() {
                    cmd.arg(mode.trim());
                }
                let run = cmd.output().expect("spawn unity-check");
                out.push_str(&String::from_utf8(run.stdout).expect("utf-8 stdout"));
                let code = run.status.code().expect("exit code");
                out.push_str(&format!("exit {code}\n"));
            }
        }
    }
    out
}

fn specs_in(dir: &str) -> Vec<PathBuf> {
    let mut specs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "unity"))
        .collect();
    specs.sort();
    specs
}

#[test]
fn stdout_and_exit_codes_match_the_recorded_runs() {
    let mut specs = specs_in("examples/specs");
    specs.extend(specs_in("tests/golden"));
    assert!(specs.len() >= 7, "five shipped specs plus two golden ones");
    let mut drift = Vec::new();
    for spec in &specs {
        let stem = spec.file_stem().unwrap().to_str().unwrap();
        let golden = Path::new("tests/golden").join(format!("{stem}.out"));
        let want = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("{}: {e} (record it first)", golden.display()));
        let got = render(spec);
        if got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            drift.push(format!(
                "{}: first difference at line {}\n  got:  {:?}\n  want: {:?}",
                golden.display(),
                line + 1,
                got.lines().nth(line).unwrap_or("<end>"),
                want.lines().nth(line).unwrap_or("<end>"),
            ));
        }
    }
    assert!(drift.is_empty(), "{}", drift.join("\n"));
}
