//! Machine-readable verification reports.
//!
//! [`Report`] is what [`Verifier::verify_all`](crate::verifier::Verifier)
//! produces: one [`Verdict`] per named check plus the session context
//! (program, variable order, engine, universe, wall time). It is the
//! single backend behind every `unity-check` output mode — the
//! PASS/FAIL lines, `--json`, and the simulation monitors all render
//! from it.
//!
//! The JSON shape is **stable** (`"schema": 1`) and round-trips:
//! [`Report::to_json`] and [`Report::from_json`] are exact inverses on
//! the serialized form. States serialize as value arrays in vocabulary
//! order (`vars` gives the names), booleans as JSON booleans, integers
//! as numbers — the same conventions as `unity-sim`'s trace export. The
//! writer and reader are hand-rolled per RFC 8259 (the workspace
//! deliberately carries no JSON dependency; the vendored `serde` derive
//! is a marker).
//!
//! ```
//! use unity_mc::prelude::*;
//! let report = Report {
//!     program: "toy".into(),
//!     vars: vec!["x".into()],
//!     engine: Engine::Compiled,
//!     universe: Universe::Reachable,
//!     checks: vec![],
//!     sim: vec![],
//!     elapsed: std::time::Duration::from_millis(1),
//! };
//! let json = report.to_json();
//! assert_eq!(Report::from_json(&json).unwrap().to_json(), json);
//! ```

use std::fmt::Write as _;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use unity_core::state::State;
use unity_core::value::Value;
use unity_symbolic::SymStats;

use crate::json::{write_string as json_string, Json};
use crate::space::Engine;
use crate::trace::{Counterexample, McError};
use crate::transition::Universe;
use crate::verifier::{DischargeInfo, Outcome, Verdict, VerdictStats};

/// One named check's result inside a [`Report`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[must_use = "a check report carries the check's outcome"]
pub struct CheckReport {
    /// Check label.
    pub name: String,
    /// 1-based source line (0 = not from a file).
    pub line: usize,
    /// The structured verdict.
    pub verdict: Verdict,
}

/// One invariant monitor's outcome from a weakly-fair simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimCheck {
    /// Monitor label (the invariant check's name).
    pub name: String,
    /// Steps simulated.
    pub steps: u64,
    /// Whether the invariant held throughout.
    pub passed: bool,
    /// First violating step, if any.
    pub violation_step: Option<u64>,
    /// Post-state of the first violation, if captured.
    pub violation_state: Option<State>,
}

/// A full verification run: the session context plus every check's
/// verdict. Serializable ([`Report::to_json`]) with a stable schema;
/// see the [module docs](crate::report) for a round-trip example.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[must_use = "a report carries every check's outcome; inspect or serialize it"]
pub struct Report {
    /// The checked program's name.
    pub program: String,
    /// Variable names in vocabulary order (the decoding key for every
    /// serialized state).
    pub vars: Vec<String>,
    /// The engine the session was configured with.
    pub engine: Engine,
    /// The universe `leadsto` checks quantified over.
    pub universe: Universe,
    /// Per-check results, in check order.
    pub checks: Vec<CheckReport>,
    /// Simulation monitor results (empty unless a simulation ran).
    pub sim: Vec<SimCheck>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl Report {
    /// Whether every check passed and no simulation monitor fired.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.verdict.passed()) && self.sim.iter().all(|s| s.passed)
    }

    /// The first check that ended in an infrastructure error, if any.
    pub fn first_error(&self) -> Option<&CheckReport> {
        self.checks.iter().find(|c| c.verdict.error().is_some())
    }

    /// Serializes to the stable JSON schema (`"schema": 1`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.checks.len() * 192);
        out.push_str("{\"schema\":1,\"program\":");
        json_string(&mut out, &self.program);
        out.push_str(",\"engine\":");
        json_string(&mut out, engine_str(self.engine));
        out.push_str(",\"universe\":");
        json_string(&mut out, universe_str(self.universe));
        out.push_str(",\"vars\":[");
        for (k, v) in self.vars.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            json_string(&mut out, v);
        }
        let _ = write!(
            out,
            "],\"elapsed_ns\":{},\"checks\":[",
            self.elapsed.as_nanos()
        );
        for (k, c) in self.checks.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            write_check(&mut out, c);
        }
        out.push_str("],\"sim\":[");
        for (k, s) in self.sim.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            write_sim(&mut out, s);
        }
        out.push_str("]}");
        out
    }

    /// Parses a report serialized by [`Report::to_json`]. Errors
    /// ([`McError::Message`] inside verdicts) come back in rendered
    /// form; everything else reconstructs exactly —
    /// `Report::from_json(&r.to_json())?.to_json() == r.to_json()`.
    ///
    /// The parser ([`Json::parse`]) rejects trailing garbage after the
    /// top-level object, duplicate keys, floats, and malformed escapes
    /// — journal replay depends on corrupt records failing here.
    pub fn from_json(src: &str) -> Result<Report, String> {
        let root = Json::parse(src)?;
        Report::from_value(&root)
    }

    /// Reconstructs a report from an already-parsed [`Json`] value
    /// (e.g. one field of a larger journal record).
    pub fn from_value(root: &Json) -> Result<Report, String> {
        if root.field("schema")?.as_int()? != 1 {
            return Err("unsupported report schema".into());
        }
        let vars: Vec<String> = root
            .field("vars")?
            .as_arr()?
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect::<Result<_, _>>()?;
        let checks = root
            .field("checks")?
            .as_arr()?
            .iter()
            .map(read_check)
            .collect::<Result<_, _>>()?;
        let sim = root
            .field("sim")?
            .as_arr()?
            .iter()
            .map(read_sim)
            .collect::<Result<_, _>>()?;
        Ok(Report {
            program: root.field("program")?.as_str()?.to_string(),
            vars,
            engine: engine_from(root.field("engine")?.as_str()?)?,
            universe: universe_from(root.field("universe")?.as_str()?)?,
            checks,
            sim,
            elapsed: duration_from(root.field("elapsed_ns")?.as_int()?),
        })
    }
}

fn engine_str(e: Engine) -> &'static str {
    match e {
        Engine::Reference => "reference",
        Engine::Compiled => "compiled",
        Engine::Symbolic => "symbolic",
    }
}

fn engine_from(s: &str) -> Result<Engine, String> {
    match s {
        "reference" => Ok(Engine::Reference),
        "compiled" => Ok(Engine::Compiled),
        "symbolic" => Ok(Engine::Symbolic),
        other => Err(format!("unknown engine `{other}`")),
    }
}

fn universe_str(u: Universe) -> &'static str {
    match u {
        Universe::Reachable => "reachable",
        Universe::AllStates => "all",
    }
}

fn universe_from(s: &str) -> Result<Universe, String> {
    match s {
        "reachable" => Ok(Universe::Reachable),
        "all" => Ok(Universe::AllStates),
        other => Err(format!("unknown universe `{other}`")),
    }
}

fn duration_from(ns: i128) -> Duration {
    Duration::from_nanos(ns.clamp(0, u64::MAX as i128) as u64)
}

// ---------------------------------------------------------------- writer

fn write_check(out: &mut String, c: &CheckReport) {
    out.push_str("{\"name\":");
    json_string(out, &c.name);
    let _ = write!(out, ",\"line\":{},\"property\":", c.line);
    json_string(out, &c.verdict.property);
    let verdict = match &c.verdict.outcome {
        Outcome::Pass => "pass",
        Outcome::Fail { .. } => "fail",
        Outcome::Error { .. } => "error",
    };
    out.push_str(",\"verdict\":");
    json_string(out, verdict);
    out.push_str(",\"engine\":");
    json_string(out, engine_str(c.verdict.engine));
    let _ = write!(
        out,
        ",\"elapsed_ns\":{},\"stats\":",
        c.verdict.elapsed.as_nanos()
    );
    write_stats(out, &c.verdict.stats);
    out.push_str(",\"counterexample\":");
    match &c.verdict.outcome {
        Outcome::Fail { cex } => write_cex(out, cex),
        _ => out.push_str("null"),
    }
    out.push_str(",\"error\":");
    match &c.verdict.outcome {
        Outcome::Error { error } => json_string(out, &error.to_string()),
        _ => out.push_str("null"),
    }
    // Additive field (schema unchanged): only compositional sessions
    // emit it, and reports without it read back as `None`.
    if let Some(d) = &c.verdict.discharge {
        out.push_str(",\"discharge\":{\"rule\":");
        json_string(out, &d.rule);
        out.push_str(",\"components\":[");
        for (k, i) in d.components.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "{i}");
        }
        let _ = write!(out, "],\"cached\":{}}}", d.cached);
    }
    out.push('}');
}

fn write_stats(out: &mut String, stats: &VerdictStats) {
    match stats {
        VerdictStats::Unmeasured => out.push_str("null"),
        VerdictStats::Explicit {
            states,
            transitions,
            scanned_states,
            pred_edges,
            worklist_pushes,
            build_ms,
        } => {
            let _ = write!(
                out,
                "{{\"kind\":\"explicit\",\"states\":{states},\"transitions\":{transitions},\
                 \"scanned_states\":{scanned_states},\"pred_edges\":{pred_edges},\
                 \"worklist_pushes\":{worklist_pushes},\"build_ms\":{build_ms}}}"
            );
        }
        VerdictStats::Symbolic { stats } => {
            let _ = write!(
                out,
                "{{\"kind\":\"symbolic\",\"live_nodes\":{},\"peak_nodes\":{},\
                 \"cache_lookups\":{},\"cache_hits\":{},\"swaps\":{},\"sift_passes\":{},\
                 \"gc_runs\":{},\"reclaimed_nodes\":{}}}",
                stats.live_nodes,
                stats.bdd.peak_nodes,
                stats.bdd.cache_lookups,
                stats.bdd.cache_hits,
                stats.bdd.swaps,
                stats.bdd.sift_passes,
                stats.bdd.gc_runs,
                stats.bdd.reclaimed_nodes,
            );
        }
    }
}

fn write_state(out: &mut String, s: &State) {
    out.push('[');
    for (k, v) in s.values().iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        match v {
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
        }
    }
    out.push(']');
}

fn write_states(out: &mut String, states: &[State]) {
    out.push('[');
    for (k, s) in states.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        write_state(out, s);
    }
    out.push(']');
}

fn write_cex(out: &mut String, cex: &Counterexample) {
    match cex {
        Counterexample::Init { state } => {
            out.push_str("{\"kind\":\"init\",\"state\":");
            write_state(out, state);
            out.push('}');
        }
        Counterexample::Next {
            state,
            command,
            after,
        } => {
            out.push_str("{\"kind\":\"next\",\"state\":");
            write_state(out, state);
            out.push_str(",\"command\":");
            match command {
                Some(c) => json_string(out, c),
                None => out.push_str("null"),
            }
            out.push_str(",\"after\":");
            write_state(out, after);
            out.push('}');
        }
        Counterexample::Transient { witnesses } => {
            out.push_str("{\"kind\":\"transient\",\"witnesses\":[");
            for (k, (cmd, s)) in witnesses.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str("{\"command\":");
                json_string(out, cmd);
                out.push_str(",\"state\":");
                write_state(out, s);
                out.push('}');
            }
            out.push_str("]}");
        }
        Counterexample::Unchanged {
            state,
            command,
            before,
            after,
        } => {
            out.push_str("{\"kind\":\"unchanged\",\"state\":");
            write_state(out, state);
            out.push_str(",\"command\":");
            json_string(out, command);
            let _ = write!(out, ",\"before\":{before},\"after\":{after}}}");
        }
        Counterexample::Validity { state } => {
            out.push_str("{\"kind\":\"validity\",\"state\":");
            write_state(out, state);
            out.push('}');
        }
        Counterexample::Reach { path } => {
            out.push_str("{\"kind\":\"reach\",\"path\":");
            write_states(out, path);
            out.push('}');
        }
        Counterexample::LeadsTo { prefix, trap } => {
            out.push_str("{\"kind\":\"leadsto\",\"prefix\":");
            write_states(out, prefix);
            out.push_str(",\"trap\":");
            write_states(out, trap);
            out.push('}');
        }
    }
}

fn write_sim(out: &mut String, s: &SimCheck) {
    out.push_str("{\"name\":");
    json_string(out, &s.name);
    let _ = write!(
        out,
        ",\"steps\":{},\"passed\":{},\"violation_step\":",
        s.steps, s.passed
    );
    match s.violation_step {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"violation_state\":");
    match &s.violation_state {
        Some(state) => write_state(out, state),
        None => out.push_str("null"),
    }
    out.push('}');
}

// ---------------------------------------------------------------- reader

fn read_check(j: &Json) -> Result<CheckReport, String> {
    let outcome = match j.field("verdict")?.as_str()? {
        "pass" => Outcome::Pass,
        "fail" => Outcome::Fail {
            cex: read_cex(j.field("counterexample")?)?,
        },
        "error" => Outcome::Error {
            error: McError::Message(j.field("error")?.as_str()?.to_string()),
        },
        other => return Err(format!("unknown verdict `{other}`")),
    };
    Ok(CheckReport {
        name: j.field("name")?.as_str()?.to_string(),
        line: j.field("line")?.as_int()? as usize,
        verdict: Verdict {
            property: j.field("property")?.as_str()?.to_string(),
            outcome,
            engine: engine_from(j.field("engine")?.as_str()?)?,
            stats: read_stats(j.field("stats")?)?,
            elapsed: duration_from(j.field("elapsed_ns")?.as_int()?),
            discharge: match j.field("discharge") {
                Err(_) | Ok(Json::Null) => None,
                Ok(d) => Some(DischargeInfo {
                    rule: d.field("rule")?.as_str()?.to_string(),
                    components: d
                        .field("components")?
                        .as_arr()?
                        .iter()
                        .map(|v| v.as_int().map(|n| n as usize))
                        .collect::<Result<_, _>>()?,
                    cached: d.field("cached")?.as_bool()?,
                }),
            },
        },
    })
}

fn read_stats(j: &Json) -> Result<VerdictStats, String> {
    if matches!(j, Json::Null) {
        return Ok(VerdictStats::Unmeasured);
    }
    match j.field("kind")?.as_str()? {
        "explicit" => {
            // The traversal counters are additive (schema unchanged):
            // reports written before they existed read back as 0. Keys
            // this reader does not know (the retired `shards`, `steals`
            // and `cross_shard_edges` build counters) are ignored.
            let opt =
                |key: &str| -> u64 { j.field(key).and_then(|v| v.as_int()).unwrap_or(0) as u64 };
            Ok(VerdictStats::Explicit {
                states: j.field("states")?.as_int()? as u64,
                transitions: j.field("transitions")?.as_int()? as u64,
                scanned_states: opt("scanned_states"),
                pred_edges: opt("pred_edges"),
                worklist_pushes: opt("worklist_pushes"),
                build_ms: opt("build_ms"),
            })
        }
        "symbolic" => {
            let mut stats = SymStats {
                live_nodes: j.field("live_nodes")?.as_int()? as usize,
                ..Default::default()
            };
            stats.bdd.peak_nodes = j.field("peak_nodes")?.as_int()? as usize;
            stats.bdd.cache_lookups = j.field("cache_lookups")?.as_int()? as u64;
            stats.bdd.cache_hits = j.field("cache_hits")?.as_int()? as u64;
            stats.bdd.swaps = j.field("swaps")?.as_int()? as u64;
            stats.bdd.sift_passes = j.field("sift_passes")?.as_int()? as u64;
            stats.bdd.gc_runs = j.field("gc_runs")?.as_int()? as u64;
            stats.bdd.reclaimed_nodes = j.field("reclaimed_nodes")?.as_int()? as u64;
            Ok(VerdictStats::Symbolic { stats })
        }
        other => Err(format!("unknown stats kind `{other}`")),
    }
}

fn read_state(j: &Json) -> Result<State, String> {
    let values = j
        .as_arr()?
        .iter()
        .map(|v| match v {
            Json::Bool(b) => Ok(Value::Bool(*b)),
            Json::Int(n) => Ok(Value::Int(*n as i64)),
            other => Err(format!("state value must be bool or int, got {other:?}")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(State::new(values))
}

fn read_states(j: &Json) -> Result<Vec<State>, String> {
    j.as_arr()?.iter().map(read_state).collect()
}

fn read_cex(j: &Json) -> Result<Counterexample, String> {
    match j.field("kind")?.as_str()? {
        "init" => Ok(Counterexample::Init {
            state: read_state(j.field("state")?)?,
        }),
        "next" => Ok(Counterexample::Next {
            state: read_state(j.field("state")?)?,
            command: match j.field("command")? {
                Json::Null => None,
                other => Some(other.as_str()?.to_string()),
            },
            after: read_state(j.field("after")?)?,
        }),
        "transient" => Ok(Counterexample::Transient {
            witnesses: j
                .field("witnesses")?
                .as_arr()?
                .iter()
                .map(|w| {
                    Ok((
                        w.field("command")?.as_str()?.to_string(),
                        read_state(w.field("state")?)?,
                    ))
                })
                .collect::<Result<_, String>>()?,
        }),
        "unchanged" => Ok(Counterexample::Unchanged {
            state: read_state(j.field("state")?)?,
            command: j.field("command")?.as_str()?.to_string(),
            before: j.field("before")?.as_int()? as i64,
            after: j.field("after")?.as_int()? as i64,
        }),
        "validity" => Ok(Counterexample::Validity {
            state: read_state(j.field("state")?)?,
        }),
        "reach" => Ok(Counterexample::Reach {
            path: read_states(j.field("path")?)?,
        }),
        "leadsto" => Ok(Counterexample::LeadsTo {
            prefix: read_states(j.field("prefix")?)?,
            trap: read_states(j.field("trap")?)?,
        }),
        other => Err(format!("unknown counterexample kind `{other}`")),
    }
}

fn read_sim(j: &Json) -> Result<SimCheck, String> {
    Ok(SimCheck {
        name: j.field("name")?.as_str()?.to_string(),
        steps: j.field("steps")?.as_int()? as u64,
        passed: j.field("passed")?.as_bool()?,
        violation_step: match j.field("violation_step")? {
            Json::Null => None,
            other => Some(other.as_int()? as u64),
        },
        violation_state: match j.field("violation_state")? {
            Json::Null => None,
            other => Some(read_state(other)?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let state = State::new(vec![Value::Int(2), Value::Bool(true)]);
        Report {
            program: "toy \"quoted\"".into(),
            vars: vec!["x".into(), "b".into()],
            engine: Engine::Symbolic,
            universe: Universe::AllStates,
            checks: vec![
                CheckReport {
                    name: "safe".into(),
                    line: 3,
                    verdict: Verdict {
                        property: "invariant x <= 3".into(),
                        outcome: Outcome::Pass,
                        engine: Engine::Symbolic,
                        stats: VerdictStats::Symbolic {
                            stats: SymStats::default(),
                        },
                        elapsed: Duration::from_micros(17),
                        discharge: Some(DischargeInfo {
                            rule: "lift-universal".into(),
                            components: vec![0, 2],
                            cached: true,
                        }),
                    },
                },
                CheckReport {
                    name: "broken".into(),
                    line: 4,
                    verdict: Verdict {
                        property: "x == 0 next x == 2".into(),
                        outcome: Outcome::Fail {
                            cex: Counterexample::Next {
                                state: state.clone(),
                                command: Some("inc".into()),
                                after: State::new(vec![Value::Int(3), Value::Bool(false)]),
                            },
                        },
                        engine: Engine::Compiled,
                        stats: VerdictStats::Explicit {
                            states: 8,
                            transitions: 0,
                            scanned_states: 0,
                            pred_edges: 0,
                            worklist_pushes: 0,
                            build_ms: 0,
                        },
                        elapsed: Duration::from_nanos(123),
                        discharge: None,
                    },
                },
                CheckReport {
                    name: "oversized".into(),
                    line: 5,
                    verdict: Verdict {
                        property: "invariant x <= 3".into(),
                        outcome: Outcome::Error {
                            error: McError::Message(
                                "state space of 8 states exceeds limit 3".into(),
                            ),
                        },
                        engine: Engine::Compiled,
                        stats: VerdictStats::Unmeasured,
                        elapsed: Duration::from_nanos(7),
                        discharge: None,
                    },
                },
                CheckReport {
                    name: "lasso".into(),
                    line: 6,
                    verdict: Verdict {
                        property: "true leadsto x == 3".into(),
                        outcome: Outcome::Fail {
                            cex: Counterexample::LeadsTo {
                                prefix: vec![state.clone()],
                                trap: vec![state.clone()],
                            },
                        },
                        engine: Engine::Compiled,
                        stats: VerdictStats::Explicit {
                            states: 4,
                            transitions: 4,
                            scanned_states: 3,
                            pred_edges: 5,
                            worklist_pushes: 2,
                            build_ms: 6,
                        },
                        elapsed: Duration::from_nanos(50),
                        discharge: None,
                    },
                },
            ],
            sim: vec![SimCheck {
                name: "safe".into(),
                steps: 200,
                passed: false,
                violation_step: Some(17),
                violation_state: Some(state),
            }],
            elapsed: Duration::from_millis(2),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample();
        let json = report.to_json();
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json, "serialized forms identical");
        // Structural fields survive too (errors come back rendered).
        assert_eq!(back.program, report.program);
        assert_eq!(back.vars, report.vars);
        assert_eq!(back.engine, report.engine);
        assert_eq!(back.universe, report.universe);
        assert_eq!(back.checks.len(), report.checks.len());
        assert_eq!(back.checks[1], report.checks[1], "fail verdict exact");
        assert_eq!(back.sim, report.sim);
    }

    #[test]
    fn transient_and_unchanged_witnesses_round_trip() {
        let mut report = sample();
        report.checks = vec![
            CheckReport {
                name: "t".into(),
                line: 0,
                verdict: Verdict {
                    property: "transient x == 1".into(),
                    outcome: Outcome::Fail {
                        cex: Counterexample::Transient {
                            witnesses: vec![(
                                "inc".into(),
                                State::new(vec![Value::Int(1), Value::Bool(false)]),
                            )],
                        },
                    },
                    engine: Engine::Compiled,
                    stats: VerdictStats::Unmeasured,
                    elapsed: Duration::ZERO,
                    discharge: None,
                },
            },
            CheckReport {
                name: "u".into(),
                line: 0,
                verdict: Verdict {
                    property: "unchanged x".into(),
                    outcome: Outcome::Fail {
                        cex: Counterexample::Unchanged {
                            state: State::new(vec![Value::Int(0), Value::Bool(false)]),
                            command: "inc".into(),
                            before: 0,
                            after: 1,
                        },
                    },
                    engine: Engine::Reference,
                    stats: VerdictStats::Unmeasured,
                    elapsed: Duration::ZERO,
                    discharge: None,
                },
            },
        ];
        let json = report.to_json();
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back.checks, report.checks);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn leadsto_traversal_counters_round_trip() {
        let report = sample();
        let json = report.to_json();
        assert!(json.contains("\"scanned_states\":3"));
        assert!(json.contains("\"pred_edges\":5"));
        assert!(json.contains("\"worklist_pushes\":2"));
        assert!(json.contains("\"build_ms\":6"));
        assert!(!json.contains("shards"));
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back.checks[3].verdict.stats, report.checks[3].verdict.stats);
        // Schema-1 reports from earlier versions also carry the build's
        // `shards`/`steals`/`cross_shard_edges` counters after
        // `build_ms`; they still parse, to the same stats.
        let older = json.replace(
            "\"build_ms\":6}",
            "\"build_ms\":6,\"shards\":16,\"steals\":3,\"cross_shard_edges\":9}",
        );
        assert!(older.contains("\"steals\":3"));
        assert_eq!(Report::from_json(&older).unwrap().checks, report.checks);
    }

    #[test]
    fn explicit_stats_without_traversal_counters_still_parse() {
        // Reports written before the worklist engine (or before the
        // build counters) lack the additive fields; they read back as 0.
        let report = sample();
        let json = report
            .to_json()
            .replace(
                ",\"scanned_states\":3,\"pred_edges\":5,\"worklist_pushes\":2",
                "",
            )
            .replace(
                ",\"scanned_states\":0,\"pred_edges\":0,\"worklist_pushes\":0",
                "",
            )
            .replace(",\"build_ms\":6", "")
            .replace(",\"build_ms\":0", "");
        let back = Report::from_json(&json).unwrap();
        assert_eq!(
            back.checks[3].verdict.stats,
            VerdictStats::Explicit {
                states: 4,
                transitions: 4,
                scanned_states: 0,
                pred_edges: 0,
                worklist_pushes: 0,
                build_ms: 0,
            }
        );
    }

    #[test]
    fn discharge_provenance_round_trips_and_is_additive() {
        let report = sample();
        let json = report.to_json();
        assert!(json.contains(
            "\"discharge\":{\"rule\":\"lift-universal\",\"components\":[0,2],\"cached\":true}"
        ));
        let back = Report::from_json(&json).unwrap();
        assert_eq!(
            back.checks[0].verdict.discharge,
            report.checks[0].verdict.discharge
        );
        assert_eq!(back.checks[1].verdict.discharge, None);
        // Reports written before the field existed parse to `None`.
        let stripped = json.replace(
            ",\"discharge\":{\"rule\":\"lift-universal\",\"components\":[0,2],\"cached\":true}",
            "",
        );
        let old = Report::from_json(&stripped).unwrap();
        assert_eq!(old.checks[0].verdict.discharge, None);
    }

    #[test]
    fn all_passed_accounts_for_sim() {
        let mut report = sample();
        assert!(!report.all_passed());
        report.checks.clear();
        assert!(!report.all_passed(), "sim violation still fails");
        report.sim.clear();
        assert!(report.all_passed());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Report::from_json("").is_err());
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json("{\"schema\":2}").is_err());
        assert!(Report::from_json("[1,2,").is_err());
        assert!(Report::from_json("{\"schema\":1.5}").is_err());
        // Hostile nesting fails with an error, not a stack overflow.
        assert!(Report::from_json(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        let good = sample().to_json();
        // Trailing garbage after the top-level object.
        for suffix in ["x", "{}", " \n{\"schema\":1}", "null", "]"] {
            let src = format!("{good}{suffix}");
            assert!(Report::from_json(&src).is_err(), "accepted {suffix:?}");
        }
        // Truncations: every prefix of a valid report must fail, never
        // silently parse (a torn journal record is a truncation).
        for cut in 1..good.len() {
            if good.is_char_boundary(cut) {
                assert!(
                    Report::from_json(&good[..cut]).is_err(),
                    "accepted truncation at byte {cut}"
                );
            }
        }
        // Bad escapes inside strings.
        assert!(Report::from_json(&good.replace("\"program\"", "\"progr\\qm\"")).is_err());
        assert!(Report::from_json(&good.replace("\"program\"", "\"progr\\ud800m\"")).is_err());
        // Duplicate keys: two parsers disagreeing on which wins is a
        // corruption vector, so the parser refuses outright.
        let dup = good.replacen("{\"schema\":1,", "{\"schema\":1,\"schema\":1,", 1);
        let err = Report::from_json(&dup).unwrap_err();
        assert!(err.contains("duplicate key"), "{err}");
    }

    #[test]
    fn string_escapes_survive() {
        let report = sample();
        let json = report.to_json();
        assert!(json.contains("toy \\\"quoted\\\""));
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back.program, "toy \"quoted\"");
    }
}
