//! End-to-end tests of the `unity-serve` binary: argument validation,
//! and the headline durability story — `kill -9` the daemon, restart it
//! over the same data dir, and watch the full verdict history replay.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use unity_serve::http::request;
use unity_serve::proto::history_from_json;
use unity_serve::{VerifyRequest, VerifyResponse};

const SPEC: &str = "program P\n  var x : bool\n  init !x\n  fair cmd go: !x -> x := true\nend\n\
                    spec S\n  goal: true leadsto x\nend";

fn unity_serve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_unity-serve"))
}

/// A daemon child that is killed (SIGKILL) when dropped, so a failing
/// assertion cannot leak a listener process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts the daemon on an ephemeral port and parses the bound
    /// address from its one startup line.
    fn start(data_dir: &std::path::Path) -> Daemon {
        let mut child = unity_serve()
            .args([
                "--data-dir",
                data_dir.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).unwrap();
        let addr = line
            .split_once("http://")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in startup line: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn verify(&self, spec: &str) -> VerifyResponse {
        let body = VerifyRequest::new(spec).to_json();
        let (status, body) = request(&self.addr, "POST", "/verify", Some(&body)).unwrap();
        assert_eq!(status, 200, "{body}");
        VerifyResponse::from_json(&body).unwrap()
    }

    /// `kill -9`: no shutdown handler runs, which is exactly the point.
    fn kill(mut self) {
        self.child.kill().unwrap();
        self.child.wait().unwrap();
        std::mem::forget(self); // Drop would double-kill
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("unity_serve_daemon_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill_and_restart_preserves_the_verdict_history() {
    let dir = fresh_dir("restart");

    let daemon = Daemon::start(&dir);
    let first = daemon.verify(SPEC);
    assert_eq!(first.seq, 1);
    assert!(first.report.all_passed());
    let second = daemon.verify(SPEC);
    assert_eq!(second.seq, 2);
    daemon.kill();

    // Restart over the same data dir: history replays from the journal.
    let daemon = Daemon::start(&dir);
    let (status, body) = request(&daemon.addr, "GET", "/history", None).unwrap();
    assert_eq!(status, 200);
    let entries = history_from_json(&body).unwrap();
    assert_eq!(entries.len(), 2, "both verdicts survived the kill");
    assert_eq!(
        entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![1, 2]
    );
    assert!(entries.iter().all(|e| e.spec_hash == first.spec_hash));

    // And the artifact store survived too: the re-submission after the
    // restart is answered from disk.
    let third = daemon.verify(SPEC);
    assert_eq!(third.seq, 3);
    assert_eq!(
        format!("{:?}", third.cache.ts_reachable),
        "Hit",
        "restarted daemon should reuse the persisted transition system"
    );
    daemon.kill();
}

#[test]
fn deeply_nested_spec_is_refused_and_the_daemon_keeps_serving() {
    let dir = fresh_dir("deep");
    let daemon = Daemon::start(&dir);
    let n = 100_000;
    let deep = format!(
        "program P\n  var x : bool\n  init x\nend\nspec S\n  deep: invariant {}x{}\nend",
        "(".repeat(n),
        ")".repeat(n)
    );
    let body = VerifyRequest::new(&deep).to_json();
    let (status, body) = request(&daemon.addr, "POST", "/verify", Some(&body)).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nested deeper than"), "{body}");
    // The worker that parsed it is still there to answer.
    assert!(daemon.verify(SPEC).report.all_passed());
    daemon.kill();
}

#[test]
fn zero_workers_is_a_usage_error() {
    let out = unity_serve()
        .args(["--data-dir", "/tmp/unused", "--workers", "0"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--workers must be at least 1"), "{stderr}");
}

#[test]
fn missing_data_dir_is_a_usage_error() {
    let out = unity_serve().output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--data-dir is required"), "{stderr}");
}

#[test]
fn invalid_build_threads_env_is_rejected_before_startup() {
    for bad in ["0", "three"] {
        let out = unity_serve()
            .args(["--data-dir", "/tmp/unused"])
            .env("UNITY_BUILD_THREADS", bad)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{bad}`: {stderr}");
        assert!(stderr.contains("UNITY_BUILD_THREADS"), "{stderr}");
    }
}
