//! Operating-system probes: child-process CPU and memory, the daemon's
//! `/proc` counters, signals, and the host description every result is
//! stamped with.

use std::path::Path;
use std::process::Command;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;
const SC_CLK_TCK: i32 = 2;
pub const SIGTERM: i32 = 15;

/// CPU and peak memory of every child process waited for so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildUsage {
    /// User plus system CPU, milliseconds.
    pub cpu_ms: f64,
    /// The largest child resident set, MiB.
    pub max_rss_mb: f64,
}

pub fn children_usage() -> ChildUsage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout; getrusage writes exactly that struct and nothing else.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    ChildUsage {
        cpu_ms: ms(&ru.utime) + ms(&ru.stime),
        max_rss_mb: ru.longs[0] as f64 / 1024.0,
    }
}

/// Sends `sig` to process `pid`.
pub fn signal(pid: u32, sig: i32) -> bool {
    let Ok(pid) = i32::try_from(pid) else {
        return false;
    };
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    unsafe { kill(pid, sig) == 0 }
}

/// User plus system CPU of process `pid` in milliseconds, from
/// `/proc/<pid>/stat` (clock-tick resolution).
pub fn proc_cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line.
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    // SAFETY: sysconf takes an integer name and touches no memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Some(ticks * 1e3 / hz)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB.
pub fn proc_peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(root: &Path, program: &str, args: &[&str]) -> Option<String> {
    // The ceiling keeps git from reporting an enclosing repository when
    // the checkout itself has no history.
    let out = Command::new(program)
        .args(args)
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a digest of the sources the binaries are built from, so results
/// from a checkout without git history still name their code.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in rd.flatten() {
            let p = entry.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["src", "crates", "vendor"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut d = crate::gen::Digest::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            d.add(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            d.add(&bytes);
        }
    }
    d.hex()
}

/// The host and code a result was measured on, as one line.
pub fn provenance(root: &Path) -> String {
    let commit = command_line(root, "git", &["rev-parse", "--short=12", "HEAD"]);
    let dirty = match &commit {
        Some(_) => command_line(
            root,
            "git",
            &["status", "--porcelain", "--untracked-files=no"],
        )
        .map_or("unknown", |s| if s.is_empty() { "no" } else { "yes" }),
        None => "unknown",
    };
    format!(
        "nproc={} cpu=\"{}\" rustc=\"{}\" commit={} dirty={} sources={}",
        nproc(),
        cpu_model(),
        command_line(root, "rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        commit.unwrap_or_else(|| "none".into()),
        dirty,
        source_digest(root),
    )
}
