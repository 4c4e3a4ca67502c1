//! The host/run fingerprint every result carries, and process memory.

use crate::json::{self, Json};
use std::path::Path;
use std::process::Command;

/// Peak resident set (`VmHWM`) of `pid`, or of this process when `None`,
/// in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs")
            || p.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(p);
        }
    }
}

/// FNV-1a over the program's sources (`src/`, `crates/`, root manifests),
/// in path order: identifies the code under test where no git revision is
/// available.
pub fn source_digest() -> String {
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    collect_sources(Path::new("src"), &mut files);
    collect_sources(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        fnv1a(&mut h, f.to_string_lossy().as_bytes());
        fnv1a(&mut h, &std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// Everything needed to tell two results' conditions apart.
pub fn fingerprint(workload: &str, seed: u64, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let git = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    json::obj([
        ("workload", json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Bool(trace)),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(command_line(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into()))),
        (
            "profile",
            json::str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        ),
        ("git_rev", Json::Str(git.unwrap_or_else(|| "none (not a git checkout)".into()))),
        ("source_fnv", Json::Str(source_digest())),
        (
            "transport",
            json::str("serve-* traffic crosses loopback TCP to a daemon child process; batch runs are in-process"),
        ),
    ])
}
