//! Run metadata: the machine, the toolchain, the code measured.

use std::path::Path;
use std::process::Command;

/// Names of the `SETSIG_*` variables set in the environment. The engine
/// reads such knobs in other entry points; this benchmark builds every
/// facility with explicit settings and refuses to run beside a stray
/// knob rather than let it look as if it applied.
pub fn setsig_vars() -> Vec<String> {
    let mut vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SETSIG_"))
        .collect();
    vars.sort();
    vars
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of a command's standard output; waits for it to exit.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(str::to_string)
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The commit measured: `git rev-parse HEAD` where the source is a git
/// checkout, else `unknown`.
pub fn commit() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

fn count_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                count_lines(&p)
            } else if p.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&p).map_or(0, |s| s.lines().count() as u64)
            } else {
                0
            }
        })
        .sum()
}

/// Lines of Rust under each `crates/<name>/src`, sorted by crate name.
pub fn crate_lines(root: &Path) -> Vec<(String, u64)> {
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return Vec::new();
    };
    let mut out: Vec<(String, u64)> = entries
        .flatten()
        .filter(|e| e.path().join("src").is_dir())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                count_lines(&e.path().join("src")),
            )
        })
        .collect();
    out.sort();
    out
}

/// Peak resident set size in MiB, from `/proc/self/status` (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the whole machine, from the
/// `cpu` line of `/proc/stat`: time the hypervisor ran something else
/// while this machine's CPUs wanted to run.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}
