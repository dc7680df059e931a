//! What the harness reads about its own process and host: resident
//! memory, CPU time, the CPU count and model, and the commit.

use std::path::Path;
use std::process::Command;

/// Clock ticks per second of `/proc/self/stat`'s time fields
/// (`USER_HZ`, 100 on every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line[field.len()..]
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Current resident set size in bytes (0 where unavailable).
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS").unwrap_or(0)
}

/// Peak resident set size of the process so far, in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM").unwrap_or(0)
}

/// User plus system CPU seconds of the whole process, at `USER_HZ`
/// resolution.
pub fn cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / USER_HZ,
        _ => 0.0,
    }
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit the benchmark was built from: `git rev-parse HEAD` at the
/// checkout root, or `unknown` when the checkout is not a git work tree
/// (git is not asked, so it cannot report an enclosing repository).
pub fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_readings_are_plausible() {
        assert!(rss_bytes() > 0);
        assert!(peak_rss_bytes() >= rss_bytes());
        assert!(cpu_secs() >= 0.0);
        assert!(nproc() >= 1);
    }
}
