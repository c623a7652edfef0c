//! The machine that produced a number is part of the number. Everything here
//! is read where readable and recorded as absent (`null`) where not — a
//! sandbox without cpufreq or schedstat is a fact to record, not a failure.

use std::process::Command;

use crate::json::{obj, Json};

/// Closed-loop client threads: one per core, at most four.
pub fn workers() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("-V").output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(run_ns, wait_ns)` of the calling thread from `/proc/thread-self/schedstat`:
/// time on a CPU and time runnable but waiting for one.
pub fn thread_schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

/// Share of its runnable time a thread spent waiting for a CPU between two
/// schedstat readings; `None` where schedstat is unreadable.
pub fn wait_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((r0, w0), (r1, w1)) = (before?, after?);
    let (run, wait) = (r1.saturating_sub(r0) as f64, w1.saturating_sub(w0) as f64);
    (run + wait > 0.0).then(|| wait / (run + wait))
}

/// `(resident, file-backed resident)` in KiB from `/proc/self/statm` (fields
/// 2 and 3, in pages).
fn statm_kib() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/self/statm").ok()?;
    let mut pages = text
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse::<u64>().ok());
    // Linux on every target this repo builds for uses 4 KiB base pages.
    Some((pages.next()?? * 4, pages.next()?? * 4))
}

/// Resident set size in KiB.
pub fn rss_kib() -> Option<u64> {
    statm_kib().map(|(resident, _)| resident)
}

/// The anonymous part of the resident set in KiB: heap and stacks, without
/// the pages of the binary and its libraries. How many of those are mapped
/// is up to the kernel's fault-around and differs by 100 KiB between two runs
/// of one program; the anonymous part repeats to the page.
pub fn rss_anon_kib() -> Option<u64> {
    statm_kib().map(|(resident, file)| resident.saturating_sub(file))
}

fn opt(v: Option<String>) -> Json {
    v.map_or(Json::Null, Json::Str)
}

/// True when the result cannot be compared with a run on a bigger machine:
/// fewer than two clients, or more clients than cores.
pub fn oversubscribed() -> bool {
    workers() < 2 || nproc() < workers()
}

pub fn fingerprint() -> Json {
    obj([
        ("nproc", Json::from(nproc() as u64)),
        ("workers", Json::from(workers() as u64)),
        ("oversubscribed", Json::from(oversubscribed())),
        ("cpu_model", opt(cpu_model())),
        ("kernel", opt(read_trimmed("/proc/sys/kernel/osrelease"))),
        ("rustc", opt(rustc_version())),
        (
            "governor",
            opt(read_trimmed(
                "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
            )),
        ),
        (
            "schedstat_readable",
            Json::from(thread_schedstat().is_some()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_share_is_a_fraction_or_absent() {
        assert_eq!(wait_share(Some((0, 0)), Some((300, 100))), Some(0.25));
        assert_eq!(wait_share(None, Some((1, 1))), None);
        assert_eq!(wait_share(Some((5, 5)), Some((5, 5))), None);
    }

    #[test]
    fn fingerprint_always_renders() {
        let fp = fingerprint();
        assert!(fp.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(Json::parse(&fp.render()).is_ok());
    }
}
