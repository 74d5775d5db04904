//! What the benchmark reads about its own process and machine, all from
//! `/proc` (Linux only, like the rest of the harness).

use std::fs;

fn status_kb(field: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process so far, KiB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// CPU seconds (user + system) this process has consumed, all threads.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the ")" that ends
    // the command name (which may itself contain spaces).
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks: u64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0)
        + fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    // USER_HZ is 100 on every Linux the image runs on.
    ticks as f64 / 100.0
}

/// Soft limit on open files, if the kernel reports one.
pub fn max_open_files() -> Option<u64> {
    fs::read_to_string("/proc/self/limits").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("Max open files"))
            .and_then(|l| l.split_whitespace().nth(3))
            .and_then(|v| v.parse().ok())
    })
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// 1-minute load average.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
