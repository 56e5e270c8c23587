//! The host fingerprint stamped on every result, and peak-RSS probes.

use std::process::Command;

/// First line of a command's stdout, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn json_str(s: &str) -> String {
    let mut w = serde::JsonWriter::new(false);
    w.write_str(s);
    w.into_string()
}

/// `{"nproc","cpu","rustc","git_rev","loadavg_1m"}`: enough to tell a
/// host change from a code change when a number drifts. Read once, at
/// start, before any load.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(-1.0);
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"git_rev\":{},\"loadavg_1m\":{load}}}",
        json_str(&cpu),
        json_str(&first_line("rustc", &["-V"])),
        json_str(&first_line("git", &["rev-parse", "HEAD"])),
    )
}

/// Peak resident set (`VmHWM`) of process `pid` ("self" for this one),
/// in MiB; 0 when unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
