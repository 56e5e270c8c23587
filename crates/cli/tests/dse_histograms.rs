//! Drives `maestro dse --metrics -` and checks that the per-unit DSE
//! histograms resolve the units a real sweep runs: every unit's rate lands
//! in a finite `maestro_dse_unit_rate` bucket, not in the `+Inf` overflow.
//! A slower host only lowers rates, so the check is not timing-fragile.

use std::process::Command;

/// `(le, cumulative count)` of every `name` bucket in an exposition.
fn buckets<'a>(exposition: &'a str, name: &str) -> Vec<(&'a str, u64)> {
    let prefix = format!("{name}_bucket{{le=\"");
    exposition
        .lines()
        .filter_map(|line| line.strip_prefix(prefix.as_str()))
        .map(|rest| {
            let (le, count) = rest.split_once("\"} ").expect("bucket sample");
            (le, count.parse().expect("integer bucket count"))
        })
        .collect()
}

#[test]
fn unit_rate_histogram_has_no_overflowing_units() {
    let out = Command::new(env!("CARGO_BIN_EXE_maestro"))
        .env_remove("MAESTRO_LOG")
        .args([
            "dse",
            "--model",
            "vgg16",
            "--layer",
            "CONV2",
            "--style",
            "KC-P",
            "--metrics",
            "-",
        ])
        .output()
        .expect("spawn maestro binary");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rate = buckets(&stdout, "maestro_dse_unit_rate");
    let [.., (top_le, top), (inf_le, inf)] = rate.as_slice() else {
        panic!("too few unit_rate buckets in:\n{stdout}");
    };
    assert_eq!(*inf_le, "+Inf");
    assert!(*inf > 0, "no unit observed:\n{stdout}");
    assert_eq!(
        inf,
        top,
        "{} unit(s) above the top finite unit_rate bound {top_le}:\n{stdout}",
        inf - top
    );
}
