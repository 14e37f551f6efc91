//! Measurement plumbing shared by every workload: medians, peak memory,
//! the host calibration loop, the per-check tally and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Splitmix64: derives independent-looking values from a seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Logical CPUs: the engine's and the server's job-thread count.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident memory (`VmHWM`) of process `pid` in MB, read from
/// `/proc/<pid>/status`; `None` where procfs does not have it.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident memory of this process in MB.
pub fn own_peak_rss() -> f64 {
    peak_rss_mb(std::process::id()).expect("procfs reports VmHWM")
}

/// Seconds taken by a fixed integer loop that belongs to the benchmark,
/// not the program: a reference for how fast the host ran at that moment.
pub fn calib_seconds() -> f64 {
    let t = Instant::now();
    let mut x = 0u64;
    for i in 0..20_000_000u64 {
        x = mix(x ^ black_box(i));
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Pass/fail counts per named check.
///
/// Every check is counted on its own, so one check that fails on every
/// operation cannot hide a second kind of failure behind it.
#[derive(Default, Debug)]
pub struct Checks {
    tally: BTreeMap<&'static str, (u64, u64)>,
    first_failure: BTreeMap<&'static str, String>,
    op_failed: bool,
}

impl Checks {
    /// Records one evaluation of check `name`; `detail` describes a failure.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        let entry = self.tally.entry(name).or_default();
        if ok {
            entry.0 += 1;
        } else {
            entry.1 += 1;
            self.op_failed = true;
            self.first_failure.entry(name).or_insert_with(detail);
        }
    }

    /// Whether any check failed since the last call, and resets that flag:
    /// called once per operation to count it as failed or not.
    pub fn take_op_failed(&mut self) -> bool {
        std::mem::take(&mut self.op_failed)
    }

    /// Evaluations recorded for `name`, passed or failed.
    pub fn evaluations(&self, name: &str) -> u64 {
        self.tally.get(name).map_or(0, |t| t.0 + t.1)
    }

    /// Failures recorded for `name`.
    pub fn failures(&self, name: &str) -> u64 {
        self.tally.get(name).map_or(0, |t| t.1)
    }

    /// True when no check other than those in `allowed` ever failed.
    pub fn only_failed_in(&self, allowed: &[&str]) -> bool {
        self.tally
            .iter()
            .all(|(name, &(_, fail))| fail == 0 || allowed.contains(name))
    }

    /// One line per check: `check NAME passed P failed F [first failure]`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, (pass, fail)) in &self.tally {
            let _ = write!(out, "check {name} passed {pass} failed {fail}");
            if let Some(d) = self.first_failure.get(name) {
                let _ = write!(out, " (first: {d})");
            }
            out.push('\n');
        }
        out
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The last line a run prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            r#""{}": {{"value": {:?}, "unit": "{}"}}"#,
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn checks_count_each_kind_apart() {
        let mut c = Checks::default();
        c.check("a", false, || "x".into());
        c.check("b", true, String::new);
        assert!(c.take_op_failed());
        assert!(!c.take_op_failed());
        assert_eq!(c.failures("a"), 1);
        assert!(c.only_failed_in(&["a"]));
        c.check("b", false, || "y".into());
        assert!(!c.only_failed_in(&["a"]));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let line = result_line(true, 3, 1, &[Metric::new("op_p50_s", 0.25, "s")]);
        let v = swip_report::Json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(|j| j.as_u64()), Some(3));
        let m = v.get("metrics").and_then(|m| m.get("op_p50_s")).unwrap();
        assert_eq!(m.get("value").and_then(|j| j.as_f64()), Some(0.25));
    }
}
