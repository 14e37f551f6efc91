//! trace-replay: the path of `swip run FILE` on the 24-entry FDP.
//!
//! Set-up generates the suite's three crypto kernels at 2M instructions
//! and writes them with `Trace::write_to`. One operation is
//! `Trace::read_from` on one file, then `Simulator::run`.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::Instant;

use swip_core::{SimConfig, Simulator};
use swip_trace::{Trace, TraceSummary};
use swip_workloads::generate;

use crate::checks::{check_roundtrip, check_sim, Expect};
use crate::inputs::{replay_specs, L1I_BYTES, REPLAY_INSTRUCTIONS};
use crate::layers::Layers;
use crate::util::{calib_seconds, median, own_peak_rss, Checks, Metric};
use crate::Outcome;

/// Set-ups per run; the median is reported.
const SETUP_REPEATS: usize = 3;

/// `swip run FILE --ftq 24`.
fn replay_config() -> SimConfig {
    SimConfig::sunny_cove_like().with_ftq_entries(24)
}

/// Generates and writes the inputs; returns the originals and their files.
fn set_up(dir: &Path, seed: u64, layers: &mut Layers) -> Vec<(Trace, PathBuf)> {
    std::fs::create_dir_all(dir).expect("the work directory can be created");
    replay_specs(seed, REPLAY_INSTRUCTIONS)
        .iter()
        .map(|spec| {
            let t = Instant::now();
            let trace = generate(spec);
            layers.generate_s += t.elapsed().as_secs_f64();
            let path = dir.join(format!("{}.swip", spec.name));
            let t = Instant::now();
            let file = File::create(&path).expect("the trace file can be created");
            trace.write_to(file).expect("the trace file can be written");
            layers.encode_s += t.elapsed().as_secs_f64();
            layers.file_mb += std::fs::metadata(&path).map_or(0, |m| m.len()) as f64 / 1e6;
            (trace, path)
        })
        .collect()
}

fn makeup_checks(checks: &mut Checks, inputs: &[(Trace, PathBuf)]) {
    for (trace, _) in inputs {
        let footprint = TraceSummary::of(trace).unique_lines * 64;
        checks.check("makeup_crypto_fits_l1i", footprint <= L1I_BYTES, || {
            format!("{}: footprint {footprint} B", trace.name())
        });
    }
}

/// The untraced run: set-up, then whole rounds over the three files until
/// `seconds` pass.
pub fn run(dir: &Path, seed: u64, seconds: f64) -> Outcome {
    let mut checks = Checks::default();
    // Set-up is short, so it is repeated and its median reported.
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        inputs.clear();
        let t = Instant::now();
        inputs = set_up(dir, seed, &mut Layers::default());
        setups.push(t.elapsed().as_secs_f64());
    }
    makeup_checks(&mut checks, &inputs);
    checks.take_op_failed();

    let sim = Simulator::new(replay_config());
    let mut op_s = Vec::new();
    let mut minstr = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || attempted == 0 {
        for (original, path) in &inputs {
            let t = Instant::now();
            let op = Trace::read_from(File::open(path).expect("the trace file exists")).map(|d| {
                let report = sim.run(&d);
                (d, report)
            });
            let dur = t.elapsed().as_secs_f64();
            attempted += 1;
            match op {
                Ok((decoded, report)) => {
                    let res = check_roundtrip(&decoded, original);
                    checks.check("decoded_equals_encoded", res.is_ok(), || res.unwrap_err());
                    let res = check_sim(&report, &Expect::Original(original.len() as u64));
                    checks.check("sim_report", res.is_ok(), || {
                        format!("{}: {}", original.name(), res.unwrap_err())
                    });
                    op_s.push(dur);
                    minstr.push(report.instructions as f64 / dur / 1e6);
                }
                Err(e) => checks.check("decoded_equals_encoded", false, || {
                    format!("{}: {e}", path.display())
                }),
            }
            failed += u64::from(checks.take_op_failed());
        }
    }
    Outcome {
        correct: checks.only_failed_in(&[]),
        attempted,
        failed,
        checks,
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("op_p50_s", median(&op_s), "s"),
            Metric::new("minstr_per_s", median(&minstr), "Minstr/s"),
            Metric::new("peak_rss_mb", own_peak_rss(), "MB"),
        ],
    }
}

/// The traced run: generation and encoding, one decode per file, and the
/// traced cycle loop on each decoded trace.
pub fn run_traced(dir: &Path, seed: u64) -> Outcome {
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    layers.calib_s.push(calib_seconds());
    let inputs = set_up(dir, seed, &mut layers);
    makeup_checks(&mut checks, &inputs);
    let config = replay_config();
    for (original, path) in &inputs {
        let t = Instant::now();
        let decoded = Trace::read_from(File::open(path).expect("the trace file exists"));
        layers.decode_s += t.elapsed().as_secs_f64();
        match decoded {
            Ok(decoded) => {
                let res = check_roundtrip(&decoded, original);
                checks.check("decoded_equals_encoded", res.is_ok(), || res.unwrap_err());
                let label = format!("{}/ftq24_fdp", original.name());
                layers.trace_cell(&mut checks, &label, &decoded, &config, None);
            }
            Err(e) => checks.check("decoded_equals_encoded", false, || e.to_string()),
        }
    }
    layers.calib_s.push(calib_seconds());
    checks.take_op_failed();
    Outcome::traced(checks, layers)
}
