//! paper-sweep: the paper's six configurations over the suite at 200k
//! instructions, stride 8, on an engine with one thread per CPU.
//!
//! One operation is a fresh `SessionBuilder::build`, `Session::run` of the
//! six-configuration plan, and `build_plan_report(..).to_json()`. Set-up
//! runs one reference sweep; the determinism probe compares every
//! operation's report bytes with the reference's.

use std::time::Instant;

use swip_asmdb::{rewrite_trace, Asmdb, Cfg};
use swip_bench::{
    build_plan_report, ConfigId, ExperimentPlan, Session, SessionBuilder, WorkloadResults,
};
use swip_core::HintTable;
use swip_report::RunReport;
use swip_trace::{Trace, TraceSummary};
use swip_workloads::{generate, Family, WorkloadSpec};

use crate::checks::{
    check_report_parses_back, check_sim, count_prefetches, geomean_speedup, Expect,
};
use crate::inputs::{sweep_specs, L1I_BYTES, SWEEP_INSTRUCTIONS, SWEEP_STRIDE};
use crate::layers::Layers;
use crate::util::{calib_seconds, cpus, median, own_peak_rss, Checks, Metric};
use crate::Outcome;

/// The check an operation may fail without making the run incorrect.
pub const DETERMINISM_PROBE: &str = "determinism_probe";

struct Sweep {
    session: Session,
    results: Vec<WorkloadResults>,
    json: String,
}

fn sweep(specs: &[WorkloadSpec], instructions: u64, threads: usize) -> Sweep {
    let session = SessionBuilder::new()
        .instructions(instructions)
        .stride(SWEEP_STRIDE)
        .threads(threads)
        .build()
        .expect("the sweep's knobs are valid");
    let plan = ExperimentPlan::all_figures(specs.to_vec());
    let results = session.run(&plan).expect("no sweep job panics");
    let json = build_plan_report(&session, &results).to_json();
    Sweep {
        session,
        results,
        json,
    }
}

/// What the benchmark knows about each input apart from the program path
/// under test: its own generation of the trace.
struct Reference {
    len: u64,
    footprint_bytes: u64,
}

fn references(specs: &[WorkloadSpec]) -> Vec<Reference> {
    specs
        .iter()
        .map(|s| {
            let t = generate(s);
            Reference {
                len: t.len() as u64,
                footprint_bytes: TraceSummary::of(&t).unique_lines * 64,
            }
        })
        .collect()
}

/// Checks one sweep's outputs; returns the instructions its reports
/// retired.
fn check_sweep(checks: &mut Checks, specs: &[WorkloadSpec], refs: &[Reference], s: &Sweep) -> u64 {
    let mut retired = 0;
    let mut returned = Vec::new();
    let mut speedups = Vec::new();
    for ((spec, reference), r) in specs.iter().zip(refs).zip(&s.results) {
        let out = s.session.asmdb(spec);
        let rewritten = Expect::Rewritten {
            len: out.rewritten.len() as u64,
            prefetches: count_prefetches(&out.rewritten),
        };
        let rewritten_keeps_original =
            out.rewritten.len() as u64 - count_prefetches(&out.rewritten) == reference.len;
        checks.check("rewrite_keeps_original", rewritten_keeps_original, || {
            format!("{}: rewritten trace does not hold the original", spec.name)
        });
        if spec.family == Family::Server {
            checks.check("makeup_server_insertions", !out.plan.is_empty(), || {
                format!("{}: AsmDB inserted nothing", spec.name)
            });
        }
        for id in ConfigId::PAPER {
            let sim = r.report(id);
            retired += sim.instructions;
            let expect = match id {
                ConfigId::AsmdbCons | ConfigId::AsmdbFdp => &rewritten,
                _ => &Expect::Original(reference.len),
            };
            let res = check_sim(sim, expect);
            checks.check("sim_report", res.is_ok(), || {
                format!("{}/{}: {}", spec.name, id.label(), res.unwrap_err())
            });
            returned.push((spec.name.as_str(), id.label(), sim));
        }
        speedups.push((r.base().cycles, r.fdp().cycles));
    }
    let parsed = check_report_parses_back(&s.json, &returned);
    checks.check("report_parses_back", parsed.is_ok(), || parsed.unwrap_err());
    let speedup = geomean_speedup(&speedups);
    checks.check("ftq24_speedup", speedup > 1.0, || {
        format!("geomean ftq24_fdp speedup {speedup}")
    });
    retired
}

/// The workloads' stated make-up: server footprints overflow the L1-I.
fn makeup_checks(checks: &mut Checks, specs: &[WorkloadSpec], refs: &[Reference]) {
    for (spec, r) in specs.iter().zip(refs) {
        if spec.family == Family::Server {
            checks.check(
                "makeup_server_footprint",
                r.footprint_bytes > L1I_BYTES,
                || format!("{}: footprint {} B", spec.name, r.footprint_bytes),
            );
        }
    }
}

/// The untraced run: set-up, then whole sweeps until `seconds` pass.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let instructions = SWEEP_INSTRUCTIONS;
    let specs = sweep_specs(seed, instructions);
    let threads = cpus();
    let mut checks = Checks::default();

    let t = Instant::now();
    let reference = sweep(&specs, instructions, threads);
    let setup_s = t.elapsed().as_secs_f64();
    eprintln!("set-up: {setup_s:.3} s, peak RSS {:.1} MB", own_peak_rss());
    let refs = references(&specs);
    makeup_checks(&mut checks, &specs, &refs);
    check_sweep(&mut checks, &specs, &refs, &reference);
    checks.take_op_failed();
    let reference_json = reference.json;
    drop(reference.session);

    let mut op_s = Vec::new();
    let mut minstr = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || attempted == 0 {
        let t = Instant::now();
        let s = sweep(&specs, instructions, threads);
        let dur = t.elapsed().as_secs_f64();
        let retired = check_sweep(&mut checks, &specs, &refs, &s);
        checks.check(DETERMINISM_PROBE, s.json == reference_json, || {
            format!(
                "plan report bytes differ from the reference sweep's in {}",
                differing_workloads(&s.json, &reference_json)
            )
        });
        attempted += 1;
        failed += u64::from(checks.take_op_failed());
        op_s.push(dur);
        minstr.push(retired as f64 / dur / 1e6);
        eprintln!(
            "op {attempted}: {dur:.3} s, peak RSS {:.1} MB",
            own_peak_rss()
        );
    }
    Outcome {
        correct: checks.only_failed_in(&[DETERMINISM_PROBE]),
        attempted,
        failed,
        checks,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("op_p50_s", median(&op_s), "s"),
            Metric::new("minstr_per_s", median(&minstr), "Minstr/s"),
            Metric::new("peak_rss_mb", own_peak_rss(), "MB"),
        ],
    }
}

/// The workloads whose report sections differ between two plan reports.
fn differing_workloads(a: &str, b: &str) -> String {
    let (Ok(a), Ok(b)) = (RunReport::from_json_str(a), RunReport::from_json_str(b)) else {
        return "a report that does not parse".into();
    };
    let names: Vec<&str> = a
        .workloads
        .iter()
        .filter(|w| b.workload(&w.name) != Some(*w))
        .map(|w| w.name.as_str())
        .collect();
    format!(
        "{} of {} workloads ({})",
        names.len(),
        a.workloads.len(),
        names.join(", ")
    )
}

/// The traced run: drives generation, AsmDB, the traced cycle loop over
/// all 36 cells, analysis, report assembly and one engine sweep, timing
/// each from outside.
pub fn run_traced(seed: u64) -> Outcome {
    let instructions = SWEEP_INSTRUCTIONS;
    let specs = sweep_specs(seed, instructions);
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    layers.calib_s.push(calib_seconds());

    let threads = cpus();
    let session = SessionBuilder::new()
        .instructions(instructions)
        .stride(SWEEP_STRIDE)
        .threads(threads)
        .build()
        .expect("valid knobs");
    let asmdb = Asmdb::new(session.asmdb_config().clone());
    let profile_config = ConfigId::Base.sim_config();
    for spec in &specs {
        let t = Instant::now();
        let trace = generate(spec);
        layers.generate_s += t.elapsed().as_secs_f64();
        drive_asmdb_and_cells(
            &mut layers,
            &mut checks,
            &asmdb,
            &profile_config,
            &trace,
            &ConfigId::PAPER,
        );
    }

    let t = Instant::now();
    let results = session
        .run(&ExperimentPlan::all_figures(specs.clone()))
        .expect("no sweep job panics");
    layers.bench_run_s = t.elapsed().as_secs_f64();
    layers.bench_job_s = results.iter().map(WorkloadResults::job_seconds).sum();
    layers.bench_threads = threads;
    let json = time_report(&mut layers, &session, &results);
    let s = Sweep {
        session,
        results,
        json,
    };
    let refs = references(&specs);
    makeup_checks(&mut checks, &specs, &refs);
    check_sweep(&mut checks, &specs, &refs, &s);
    layers.calib_s.push(calib_seconds());
    checks.take_op_failed();
    Outcome::traced(checks, layers)
}

/// Times `build_plan_report` and `to_json` on a finished engine run, as
/// the report layer; returns the JSON.
pub fn time_report(layers: &mut Layers, session: &Session, results: &[WorkloadResults]) -> String {
    let t = Instant::now();
    let report = build_plan_report(session, results);
    layers.report_build_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let json = report.to_json();
    layers.report_json_s += t.elapsed().as_secs_f64();
    layers.report_mb += json.len() as f64 / 1e6;
    json
}

/// Drives AsmDB (profile, plan, rewrite), the analysis layer (CFG and
/// plan evaluation) and the traced cycle loop over `configs` for one
/// workload's trace.
pub fn drive_asmdb_and_cells(
    layers: &mut Layers,
    checks: &mut Checks,
    asmdb: &Asmdb,
    profile_config: &swip_core::SimConfig,
    trace: &Trace,
    configs: &[ConfigId],
) {
    let t = Instant::now();
    let profile = asmdb.profile(trace, profile_config);
    layers.asmdb_profile_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (plan, _) = asmdb.plan(trace, &profile, profile_config);
    layers.asmdb_plan_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (rewritten, _) = rewrite_trace(trace, &plan);
    layers.asmdb_rewrite_s += t.elapsed().as_secs_f64();
    layers.asmdb_insertions += plan.len() as u64;

    let t = Instant::now();
    let cfg = Cfg::from_trace(trace);
    layers.cfg_s += t.elapsed().as_secs_f64();
    let entry = trace
        .instructions()
        .first()
        .and_then(|i| cfg.block_of(i.pc));
    let t = Instant::now();
    let eval =
        swip_analyze::evaluate_plan(&cfg, entry, &plan, &swip_analyze::CoverageConfig::default());
    layers.evaluate_s += t.elapsed().as_secs_f64();
    std::hint::black_box(eval);

    let hints = std::sync::Arc::new(HintTable::from_pc_map(&plan.to_hints()));
    for &id in configs {
        let label = format!("{}/{}", trace.name(), id.label());
        let config = id.sim_config();
        match id {
            ConfigId::AsmdbCons | ConfigId::AsmdbFdp => {
                layers.trace_cell(checks, &label, &rewritten, &config, None);
            }
            ConfigId::AsmdbConsNoov | ConfigId::AsmdbFdpNoov => {
                layers.trace_cell(checks, &label, trace, &config, Some(hints.clone()));
            }
            _ => layers.trace_cell(checks, &label, trace, &config, None),
        }
    }
}
