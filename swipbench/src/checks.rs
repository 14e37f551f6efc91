//! Output checks. Each compares the program's output with a property or
//! with a value the benchmark computed apart from the path under test; none
//! compares against a stored copy of earlier output.

use swip_core::SimReport;
use swip_report::{ConfigReport, RunReport};
use swip_trace::Trace;
use swip_types::InstrKind;

/// The benchmark's own count of `prefetch.i` instructions in `trace`.
pub fn count_prefetches(trace: &Trace) -> u64 {
    trace
        .iter()
        .filter(|i| matches!(i.kind, InstrKind::PrefetchI { .. }))
        .count() as u64
}

/// What a cell's report must retire.
pub enum Expect {
    /// Exactly this many instructions, none of them prefetches (a cell
    /// that runs the original trace).
    Original(u64),
    /// Exactly the rewritten trace: its length, with this many prefetches.
    Rewritten { len: u64, prefetches: u64 },
    /// A rewritten trace the benchmark cannot see (it lives in another
    /// process): the retired instructions other than prefetches must be
    /// exactly the original trace's length.
    RewrittenOf(u64),
}

/// Checks one simulation report: it completed, retired what `expect`
/// says, and `ipc × cycles` equals the number retired.
pub fn check_sim(r: &SimReport, expect: &Expect) -> Result<(), String> {
    check_counts(
        r.completed,
        r.instructions,
        r.prefetch_instructions,
        r.cycles,
        r.ipc,
        expect,
    )
}

/// [`check_sim`] on the counters of a parsed report cell.
pub fn check_cell(c: &ConfigReport, expect: &Expect) -> Result<(), String> {
    let get = |name: &str| {
        c.counter(name)
            .ok_or_else(|| format!("{}: no counter {name}", c.config))
    };
    let ipc = c
        .value("ipc")
        .ok_or_else(|| format!("{}: no value ipc", c.config))?;
    check_counts(
        get("completed")? == 1,
        get("instructions")?,
        get("prefetch_instructions")?,
        get("cycles")?,
        ipc,
        expect,
    )
    .map_err(|e| format!("{}: {e}", c.config))
}

fn check_counts(
    completed: bool,
    instructions: u64,
    prefetches: u64,
    cycles: u64,
    ipc: f64,
    expect: &Expect,
) -> Result<(), String> {
    if !completed {
        return Err("run did not complete".into());
    }
    match *expect {
        Expect::Original(len) => {
            if instructions != len || prefetches != 0 {
                return Err(format!(
                    "retired {instructions} ({prefetches} prefetches), expected {len} (0)"
                ));
            }
        }
        Expect::Rewritten { len, prefetches: p } => {
            if instructions != len || prefetches != p {
                return Err(format!(
                    "retired {instructions} ({prefetches} prefetches), expected {len} ({p})"
                ));
            }
        }
        Expect::RewrittenOf(len) => {
            if instructions.checked_sub(prefetches) != Some(len) {
                return Err(format!(
                    "retired {instructions} with {prefetches} prefetches, expected {len} others"
                ));
            }
        }
    }
    let product = ipc * cycles as f64;
    if (product - instructions as f64).abs() > 1e-6 * instructions.max(1) as f64 {
        return Err(format!(
            "ipc {ipc} x cycles {cycles} = {product}, retired {instructions}"
        ));
    }
    Ok(())
}

/// The counters the benchmark reads straight from a [`SimReport`]'s
/// fields, by the names the plan report uses for them.
pub fn field_counters(r: &SimReport) -> Vec<(&'static str, u64)> {
    let cache = |s: &swip_cache::CacheStats| [s.demand.hits(), s.demand.misses()];
    let [l1i_h, l1i_m] = cache(&r.l1i);
    let [l2_h, l2_m] = cache(&r.l2);
    let [llc_h, llc_m] = cache(&r.llc);
    vec![
        ("instructions", r.instructions),
        ("prefetch_instructions", r.prefetch_instructions),
        ("cycles", r.cycles),
        ("completed", u64::from(r.completed)),
        ("l1i.demand_hits", l1i_h),
        ("l1i.demand_misses", l1i_m),
        ("l2.demand_hits", l2_h),
        ("l2.demand_misses", l2_m),
        ("llc.demand_hits", llc_h),
        ("llc.demand_misses", llc_m),
        ("branch.mispredicts", r.branch.mispredicts.get()),
        ("backend.retired", r.backend.retired.get()),
        ("ftq.swpf_executed", r.frontend.swpf_executed.get()),
    ]
}

/// Parses `json` as a plan report and checks it carries, for every
/// `(workload, config, report)` returned by the run, a cell whose counters
/// equal the report's fields.
pub fn check_report_parses_back(
    json: &str,
    returned: &[(&str, &str, &SimReport)],
) -> Result<RunReport, String> {
    let parsed = RunReport::from_json_str(json).map_err(|e| format!("does not parse: {e}"))?;
    let cells: usize = parsed.workloads.iter().map(|w| w.configs.len()).sum();
    if cells != returned.len() {
        return Err(format!("{cells} cells, {} returned", returned.len()));
    }
    for &(workload, config, sim) in returned {
        let cell = parsed
            .workload(workload)
            .and_then(|w| w.config(config))
            .ok_or_else(|| format!("no cell {workload}/{config}"))?;
        for (name, want) in field_counters(sim) {
            if cell.counter(name) != Some(want) {
                return Err(format!(
                    "{workload}/{config} {name}: report {:?}, returned {want}",
                    cell.counter(name)
                ));
            }
        }
    }
    Ok(parsed)
}

/// Checks a served cell against the benchmark's own run of the same trace:
/// every counter the cell carries must equal the flattening of that run.
pub fn check_cell_equals(cell: &ConfigReport, own: &SimReport) -> Result<(), String> {
    let own = ConfigReport::from_sim(cell.config.clone(), own);
    for (name, want) in &own.counters {
        if cell.counter(name) != Some(*want) {
            return Err(format!(
                "{} {name}: served {:?}, own run {want}",
                cell.config,
                cell.counter(name)
            ));
        }
    }
    if cell.counters.len() != own.counters.len() {
        return Err(format!("{}: counter sets differ", cell.config));
    }
    Ok(())
}

/// Geometric mean of `base_cycles / fast_cycles` over pairs of runs of the
/// same trace (the speedup of `fast` over `base`).
pub fn geomean_speedup(pairs: &[(u64, u64)]) -> f64 {
    let logs: f64 = pairs
        .iter()
        .map(|&(base, fast)| (base as f64 / fast as f64).ln())
        .sum();
    (logs / pairs.len() as f64).exp()
}

/// Checks that `decoded` equals the trace it was encoded from.
pub fn check_roundtrip(decoded: &Trace, original: &Trace) -> Result<(), String> {
    if decoded == original {
        return Ok(());
    }
    let first = decoded
        .iter()
        .zip(original.iter())
        .position(|(a, b)| a != b);
    Err(format!(
        "decoded {} instructions of {:?}, original {} of {:?}; first difference at {first:?}",
        decoded.len(),
        decoded.name(),
        original.len(),
        original.name()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_core::{SimConfig, Simulator};
    use swip_workloads::{cvp1_suite, generate};

    fn tiny() -> (Trace, SimReport) {
        let trace = generate(&cvp1_suite(5_000)[1]);
        let r = Simulator::new(SimConfig::sunny_cove_like()).run(&trace);
        (trace, r)
    }

    #[test]
    fn sim_check_accepts_a_true_report_and_rejects_changed_counters() {
        let (trace, r) = tiny();
        let len = trace.len() as u64;
        assert_eq!(check_sim(&r, &Expect::Original(len)), Ok(()));
        let mut bad = r.clone();
        bad.instructions += 1;
        assert!(check_sim(&bad, &Expect::Original(len)).is_err());
        let mut bad = r.clone();
        bad.cycles += 1;
        assert!(
            check_sim(&bad, &Expect::Original(len)).is_err(),
            "ipc x cycles"
        );
        let mut bad = r;
        bad.completed = false;
        assert!(check_sim(&bad, &Expect::Original(len)).is_err());
    }

    #[test]
    fn report_check_rejects_one_changed_counter() {
        let (_, r) = tiny();
        let mut doc = RunReport::new("plan", 5_000, 1, 1);
        doc.workloads.push(swip_report::WorkloadReport {
            name: r.workload.clone(),
            job_seconds: 0.0,
            coverage: Vec::new(),
            configs: vec![ConfigReport::from_sim("ftq24_fdp", &r)],
        });
        doc.seal();
        let json = doc.to_json();
        let returned = [(r.workload.as_str(), "ftq24_fdp", &r)];
        assert!(check_report_parses_back(&json, &returned).is_ok());

        let cycles = format!("\"cycles\": {}", r.cycles);
        assert!(json.contains(&cycles), "report layout changed");
        let corrupted = json.replacen(&cycles, &format!("\"cycles\": {}", r.cycles + 1), 1);
        assert!(check_report_parses_back(&corrupted, &returned).is_err());

        let cell = &RunReport::from_json_str(&json).unwrap().workloads[0].configs[0];
        assert_eq!(check_cell_equals(cell, &r), Ok(()));
        let mut changed = r.clone();
        changed.l1i.evictions.add(1);
        assert!(check_cell_equals(cell, &changed).is_err());
    }

    #[test]
    fn roundtrip_check_rejects_a_truncated_trace_file() {
        let (trace, _) = tiny();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let decoded = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(check_roundtrip(&decoded, &trace), Ok(()));
        // A cut file either fails to decode or decodes to another trace.
        for cut in [bytes.len() - 1, bytes.len() / 2, 16] {
            match Trace::read_from(&bytes[..cut]) {
                Err(_) => {}
                Ok(short) => assert!(check_roundtrip(&short, &trace).is_err()),
            }
        }
    }

    #[test]
    fn speedup_is_a_geometric_mean() {
        let s = geomean_speedup(&[(200, 100), (100, 200)]);
        assert!((s - 1.0).abs() < 1e-12);
        assert!(geomean_speedup(&[(300, 100)]) > 1.0);
    }
}
