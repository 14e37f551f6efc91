//! Per-layer metrics of the traced run (`--trace 1`).
//!
//! Every traced run prints every per-layer metric. A layer the workload's
//! path never calls reads 0: trace-replay does not run AsmDB, paper-sweep
//! does not decode trace files, and only serve-plans talks HTTP.

use std::sync::Arc;
use std::time::Instant;

use swip_core::{HintTable, SimConfig, Simulator};
use swip_trace::Trace;

use crate::traced::{differential, run_traced, LoopTrace};
use crate::util::{Checks, Metric};

/// Accumulated per-layer counts and host seconds.
#[derive(Default, Debug)]
pub struct Layers {
    pub cycles: u64,
    pub idle_cycles: u64,
    pub retired: u64,
    pub sim_s: f64,
    pub untraced_s: f64,
    pub frontend_cycle_s: f64,
    pub frontend_resolution_s: f64,
    pub backend_cycle_s: f64,
    pub backend_dispatch_s: f64,
    pub l1i_accesses: u64,
    pub l1i_misses: u64,
    pub l2_accesses: u64,
    pub llc_accesses: u64,
    pub mispredicted: u64,
    pub decode_s: f64,
    pub encode_s: f64,
    pub file_mb: f64,
    pub generate_s: f64,
    pub asmdb_profile_s: f64,
    pub asmdb_plan_s: f64,
    pub asmdb_rewrite_s: f64,
    pub asmdb_insertions: u64,
    pub cfg_s: f64,
    pub evaluate_s: f64,
    pub report_build_s: f64,
    pub report_json_s: f64,
    pub report_mb: f64,
    pub bench_run_s: f64,
    pub bench_job_s: f64,
    pub bench_threads: usize,
    pub serve_submit_s: f64,
    pub serve_queue_s: f64,
    pub serve_run_s: f64,
    pub serve_fetch_s: f64,
    pub serve_polls: u64,
    pub calib_s: Vec<f64>,
}

impl Layers {
    /// Runs one cell through the traced loop and through `Simulator::run`,
    /// applies the differential check, and adds the traced counts and
    /// times.
    pub fn trace_cell(
        &mut self,
        checks: &mut Checks,
        label: &str,
        trace: &Trace,
        config: &SimConfig,
        hints: Option<Arc<HintTable>>,
    ) {
        let t = Instant::now();
        let reference = match &hints {
            Some(h) => Simulator::new(config.clone()).run_with_hint_table(trace, h.clone()),
            None => Simulator::new(config.clone()).run(trace),
        };
        self.untraced_s += t.elapsed().as_secs_f64();
        let traced = run_traced(trace, config, hints);
        let diff = differential(&traced, &reference);
        checks.check("traced_loop_differential", diff.is_ok(), || {
            format!("{label}: {}", diff.unwrap_err())
        });
        self.add_loop(&traced);
        self.mispredicted += reference.branch.mispredicts.get();
    }

    fn add_loop(&mut self, t: &LoopTrace) {
        self.cycles += t.cycles;
        self.idle_cycles += t.idle_cycles;
        self.retired += t.retired;
        self.sim_s += t.loop_s;
        self.frontend_cycle_s += t.frontend_cycle_s;
        self.frontend_resolution_s += t.resolution_s;
        self.backend_cycle_s += t.backend_cycle_s;
        self.backend_dispatch_s += t.dispatch_s;
        self.l1i_accesses += t.l1i[0] + t.l1i[1];
        self.l1i_misses += t.l1i[1];
        self.l2_accesses += t.l2[0] + t.l2[1];
        self.llc_accesses += t.llc[0] + t.llc[1];
    }

    /// Every per-layer metric, in the order `BENCHMARK.json` lists them.
    pub fn metrics(&self) -> Vec<Metric> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let m = Metric::new;
        let calib = if self.calib_s.is_empty() {
            0.0
        } else {
            crate::util::median(&self.calib_s)
        };
        vec![
            m("core.cycles", self.cycles as f64, "count"),
            m("core.idle_cycles", self.idle_cycles as f64, "count"),
            m(
                "core.idle_cycles_per_kinstr",
                ratio(self.idle_cycles as f64 * 1000.0, self.retired as f64),
                "cycles/kinstr",
            ),
            m(
                "core.host_ns_per_cycle",
                ratio(self.sim_s * 1e9, self.cycles as f64),
                "ns",
            ),
            m("core.sim_s", self.sim_s, "s"),
            m(
                "core.trace_overhead",
                ratio(self.sim_s, self.untraced_s),
                "x",
            ),
            m("frontend.cycle_s", self.frontend_cycle_s, "s"),
            m("frontend.resolution_s", self.frontend_resolution_s, "s"),
            m("backend.cycle_s", self.backend_cycle_s, "s"),
            m("backend.dispatch_s", self.backend_dispatch_s, "s"),
            m("cache.l1i_accesses", self.l1i_accesses as f64, "count"),
            m("cache.l1i_misses", self.l1i_misses as f64, "count"),
            m("cache.l2_accesses", self.l2_accesses as f64, "count"),
            m("cache.llc_accesses", self.llc_accesses as f64, "count"),
            m("branch.mispredicted", self.mispredicted as f64, "count"),
            m("trace.decode_s", self.decode_s, "s"),
            m(
                "trace.decode_mb_per_s",
                ratio(self.file_mb, self.decode_s),
                "MB/s",
            ),
            m("trace.file_mb", self.file_mb, "MB"),
            m("trace.encode_s", self.encode_s, "s"),
            m("workloads.generate_s", self.generate_s, "s"),
            m("asmdb.profile_s", self.asmdb_profile_s, "s"),
            m("asmdb.plan_s", self.asmdb_plan_s, "s"),
            m("asmdb.rewrite_s", self.asmdb_rewrite_s, "s"),
            m("asmdb.insertions", self.asmdb_insertions as f64, "count"),
            m("analyze.cfg_s", self.cfg_s, "s"),
            m("analyze.evaluate_s", self.evaluate_s, "s"),
            m("report.build_s", self.report_build_s, "s"),
            m("report.json_s", self.report_json_s, "s"),
            m("report.mb", self.report_mb, "MB"),
            m("bench.run_s", self.bench_run_s, "s"),
            m("bench.job_s", self.bench_job_s, "s"),
            m(
                "bench.thread_busy_share",
                ratio(
                    self.bench_job_s,
                    self.bench_run_s * self.bench_threads as f64,
                ),
                "share",
            ),
            m("serve.submit_s", self.serve_submit_s, "s"),
            m("serve.queue_s", self.serve_queue_s, "s"),
            m("serve.run_s", self.serve_run_s, "s"),
            m("serve.fetch_s", self.serve_fetch_s, "s"),
            m("serve.polls", self.serve_polls as f64, "count"),
            m("host.calib_s", calib, "s"),
        ]
    }
}
