//! The traced cycle loop: the benchmark's own copy of `Simulator::run`'s
//! loop over `Frontend::cycle`, `Backend::dispatch`, `Backend::cycle` and
//! `Frontend::handle_resolution`, timing each call from outside.
//!
//! Calls are timed on one cycle in [`SAMPLE_EVERY`], less the clock's own
//! cost, and scaled up by the sampled share of cycles; the loop's total
//! wall time is measured whole.
//! The differential check ([`differential`]) compares the loop's cycles,
//! retired instructions and cache counters with `Simulator::run` on the
//! same cell, so a copy that drifts from the program's loop is caught.

use std::sync::Arc;
use std::time::Instant;

use swip_cache::{CacheStats, MemoryHierarchy};
use swip_core::{Backend, HintTable, SimConfig, SimReport};
use swip_frontend::Frontend;
use swip_trace::Trace;
use swip_types::PrefetcherId;

/// One cycle in this many has its calls timed.
pub const SAMPLE_EVERY: u64 = 8;

/// The smallest interval two back-to-back `Instant::now` calls measure:
/// the clock's own cost, taken off every timed call.
fn clock_floor_ns() -> u128 {
    (0..1000)
        .map(|_| {
            let t = Instant::now();
            (Instant::now() - t).as_nanos()
        })
        .min()
        .unwrap_or(0)
}

/// Counts and host times from one traced run of one cell.
#[derive(Clone, Debug, Default)]
pub struct LoopTrace {
    /// Simulated cycles.
    pub cycles: u64,
    /// Cycles with no decode, no dispatch, no resolution and no retirement.
    pub idle_cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Whether the run ended before the watchdog.
    pub completed: bool,
    /// Cache counters at the end of the run (see [`cache_counts`]).
    pub l1i: [u64; 6],
    pub l2: [u64; 6],
    pub llc: [u64; 6],
    /// Wall time of the whole loop.
    pub loop_s: f64,
    /// Estimated seconds in each traced function.
    pub frontend_cycle_s: f64,
    pub dispatch_s: f64,
    pub backend_cycle_s: f64,
    pub resolution_s: f64,
}

/// Demand hits and misses, prefetch hits and misses, evictions and useful
/// prefetches of one cache level.
pub fn cache_counts(s: &CacheStats) -> [u64; 6] {
    [
        s.demand.hits(),
        s.demand.misses(),
        s.prefetch.hits(),
        s.prefetch.misses(),
        s.evictions.get(),
        s.useful_prefetches.get(),
    ]
}

/// Runs `trace` under `config` (with the no-overhead hint table, when
/// given) through the traced loop.
///
/// # Panics
///
/// Panics for configurations outside the paper's six (a hardware
/// prefetcher, a timeline or a line profile), which this copy of the loop
/// does not model.
pub fn run_traced(trace: &Trace, config: &SimConfig, hints: Option<Arc<HintTable>>) -> LoopTrace {
    run_loop(trace, config, hints, None)
}

/// The loop itself; `skip_cycle` drops one cycle's calls, so tests can
/// show the differential check catches a loop that skips a cycle.
fn run_loop(
    trace: &Trace,
    config: &SimConfig,
    hints: Option<Arc<HintTable>>,
    skip_cycle: Option<u64>,
) -> LoopTrace {
    assert!(
        matches!(config.prefetcher, PrefetcherId::Fdp | PrefetcherId::Asmdb)
            && config.timeline.is_none()
            && !config.collect_line_profile,
        "the traced loop models the paper's six configurations only"
    );
    let start = Instant::now();
    let mut frontend = Frontend::new(config.frontend.clone());
    if let Some(table) = hints {
        frontend.set_hint_table(table);
    }
    let mut mem = MemoryHierarchy::new(config.memory.clone());
    let mut backend = Backend::new(config.backend);
    let watchdog = (trace.len() as u64)
        .saturating_mul(config.max_cycles_per_instr)
        .max(100_000);
    let instrs = trace.instructions();
    let mut now = 0u64;
    let mut decoded = Vec::with_capacity(config.frontend.decode_width);
    let mut resolved = Vec::new();
    let mut completed = true;
    let mut idle = 0u64;
    let mut sampled = 0u64;
    let mut t_front = 0u128;
    let mut t_dispatch = 0u128;
    let mut t_back = 0u128;
    let mut t_resolve = 0u128;
    let floor = clock_floor_ns();
    let span = |a: Instant, b: Instant| (b - a).as_nanos().saturating_sub(floor);

    while !(frontend.is_done(trace) && backend.is_empty()) {
        if skip_cycle == Some(now) {
            now += 1;
            continue;
        }
        let retired_before = backend.retired();
        decoded.clear();
        if now.is_multiple_of(SAMPLE_EVERY) {
            sampled += 1;
            let t0 = Instant::now();
            frontend.cycle(now, trace, &mut mem, backend.free_slots(), &mut decoded);
            let t1 = Instant::now();
            for d in &decoded {
                backend.dispatch(*d, instrs[d.seq as usize], now);
            }
            let t2 = Instant::now();
            backend.cycle(now, &mut mem, &mut resolved);
            let t3 = Instant::now();
            for r in &resolved {
                frontend.handle_resolution(r.seq, &instrs[r.seq as usize], r.at);
            }
            let t4 = Instant::now();
            t_front += span(t0, t1);
            t_dispatch += span(t1, t2);
            t_back += span(t2, t3);
            t_resolve += span(t3, t4);
        } else {
            frontend.cycle(now, trace, &mut mem, backend.free_slots(), &mut decoded);
            for d in &decoded {
                backend.dispatch(*d, instrs[d.seq as usize], now);
            }
            backend.cycle(now, &mut mem, &mut resolved);
            for r in &resolved {
                frontend.handle_resolution(r.seq, &instrs[r.seq as usize], r.at);
            }
        }
        if decoded.is_empty() && resolved.is_empty() && backend.retired() == retired_before {
            idle += 1;
        }
        now += 1;
        if now >= watchdog {
            completed = false;
            break;
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    let cycles = now.max(1);
    let scale = cycles as f64 / sampled.max(1) as f64 / 1e9;
    LoopTrace {
        cycles,
        idle_cycles: idle,
        retired: backend.retired(),
        completed,
        l1i: cache_counts(mem.l1i_stats()),
        l2: cache_counts(mem.l2_stats()),
        llc: cache_counts(mem.llc_stats()),
        loop_s,
        frontend_cycle_s: t_front as f64 * scale,
        dispatch_s: t_dispatch as f64 * scale,
        backend_cycle_s: t_back as f64 * scale,
        resolution_s: t_resolve as f64 * scale,
    }
}

/// The differential check: the traced loop's cycles, retired instructions
/// and L1-I, L2 and LLC counters must equal `Simulator::run`'s. Returns a
/// description of the first difference.
pub fn differential(traced: &LoopTrace, reference: &SimReport) -> Result<(), String> {
    let pairs = [
        ("cycles", traced.cycles, reference.cycles),
        ("retired", traced.retired, reference.instructions),
        (
            "completed",
            u64::from(traced.completed),
            u64::from(reference.completed),
        ),
    ];
    for (what, got, want) in pairs {
        if got != want {
            return Err(format!("{what}: traced {got}, Simulator::run {want}"));
        }
    }
    let levels = [
        ("l1i", traced.l1i, cache_counts(&reference.l1i)),
        ("l2", traced.l2, cache_counts(&reference.l2)),
        ("llc", traced.llc, cache_counts(&reference.llc)),
    ];
    for (what, got, want) in levels {
        if got != want {
            return Err(format!(
                "{what} counters: traced {got:?}, Simulator::run {want:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_core::Simulator;
    use swip_workloads::{cvp1_suite, generate};

    fn tiny_trace() -> Trace {
        generate(&cvp1_suite(5_000)[16])
    }

    #[test]
    fn traced_loop_matches_the_simulator() {
        let trace = tiny_trace();
        for config in [SimConfig::conservative(), SimConfig::sunny_cove_like()] {
            let reference = Simulator::new(config.clone()).run(&trace);
            let traced = run_traced(&trace, &config, None);
            assert_eq!(differential(&traced, &reference), Ok(()));
            assert!(traced.idle_cycles > 0 && traced.idle_cycles < traced.cycles);
            assert!(traced.frontend_cycle_s > 0.0 && traced.backend_cycle_s > 0.0);
        }
    }

    #[test]
    fn differential_rejects_a_loop_that_skips_a_cycle() {
        let trace = tiny_trace();
        let config = SimConfig::sunny_cove_like();
        let reference = Simulator::new(config.clone()).run(&trace);
        // Cycle 0 always starts work; skipping a cycle in which nothing
        // happens (cycle 100 of this trace is one) changes no output.
        let skipping = run_loop(&trace, &config, None, Some(0));
        assert!(differential(&skipping, &reference).is_err());
    }

    #[test]
    fn differential_rejects_a_changed_counter() {
        let trace = tiny_trace();
        let config = SimConfig::conservative();
        let reference = Simulator::new(config.clone()).run(&trace);
        let mut traced = run_traced(&trace, &config, None);
        traced.llc[1] += 1;
        assert!(differential(&traced, &reference).is_err());
    }
}
