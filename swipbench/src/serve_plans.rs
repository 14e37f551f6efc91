//! serve-plans: a closed loop of one client on one kept-alive connection
//! against `swip serve` (1 worker, `--job-threads` = CPUs, 200k
//! instructions, stride 8).
//!
//! One operation submits one plan (one workload × the paper's six
//! configurations), polls the job until it is done and fetches the report.
//! Operations rotate over the served workloads in a seeded order. Set-up
//! starts the server, waits for `/healthz` and runs one warm-up round.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use swip_asmdb::Asmdb;
use swip_bench::{ConfigId, ExperimentPlan, SessionBuilder, WorkloadResults};
use swip_core::Simulator;
use swip_report::{Json, RunReport};
use swip_serve::client::Connection;
use swip_workloads::{generate, WorkloadSpec};

use crate::checks::{check_cell, check_cell_equals, Expect};
use crate::inputs::{serve_rotation, sweep_specs, DEFAULT_SEED, SWEEP_INSTRUCTIONS, SWEEP_STRIDE};
use crate::layers::Layers;
use crate::paper_sweep::{drive_asmdb_and_cells, time_report};
use crate::util::{calib_seconds, cpus, median, peak_rss_mb, Checks, Metric};
use crate::Outcome;

/// Pause between two polls of a running job.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// A `swip serve` child process; dropping it kills and reaps the child if
/// it has not exited.
struct ServerProcess {
    child: Child,
    addr: String,
}

impl ServerProcess {
    /// Starts `swip serve` as a child of this binary (see `serve-child` in
    /// `main.rs`) and waits until `/healthz` answers.
    fn start(instructions: u64, threads: usize) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut child = Command::new(exe)
            .args([
                "serve-child",
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
            ])
            .args(["--job-threads", &threads.to_string()])
            .args(["--instructions", &instructions.to_string()])
            .args(["--stride", &SWEEP_STRIDE.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut server = ServerProcess {
            child,
            addr: String::new(),
        };
        read.map_err(|e| format!("reading the server's address: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected server output {line:?}"))?
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match swip_serve::client::request(&server.addr, "GET", "/healthz", None) {
                Ok((200, _)) => return Ok(server),
                _ if Instant::now() > deadline => return Err("/healthz never answered".into()),
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Peak resident memory of the server process.
    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.child.id()).expect("procfs reports the server's VmHWM")
    }

    /// Drains the server through `POST /v1/shutdown` and waits for it.
    fn stop(mut self) -> Result<(), String> {
        let _ = swip_serve::client::request(&self.addr, "POST", "/v1/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => return Err("server did not drain within 30 s".into()),
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Client-side timings of one served plan.
struct Served {
    report: String,
    submit_s: f64,
    fetch_s: f64,
    polls: u64,
    queue_s: f64,
    run_s: f64,
}

fn json_of(status: u16, body: &str, want: u16) -> Result<Json, String> {
    if status != want {
        return Err(format!("status {status}: {body}"));
    }
    Json::parse(body).map_err(|e| format!("bad JSON ({e}): {body}"))
}

/// One operation: submit, poll until done, fetch the report.
fn serve_plan(conn: &mut Connection, workload: &str) -> Result<Served, String> {
    let io = |e: std::io::Error| format!("connection: {e}");
    let t = Instant::now();
    let body = format!(r#"{{"workloads": ["{workload}"]}}"#);
    let (status, text) = conn.request("POST", "/v1/jobs", Some(&body)).map_err(io)?;
    let submit_s = t.elapsed().as_secs_f64();
    let id = json_of(status, &text, 202)?
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("submit answer has no id")?;
    let mut polls = 0;
    let job = loop {
        let (status, text) = conn
            .request("GET", &format!("/v1/jobs/{id}"), None)
            .map_err(io)?;
        polls += 1;
        let job = json_of(status, &text, 200)?;
        match job.get("state").and_then(Json::as_str) {
            Some("done") => break job,
            Some("queued" | "running") => std::thread::sleep(POLL_INTERVAL),
            other => return Err(format!("job {id} ended {other:?}: {text}")),
        }
    };
    let t = Instant::now();
    let (status, report) = conn
        .request("GET", &format!("/v1/jobs/{id}/report"), None)
        .map_err(io)?;
    let fetch_s = t.elapsed().as_secs_f64();
    if status != 200 {
        return Err(format!("report status {status}: {report}"));
    }
    let seconds = |key| job.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(Served {
        report,
        submit_s,
        fetch_s,
        polls,
        queue_s: seconds("queue_seconds"),
        run_s: seconds("run_seconds"),
    })
}

/// The benchmark's own view of one served workload: the generated trace's
/// length and its own runs of the two FDP cells.
struct Reference {
    len: u64,
    fdp_cells: Vec<(ConfigId, swip_core::SimReport)>,
}

fn references(specs: &[WorkloadSpec]) -> BTreeMap<String, Reference> {
    specs
        .iter()
        .map(|spec| {
            let trace = generate(spec);
            let fdp_cells = [ConfigId::Base, ConfigId::Fdp]
                .into_iter()
                .map(|id| (id, Simulator::new(id.sim_config()).run(&trace)))
                .collect();
            let r = Reference {
                len: trace.len() as u64,
                fdp_cells,
            };
            (spec.name.clone(), r)
        })
        .collect()
}

/// Checks one served report; returns the instructions its cells retired.
fn check_served(
    checks: &mut Checks,
    workload: &str,
    report: &str,
    reference: &Reference,
    first: &mut BTreeMap<String, String>,
) -> u64 {
    let first_bytes = first
        .entry(workload.to_string())
        .or_insert_with(|| report.to_string());
    checks.check("repeat_identical_bytes", *first_bytes == report, || {
        format!("{workload}: a repeated plan returned other bytes")
    });
    let parsed = match RunReport::from_json_str(report) {
        Ok(p) => p,
        Err(e) => {
            checks.check("report_parses", false, || format!("{workload}: {e}"));
            return 0;
        }
    };
    let Some(w) = parsed
        .workload(workload)
        .filter(|_| parsed.workloads.len() == 1)
    else {
        checks.check("report_parses", false, || {
            format!("{workload}: not the one workload")
        });
        return 0;
    };
    checks.check(
        "report_parses",
        w.configs.len() == ConfigId::PAPER.len(),
        || format!("{workload}: {} cells", w.configs.len()),
    );
    let mut retired = 0;
    for id in ConfigId::PAPER {
        let Some(cell) = w.config(id.label()) else {
            checks.check("report_parses", false, || {
                format!("{workload}: no {}", id.label())
            });
            continue;
        };
        retired += cell.counter("instructions").unwrap_or(0);
        let expect = if matches!(id, ConfigId::AsmdbCons | ConfigId::AsmdbFdp) {
            Expect::RewrittenOf(reference.len)
        } else {
            Expect::Original(reference.len)
        };
        let res = check_cell(cell, &expect);
        checks.check("sim_report", res.is_ok(), || {
            format!("{workload}/{}", res.unwrap_err())
        });
    }
    for (id, own) in &reference.fdp_cells {
        let res = w
            .config(id.label())
            .ok_or_else(|| format!("no {}", id.label()))
            .and_then(|cell| check_cell_equals(cell, own));
        checks.check("served_equals_own_run", res.is_ok(), || {
            format!("{workload}: {}", res.unwrap_err())
        });
    }
    retired
}

/// The served workloads and the seeded order they are submitted in.
fn rotation(seed: u64, instructions: u64) -> (Vec<WorkloadSpec>, Vec<String>) {
    let specs = sweep_specs(DEFAULT_SEED, instructions);
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    (specs, serve_rotation(seed, &names))
}

/// Runs one round over `order`, checking each report; returns per-op
/// durations and Minstr/s, or the first transport error.
fn round(
    conn: &mut Connection,
    order: &[String],
    refs: &BTreeMap<String, Reference>,
    checks: &mut Checks,
    first: &mut BTreeMap<String, String>,
    mut each: impl FnMut(&Served),
) -> Result<Vec<(f64, f64)>, String> {
    let mut out = Vec::new();
    for workload in order {
        let t = Instant::now();
        let served = serve_plan(conn, workload)?;
        let dur = t.elapsed().as_secs_f64();
        each(&served);
        let retired = check_served(checks, workload, &served.report, &refs[workload], first);
        out.push((dur, retired as f64 / dur / 1e6));
    }
    Ok(out)
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let instructions = SWEEP_INSTRUCTIONS;
    let (specs, order) = rotation(seed, instructions);
    let mut checks = Checks::default();
    let mut first = BTreeMap::new();

    let t = Instant::now();
    let server = ServerProcess::start(instructions, cpus())?;
    let mut conn = Connection::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut warm = Vec::new();
    for workload in &order {
        warm.push((workload.clone(), serve_plan(&mut conn, workload)?.report));
    }
    let setup_s = t.elapsed().as_secs_f64();
    let refs = references(&specs);
    for (workload, report) in &warm {
        check_served(&mut checks, workload, report, &refs[workload], &mut first);
    }
    checks.take_op_failed();

    let mut op_s = Vec::new();
    let mut minstr = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || attempted == 0 {
        for (dur, rate) in round(&mut conn, &order, &refs, &mut checks, &mut first, |_| {})? {
            attempted += 1;
            op_s.push(dur);
            minstr.push(rate);
        }
        // Rounds are checked as a whole; a failure marks the round's ops.
        if checks.take_op_failed() {
            failed += order.len() as u64;
        }
    }
    let peak = server.peak_rss_mb();
    drop(conn);
    server.stop()?;
    Ok(Outcome {
        correct: checks.only_failed_in(&[]),
        attempted,
        failed,
        checks,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("op_p50_s", median(&op_s), "s"),
            Metric::new("minstr_per_s", median(&minstr), "Minstr/s"),
            Metric::new("peak_rss_mb", peak, "MB"),
        ],
    })
}

/// The traced run: one served round with client-side timings, then the
/// layers a served plan runs (generation, AsmDB, analysis, the traced loop
/// on the two FDP cells, the engine and report assembly) driven in this
/// process.
pub fn run_traced(seed: u64) -> Result<Outcome, String> {
    let instructions = SWEEP_INSTRUCTIONS;
    let (specs, order) = rotation(seed, instructions);
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let mut first = BTreeMap::new();
    layers.calib_s.push(calib_seconds());

    let server = ServerProcess::start(instructions, cpus())?;
    let mut conn = Connection::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let refs = references(&specs);
    round(&mut conn, &order, &refs, &mut checks, &mut first, |_| {})?;
    round(&mut conn, &order, &refs, &mut checks, &mut first, |s| {
        layers.serve_submit_s += s.submit_s;
        layers.serve_fetch_s += s.fetch_s;
        layers.serve_polls += s.polls;
        layers.serve_queue_s += s.queue_s;
        layers.serve_run_s += s.run_s;
    })?;
    drop(conn);
    server.stop()?;

    let session = SessionBuilder::new()
        .instructions(instructions)
        .stride(SWEEP_STRIDE)
        .threads(cpus())
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
            &[ConfigId::Base, ConfigId::Fdp],
        );
        let t = Instant::now();
        let results = session
            .run(&ExperimentPlan::all_figures(vec![spec.clone()]))
            .expect("no plan job panics");
        layers.bench_run_s += t.elapsed().as_secs_f64();
        layers.bench_job_s += results
            .iter()
            .map(WorkloadResults::job_seconds)
            .sum::<f64>();
        time_report(&mut layers, &session, &results);
    }
    layers.bench_threads = cpus();
    layers.calib_s.push(calib_seconds());
    checks.take_op_failed();
    Ok(Outcome::traced(checks, layers))
}
