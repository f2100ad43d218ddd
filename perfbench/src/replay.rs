//! The traced in-process replay.
//!
//! Calls the public functions of each crate in the order the workload's
//! commands call them, timing every call from outside as a span. Three
//! kinds of root span exist:
//!
//! * `setup` — what the workload's set-up command does (`data pack`);
//! * `command` and `serve.start` — what the measured command and the
//!   placement daemon's start-up do, and nothing more. The named spans
//!   of `command` are what the coverage check compares with the wall
//!   time of the real command run cold;
//! * `probe.*` — extra timings of work the commands run in parallel or
//!   fused (single-threaded sweeps, materialization apart from
//!   simulation, planner builds, the per-request placement path), kept
//!   outside `command`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use decarb_core::temporal::TemporalPlanner;
use decarb_experiments::{registry, Context};
use decarb_par::{par_map, thread_count};
use decarb_serve::http::{read_request_into, render_response, Request};
use decarb_serve::PlacementService;
use decarb_sim::{PlannerCache, PolicyKind, SweepPlan};
use decarb_traces::time::{hours_in_year, year_start, Hour};
use decarb_traces::{builtin_dataset, container, RegionId, Resolution, TraceSet};

use crate::mix;
use crate::spans::Trace;
use crate::stats::summarize;

/// Job lengths (hours) of the Figs. 7–10 temporal sweeps.
pub const SWEEP_LENGTHS: [usize; 7] = [1, 6, 12, 24, 48, 96, 168];

/// Slacks (hours) of the Figs. 7–10 temporal sweeps.
pub const SWEEP_SLACKS: [usize; 5] = [24, 7 * 24, 24 * 24, 30 * 24, 365 * 24];

/// What the replay should do.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload seed (the placement mix).
    pub seed: u64,
    /// `None`: the builtin dataset and `run all` (repro). `Some`: a
    /// sweep over the container at `container` packed at `resolution`
    /// minutes, running `scenario`.
    pub sweep: Option<SweepInputs>,
}

/// Inputs of a sweep workload.
#[derive(Debug, Clone)]
pub struct SweepInputs {
    /// Container path (written by the workload's set-up).
    pub container: String,
    /// Scenario file path.
    pub scenario: String,
    /// Pack resolution, minutes (`None` = hourly).
    pub resolution: Option<u32>,
}

/// A named per-layer metric.
pub type Metric = (&'static str, f64, &'static str);

/// The replay's result.
#[derive(Debug)]
pub struct Outcome {
    /// Every span recorded.
    pub trace: Trace,
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Duration of the `command` root, seconds.
    pub command_s: f64,
    /// Part of the `command` root its named spans cover, seconds.
    pub command_named_s: f64,
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn p50(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.p50)
}

fn p99(samples: &[f64]) -> f64 {
    summarize(samples).and_then(|s| s.p99).unwrap_or(0.0)
}

/// Runs the replay.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let mut t = Trace::new();
    let mut m: Vec<Metric> = Vec::new();
    let (data, command, deployed) = match &plan.sweep {
        None => repro(&mut t, &mut m),
        Some(inputs) => {
            setup_pack(&mut t, &mut m, inputs.resolution)?;
            sweep(&mut t, &mut m, inputs)?
        }
    };
    planner_builds(&mut t, &mut m, &data, &deployed);
    serve(&mut t, &mut m, data, plan.seed)?;
    Ok(Outcome {
        command_s: t.seconds(command),
        command_named_s: t.covered_ns(command) as f64 / 1e9,
        metrics: m,
        trace: t,
    })
}

/// `decarb-cli run all`: synthesis, the Figs. 7–10 sweeps on a fresh
/// context, every experiment with the memo warm, and table rendering.
/// Then, outside the command, every per-region sweep single-threaded.
fn repro(t: &mut Trace, m: &mut Vec<Metric>) -> (Arc<TraceSet>, usize, Vec<RegionId>) {
    let root = t.open("command", None);
    let data = t.time("traces.synthesize", Some(root), builtin_dataset);
    let ctx = Context::new(Arc::clone(&data));
    let stats = t.open("experiments.temporal_stats", Some(root));
    for slack in SWEEP_SLACKS {
        for length in SWEEP_LENGTHS {
            ctx.temporal_stats(length, slack);
        }
    }
    t.close(stats);
    let runs = t.time("experiments.warm_registry", Some(root), || {
        registry::run_all(&ctx)
    });
    let rendered = t.time("experiments.render", Some(root), || {
        let mut out = String::new();
        for run in &runs {
            for table in &run.tables {
                out.push_str(&table.to_string());
                out.push('\n');
            }
        }
        out
    });
    std::hint::black_box(rendered);
    t.close(root);
    let fig11b = runs
        .iter()
        .find(|r| r.id == "fig11b")
        .map_or(0.0, |r| r.elapsed.as_secs_f64());

    // Single-threaded per-region sweeps, the units `temporal_stats`
    // fans out.
    let probe = t.open("probe.core_sweeps", None);
    let start = year_start(decarb_experiments::context::EVAL_YEAR);
    let count = hours_in_year(decarb_experiments::context::EVAL_YEAR);
    let (mut base, mut defer, mut interrupt) = (Vec::new(), Vec::new(), Vec::new());
    for (_, series) in data.iter() {
        let planner = TemporalPlanner::new(series);
        for slack in SWEEP_SLACKS {
            for length in SWEEP_LENGTHS {
                let a = Instant::now();
                std::hint::black_box(planner.baseline_sweep(start, count, length));
                let b = Instant::now();
                std::hint::black_box(planner.deferral_sweep(start, count, length, slack));
                let c = Instant::now();
                std::hint::black_box(planner.interruptible_sweep(start, count, length, slack));
                let d = Instant::now();
                t.record("core.baseline_sweep", Some(probe), a, b, None);
                t.record("core.deferral_sweep", Some(probe), b, c, None);
                t.record("core.interruptible_sweep", Some(probe), c, d, None);
                base.push(us(b - a));
                defer.push(us(c - b));
                interrupt.push(us(d - c));
            }
        }
    }
    t.close(probe);
    let single_thread_s: f64 = base.iter().chain(&defer).chain(&interrupt).sum::<f64>() / 1e6;
    let stats_s = t.seconds(stats);
    m.extend([
        ("traces.synthesize_s", t.total_s("traces.synthesize"), "s"),
        ("core.baseline_sweep_us", p50(&base), "us"),
        ("core.deferral_sweep_us", p50(&defer), "us"),
        ("core.interruptible_sweep_us", p50(&interrupt), "us"),
        ("core.sweep_calls", base.len() as f64, "count"),
        ("experiments.temporal_stats_s", stats_s, "s"),
        (
            "experiments.warm_registry_s",
            t.total_s("experiments.warm_registry"),
            "s",
        ),
        ("experiments.fig11b_s", fig11b, "s"),
        ("experiments.render_s", t.total_s("experiments.render"), "s"),
        (
            "par.sweep_eff",
            single_thread_s / (thread_count() as f64 * stats_s),
            "ratio",
        ),
    ]);
    let deployed = data.ids().collect();
    (data, root, deployed)
}

/// `decarb-cli data pack builtin [--resolution N]`: synthesis,
/// resampling, and encoding (the file write is left out).
fn setup_pack(t: &mut Trace, m: &mut Vec<Metric>, minutes: Option<u32>) -> Result<(), String> {
    let root = t.open("setup", None);
    let mut set = t.time("traces.synthesize", Some(root), || {
        (*builtin_dataset()).clone()
    });
    if let Some(minutes) = minutes {
        let target = Resolution::from_minutes(minutes)?;
        set = t
            .time("traces.resample", Some(root), || set.resample_to(target))
            .map_err(|e| e.to_string())?;
    }
    let bytes = t
        .time("traces.encode", Some(root), || container::encode(&set))
        .map_err(|e| e.to_string())?;
    std::hint::black_box(bytes);
    t.close(root);
    m.extend([
        ("traces.synthesize_s", t.total_s("traces.synthesize"), "s"),
        ("traces.resample_s", t.total_s("traces.resample"), "s"),
        ("traces.encode_s", t.total_s("traces.encode"), "s"),
    ]);
    Ok(())
}

/// `decarb-cli --data C scenario run --file F --json`: decode, parse,
/// check, plan, execute in chunks over one planner cache, serialize.
/// Then, outside the command, each scenario's materialization alone.
fn sweep(
    t: &mut Trace,
    m: &mut Vec<Metric>,
    inputs: &SweepInputs,
) -> Result<(Arc<TraceSet>, usize, Vec<RegionId>), String> {
    let root = t.open("command", None);
    let data = t
        .time("traces.decode", Some(root), || {
            container::load_file(&inputs.container)
        })
        .map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&inputs.scenario).map_err(|e| e.to_string())?;
    let file = t
        .time("sim.parse", Some(root), || {
            decarb_sim::parse_scenario_file_full(&text)
        })
        .map_err(|e| e.to_string())?;
    let diagnostics = t.time("sim.check", Some(root), || {
        decarb_sim::check_file(&inputs.scenario, &text, &data)
    });
    if !diagnostics.is_empty() {
        return Err(format!(
            "scenario file has {} check diagnostics",
            diagnostics.len()
        ));
    }
    let plan = t
        .time("sim.plan", Some(root), || {
            SweepPlan::plan(&data, file.scenarios)
        })
        .map_err(|e| e.to_string())?;
    let mut deployed = BTreeSet::new();
    for entry in plan.entries() {
        deployed.extend(entry.scenario.regions.try_resolve(&data)?);
    }
    let deployed: Vec<RegionId> = deployed.into_iter().collect();
    if !data.resolution().is_hourly() {
        // The event-driven engine's span accrual builds these lazily on
        // first use; hourly data never touches them.
        t.time("traces.chunked_prefix", Some(root), || {
            for &id in &deployed {
                std::hint::black_box(data.chunked_prefix_by_id(id));
            }
        });
    }
    let cache = PlannerCache::new();
    let chunk = (thread_count() * 2).max(1);
    // (policy, `run_cached` seconds) per scenario, in plan order.
    let mut runs: Vec<(PolicyKind, f64)> = Vec::with_capacity(plan.len());
    let mut execute_s = 0.0;
    let mut jsons = 0usize;
    for batch in plan.entries().chunks(chunk) {
        let span = t.open("sim.execute", Some(root));
        let results = par_map(batch, |entry| {
            let start = Instant::now();
            let report = entry.scenario.run_cached(&data, &cache);
            (start, Instant::now(), report)
        });
        t.close(span);
        execute_s += t.seconds(span);
        for (entry, (start, end, report)) in batch.iter().zip(results) {
            t.record("sim.run_cached", Some(span), start, end, None);
            runs.push((entry.scenario.policy, (end - start).as_secs_f64()));
            let json = t.time("json.report_serialize", Some(root), || {
                report.to_json().pretty()
            });
            jsons += json.len();
        }
    }
    std::hint::black_box(jsons);
    t.close(root);

    // `run_cached` materializes its scenario's jobs inside; time that
    // part again alone, fanned out the same way.
    let probe = t.open("probe.materialize", None);
    let resolution = data.resolution();
    let sph = resolution.slots_per_hour();
    // (jobs, `materialize_at` seconds) per scenario, in plan order.
    let mut made: Vec<(usize, f64)> = Vec::with_capacity(plan.len());
    for batch in plan.entries().chunks(chunk) {
        let timed = par_map(batch, |entry| {
            let scenario = &entry.scenario;
            let regions = scenario
                .regions
                .try_resolve(&data)
                .expect("planned scenarios resolve");
            let start = Instant::now();
            let jobs = scenario.workload.materialize_at(
                &regions,
                Hour(scenario.start.0 * sph as u32),
                resolution,
            );
            (start, Instant::now(), jobs.len())
        });
        for (start, end, jobs) in timed {
            t.record("workloads.materialize", Some(probe), start, end, None);
            made.push((jobs, (end - start).as_secs_f64()));
        }
    }
    t.close(probe);

    let materialize_s: f64 = made.iter().map(|&(_, s)| s).sum();
    let run_s = |policy: PolicyKind| -> f64 {
        runs.iter()
            .zip(&made)
            .filter(|((p, _), _)| *p == policy)
            .map(|((_, run), (_, materialize))| run - materialize)
            .sum()
    };
    let per_policy: Vec<f64> = PolicyKind::ALL.iter().map(|&p| run_s(p)).collect();
    let sim_s: f64 = per_policy.iter().sum();
    let jobs: usize = made.iter().map(|&(n, _)| n).sum();
    let busy_s: f64 = runs.iter().map(|&(_, s)| s).sum();
    m.extend([
        ("traces.decode_s", t.total_s("traces.decode"), "s"),
        (
            "traces.chunked_prefix_s",
            t.total_s("traces.chunked_prefix"),
            "s",
        ),
        ("sim.parse_s", t.total_s("sim.parse"), "s"),
        ("sim.check_s", t.total_s("sim.check"), "s"),
        ("sim.plan_s", t.total_s("sim.plan"), "s"),
        ("workloads.materialize_s", materialize_s, "s"),
        ("workloads.jobs", jobs as f64, "count"),
        ("sim.run_s.agnostic", per_policy[0], "s"),
        ("sim.run_s.deferral", per_policy[1], "s"),
        ("sim.run_s.threshold", per_policy[2], "s"),
        ("sim.run_s.greenest", per_policy[3], "s"),
        ("sim.run_s.forecast", per_policy[4], "s"),
        ("sim.run_s.spatiotemporal", per_policy[5], "s"),
        (
            "sim.jobs_per_s",
            if sim_s > 0.0 {
                jobs as f64 / sim_s
            } else {
                0.0
            },
            "1/s",
        ),
        (
            "par.execute_eff",
            busy_s / (thread_count() as f64 * execute_s),
            "ratio",
        ),
        (
            "json.report_serialize_s",
            t.total_s("json.report_serialize"),
            "s",
        ),
    ]);
    Ok((Arc::new(data), root, deployed))
}

/// One `TemporalPlanner` build per deployed region, single-threaded.
fn planner_builds(t: &mut Trace, m: &mut Vec<Metric>, data: &TraceSet, deployed: &[RegionId]) {
    let probe = t.open("probe.planner_build", None);
    for &id in deployed {
        let planner = t.time("core.planner_build", Some(probe), || {
            TemporalPlanner::with_resolution(data.series_by_id(id), data.resolution())
        });
        std::hint::black_box(planner);
    }
    t.close(probe);
    m.push(("core.planner_build_s", t.total_s("core.planner_build"), "s"));
}

/// The placement daemon: service start-up over `data`, then every
/// request of the mix through the request path one call at a time.
fn serve(t: &mut Trace, m: &mut Vec<Metric>, data: Arc<TraceSet>, seed: u64) -> Result<(), String> {
    let root = t.open("serve.start", None);
    let service = t.time("sim.snapshot_build", Some(root), || {
        PlacementService::new(Arc::clone(&data))
    });
    t.close(root);
    let snap = service.snapshot();
    let sph = data.resolution().slots_per_hour();
    let jobs = mix::generate(seed, sph);

    let probe = t.open("probe.serve", None);
    let mut req = Request::new();
    let mut body = String::new();
    let mut wire = Vec::new();
    let mut cols: [Vec<f64>; 7] = Default::default();
    for (id, job) in jobs.iter().enumerate() {
        let id = Some(id as u64);
        let bytes = job.http();
        let query = job
            .request(&data)
            .ok_or_else(|| format!("mix origin {} is not in the dataset", job.origin))?;

        let a = Instant::now();
        read_request_into(&mut &bytes[..], &mut req).map_err(|e| e.to_string())?;
        let b = Instant::now();
        let status = service.handle_into(&req, &mut body);
        let c = Instant::now();
        render_response(&mut wire, status, &body, true);
        let d = Instant::now();
        if status != 200 {
            return Err(format!("in-process answer {status} for {}", job.body()));
        }
        let parsed = std::hint::black_box(decarb_json::parse(&job.body()));
        let e = Instant::now();
        let placed = std::hint::black_box(snap.place(&query));
        let f = Instant::now();
        let planner = snap.planner(query.origin);
        std::hint::black_box(planner.best_deferred(
            query.arrival,
            query.duration_hours * sph,
            query.slack_hours * sph,
        ));
        let g = Instant::now();
        if parsed.is_err() || placed.is_err() {
            return Err(format!("in-process placement failed for {}", job.body()));
        }
        let request = t.record("serve.request", Some(probe), a, d, id);
        t.record("serve.http_parse", Some(request), a, b, id);
        t.record("serve.handle", Some(request), b, c, id);
        t.record("serve.render", Some(request), c, d, id);
        t.record("json.parse", Some(probe), d, e, id);
        t.record("sim.place", Some(probe), e, f, id);
        t.record("core.best_deferred", Some(probe), f, g, id);
        let handle = us(c - b);
        let parse = us(e - d);
        let place = us(f - e);
        for (col, v) in cols.iter_mut().zip([
            us(b - a),
            handle,
            us(d - c),
            parse,
            place,
            us(g - f),
            handle - place - parse,
        ]) {
            col.push(v);
        }
    }
    t.close(probe);
    let [http, handle, render, parse, place, best, api_self] = cols;
    m.extend([
        ("sim.snapshot_build_s", t.total_s("sim.snapshot_build"), "s"),
        ("serve.samples", handle.len() as f64, "count"),
        ("serve.http_parse_us", p50(&http), "us"),
        ("serve.handle_us.p50", p50(&handle), "us"),
        ("serve.handle_us.p99", p99(&handle), "us"),
        ("serve.api_self_us", p50(&api_self), "us"),
        ("serve.render_us", p50(&render), "us"),
        ("json.parse_us", p50(&parse), "us"),
        ("sim.place_us.p50", p50(&place), "us"),
        ("sim.place_us.p99", p99(&place), "us"),
        ("core.best_deferred_us.p50", p50(&best), "us"),
        ("core.best_deferred_us.p99", p99(&best), "us"),
    ]);
    Ok(())
}
