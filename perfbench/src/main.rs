//! `perfbench` — the compiled half of the benchmark (`run.py` drives it).
//!
//! ```text
//! perfbench load   --addr HOST:PORT --seed N --slots-per-hour S --seconds T
//!                  [--ladder] --answers FILE
//! perfbench verify (--data CONTAINER | --builtin) --seed N --answers FILE
//! perfbench trace  --seed N [--container C --scenario F [--resolution MIN]]
//!                  --spans FILE
//! ```
//!
//! Each command prints one JSON object on its last stdout line.

mod load;
mod mix;
mod replay;
mod spans;
mod stats;

use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::Arc;

use decarb_json::Value;
use decarb_sim::Snapshot;
use decarb_traces::{builtin_dataset, container, TraceSet};

use load::{
    ladder, run_closed, run_window, window_seconds, AnswerBook, Window, PROBE_SECONDS,
    WARMUP_SECONDS,
};
use mix::Rng;

/// Every per-layer metric the replay reports, with its unit; layers a
/// workload never calls read 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("traces.synthesize_s", "s"),
    ("traces.resample_s", "s"),
    ("traces.encode_s", "s"),
    ("traces.decode_s", "s"),
    ("traces.chunked_prefix_s", "s"),
    ("core.baseline_sweep_us", "us"),
    ("core.deferral_sweep_us", "us"),
    ("core.interruptible_sweep_us", "us"),
    ("core.sweep_calls", "count"),
    ("core.planner_build_s", "s"),
    ("core.best_deferred_us.p50", "us"),
    ("core.best_deferred_us.p99", "us"),
    ("experiments.temporal_stats_s", "s"),
    ("experiments.warm_registry_s", "s"),
    ("experiments.fig11b_s", "s"),
    ("experiments.render_s", "s"),
    ("par.sweep_eff", "ratio"),
    ("par.execute_eff", "ratio"),
    ("workloads.materialize_s", "s"),
    ("workloads.jobs", "count"),
    ("sim.parse_s", "s"),
    ("sim.check_s", "s"),
    ("sim.plan_s", "s"),
    ("sim.run_s.agnostic", "s"),
    ("sim.run_s.deferral", "s"),
    ("sim.run_s.threshold", "s"),
    ("sim.run_s.greenest", "s"),
    ("sim.run_s.forecast", "s"),
    ("sim.run_s.spatiotemporal", "s"),
    ("sim.jobs_per_s", "1/s"),
    ("sim.snapshot_build_s", "s"),
    ("sim.place_us.p50", "us"),
    ("sim.place_us.p99", "us"),
    ("json.report_serialize_s", "s"),
    ("json.parse_us", "us"),
    ("serve.samples", "count"),
    ("serve.http_parse_us", "us"),
    ("serve.handle_us.p50", "us"),
    ("serve.handle_us.p99", "us"),
    ("serve.api_self_us", "us"),
    ("serve.render_us", "us"),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("load") => cmd_load(&Args::parse(&argv[1..])),
        Some("verify") => cmd_verify(&Args::parse(&argv[1..])),
        Some("trace") => cmd_trace(&Args::parse(&argv[1..])),
        _ => Err("usage: perfbench load|verify|trace [options] (see src/main.rs)".to_string()),
    };
    match result {
        Ok(value) => {
            let mut out = String::new();
            value.compact_into(&mut out);
            println!("{out}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// `--key value` pairs and bare `--flag`s.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(argv: &[String]) -> Self {
        let mut map = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i].trim_start_matches("--").to_string();
            match argv.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    map.insert(key, value.clone());
                    i += 2;
                }
                None => {
                    map.insert(key, String::new());
                    i += 1;
                }
            }
        }
        Args(map)
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.get(key)?;
        raw.parse().map_err(|_| format!("bad --{key} `{raw}`"))
    }

    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

fn num(v: f64) -> Value {
    Value::from(v)
}

fn window_json(w: &Window, conns: usize) -> Value {
    let lat = w.latency();
    Value::object([
        ("rate", num(w.rate)),
        ("due", num(w.due as f64)),
        ("sent", num(w.sent as f64)),
        ("answered", num(w.answered as f64)),
        ("failed", num(w.failed as f64)),
        ("backlog_end", num(w.backlog_end as f64)),
        ("backlog_grew", Value::Bool(w.backlog_grew(conns))),
        ("samples", num(lat.map_or(0.0, |s| s.n as f64))),
        ("p50_us", num(lat.map_or(0.0, |s| s.p50))),
        ("p99_us", num(w.latency_p99())),
        (
            "tail",
            lat.and_then(|s| s.tail).map_or(Value::Null, |(p, v)| {
                Value::object([("percentile", num(p)), ("us", num(v))])
            }),
        ),
        ("gen_lag_p99_us", num(w.gen_lag_p99_us())),
        ("holds", Value::Bool(w.holds(conns))),
    ])
}

/// Placement load over one keep-alive connection per CPU: a closed-loop
/// warm-up, the closed-loop measurement, and with `--ladder` the
/// open-loop rungs: the lowest one, then a bisection over the ladder for
/// the highest rung that holds.
fn cmd_load(args: &Args) -> Result<Value, String> {
    let addr: SocketAddr = args
        .get("addr")?
        .parse()
        .map_err(|_| "bad --addr".to_string())?;
    let seed: u64 = args.num("seed")?;
    let sph: usize = args.num("slots-per-hour")?;
    let seconds: f64 = args.num("seconds")?;
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = mix::generate(seed, sph);
    let requests: Vec<Vec<u8>> = jobs.iter().map(mix::Job::http).collect();
    let mut book = AnswerBook::new(requests.len());
    let mut rng = Rng::new(seed, 0x4C4F_4144);
    let io = |e: std::io::Error| format!("load against {addr}: {e}");

    // Warm-up: first touches of the daemon's caches and sockets. Its
    // requests are reported, so its failures count too.
    let warmup =
        run_closed(addr, &requests, WARMUP_SECONDS, conns, &mut rng, &mut book).map_err(io)?;
    let closed = run_closed(addr, &requests, seconds, conns, &mut rng, &mut book).map_err(io)?;

    let mut rungs = Vec::new();
    let mut sustained = 0.0;
    if args.flag("ladder") {
        let ladder = ladder();
        let mut probe = |rate: f64, rng: &mut Rng, book: &mut AnswerBook| {
            let w = run_window(
                addr,
                &requests,
                rate,
                window_seconds(rate, PROBE_SECONDS, conns),
                conns,
                rng,
                book,
            )
            .map_err(io)?;
            let holds = w.holds(conns);
            rungs.push(window_json(&w, conns));
            Ok::<bool, String>(holds)
        };
        probe(ladder[0], &mut rng, &mut book)?;
        // Bisection: `lo` holds (or is below the ladder), `hi` fails
        // (or is above it).
        let (mut lo, mut hi) = (-1i64, ladder.len() as i64);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if probe(ladder[mid as usize], &mut rng, &mut book)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        if lo >= 0 {
            sustained = ladder[lo as usize];
        }
    }

    // Answers, keyed by mix index, for `verify`.
    let mut answers = String::new();
    for (index, body) in book.answered() {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let doc = decarb_json::parse(text).map_err(|e| format!("answer body: {e}"))?;
        let field = |k: &str| doc.get(k).cloned().unwrap_or(Value::Null);
        let mut line = String::new();
        Value::array([
            Value::from(index as f64),
            field("region"),
            field("start_hour"),
            field("cost_g"),
        ])
        .compact_into(&mut line);
        answers.push_str(&line);
        answers.push('\n');
    }
    std::fs::write(args.get("answers")?, answers).map_err(|e| e.to_string())?;

    Ok(Value::object([
        ("connections", num(conns as f64)),
        ("warmup", window_json(&warmup, conns)),
        ("closed", window_json(&closed, conns)),
        ("rungs", Value::array(rungs)),
        ("sustained_rps", num(sustained)),
        ("inconsistent", num(book.inconsistent as f64)),
    ]))
}

fn load_data(args: &Args) -> Result<Arc<TraceSet>, String> {
    if args.flag("builtin") {
        return Ok(builtin_dataset());
    }
    let path = args.get("data")?;
    container::load_file(path)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// Checks every recorded answer against `Snapshot::place` run
/// in-process on the same request and dataset.
fn cmd_verify(args: &Args) -> Result<Value, String> {
    let data = load_data(args)?;
    let seed: u64 = args.num("seed")?;
    let jobs = mix::generate(seed, data.resolution().slots_per_hour());
    let snap = Snapshot::build(Arc::clone(&data), 1);
    let text = std::fs::read_to_string(args.get("answers")?).map_err(|e| e.to_string())?;
    let (mut checked, mut wrong) = (0u64, 0u64);
    for line in text.lines() {
        checked += 1;
        let ok = (|| -> Option<bool> {
            let Value::Array(cols) = decarb_json::parse(line).ok()? else {
                return None;
            };
            let index = match cols.first()? {
                Value::Number(n) => *n as usize,
                _ => return None,
            };
            let want = snap.place(&jobs.get(index)?.request(&data)?).ok()?;
            Some(
                cols.get(1)? == &Value::from(data.code(want.region))
                    && cols.get(2)? == &Value::from(f64::from(want.start.0))
                    && cols.get(3)? == &Value::from(want.cost_g),
            )
        })();
        if ok != Some(true) {
            wrong += 1;
        }
    }
    Ok(Value::object([
        ("checked", num(checked as f64)),
        ("wrong", num(wrong as f64)),
    ]))
}

/// The traced in-process replay; writes its spans to `--spans`.
fn cmd_trace(args: &Args) -> Result<Value, String> {
    let sweep = match args.0.get("container") {
        None => None,
        Some(container) => Some(replay::SweepInputs {
            container: container.clone(),
            scenario: args.get("scenario")?.to_string(),
            resolution: args
                .0
                .get("resolution")
                .map(|r| r.parse())
                .transpose()
                .map_err(|_| "bad --resolution".to_string())?,
        }),
    };
    let outcome = replay::run(&replay::Plan {
        seed: args.num("seed")?,
        sweep,
    })?;
    let mut spans = String::new();
    outcome.trace.to_json().compact_into(&mut spans);
    let mut file = std::fs::File::create(args.get("spans")?).map_err(|e| e.to_string())?;
    file.write_all(spans.as_bytes())
        .map_err(|e| e.to_string())?;
    file.flush().map_err(|e| e.to_string())?;

    let measured: HashMap<&str, f64> = outcome
        .metrics
        .iter()
        .map(|&(name, value, _)| (name, value))
        .collect();
    let metrics = LAYER_METRICS.iter().map(|&(name, unit)| {
        (
            name,
            Value::object([
                ("value", num(measured.get(name).copied().unwrap_or(0.0))),
                ("unit", Value::from(unit)),
            ]),
        )
    });
    Ok(Value::object([
        ("metrics", Value::object(metrics)),
        ("command_s", num(outcome.command_s)),
        ("command_named_s", num(outcome.command_named_s)),
        ("spans", num(outcome.trace.spans().len() as f64)),
    ]))
}
