//! End-to-end and per-layer benchmark of the PolyMath stack.
//!
//! ```text
//! perfbench --workload <serve-hot|serve-churn|compile-large> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line is the end-to-end result; with
//! `--trace 1` it is the per-layer account of a traced single-threaded
//! replay, and the spans are written to `.bench_out/`. Any wrong output
//! exits non-zero without a result. See `perfbench/README.md`.

mod loadgen;
mod replay;
mod stats;
mod trace;
mod workloads;

use loadgen::{poisson_dues, run_open_loop, Shot};
use polymath::{standard_soc, Compiler, Json, ServeConfig, ServeEngine, ServeServer};
use replay::{compile_op, Counts, ServeReplica};
use stats::{backlog_grows, due_latencies, geomean, little_wait_ms, median, percentile};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use trace::{totals, Tracer};
use workloads::{check_outputs, response_outputs, tensor_values, Req, Rng};

/// Set-up repetitions per serve run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Set-up passes over the compile-large mix; `setup_s` is their median.
const COMPILE_SETUP_REPS: usize = 3;
/// Least share of `--seconds` spent at the nominal rate.
const MIN_NOMINAL_SHARE: f64 = 0.4;
/// A run whose generator sent its median request later than this after
/// its due time did not deliver the schedule and is not reported.
const MAX_MEDIAN_GEN_LAG_MS: f64 = 5.0;
/// Windows the nominal phase is cut into; its latency metrics are the
/// median over windows, so a neighbour's burst on a shared host that
/// stays inside one window does not move them.
const LATENCY_WINDOWS: usize = 3;
/// How long a phase waits for responses after its last due time.
const DRAIN: Duration = Duration::from_secs(20);

/// Offered load of one open-loop serve workload. All values are fixed so
/// that every run of every commit offers the same load.
struct ServeSpec {
    name: &'static str,
    /// Nominal open-loop rate, well below the knee of the latency curve.
    /// At 45 s each of the [`LATENCY_WINDOWS`] windows holds a little over
    /// the sample count its tail percentile needs (555 for p98 on
    /// serve-hot, 1011 for p99 on serve-churn).
    nominal_rps: f64,
    /// Fixed ladder of offered rates for `sustained_rps`, ascending.
    ladder: &'static [f64],
    /// Seconds each ladder rung offers load for.
    rung_s: f64,
    /// Latency limit on the tail percentile for a ladder rung to pass.
    tail_limit_ms: f64,
    churn: bool,
}

const SERVE_HOT: ServeSpec = ServeSpec {
    name: "serve-hot",
    nominal_rps: 45.0,
    ladder: &[25.0, 50.0, 100.0, 400.0],
    rung_s: 2.0,
    tail_limit_ms: 150.0,
    churn: false,
};

const SERVE_CHURN: ServeSpec = ServeSpec {
    name: "serve-churn",
    nominal_rps: 74.0,
    ladder: &[200.0, 400.0, 800.0, 3200.0],
    // Short rungs: every churn request adds store records that are never
    // freed, so the ladder's request count bounds the run's memory.
    rung_s: 1.0,
    tail_limit_ms: 50.0,
    churn: true,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(0.5..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// What a run reports: the result line's metrics, human-readable metric
/// lines, and run metadata.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    lines: Vec<String>,
    meta: Vec<(String, Json)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn line(&mut self, name: &str, value: Option<f64>, unit: &str) {
        self.lines.push(match value {
            Some(v) => format!("metric {name:<24} {v:>14.4} {unit}"),
            None => format!("metric {name:<24} {:>14} {unit}", "n/a"),
        });
    }

    fn meta(&mut self, key: &str, value: Json) {
        self.meta.push((key.to_string(), value));
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// Sample count behind each end-to-end metric.
fn samples(setups: usize, latencies: usize, rate: usize) -> Json {
    Json::Obj(vec![
        ("setup_s".into(), num(setups as f64)),
        ("latency_p50_ms".into(), num(latencies as f64)),
        ("latency_tail_ms".into(), num(latencies as f64)),
        ("sustained_rps".into(), num(rate as f64)),
        ("peak_rss_mb".into(), num(1.0)),
    ])
}

/// `(steal, total)` jiffies of the whole machine from `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

fn main() {
    let jiffies = cpu_jiffies();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "serve-hot" => serve_workload(&args, &SERVE_HOT),
        "serve-churn" => serve_workload(&args, &SERVE_CHURN),
        "compile-large" => compile_large(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut meta = run_meta(&args);
    let (steal, total) = cpu_jiffies();
    let stolen = (steal - jiffies.0) as f64 / (total - jiffies.1).max(1) as f64;
    // Time the hypervisor gave the vCPUs to other guests: a high share
    // means this run's timings are inflated by neighbours, not by the code.
    meta.push(("host_steal_frac".into(), num(stolen)));
    meta.append(&mut out.meta);
    for line in &out.lines {
        println!("{line}");
    }
    println!("meta {}", Json::Obj(meta).render());
    let metrics = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), num(*value)),
                    ("unit".into(), Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(true)),
        ("attempted".into(), num(out.attempted as f64)),
        ("failed".into(), num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}

fn run_meta(args: &Args) -> Vec<(String, Json)> {
    let env = |k: &str| Json::Str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), num(args.seed as f64)),
        ("seconds".into(), num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), num(nproc() as f64)),
        ("cpu_model".into(), Json::Str(cpu)),
        ("rustc".into(), env("PERFBENCH_RUSTC")),
        ("git_commit".into(), env("PERFBENCH_COMMIT")),
        ("source_sha256".into(), env("PERFBENCH_SOURCE")),
    ]
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(VmRSS, VmHWM)` of this process in MB.
fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

// ---------------------------------------------------------------- serve --

/// One offered phase: its requests (with oracles), ids and due times.
struct Phase {
    rate: f64,
    reqs: Vec<Req>,
    ids: Vec<String>,
    dues: Vec<f64>,
}

impl Phase {
    fn new(rng: &mut Rng, rate: f64, seconds: f64, reqs: Vec<Req>, prefix: &str) -> Phase {
        let n = reqs.len();
        // Poisson gaps rescaled so the phase offers exactly `n` requests
        // over `seconds`: bursty arrivals, but an exact offered rate.
        let mut dues = poisson_dues(rng, rate, n);
        let span = dues.last().copied().unwrap_or(1.0).max(1e-9);
        let target = seconds * n as f64 / (n as f64 + 1.0);
        for d in &mut dues {
            *d *= target / span;
        }
        let ids = (0..n).map(|i| format!("{prefix}{i}")).collect();
        Phase { rate, reqs, ids, dues }
    }

    fn offer(&self, server: &ServeServer, abort_backlog: Option<usize>) -> Vec<Shot> {
        let lines = self.reqs.iter().map(|r| r.line.clone()).collect();
        run_open_loop(server, lines, &self.ids, &self.dues, DRAIN, abort_backlog)
    }
}

/// Everything a serve run builds before its first measured request.
struct ServeSetup {
    engine: Arc<ServeEngine>,
    server: ServeServer,
    nominal: Phase,
    ladder: Vec<Phase>,
}

fn serve_config() -> ServeConfig {
    ServeConfig { workers: nproc(), ..ServeConfig::default() }
}

fn requests(
    spec: &ServeSpec,
    rng: &mut Rng,
    seen: &mut HashSet<String>,
    prefix: &str,
    n: usize,
) -> Vec<Req> {
    if spec.churn {
        workloads::churn_requests(rng, seen, prefix, n)
    } else {
        workloads::serve_hot_requests(rng, &workloads::serve_sources(), prefix, n)
    }
}

fn serve_setup(spec: &ServeSpec, args: &Args) -> Result<ServeSetup, String> {
    let mut rng = Rng::new(args.seed);
    let mut seen = HashSet::new();
    let ladder_s = spec.rung_s * spec.ladder.len() as f64;
    let nominal_s = if args.trace {
        args.seconds
    } else {
        (args.seconds - ladder_s).max(args.seconds * MIN_NOMINAL_SHARE)
    };
    let n = (spec.nominal_rps * nominal_s).round() as usize;
    let nominal_reqs = requests(spec, &mut rng, &mut seen, "n", n);
    let nominal = Phase::new(&mut rng, spec.nominal_rps, nominal_s, nominal_reqs, "n");
    let mut ladder = Vec::new();
    if !args.trace {
        for (k, &rate) in spec.ladder.iter().enumerate() {
            let prefix = format!("l{k}-");
            let n = (rate * spec.rung_s).round() as usize;
            let reqs = requests(spec, &mut rng, &mut seen, &prefix, n);
            ladder.push(Phase::new(&mut rng, rate, spec.rung_s, reqs, &prefix));
        }
    }
    let warmup = if spec.churn {
        workloads::churn_requests(&mut rng, &mut seen, "w", 8)
    } else {
        workloads::serve_hot_warmup(&mut rng, &workloads::serve_sources())
    };

    let cfg = serve_config();
    let engine = Arc::new(ServeEngine::new(&cfg));
    let server = ServeServer::start(Arc::clone(&engine), &cfg);
    let (tx, rx) = mpsc::channel();
    for r in &warmup {
        server.submit(r.line.clone(), tx.clone()).map_err(|e| format!("warm-up refused: {e}"))?;
    }
    drop(tx);
    let responses: Vec<String> = rx.iter().collect();
    if responses.len() != warmup.len() {
        return Err("warm-up lost a response".into());
    }
    for resp in &responses {
        let (got, _) =
            response_outputs(resp).map_err(|e| format!("warm-up failed: {e}: {resp}"))?;
        let id = resp.split('"').nth(3).unwrap_or("");
        let idx: usize = id.trim_start_matches('w').parse().map_err(|_| format!("bad id {id}"))?;
        if let Some(want) = &warmup[idx].expect {
            check_outputs(&got, want).map_err(|e| format!("wrong warm-up output: {e}"))?;
        }
    }
    Ok(ServeSetup { engine, server, nominal, ladder })
}

/// Outcome tally of one phase, with every output checked.
#[derive(Default)]
struct Tally {
    offered: u64,
    refused: u64,
    typed_failures: u64,
    lost: u64,
    unchecked: u64,
    error_kinds: BTreeMap<String, u64>,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.refused + self.typed_failures + self.lost
    }
}

/// Checks every answered request against its oracle and returns the
/// due-time latencies in ms, in offer order (`INFINITY` for anything not
/// answered `ok`).
fn check_phase(phase: &Phase, shots: &[Shot], tally: &mut Tally) -> Result<Vec<f64>, String> {
    let mut done = Vec::with_capacity(shots.len());
    for ((req, shot), id) in phase.reqs.iter().zip(shots).zip(&phase.ids) {
        tally.offered += 1;
        let mut ok_done = None;
        if let Some(kind) = shot.refused {
            tally.refused += 1;
            *tally.error_kinds.entry(kind.to_string()).or_default() += 1;
        } else if let Some(resp) = &shot.response {
            match response_outputs(resp) {
                Ok((got, _)) => {
                    match &req.expect {
                        Some(want) => check_outputs(&got, want).map_err(|e| {
                            format!("wrong output for {id}: {e}\nrequest: {}", req.line)
                        })?,
                        None => tally.unchecked += 1,
                    }
                    ok_done = shot.done_s;
                }
                Err(kind) => {
                    tally.typed_failures += 1;
                    *tally.error_kinds.entry(kind).or_default() += 1;
                }
            }
        } else {
            tally.lost += 1;
        }
        done.push(ok_done);
    }
    let due: Vec<f64> = shots.iter().map(|s| s.due_s).collect();
    Ok(due_latencies(&due, &done).into_iter().map(|s| s * 1e3).collect())
}

/// Chaos-transient responses must equal their clean twins byte for byte.
fn check_twins(engine: &ServeEngine, phase: &Phase, shots: &[Shot]) -> Result<u64, String> {
    let mut checked = 0;
    for (req, shot) in phase.reqs.iter().zip(shots) {
        let (Some(twin), Some(resp)) = (&req.twin, &shot.response) else { continue };
        let Ok((_, live)) = response_outputs(resp) else { continue };
        let clean = engine.handle_line(twin);
        let (_, clean) = response_outputs(&clean).map_err(|e| format!("clean twin failed: {e}"))?;
        if clean != live {
            return Err(format!("chaos response differs from its clean twin: {live} vs {clean}"));
        }
        checked += 1;
    }
    Ok(checked)
}

fn gen_lags_ms(shots: &[Shot]) -> Vec<f64> {
    let mut lags: Vec<f64> = shots.iter().map(|s| (s.sent_s - s.due_s).max(0.0) * 1e3).collect();
    lags.sort_by(f64::total_cmp);
    lags
}

fn serve_workload(args: &Args, spec: &ServeSpec) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = setup.take() {
            let ServeSetup { server, .. } = prev;
            server.shutdown();
        }
        let t = Instant::now();
        setup = Some(serve_setup(spec, args)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let ServeSetup { engine, server, nominal, ladder } = setup.expect("at least one set-up");
    let (rss_warm, _) = rss_mb();
    let store_before = srdfg::store_stats();
    let pc_before = engine.compiler().program_cache_stats();

    let shots = nominal.offer(&server, None);
    let store_after = srdfg::store_stats();
    let pc = engine.compiler().program_cache_stats().since(&pc_before);
    let mut tally = Tally::default();
    let lat = check_phase(&nominal, &shots, &mut tally)?;
    let lags = gen_lags_ms(&shots);
    let lag_p50 = percentile(&lags, 50.0);
    if lag_p50 > MAX_MEDIAN_GEN_LAG_MS {
        return Err(format!(
            "invalid run: the generator sent its median request {lag_p50:.2} ms late \
             (bound {MAX_MEDIAN_GEN_LAG_MS} ms)"
        ));
    }
    let twins = check_twins(&engine, &nominal, &shots)?;
    // Short manual runs may be too small to window; they use one window.
    let windows =
        if stats::windowed_latency(&lat, LATENCY_WINDOWS).is_some() { LATENCY_WINDOWS } else { 1 };
    let (p50, tail, tail_p) =
        stats::windowed_latency(&lat, windows).ok_or("too few requests for a tail")?;

    let mut out = Outcome::default();
    out.meta("offered_rps", num(spec.nominal_rps));
    out.meta("ladder_rps", Json::Arr(spec.ladder.iter().map(|&r| num(r)).collect()));
    out.meta("tail_limit_ms", num(spec.tail_limit_ms));
    out.meta("latency_tail_percentile", num(tail_p));
    out.meta(
        "gen_lag_ms",
        Json::Obj(vec![
            ("p50".into(), num(lag_p50)),
            ("p99".into(), num(percentile(&lags, 99.0))),
            ("max".into(), num(percentile(&lags, 100.0))),
            ("bound_p50".into(), num(MAX_MEDIAN_GEN_LAG_MS)),
        ]),
    );
    out.meta("checked_twins", num(twins as f64));
    out.meta("program_cache_hit_share", num(pc.hit_rate()));

    if args.trace {
        serve_trace(&mut out, spec, &nominal, &shots, &tally, &store_before, &store_after)?;
        server.shutdown();
        out.attempted = tally.offered;
        out.failed = tally.failed();
        return Ok(out);
    }

    // Ladder: each rung runs only while the one below it passed. A rung
    // that fails is offered once more before the ladder stops, so one
    // stall of a shared machine does not decide `sustained_rps`.
    let (mut sustained, mut sustained_samples) = (0.0, 0);
    let mut rungs = Vec::new();
    'ladder: for phase in &ladder {
        for _attempt in 0..2 {
            let shots = phase.offer(&server, Some(serve_config().queue_depth * 3 / 4));
            let aborted = shots.len() < phase.reqs.len();
            let mut lat = check_phase(phase, &shots, &mut tally)?;
            lat.sort_by(f64::total_cmp);
            let p = stats::tail_percentile(lat.len()).unwrap_or(50.0);
            let tail = percentile(&lat, p);
            let points: Vec<(f64, f64)> =
                shots.iter().map(|s| (s.sent_s, s.outstanding as f64)).collect();
            let grows = backlog_grows(&points, shots.len());
            let answered = lat.iter().filter(|l| l.is_finite()).count();
            let end = shots.iter().filter_map(|s| s.done_s).fold(0.0f64, f64::max);
            let achieved = if end > 0.0 { answered as f64 / end } else { 0.0 };
            let pass = tail <= spec.tail_limit_ms && !grows && !aborted;
            rungs.push(Json::Obj(vec![
                ("offered_rps".into(), num(phase.rate)),
                ("achieved_rps".into(), num(achieved)),
                ("tail_percentile".into(), num(p)),
                ("tail_ms".into(), num(if tail.is_finite() { tail } else { -1.0 })),
                ("samples".into(), num(lat.len() as f64)),
                ("backlog_grows".into(), Json::Bool(grows)),
                ("aborted".into(), Json::Bool(aborted)),
                ("pass".into(), Json::Bool(pass)),
            ]));
            if pass {
                sustained = achieved;
                sustained_samples = lat.len();
                continue 'ladder;
            }
        }
        break;
    }
    server.shutdown();
    let (rss_end, hwm) = rss_mb();

    out.metric("setup_s", median(&setups), "s");
    out.metric("latency_p50_ms", p50, "ms");
    out.metric("latency_tail_ms", tail, "ms");
    out.metric("sustained_rps", sustained, "req/s");
    out.metric("peak_rss_mb", hwm, "MB");
    let error_rate = tally.failed() as f64 / tally.offered.max(1) as f64;
    let growth = (rss_end - rss_warm) / tally.offered.max(1) as f64 * 1e3;
    out.line("setup_s", Some(median(&setups)), "s");
    out.line("latency_p50_ms", Some(p50), "ms");
    out.line(&format!("latency_tail_ms(p{tail_p})"), Some(tail), "ms");
    out.line("sustained_rps", Some(sustained), "req/s");
    out.line("error_rate", Some(error_rate), "fraction");
    out.line("compile_geomean_ms", None, "ms");
    out.line("programs_per_s", None, "1/s");
    out.line("sim_runtime_us", None, "us");
    out.line("peak_rss_mb", Some(hwm), "MB");
    out.line("rss_growth_mb_per_kreq", Some(growth), "MB/1k ops");
    out.meta("samples", samples(setups.len(), lat.len(), sustained_samples));
    out.meta("latency_windows", num(windows as f64));
    out.meta("ladder", Json::Arr(rungs));
    out.meta("error_rate", num(error_rate));
    out.meta(
        "error_kinds",
        Json::Obj(tally.error_kinds.iter().map(|(k, v)| (k.clone(), num(*v as f64))).collect()),
    );
    out.meta("unchecked_outputs", num(tally.unchecked as f64));
    out.meta("rss_growth_mb_per_kreq", num(growth));
    out.attempted = tally.offered;
    out.failed = tally.failed();
    Ok(out)
}

/// Per-layer account of a serve workload: the nominal stream replayed on
/// one thread three times — through `ServeEngine::handle_line`, through
/// the layer-by-layer replica untraced, and through it traced.
fn serve_trace(
    out: &mut Outcome,
    spec: &ServeSpec,
    nominal: &Phase,
    shots: &[Shot],
    tally: &Tally,
    store_before: &srdfg::StoreStats,
    store_after: &srdfg::StoreStats,
) -> Result<(), String> {
    let live: Vec<Option<String>> = shots
        .iter()
        .map(|s| s.response.as_deref().and_then(|r| response_outputs(r).ok()).map(|(_, b)| b))
        .collect();
    let cfg = serve_config();
    let n = nominal.reqs.len() as f64;

    let engine = ServeEngine::new(&cfg);
    let untraced = ServeReplica::new(&cfg);
    let traced = ServeReplica::new(&cfg);
    let (mut off, mut tr) = (Tracer::new(false), Tracer::new(true));
    let (mut off_counts, mut counts) = (Counts::default(), Counts::default());
    let (mut handle_ns, mut untraced_ns) = (0u128, 0u128);
    for (i, (req, live)) in nominal.reqs.iter().zip(&live).enumerate() {
        tr.set_request(i as u64);
        let mut traced_out = String::new();
        // The three passes take turns going first, so cache warmth and
        // slow drift of the host fall on each of them alike.
        for pass in (0..3).map(|k| (i + k) % 3) {
            let t = Instant::now();
            match pass {
                0 => {
                    let resp = engine.handle_line(&req.line);
                    handle_ns += t.elapsed().as_nanos();
                    if let Some(live) = live {
                        let (_, bytes) =
                            response_outputs(&resp).map_err(|e| format!("replay failed: {e}"))?;
                        if &bytes != live {
                            return Err(format!(
                                "single-threaded engine output differs from the live run: \
                                 {bytes} vs {live}"
                            ));
                        }
                    }
                }
                1 => {
                    untraced.handle(&mut off, &req.line, &mut off_counts)?;
                    untraced_ns += t.elapsed().as_nanos();
                }
                _ => {
                    traced_out =
                        tr.span("bench.request", |tr| traced.handle(tr, &req.line, &mut counts))?;
                }
            }
        }
        if let Some(live) = live {
            if &traced_out != live {
                return Err(format!(
                    "traced replay output differs from the live run: {traced_out} vs {live}"
                ));
            }
        }
    }

    let queue_len_mean =
        shots.iter().map(|s| s.queue_len as f64).sum::<f64>() / shots.len().max(1) as f64;
    let serve = ServeLayer {
        handle_us: handle_ns as f64 / 1e3 / n,
        queue_len_mean,
        queue_wait_ms: little_wait_ms(queue_len_mean, spec.nominal_rps),
        refused_frac: tally.refused as f64 / tally.offered.max(1) as f64,
        gen_lag_ms: gen_lags_ms(shots).iter().sum::<f64>() / n.max(1.0),
    };
    let store = (
        (store_after.records() - store_before.records()) as f64 / n,
        store_after.bytes().saturating_sub(store_before.bytes()) as f64 / n,
    );
    layer_metrics(
        out,
        Traced {
            tracer: &tr,
            counts: &counts,
            serve: Some(serve),
            store,
            untraced_ns,
            reference_ns: handle_ns,
            root: "bench.request",
            file: format!("trace-{}.jsonl", spec.name),
        },
    );
    Ok(())
}

/// Serve-layer figures of the live run, for the per-layer account.
#[derive(Default)]
struct ServeLayer {
    handle_us: f64,
    queue_len_mean: f64,
    queue_wait_ms: f64,
    refused_frac: f64,
    gen_lag_ms: f64,
}

/// What a traced run measured.
struct Traced<'a> {
    tracer: &'a Tracer,
    counts: &'a Counts,
    /// `None` on compile-large, which does not serve.
    serve: Option<ServeLayer>,
    /// srDFG store records and bytes added per op.
    store: (f64, f64),
    /// The same replay with the tracer off.
    untraced_ns: u128,
    /// The real entry point on the same ops (`handle_line` or the
    /// `pmc compile` steps): what the child spans should account for.
    reference_ns: u128,
    /// Name of the per-op root span.
    root: &'static str,
    file: String,
}

/// Records the per-layer metric set, in `BENCHMARK.json` order, and
/// writes the spans. Layers a workload does not run report 0.
fn layer_metrics(out: &mut Outcome, t: Traced<'_>) {
    let spans = t.tracer.spans();
    let totals = totals(spans);
    let c = t.counts;
    let ops = c.ops.max(1) as f64;
    let self_us =
        |name: &str, per: f64| totals.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e3 / per);
    let per_invocation =
        |name: &str| if c.invocations == 0 { 0.0 } else { self_us(name, c.invocations as f64) };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let roots: HashSet<usize> =
        spans.iter().enumerate().filter(|(_, s)| s.name == t.root).map(|(i, _)| i).collect();
    let root_ns: u64 = roots.iter().map(|&i| spans[i].end_ns - spans[i].start_ns).sum();
    let covered_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| roots.contains(&p)))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let serve = t.serve.unwrap_or_default();

    let list: [(&'static str, f64, &'static str); 31] = [
        ("serve.parse_us", self_us("serve.parse", ops), "us"),
        ("serve.handle_us", serve.handle_us, "us"),
        ("serve.queue_len_mean", serve.queue_len_mean, "count"),
        ("serve.queue_wait_ms", serve.queue_wait_ms, "ms"),
        ("serve.refused_frac", serve.refused_frac, "fraction"),
        ("serve.gen_lag_ms", serve.gen_lag_ms, "ms"),
        ("pmlang.frontend_us", self_us("pmlang.frontend", ops), "us"),
        ("srdfg.build_us", self_us("srdfg.build", ops), "us"),
        ("passes.midend_us", self_us("passes.midend", ops), "us"),
        ("passes.rewrites", c.rewrites as f64 / ops, "count"),
        ("lower.fingerprint_us", self_us("lower.fingerprint", ops), "us"),
        ("lower.progcache_hit_rate", ratio(c.progcache_hits, c.progcache_lookups), "fraction"),
        ("srdfg.template_hit_rate", ratio(c.template_hits, c.template_lookups), "fraction"),
        ("lower.alg1_us", self_us("lower.alg1", ops), "us"),
        ("lower.post_lower_us", self_us("lower.post_lower", ops), "us"),
        ("lower.alg2_us", self_us("lower.alg2", ops), "us"),
        ("lower.fragments", ratio(c.fragments, c.compiles), "count"),
        ("srdfg.lowered_nodes", ratio(c.lowered_nodes, c.compiles), "count"),
        ("analyze.graph_us", self_us("analyze.graph", ops), "us"),
        ("analyze.hazards_us", self_us("analyze.hazards", ops), "us"),
        ("srdfg.machine_new_us", self_us("srdfg.machine_new", ops), "us"),
        ("accel.dispatch_us", per_invocation("accel.dispatch"), "us"),
        ("srdfg.interp_us", per_invocation("srdfg.interp"), "us"),
        ("accel.price_us", self_us("accel.price", ops), "us"),
        ("accel.retries_per_req", c.retries as f64 / ops, "count"),
        ("accel.replayed_per_req", c.replayed as f64 / ops, "count"),
        ("accel.virtual_ns_per_req", c.virtual_ns as f64 / ops, "ns"),
        ("srdfg.store_records_per_req", t.store.0, "count"),
        ("srdfg.store_bytes_per_req", t.store.1, "bytes"),
        (
            "bench.trace_overhead_frac",
            root_ns as f64 / t.untraced_ns.max(1) as f64 - 1.0,
            "fraction",
        ),
        (
            "bench.uncovered_frac",
            1.0 - covered_ns as f64 / t.reference_ns.max(1) as f64,
            "fraction",
        ),
    ];
    for (name, value, unit) in list {
        out.line(name, Some(value), unit);
        out.metric(name, value, unit);
    }
    out.meta("traced_ops", num(c.ops as f64));
    out.meta("traced_spans", num(spans.len() as f64));
    let path = std::path::Path::new(".bench_out").join(&t.file);
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, trace::render(spans)));
    match written {
        Ok(()) => out.meta("trace_file", Json::Str(path.display().to_string())),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

// -------------------------------------------------------- compile-large --

/// What one compile-large op produced, for the determinism check.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OpResult {
    lowered_nodes: usize,
    fragments: usize,
    sim_s_bits: u64,
}

/// Exactly what `pmc compile` does in process: a fresh cross-domain
/// compiler, `compile_timed`, then pricing on the standard SoC.
fn pmc_compile(source: &str) -> Result<(pm_lower::CompiledProgram, f64), String> {
    let compiler = Compiler::cross_domain();
    let (compiled, _) =
        compiler.compile_timed(source, &srdfg::Bindings::default()).map_err(|e| e.to_string())?;
    let report = standard_soc().run(&compiled, &HashMap::new()).map_err(|e| e.to_string())?;
    Ok((compiled, report.total.seconds))
}

fn op_result(compiled: &pm_lower::CompiledProgram, sim_s: f64) -> OpResult {
    OpResult {
        lowered_nodes: compiled.graph.node_count(),
        fragments: compiled.partitions.iter().map(|p| p.fragments.len()).sum(),
        sim_s_bits: sim_s.to_bits(),
    }
}

/// Runs the lowered graph on the interpreter and checks it against the
/// program's reference implementation.
fn check_large(
    p: &workloads::LargeProgram,
    compiled: &pm_lower::CompiledProgram,
) -> Result<(), String> {
    let mut m = srdfg::Machine::new((*compiled.graph).clone());
    for (name, value) in &p.state {
        m.set_state(name, value.clone());
    }
    let outputs = m.invoke(&p.feeds).map_err(|e| format!("{}: {e}", p.name))?;
    let got = outputs.iter().map(|(k, v)| (k.clone(), tensor_values(v))).collect();
    check_outputs(&got, &p.expect).map_err(|e| format!("wrong output for {}: {e}", p.name))
}

fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    workloads::balanced(rng, n, n)
}

fn compile_large(args: &Args) -> Result<Outcome, String> {
    let mut rng = Rng::new(args.seed);
    let mut setups = Vec::new();
    let mut expected: Vec<OpResult> = Vec::new();
    let mut progs = Vec::new();
    // Set-up: the first pass over the mix warms the process-global srDFG
    // store. It is repeated and its median reported; the first repetition
    // also checks every program against its reference implementation.
    for rep in 0..COMPILE_SETUP_REPS {
        let t = Instant::now();
        let mut check_s = 0.0;
        progs = workloads::large_programs(&mut Rng::new(args.seed));
        for (i, p) in progs.iter().enumerate() {
            let (compiled, sim_s) = pmc_compile(&p.source)?;
            let r = op_result(&compiled, sim_s);
            if rep == 0 {
                let c = Instant::now();
                check_large(p, &compiled)?;
                check_s += c.elapsed().as_secs_f64();
                expected.push(r);
            } else if expected[i] != r {
                return Err(format!(
                    "{}: compile is not deterministic: {r:?} vs {:?}",
                    p.name, expected[i]
                ));
            }
        }
        setups.push(t.elapsed().as_secs_f64() - check_s);
    }
    let (rss_warm, _) = rss_mb();
    let names: Vec<&str> = progs.iter().map(|p| p.name).collect();
    let sim_runtime_us: f64 = expected.iter().map(|r| f64::from_bits(r.sim_s_bits) * 1e6).sum();

    let mut out = Outcome::default();
    out.meta("programs", Json::Arr(names.iter().map(|n| Json::Str(n.to_string())).collect()));
    out.meta(
        "lowered_nodes",
        Json::Arr(expected.iter().map(|r| num(r.lowered_nodes as f64)).collect()),
    );

    if args.trace {
        return compile_trace(out, &mut rng, &progs, &expected);
    }

    let mut times: Vec<Vec<f64>> = vec![Vec::new(); progs.len()];
    let mut all = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        for i in shuffled(&mut rng, progs.len()) {
            let t = Instant::now();
            let (compiled, sim_s) = pmc_compile(&progs[i].source)?;
            let d = t.elapsed().as_secs_f64() * 1e3;
            let r = op_result(&compiled, sim_s);
            if r != expected[i] {
                return Err(format!(
                    "{}: generated code changed within a run: {r:?} vs {:?}",
                    progs[i].name, expected[i]
                ));
            }
            times[i].push(d);
            all.push(d);
        }
    }
    let (rss_end, hwm) = rss_mb();
    let ops = all.len();
    let busy_s: f64 = all.iter().sum::<f64>() / 1e3;
    let per_program: Vec<f64> = times.iter().map(|t| median(t)).collect();
    let geo = geomean(&per_program);
    let pps = ops as f64 / busy_s;
    all.sort_by(f64::total_cmp);
    let tail_p = stats::tail_percentile(ops).ok_or("too few compiles for a tail")?;
    let p50 = percentile(&all, 50.0);
    let tail = percentile(&all, tail_p);
    let growth = (rss_end - rss_warm) / ops as f64 * 1e3;

    out.metric("setup_s", median(&setups), "s");
    out.metric("latency_p50_ms", p50, "ms");
    out.metric("latency_tail_ms", tail, "ms");
    out.metric("sustained_rps", pps, "req/s");
    out.metric("peak_rss_mb", hwm, "MB");
    out.line("setup_s", Some(median(&setups)), "s");
    out.line("latency_p50_ms", Some(p50), "ms");
    out.line(&format!("latency_tail_ms(p{tail_p})"), Some(tail), "ms");
    out.line("sustained_rps", Some(pps), "req/s");
    out.line("error_rate", Some(0.0), "fraction");
    out.line("compile_geomean_ms", Some(geo), "ms");
    out.line("programs_per_s", Some(pps), "1/s");
    out.line("sim_runtime_us", Some(sim_runtime_us), "us");
    out.line("peak_rss_mb", Some(hwm), "MB");
    out.line("rss_growth_mb_per_kreq", Some(growth), "MB/1k ops");
    out.meta("samples", samples(setups.len(), ops, ops));
    out.meta("latency_tail_percentile", num(tail_p));
    out.meta("compile_geomean_ms", num(geo));
    out.meta("programs_per_s", num(pps));
    out.meta("sim_runtime_us", num(sim_runtime_us));
    out.meta(
        "per_program_median_ms",
        Json::Obj(names.iter().zip(&per_program).map(|(n, m)| (n.to_string(), num(*m))).collect()),
    );
    out.meta("per_program_samples", num(times.iter().map(Vec::len).min().unwrap_or(0) as f64));
    out.meta("rss_growth_mb_per_kreq", num(growth));
    out.attempted = ops as u64;
    out.failed = 0;
    Ok(out)
}

/// Cycles of the mix the traced compile-large replay covers.
const TRACE_CYCLES: usize = 4;

fn compile_trace(
    mut out: Outcome,
    rng: &mut Rng,
    progs: &[workloads::LargeProgram],
    expected: &[OpResult],
) -> Result<Outcome, String> {
    let order: Vec<usize> = (0..TRACE_CYCLES).flat_map(|_| shuffled(rng, progs.len())).collect();
    let store_before = srdfg::store_stats();
    let (mut off, mut tr) = (Tracer::new(false), Tracer::new(true));
    let (mut off_counts, mut counts) = (Counts::default(), Counts::default());
    let (mut reference_ns, mut untraced_ns) = (0u128, 0u128);
    for (k, &i) in order.iter().enumerate() {
        tr.set_request(k as u64);
        let source = &progs[i].source;
        // The three passes take turns going first (see `serve_trace`).
        for pass in (0..3).map(|j| (k + j) % 3) {
            let t = Instant::now();
            let sim_s = match pass {
                0 => {
                    let (compiled, sim_s) = pmc_compile(source)?;
                    reference_ns += t.elapsed().as_nanos();
                    if op_result(&compiled, sim_s) != expected[i] {
                        return Err(format!(
                            "{}: generated code changed within a run",
                            progs[i].name
                        ));
                    }
                    sim_s
                }
                1 => {
                    let sim_s = compile_op(&mut off, source, &mut off_counts)?;
                    untraced_ns += t.elapsed().as_nanos();
                    sim_s
                }
                _ => tr.span("bench.op", |tr| compile_op(tr, source, &mut counts))?,
            };
            if sim_s.to_bits() != expected[i].sim_s_bits {
                return Err(format!(
                    "{}: a replay priced {sim_s} s, the live run {} s",
                    progs[i].name,
                    f64::from_bits(expected[i].sim_s_bits)
                ));
            }
        }
    }
    let store_after = srdfg::store_stats();
    // Every op was compiled three times, once per pass.
    let n = 3.0 * order.len() as f64;
    let store = (
        (store_after.records() - store_before.records()) as f64 / n,
        store_after.bytes().saturating_sub(store_before.bytes()) as f64 / n,
    );
    layer_metrics(
        &mut out,
        Traced {
            tracer: &tr,
            counts: &counts,
            serve: None,
            store,
            untraced_ns,
            reference_ns,
            root: "bench.op",
            file: "trace-compile-large.jsonl".into(),
        },
    );
    out.attempted = order.len() as u64;
    out.failed = 0;
    Ok(out)
}
