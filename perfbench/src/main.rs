//! End-to-end benchmark of real NAAS searches.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload accel_local|accel_fleet|gateway_mixed \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run repeats whole iterations of one workload until `--seconds` have
//! passed. Each iteration runs in a child process of its own (set-up
//! from nothing, one search or job mix, output checks, tear-down), so
//! its peak memory and its allocator state are its own. The run then
//! prints a provenance line and, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones, medians over
//! the run's iterations; with `--trace 1` iterations alternate untraced
//! and traced, the metrics are the per-layer ones of the traced
//! iterations, and the spans are written to `perfbench/out/`. See
//! `perfbench/README.md`.

mod fleet;
mod host;
mod trace;
mod workloads;

use host::{median, peak_rss_mb, trimmed_mean};
use serde::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Budget, Ctx, Iteration, Workload};

/// The workload seed when `--seed` is absent: the registered
/// `mobile-eyeriss` scenario seed.
const DEFAULT_SEED: u64 = 2021;
/// Set-up/tear-down cycles per run behind `setup_s`. Samples on the
/// fleet workloads are bimodal (a fresh worker's listener polls `accept`
/// every 5 ms, so each handshake waits 0 or 1 poll), which makes a
/// median flip between the modes; a trimmed mean of many samples follows
/// the mix instead.
const SETUP_REPS: usize = 25;
/// The blocking-path self times of a traced iteration must add up to
/// its `search_s` within this share of it, or within
/// `RECONCILE_FLOOR_S`, whichever is larger: on a loaded 2-vCPU host a
/// thread can wait that long to be scheduled, which decides only for
/// the sub-second searches of the self-test.
const RECONCILE_TOLERANCE: f64 = 0.02;
const RECONCILE_FLOOR_S: f64 = 0.05;
/// A run gives up after this many iterations in a row fail to run.
const MAX_FAILED_ITERATIONS: usize = 3;
/// No iteration starts after this much of a run has passed, even when
/// the run's minimum iteration counts are not met.
const RUN_DEADLINE: Duration = Duration::from_secs(90);
/// Any iteration process still running this long after the run started
/// is killed and counted as failed, so a run always ends within three
/// minutes.
const RUN_LIMIT: Duration = Duration::from_secs(150);
/// Seeds a run cycles through. Iteration `u` (untraced) makes its
/// inputs from `seed + (u mod SEEDS_PER_RUN) * SEED_STRIDE`, so `k = 0`
/// is the workload seed itself and a run's medians average over several
/// inputs: the work of one search varies by ≈10% from seed to seed. A
/// traced iteration repeats the seed of the untraced one before it.
const SEEDS_PER_RUN: u64 = 4;
const SEED_STRIDE: u64 = 1_000_003;

/// End-to-end metrics (`--trace 0`), name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("search_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("best_edp", "cycles.nJ"),
];

/// Per-layer metrics (`--trace 1`), name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("accel_search.sample_ms", "ms"),
    ("accel_search.commit_ms", "ms"),
    ("accel_search.gen_ms_p50", "ms"),
    ("accel_search.decode_rejects", "count"),
    ("mapping_search.candidate_ms_p50", "ms"),
    ("mapping_search.candidate_ms_p95", "ms"),
    ("mapping_search.busy_s", "s"),
    ("mapping_search.us_per_eval", "us"),
    ("pipeline.evaluations", "count"),
    ("pipeline.resamples", "count"),
    ("pipeline.useful_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.entries", "count"),
    ("pool.parallel_eff", "ratio"),
    ("checkpoint.save_ms_p50", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("distributed.step_ms_p50", "ms"),
    ("distributed.microshards", "count"),
    ("distributed.steals", "count"),
    ("distributed.reissues", "count"),
    ("distributed.deltas_gossiped", "count"),
    ("distributed.joint_units", "count"),
    ("distributed.coordinator_cpu_s", "s"),
    ("distributed.idle_frac", "ratio"),
    ("service.requests", "count"),
    ("service.shard_ms_p50", "ms"),
    ("service.shard_ms_p95", "ms"),
    ("service.shard_busy_s", "s"),
    ("service.shard_cpu_s", "s"),
    ("service.reply_bytes", "bytes"),
    ("gateway.submit_ms_p50", "ms"),
    ("gateway.accel_job_s_p50", "s"),
    ("gateway.joint_job_s_p50", "s"),
    ("gateway.job_generations", "count"),
    ("gateway.arch_share", "ratio"),
    ("gateway.jobs_rejected", "count"),
    ("nas.subnet_evals", "count"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One invocation's settings.
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `paper`, or `tiny` for the self-test.
    budget: &'static str,
    /// Corrupt one result after the program returned it (self-test).
    corrupt: bool,
    /// Run exactly one iteration in this process, traced or not, and
    /// print it (the child side of a run).
    iteration: Option<bool>,
}

impl Options {
    fn budget(&self) -> Budget {
        if self.budget == "tiny" {
            Budget::tiny()
        } else {
            Budget::paper()
        }
    }
}

/// What a run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    provenance: Value,
}

fn flag_bool(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} expects 0 or 1, got `{value}`")),
    }
}

fn parse_args(raw: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut options = Options {
        workload: Workload::AccelLocal,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        budget: "paper",
        corrupt: false,
        iteration: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                options.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?;
            }
            "--seconds" => {
                options.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && (0.0..=600.0).contains(s))
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => options.trace = flag_bool(flag, value)?,
            "--budget" => {
                options.budget = match value.as_str() {
                    "paper" => "paper",
                    "tiny" => "tiny",
                    _ => return Err(format!("--budget expects paper or tiny, got `{value}`")),
                };
            }
            "--corrupt" => options.corrupt = flag_bool(flag, value)?,
            "--iteration" => options.iteration = Some(flag_bool(flag, value)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    options.workload =
        workload.ok_or("--workload is required (accel_local|accel_fleet|gateway_mixed)")?;
    Ok(options)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The spans file of a workload: truncated when a traced run starts,
/// appended to by each traced iteration.
fn spans_path(workload: Workload) -> PathBuf {
    out_dir().join(format!("{}.spans.jsonl", workload.name()))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&raw) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(traced) = options.iteration {
        match child(&options, traced) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("perfbench iteration: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let report = run(&options);
    let provenance = Value::Object(vec![("provenance".into(), report.provenance.clone())]);
    println!(
        "{}",
        serde_json::to_string(&provenance).expect("provenance serializes")
    );
    println!("{}", result_line(&report));
}

/// The child side: one iteration, printed as one JSON line. Spans of a
/// traced iteration are appended to the run's spans file.
fn child(options: &Options, traced: bool) -> Result<String, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("out dir: {e}"))?;
    let ctx = Ctx {
        seed: options.seed,
        budget: options.budget(),
        corrupt: options.corrupt,
        checkpoint: workloads::checkpoint_path(&out_dir(), options.workload),
    };
    let tracer = traced.then(|| Arc::new(Tracer::default()));
    let outcome = workloads::run_iteration(options.workload, &ctx, tracer);
    let _ = std::fs::remove_file(&ctx.checkpoint);
    let (mut iteration, spans) = outcome?;
    iteration.seed = options.seed;
    iteration.peak_rss_mb = peak_rss_mb();
    if traced {
        let text = trace::to_jsonl(&spans, options.workload.name(), options.seed);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(spans_path(options.workload))
            .and_then(|mut f| f.write_all(text.as_bytes()))
            .map_err(|e| format!("spans file: {e}"))?;
    }
    serde_json::to_string(&iteration).map_err(|e| e.to_string())
}

/// The seed of the run's `k`-th input set.
fn iteration_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add((k % SEEDS_PER_RUN) * SEED_STRIDE)
}

/// Runs one iteration of `workload` at `seed` in a child process and
/// waits for it, killing it at `deadline`.
fn run_child(
    options: &Options,
    workload: Workload,
    seed: u64,
    traced: bool,
    deadline: Instant,
) -> Result<Iteration, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let flag = |b: bool| if b { "1" } else { "0" }.to_string();
    let mut child = Command::new(exe)
        .args([
            "--workload".to_string(),
            workload.name().to_string(),
            "--seed".into(),
            seed.to_string(),
            "--budget".into(),
            options.budget.to_string(),
            "--corrupt".into(),
            flag(options.corrupt),
            "--iteration".into(),
            flag(traced),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn iteration: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err("iteration killed at the run's time limit".to_string());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("wait for iteration: {e}"));
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| "iteration reader panicked".to_string())?
        .map_err(|e| format!("iteration output: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("iteration exited with {status}"));
    }
    let line = text.lines().last().ok_or("iteration printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("iteration output: {e}"))
}

/// The final output line.
fn result_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                (*name).to_string(),
                Value::Object(vec![
                    ("value".into(), Value::F64(*value)),
                    ("unit".into(), Value::Str((*unit).into())),
                ]),
            )
        })
        .collect();
    serde_json::to_string(&Value::Object(vec![
        ("correct".into(), Value::Bool(report.correct)),
        ("attempted".into(), Value::U64(report.attempted)),
        ("failed".into(), Value::U64(report.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
    .expect("result line serializes")
}

/// Attempts and failures of a run, with the reason for each failure. A
/// check that is not a unit of work (reconciliation, a non-finite
/// metric) is recorded only when it fails.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            self.failures.push(why);
        }
    }
}

/// The parent side: set-up cycles, then iterations until `--seconds`
/// have passed, then the report.
fn run(options: &Options) -> Report {
    let deadline = Instant::now() + RUN_LIMIT;
    let workload = options.workload;
    let _ = std::fs::create_dir_all(out_dir());
    if options.trace {
        let _ = std::fs::remove_file(spans_path(workload));
    }
    let mut tally = Tally::default();

    // Outputs every iteration must reproduce, by seed and unit label.
    // On accel_fleet the reference is the same search run in-process.
    let mut expected: BTreeMap<(u64, String), String> = BTreeMap::new();
    let fleet_reference = workload == Workload::AccelFleet;
    let local_reference = |seed: u64, tally: &mut Tally| -> Option<String> {
        let reference = Options {
            corrupt: false,
            ..*options
        };
        let outcome = run_child(&reference, Workload::AccelLocal, seed, false, deadline)
            .and_then(|mut i| i.units.pop().ok_or("no result".to_string()))
            .and_then(|unit| match unit.error {
                None => Ok(unit.summary),
                Some(e) => Err(e),
            });
        outcome
            .map_err(|e| tally.record(Some(format!("local reference at seed {seed}: {e}"))))
            .ok()
    };

    let ctx = Ctx {
        seed: options.seed,
        budget: options.budget(),
        corrupt: false,
        checkpoint: workloads::checkpoint_path(&out_dir(), workload),
    };
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        match workloads::setup_only(workload, &ctx) {
            Ok(s) => setups.push(s),
            Err(e) => tally.record(Some(format!("setup: {e}"))),
        }
    }

    let started = Instant::now();
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut failed_in_a_row = 0usize;
    loop {
        let untraced = iterations.iter().filter(|i| !i.traced).count() as u64;
        let traced = options.trace && iterations.len() % 2 == 1;
        let seed = iteration_seed(options.seed, untraced - u64::from(traced));
        if fleet_reference && !expected.contains_key(&(seed, workloads::FLEET_UNIT.to_string())) {
            if let Some(summary) = local_reference(seed, &mut tally) {
                expected.insert((seed, workloads::FLEET_UNIT.to_string()), summary);
            }
        }
        match run_child(options, workload, seed, traced, deadline) {
            Ok(mut iteration) => {
                failed_in_a_row = 0;
                for unit in &mut iteration.units {
                    if unit.error.is_some() {
                        continue;
                    }
                    let key = (seed, unit.label.clone());
                    match expected.get(&key) {
                        None if !fleet_reference => {
                            expected.insert(key, unit.summary.clone());
                        }
                        Some(want) if *want == unit.summary => {}
                        _ => {
                            unit.error = Some(if fleet_reference {
                                "differs from accel_local at the same seed".into()
                            } else {
                                "differs from the run's first result for the same seed".into()
                            });
                        }
                    }
                }
                iterations.push(iteration);
            }
            Err(e) => {
                failed_in_a_row += 1;
                tally.record(Some(format!("iteration {}: {e}", iterations.len() + 1)));
                if failed_in_a_row >= MAX_FAILED_ITERATIONS {
                    break;
                }
            }
        }
        let untraced = iterations.iter().filter(|i| !i.traced).count() as u64;
        let traced = iterations.len() as u64 - untraced;
        let enough = if options.trace {
            untraced >= 1 && traced >= 1
        } else {
            untraced >= SEEDS_PER_RUN
        };
        let elapsed = started.elapsed();
        if (enough && elapsed >= Duration::from_secs_f64(options.seconds))
            || elapsed >= RUN_DEADLINE
        {
            break;
        }
    }

    for (n, iteration) in iterations.iter().enumerate() {
        for unit in &iteration.units {
            tally.record(
                unit.error
                    .as_ref()
                    .map(|e| format!("iteration {} {}: {e}", n + 1, unit.label)),
            );
        }
        let tolerance = RECONCILE_TOLERANCE.max(RECONCILE_FLOOR_S / iteration.search_s);
        if let Some(gap) = reconcile_gap(iteration).filter(|g| g.abs() > tolerance) {
            tally.record(Some(format!(
                "iteration {}: blocking-path self times miss search_s by {:.2}% \
                 (tolerance {:.2}%)",
                n + 1,
                gap * 100.0,
                tolerance * 100.0
            )));
        }
    }

    let plain: Vec<&Iteration> = iterations.iter().filter(|i| !i.traced).collect();
    let traced: Vec<&Iteration> = iterations.iter().filter(|i| i.traced).collect();
    let med = |set: &[&Iteration], f: fn(&Iteration) -> f64| {
        median(&set.iter().map(|i| f(i)).collect::<Vec<_>>())
    };
    let overhead = (!traced.is_empty() && !plain.is_empty())
        .then(|| med(&traced, |i| i.search_s) / med(&plain, |i| i.search_s) - 1.0);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if options.trace {
        for (name, _) in PER_LAYER {
            let samples: Vec<f64> = traced
                .iter()
                .filter_map(|i| i.layers.get(*name).copied())
                .collect();
            values.insert(name, median(&samples));
        }
        let gaps: Vec<f64> = traced.iter().filter_map(|i| reconcile_gap(i)).collect();
        values.insert("trace.unattributed_frac", median(&gaps));
        values.insert("trace.overhead_frac", overhead.unwrap_or(0.0));
    } else {
        values.insert("setup_s", trimmed_mean(&setups));
        values.insert("search_s", med(&plain, |i| i.search_s));
        values.insert("cpu_s", med(&plain, |i| i.cpu_s));
        values.insert("peak_rss_mb", med(&plain, |i| i.peak_rss_mb));
        // One value per input set (iterations repeating a seed
        // reproduce it exactly), so best_edp depends on the seed alone.
        let best: Vec<f64> = (0..SEEDS_PER_RUN)
            .filter_map(|k| {
                let seed = iteration_seed(options.seed, k);
                plain
                    .iter()
                    .find(|i| i.seed == seed)
                    .and_then(|i| iteration_best_edp(i))
            })
            .collect();
        values.insert("best_edp", geomean(&best));
    }
    let names = if options.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            tally.record(Some(format!("metric {name} is not a finite number")));
        }
        metrics.push((*name, if value.is_finite() { value } else { 0.0 }, *unit));
    }

    let provenance = provenance(options, &plain, &traced, &setups, overhead, &tally);
    Report {
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
        provenance,
    }
}

/// Share of `search_s` the blocking-path layer self times of a traced
/// iteration leave unexplained.
fn reconcile_gap(iteration: &Iteration) -> Option<f64> {
    let attributed: f64 = iteration.blocking.as_ref()?.values().sum();
    Some((iteration.search_s - attributed) / iteration.search_s)
}

/// The iteration's best EDP: the search's, or the geomean over the
/// gateway jobs' bests. `None` if any unit failed.
fn iteration_best_edp(iteration: &Iteration) -> Option<f64> {
    let edps: Option<Vec<f64>> = iteration
        .units
        .iter()
        .map(|u| u.best_edp.filter(|_| u.error.is_none()))
        .collect();
    edps.filter(|e| !e.is_empty()).map(|e| geomean(&e))
}

/// Geometric mean; NaN for no values.
fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn floats(values: impl IntoIterator<Item = f64>) -> Value {
    Value::Array(values.into_iter().map(Value::F64).collect())
}

fn provenance(
    options: &Options,
    plain: &[&Iteration],
    traced: &[&Iteration],
    setups: &[f64],
    overhead: Option<f64>,
    tally: &Tally,
) -> Value {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."))
        .to_path_buf();
    let commit = if root.join(".git").exists() {
        host::command_line(
            "git",
            &["-C", &root.display().to_string(), "rev-parse", "HEAD"],
        )
    } else {
        None
    };
    let opt_str = |v: Option<String>| v.map_or(Value::Null, Value::Str);
    let opt_f64 = |v: Option<f64>| v.map_or(Value::Null, Value::F64);
    let nproc = host::nproc();
    let cpu_eff: Vec<f64> = plain
        .iter()
        .map(|i| i.cpu_s / (nproc as f64 * i.search_s))
        .collect();
    let pool_eff: Vec<f64> = traced
        .iter()
        .filter_map(|i| i.layers.get("pool.parallel_eff").copied())
        .collect();
    let mut blocking: BTreeMap<String, f64> = BTreeMap::new();
    for i in traced {
        for (name, s) in i.blocking.iter().flatten() {
            *blocking.entry(name.clone()).or_insert(0.0) += s / traced.len() as f64;
        }
    }
    let absent: Vec<(String, Value)> = PER_LAYER
        .iter()
        .filter_map(|(name, _)| {
            workloads::absent_reason(options.workload, name)
                .map(|why| ((*name).to_string(), Value::Str(why.into())))
        })
        .collect();
    let source_roots = [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ];
    let fields: Vec<(&str, Value)> = vec![
        ("workload", Value::Str(options.workload.name().into())),
        ("seed", Value::U64(options.seed)),
        (
            "iteration_seeds",
            Value::Array(plain.iter().map(|i| Value::U64(i.seed)).collect()),
        ),
        ("seconds", Value::F64(options.seconds)),
        ("trace", Value::Bool(options.trace)),
        ("budget", Value::Str(options.budget.into())),
        ("nproc", Value::U64(nproc as u64)),
        ("engine_threads", Value::U64(workloads::THREADS as u64)),
        ("workers", Value::U64(workloads::WORKERS as u64)),
        // cpu_s / (nproc * search_s), median over untraced iterations.
        ("cpu_parallel_eff", Value::F64(median(&cpu_eff))),
        (
            "pool_parallel_eff",
            opt_f64((!pool_eff.is_empty()).then(|| median(&pool_eff))),
        ),
        ("commit", opt_str(commit)),
        (
            "source_hash",
            Value::Str(host::source_hash(&root, &source_roots)),
        ),
        ("rustc", opt_str(host::command_line("rustc", &["-V"]))),
        ("tracing_overhead_frac", opt_f64(overhead)),
        ("attempted", Value::U64(tally.attempted)),
        ("failed", Value::U64(tally.failed)),
        (
            "fail_frac",
            Value::F64(tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
        (
            "failures",
            Value::Array(tally.failures.iter().cloned().map(Value::Str).collect()),
        ),
        ("iterations", Value::U64(plain.len() as u64)),
        ("traced_iterations", Value::U64(traced.len() as u64)),
        ("search_s_samples", floats(plain.iter().map(|i| i.search_s))),
        ("cpu_s_samples", floats(plain.iter().map(|i| i.cpu_s))),
        (
            "peak_rss_mb_samples",
            floats(plain.iter().map(|i| i.peak_rss_mb)),
        ),
        ("setup_s_samples", floats(setups.iter().copied())),
        (
            "iteration_setup_s_samples",
            floats(plain.iter().map(|i| i.setup_s)),
        ),
        (
            "traced_search_s_samples",
            floats(traced.iter().map(|i| i.search_s)),
        ),
        ("reconcile_tolerance", Value::F64(RECONCILE_TOLERANCE)),
        ("reconcile_floor_s", Value::F64(RECONCILE_FLOOR_S)),
        (
            "blocking_path_self_s",
            Value::Object(
                blocking
                    .into_iter()
                    .map(|(k, v)| (k, Value::F64(v)))
                    .collect(),
            ),
        ),
        ("absent", Value::Object(absent)),
        (
            "telemetry",
            Value::Str(
                "the in-process fleet shares the process-global telemetry registry: \
                 pipeline and coordinator counters are coordinator + worker totals"
                    .into(),
            ),
        ),
        (
            "spans_file",
            opt_str(
                options
                    .trace
                    .then(|| spans_path(options.workload).display().to_string()),
            ),
        ),
    ];
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args(
            "--workload accel_fleet --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid flags");
        assert_eq!(o.workload, Workload::AccelFleet);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        assert_eq!((o.budget, o.corrupt, o.iteration), ("paper", false, None));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload accel_local --trace 2")).is_err());
        assert!(parse_args(&args("--workload accel_local --budget huge")).is_err());
    }

    #[test]
    fn best_edp_is_a_geomean_and_needs_every_unit() {
        let unit = |edp: f64, error: Option<&str>| workloads::Unit {
            label: String::new(),
            summary: String::new(),
            best_edp: Some(edp),
            error: error.map(String::from),
        };
        let mut iteration = Iteration {
            units: vec![unit(2.0, None), unit(8.0, None)],
            ..Iteration::default()
        };
        assert!((iteration_best_edp(&iteration).unwrap() - 4.0).abs() < 1e-12);
        iteration.units.push(unit(1.0, Some("check failed")));
        assert_eq!(iteration_best_edp(&iteration), None);
    }
}
