//! Machine-readable perf snapshot: re-runs the `mapping_throughput`
//! benchmark workload — plus a `mapping_draw_stages` split of one
//! inner-search draw into its ask, decode and evaluate stages, a
//! `distributed_throughput` straggler workload over a live in-process
//! fleet and a `pareto_search` workload comparing scalar-objective and
//! Pareto-archive search at the same seed and budget — and writes one
//! JSON summary: the `BENCH_*.json` trajectory that future optimization
//! PRs (surrogate pre-filter, SIMD hot path) are judged against.
//!
//! ```text
//! cargo run -p naas-bench --release --bin bench_json [-- OUT.json]
//! ```
//!
//! The default output path is the next free `BENCH_<n>.json` in the
//! working directory (one past the highest existing number), and the
//! summary's `bench` label is the output file's stem. Each measurement
//! is the median of several timed iterations — wall-clock after a
//! warmup pass, except `mapping_draw_stages`, which times thread CPU —
//! noisier than criterion's estimator, but dependency-light and fast
//! enough to run on every perf-relevant change.

use naas::mapping_search::{design_fingerprint, layer_search_seed, search_layer_mapping_with};
use naas::service::{BatchEvalService, ServiceConfig, ServiceServer};
use naas::{EvalPipeline, MappingSearchConfig};
use naas_engine::LayerKey;
use naas_opt::{CemEs, EncodingScheme, MappingEncoder, Optimizer, RandomSearch};
use serde::Value;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const POPULATION: usize = 64;

/// Median wall-clock milliseconds of `runs` timed calls to `f`, after
/// one untimed warmup call.
fn median_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    f();
    median(
        (0..runs)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// The upper median of `samples`.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn mapping_throughput() -> Value {
    let model = naas_cost::CostModel::new();
    let layer = naas_ir::ConvSpec::conv2d("c", 64, 128, (28, 28), (3, 3), 1, 1).unwrap();

    // Full cold-cache per-layer search at the default budget — the unit
    // of work the outer loop pays per (design, layer-shape) cache miss.
    let mut searches = Vec::new();
    for accel in [
        naas_accel::baselines::eyeriss(),
        naas_accel::baselines::nvdla_256(),
    ] {
        let cfg = MappingSearchConfig {
            seed: 7,
            ..MappingSearchConfig::default()
        };
        let ms = median_ms(5, || {
            std::hint::black_box(
                naas::search_layer_mapping(&model, &layer, &accel, &cfg).expect("maps"),
            );
        });
        searches.push((accel.name().to_string(), ms));
    }

    // Raw population scoring, scalar versus batched (the same 64
    // candidates through both API shapes).
    let accel = naas_accel::baselines::eyeriss();
    let encoder = MappingEncoder::new(accel.connectivity().ndim(), EncodingScheme::Importance);
    let mut sampler = RandomSearch::new(encoder.dim(), 3);
    let thetas: Vec<Vec<f64>> = (0..POPULATION).map(|_| sampler.ask()).collect();
    let scalar_ms = median_ms(30, || {
        let mut acc = 0.0;
        for theta in &thetas {
            let mapping = encoder.decode(theta, &layer, accel.connectivity());
            if let Ok(cost) = model.evaluate(&layer, &accel, &mapping) {
                acc += cost.edp();
            }
        }
        std::hint::black_box(acc);
    });
    let mut mappings = vec![naas_mapping::Mapping::new(Vec::new(), naas_ir::DIMS); thetas.len()];
    let mut scratch = naas_cost::EvalScratch::new();
    let mut results = Vec::new();
    let batched_ms = median_ms(30, || {
        for (theta, slot) in thetas.iter().zip(&mut mappings) {
            encoder.decode_into(theta, &layer, accel.connectivity(), slot);
        }
        model.evaluate_batch(&layer, &accel, &mappings, &mut scratch, &mut results);
        let acc: f64 = results
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|c| c.edp()))
            .sum();
        std::hint::black_box(acc);
    });

    let mut fields = Vec::new();
    for (name, ms) in &searches {
        let key = format!(
            "layer_search_{}_ms",
            name.to_lowercase().replace(['-', ' '], "_")
        );
        fields.push((key, Value::F64(*ms)));
    }
    fields.push((
        format!("population_eval_{POPULATION}_scalar_ms"),
        Value::F64(scalar_ms),
    ));
    fields.push((
        format!("population_eval_{POPULATION}_batched_ms"),
        Value::F64(batched_ms),
    ));
    Value::Object(fields)
}

/// Timed runs of the `mapping_draw_stages` workload; each stage reports
/// the median of these.
const STAGE_RUNS: usize = 5;
/// Thread CPU each timed stage loop spends at least. The clock below is
/// exact; the window only makes one measurement average over many
/// passes, so a single preemption or cache-cold pass barely moves it.
const STAGE_MIN_CPU_NS: u64 = 200_000_000;

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, now: *mut [std::ffi::c_long; 2]) -> std::ffi::c_int;
}

/// Linux's clock id for the calling thread's CPU time.
const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;

/// On-CPU nanoseconds of the calling thread, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` (Linux): exact to the
/// nanosecond, where `/proc/thread-self/schedstat` only advances in
/// whole scheduler ticks.
fn thread_cpu_ns() -> u64 {
    // A `struct timespec`: seconds, then nanoseconds.
    let mut now = [0; 2];
    // SAFETY: `now` is a valid, writable `timespec` for the call.
    assert_eq!(
        unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) },
        0,
        "clock_gettime failed"
    );
    now[0] as u64 * 1_000_000_000 + now[1] as u64
}

/// Thread-CPU µs per draw of `pass`, which makes `draws` draws per
/// call; `pass` repeats until it has spent [`STAGE_MIN_CPU_NS`].
fn cpu_us_per_draw(draws: usize, mut pass: impl FnMut()) -> f64 {
    let start = thread_cpu_ns();
    let mut passes = 0u64;
    loop {
        pass();
        passes += 1;
        let spent = thread_cpu_ns() - start;
        if spent >= STAGE_MIN_CPU_NS {
            return spent as f64 / 1e3 / (passes as f64 * draws as f64);
        }
    }
}

/// A [`CemEs`] that keeps every draw it hands out and the size of every
/// batched ask: the exact draw stream of one layer search.
struct RecordingEs {
    inner: CemEs,
    draws: Vec<Vec<f64>>,
    rounds: Vec<usize>,
}

impl Optimizer for RecordingEs {
    fn ask_into(&mut self, out: &mut Vec<f64>) {
        self.inner.ask_into(out);
        self.draws.push(out.clone());
    }

    fn ask_batch_into(&mut self, out: &mut [Vec<f64>]) {
        self.rounds.push(out.len());
        for slot in out {
            self.ask_into(slot);
        }
    }

    fn tell(&mut self, scored: &[(Vec<f64>, f64)]) {
        self.inner.tell(scored);
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }
}

/// One layer shape's search inputs and the draws its search makes.
struct LayerDraws {
    layer: naas_ir::ConvSpec,
    cfg: MappingSearchConfig,
    draws: Vec<Vec<f64>>,
    rounds: Vec<usize>,
}

/// Replays the generation loop of `search_layer_mapping_with` through a
/// [`RecordingEs`], and checks that the real search makes as many draws
/// (the pipeline's draw counter) as the replay recorded.
fn record_layer(
    pipeline: &mut EvalPipeline,
    model: &naas_cost::CostModel,
    accel: &naas_accel::Accelerator,
    layer: naas_ir::ConvSpec,
    cfg: MappingSearchConfig,
) -> LayerDraws {
    let encoder = MappingEncoder::new(accel.connectivity().ndim(), cfg.scheme);
    let mut es = RecordingEs {
        inner: CemEs::new(encoder.dim(), cfg.es, cfg.seed),
        draws: Vec::new(),
        rounds: Vec::new(),
    };
    // `best` never feeds back into the draws, so the replay skips the
    // heuristic seed.
    let mut best = None;
    for _ in 0..cfg.iterations {
        let outcome = pipeline.run_generation(
            &mut es,
            &encoder,
            model,
            &layer,
            accel,
            cfg.population,
            cfg.resample_limit,
            &mut best,
        );
        es.tell(pipeline.scored(outcome.scored));
    }
    let counter = &naas_engine::telemetry::metrics().pipeline.evaluations;
    let before = counter.get();
    search_layer_mapping_with(pipeline, model, &layer, accel, &cfg).expect("layer maps");
    assert_eq!(
        counter.get() - before,
        es.draws.len() as u64,
        "the replay must draw exactly what the search draws"
    );
    LayerDraws {
        layer,
        cfg,
        draws: es.draws,
        rounds: es.rounds,
    }
}

/// Where the inner mapping search spends a draw: thread-CPU µs per draw
/// of the ask (`CemEs::ask_batch_into`), decode
/// (`MappingEncoder::decode_into`) and evaluate
/// (`CostModel::evaluate_with`) stages, and of a whole
/// `search_layer_mapping_with`, over every distinct layer shape of
/// `mobile_benchmarks()` on Eyeriss at the default mapping budget with
/// the co-search's content-derived seeds. Decode and evaluate replay
/// the searches' own draws; the ask stage replays their batch sizes on
/// an untold optimizer (a diagonal draw costs the same whatever the
/// distribution). `other` is the search's remainder: the resample
/// automaton, `tell`, the heuristic seed and best-candidate copies.
fn mapping_draw_stages() -> Value {
    let model = naas_cost::CostModel::new();
    let accel = naas_accel::baselines::eyeriss();
    let base = MappingSearchConfig::default();
    let design_fp = design_fingerprint(&accel, &base);
    let mut seen = std::collections::HashSet::new();
    let mut pipeline = EvalPipeline::new();
    let records: Vec<LayerDraws> = naas_ir::models::mobile_benchmarks()
        .iter()
        .flat_map(|network| network.iter().cloned())
        .filter(|layer| seen.insert(LayerKey::of(layer)))
        .map(|layer| {
            let cfg = MappingSearchConfig {
                seed: layer_search_seed(base.seed, design_fp, &LayerKey::of(&layer)),
                ..base
            };
            record_layer(&mut pipeline, &model, &accel, layer, cfg)
        })
        .collect();
    let draws: usize = records.iter().map(|r| r.draws.len()).sum();
    let encoder = MappingEncoder::new(accel.connectivity().ndim(), base.scheme);
    let decoded: Vec<Vec<naas_mapping::Mapping>> = records
        .iter()
        .map(|r| {
            r.draws
                .iter()
                .map(|theta| encoder.decode(theta, &r.layer, accel.connectivity()))
                .collect()
        })
        .collect();
    // A generation's first round asks one theta per slot: the widest.
    let mut thetas = vec![Vec::new(); base.population];
    let mut slot = naas_mapping::Mapping::new(Vec::new(), naas_ir::DIMS);
    let mut scratch = naas_cost::EvalScratch::new();

    let (mut ask, mut decode, mut evaluate, mut search) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..STAGE_RUNS {
        ask.push(cpu_us_per_draw(draws, || {
            for r in &records {
                let mut es = CemEs::new(encoder.dim(), r.cfg.es, r.cfg.seed);
                for &n in &r.rounds {
                    es.ask_batch_into(&mut thetas[..n]);
                }
            }
            std::hint::black_box(&thetas);
        }));
        decode.push(cpu_us_per_draw(draws, || {
            for r in &records {
                for theta in &r.draws {
                    encoder.decode_into(theta, &r.layer, accel.connectivity(), &mut slot);
                }
            }
            std::hint::black_box(&slot);
        }));
        evaluate.push(cpu_us_per_draw(draws, || {
            for (r, mappings) in records.iter().zip(&decoded) {
                for mapping in mappings {
                    let cost = model.evaluate_with(&mut scratch, &r.layer, &accel, mapping);
                    std::hint::black_box(cost.ok());
                }
            }
        }));
        search.push(cpu_us_per_draw(draws, || {
            for r in &records {
                std::hint::black_box(search_layer_mapping_with(
                    &mut pipeline,
                    &model,
                    &r.layer,
                    &accel,
                    &r.cfg,
                ));
            }
        }));
    }
    let [ask, decode, evaluate, search] = [ask, decode, evaluate, search].map(median);
    obj(vec![
        ("design", Value::Str(accel.name().to_string())),
        ("layer_shapes", Value::U64(records.len() as u64)),
        ("population", Value::U64(base.population as u64)),
        ("iterations", Value::U64(base.iterations as u64)),
        ("draws_per_pass", Value::U64(draws as u64)),
        ("runs", Value::U64(STAGE_RUNS as u64)),
        ("ask_us_per_draw", Value::F64(ask)),
        ("decode_us_per_draw", Value::F64(decode)),
        ("evaluate_us_per_draw", Value::F64(evaluate)),
        ("search_us_per_draw", Value::F64(search)),
        (
            "other_us_per_draw",
            Value::F64(search - ask - decode - evaluate),
        ),
        ("ask_share", Value::F64(ask / search)),
        ("decode_share", Value::F64(decode / search)),
        ("evaluate_share", Value::F64(evaluate / search)),
    ])
}

/// Per-candidate injected delay of the "normal" machines in the
/// straggler fleet, microseconds.
const FAST_DELAY_US: u64 = 20_000;
/// The straggler: 4× slower than its three peers.
const SLOW_DELAY_US: u64 = 80_000;
/// Candidates per generation of the distributed workload.
const STRAGGLER_POPULATION: usize = 48;

/// Spawns a detached in-process TCP worker — the serving stack behind
/// `naas-search worker` — with an injected per-candidate evaluation
/// delay, and returns its address.
fn spawn_worker(eval_delay_us: u64) -> String {
    let service = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::quick(7),
        eval_delay_us,
    })
    .expect("no cache file");
    let server = Arc::new(ServiceServer::start(Arc::new(service)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound socket").to_string();
    std::thread::spawn(move || {
        let _ = server.serve_listener(listener);
    });
    addr
}

/// Runs one sharded `cifar-eyeriss` search over a fresh fleet with the
/// given per-worker delays, returning each generation's wall-clock (ms,
/// in order) plus the scheduler counters.
fn straggler_run(delays: &[u64]) -> (Vec<f64>, naas::SchedulerStats) {
    let scenario = naas_engine::scenario::find("cifar-eyeriss").expect("registered scenario");
    let job = scenario.resolve().expect("scenario resolves");
    let mut cfg = naas::AccelSearchConfig::quick(17);
    cfg.population = STRAGGLER_POPULATION;
    cfg.iterations = 6;
    cfg.mapping = MappingSearchConfig::quick(7);
    cfg.threads = 1;

    let addrs: Vec<String> = delays.iter().map(|&d| spawn_worker(d)).collect();
    let mut coordinator =
        naas::DistributedCoordinator::connect(&addrs, &scenario).expect("fleet reachable");

    let engine = naas::CoSearchEngine::new(1);
    let model = naas_cost::CostModel::new();
    let mut state = naas::accel_search_init(&job.constraint, &cfg, &[]);
    let mut gens = Vec::new();
    loop {
        let start = Instant::now();
        if !coordinator.step(&engine, &model, &job.networks, &mut state) {
            break;
        }
        gens.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (gens, coordinator.scheduler_stats())
}

/// Median of the generations after the first (generation 0 is excluded:
/// it runs before any throughput EWMA exists).
fn warm_median_ms(gens: &[f64]) -> f64 {
    median(gens[1..].to_vec())
}

/// The straggler workload: 4 workers, one 4× slower. Per-generation
/// wall-clock under the micro-shard scheduler against the ideal of a
/// uniform fleet of 4 fast machines.
fn distributed_throughput() -> Value {
    let straggler = [FAST_DELAY_US, FAST_DELAY_US, FAST_DELAY_US, SLOW_DELAY_US];
    let uniform = [FAST_DELAY_US; 4];

    eprintln!(
        "bench_json: distributed_throughput — micro-shard scheduler on the straggler fleet..."
    );
    let (micro_gens, stats) = straggler_run(&straggler);
    eprintln!("bench_json: distributed_throughput — ideal uniform fleet...");
    let (ideal_gens, _) = straggler_run(&uniform);

    let micro_ms = warm_median_ms(&micro_gens);
    let ideal_ms = warm_median_ms(&ideal_gens);

    obj(vec![
        ("workers", Value::U64(4)),
        ("population", Value::U64(STRAGGLER_POPULATION as u64)),
        ("fast_delay_us", Value::U64(FAST_DELAY_US)),
        ("slow_delay_us", Value::U64(SLOW_DELAY_US)),
        ("generations_timed", Value::U64(micro_gens.len() as u64)),
        ("microshard_straggler_gen_ms", Value::F64(micro_ms)),
        ("ideal_uniform_gen_ms", Value::F64(ideal_ms)),
        ("microshard_vs_ideal", Value::F64(micro_ms / ideal_ms)),
        ("steals", Value::U64(stats.steals)),
        ("resplits", Value::U64(stats.resplits)),
        ("speculations", Value::U64(stats.speculations)),
        ("duplicate_replies", Value::U64(stats.duplicate_replies)),
        ("joint_small_generation", joint_small_generation()),
    ])
}

/// Candidates per generation of the small-generation joint workload —
/// deliberately *half* the fleet, so the coordinator picks `joint_unit`
/// shards (whole-candidate shards would strand two of the four workers).
const JOINT_POPULATION: usize = 2;
/// Outer accelerator generations of the joint workload.
const JOINT_ITERATIONS: usize = 4;

/// Runs one sharded joint search over a fresh uniform 4-worker fleet.
/// The population is below the fleet size, so the coordinator shards
/// it per `(candidate, layer shape)` unit. Returns per-generation wall-clock,
/// the scheduler counters and the best EDP found.
fn joint_run() -> (Vec<f64>, naas::SchedulerStats, f64) {
    let envelope = naas_accel::ResourceConstraint::from_design(&naas_accel::baselines::eyeriss());
    let mut cfg = naas::JointConfig::quick(29);
    cfg.accel.population = JOINT_POPULATION;
    cfg.accel.iterations = JOINT_ITERATIONS;
    // A mapping budget near the paper's scale, so one layer search
    // carries real work — the regime where sub-candidate sharding pays.
    cfg.accel.mapping = MappingSearchConfig {
        population: 32,
        iterations: 100,
        seed: 7,
        ..MappingSearchConfig::default()
    };
    cfg.accel.threads = 1;

    let addrs: Vec<String> = (0..4).map(|_| spawn_worker(0)).collect();
    let mut coordinator =
        naas::DistributedCoordinator::connect_joint(&addrs).expect("fleet reachable");

    let engine = naas::CoSearchEngine::new(1);
    let model = naas_cost::CostModel::new();
    let accuracy = naas_nas::AccuracyModel::default();
    let mut state = naas::joint_search_init(&envelope, &cfg);
    let mut gens = Vec::new();
    loop {
        let start = Instant::now();
        if !coordinator.step_joint(&engine, &model, &accuracy, &mut state) {
            break;
        }
        gens.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let best = state.into_result().expect("the joint search finds a pair");
    (gens, coordinator.scheduler_stats(), best.edp)
}

/// The small-generation joint workload: a 2-candidate joint generation
/// on a 4-worker fleet. Whole-candidate shards would idle half the
/// fleet, so the coordinator decomposes each candidate into
/// per-layer-shape `joint_unit` shards and saturates all four workers.
fn joint_small_generation() -> Value {
    eprintln!("bench_json: distributed_throughput — joint small generation (joint_unit shards)...");
    let (gens, stats, best_edp) = joint_run();
    obj(vec![
        ("workers", Value::U64(4)),
        ("population", Value::U64(JOINT_POPULATION as u64)),
        ("generations_timed", Value::U64(gens.len() as u64)),
        ("joint_unit_gen_ms", Value::F64(warm_median_ms(&gens))),
        ("joint_units", Value::U64(stats.joint_units)),
        // Each unit is one layer-shape mapping search, shipped once per
        // candidate: the fleet's whole mapping work.
        (
            "layer_searches_per_gen",
            Value::F64(stats.joint_units as f64 / gens.len() as f64),
        ),
        ("best_edp", Value::F64(best_edp)),
    ])
}

/// Candidates per generation of the `pareto_search` workload.
const PARETO_POPULATION: usize = 16;
/// Generations of the `pareto_search` workload.
const PARETO_ITERATIONS: usize = 6;

/// Runs one in-process `cifar-eyeriss` accelerator search to completion
/// under the given objective policy, returning the final state.
fn objective_run(
    engine: &naas::CoSearchEngine,
    objectives: naas::ObjectivePolicy,
) -> naas::AccelSearchState {
    let scenario = naas_engine::scenario::find("cifar-eyeriss").expect("registered scenario");
    let job = scenario.resolve().expect("scenario resolves");
    let mut cfg = naas::AccelSearchConfig::quick(17);
    cfg.population = PARETO_POPULATION;
    cfg.iterations = PARETO_ITERATIONS;
    cfg.mapping = MappingSearchConfig::quick(7);
    cfg.threads = 1;
    cfg.objectives = objectives;
    let model = naas_cost::CostModel::new();
    let mut state = naas::accel_search_init(&job.constraint, &cfg, &[]);
    while naas::accel_search_step(engine, &model, &job.networks, &mut state) {}
    state
}

/// The archive-overhead workload (ISSUE 8): the same accelerator search
/// at the same seed and budget, scalar objectives versus the Pareto
/// archive. No memo outlives its candidate, so every run — timed or
/// not — does the same cold mapping work; the scalarized trajectory is
/// identical in both modes, and the delta is the price of dominance
/// inserts plus hypervolume truncation.
fn pareto_search() -> Value {
    let engine = naas::CoSearchEngine::new(1);
    let scalar_ms = median_ms(3, || {
        std::hint::black_box(objective_run(&engine, naas::ObjectivePolicy::Scalar));
    });
    let pareto_ms = median_ms(3, || {
        std::hint::black_box(objective_run(&engine, naas::ObjectivePolicy::Pareto));
    });
    let state = objective_run(&engine, naas::ObjectivePolicy::Pareto);
    let archive = state.archive().expect("pareto mode keeps an archive");
    obj(vec![
        ("population", Value::U64(PARETO_POPULATION as u64)),
        ("iterations", Value::U64(PARETO_ITERATIONS as u64)),
        ("scalar_search_ms", Value::F64(scalar_ms)),
        ("pareto_search_ms", Value::F64(pareto_ms)),
        (
            "archive_overhead",
            Value::F64(if scalar_ms > 0.0 {
                pareto_ms / scalar_ms
            } else {
                0.0
            }),
        ),
        ("front_size", Value::U64(archive.len() as u64)),
        ("archive_inserts", Value::U64(archive.inserts)),
        ("archive_rejections", Value::U64(archive.rejections)),
        ("hypervolume", Value::F64(archive.hypervolume())),
    ])
}

/// The trajectory number of a `BENCH_<n>.json` file name.
fn bench_number(name: &str) -> Option<u64> {
    name.strip_prefix("BENCH_")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// One past the highest `BENCH_<n>.json` in `dir` (`BENCH_1.json` when
/// there is none).
fn next_bench_path(dir: &Path) -> String {
    let highest = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| bench_number(&entry.file_name().to_string_lossy()))
        .max()
        .unwrap_or(0);
    format!("BENCH_{}.json", highest + 1)
}

/// The summary's `bench` label: the output file's stem.
fn bench_label(out: &str) -> String {
    Path::new(out).file_stem().map_or_else(
        || out.to_string(),
        |stem| stem.to_string_lossy().into_owned(),
    )
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| next_bench_path(Path::new(".")));

    eprintln!("bench_json: timing mapping_throughput workloads...");
    let mapping = mapping_throughput();
    eprintln!("bench_json: timing mapping_draw_stages...");
    let stages = mapping_draw_stages();
    eprintln!("bench_json: timing distributed_throughput workloads...");
    let distributed = distributed_throughput();
    eprintln!("bench_json: timing pareto_search workload...");
    let pareto = pareto_search();

    let summary = obj(vec![
        ("bench", Value::Str(bench_label(&out))),
        (
            "description",
            Value::Str(
                "median wall-clock ms of the mapping_throughput, \
                 distributed_throughput (straggler + small-generation joint_unit \
                 workloads) and pareto_search benchmark workloads (see \
                 crates/bench/benches/, naas::distributed and naas::pareto); \
                 mapping_draw_stages is median thread-CPU us per inner-search draw"
                    .to_string(),
            ),
        ),
        ("mapping_throughput", mapping),
        ("mapping_draw_stages", stages),
        ("distributed_throughput", distributed),
        ("pareto_search", pareto),
    ]);
    let text = serde_json::to_string_pretty(&summary).expect("value serialization is infallible");
    std::fs::write(&out, format!("{text}\n")).unwrap_or_else(|e| {
        eprintln!("bench_json: cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("{text}");
    eprintln!("bench_json: wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_name_and_label_follow_the_trajectory() {
        assert_eq!(bench_number("BENCH_9.json"), Some(9));
        assert_eq!(bench_number("BENCH_12.json"), Some(12));
        assert_eq!(bench_number("BENCH_x.json"), None);
        assert_eq!(bench_number("BENCHMARK.json"), None);

        let dir = std::env::temp_dir().join(format!("bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_bench_path(&dir), "BENCH_1.json");
        for name in ["BENCH_7.json", "BENCH_10.json", "BENCHMARK.json"] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        assert_eq!(next_bench_path(&dir), "BENCH_11.json");
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(bench_label("BENCH_11.json"), "BENCH_11");
        assert_eq!(bench_label("out/nightly.json"), "nightly");
    }

    /// The thread-CPU clock resolves far below a scheduler tick: spinning
    /// on it, every step is well under a millisecond (a tick-based clock
    /// steps by a whole 4 ms tick after its first, partial step).
    #[test]
    fn thread_cpu_clock_steps_below_a_scheduler_tick() {
        let mut last = thread_cpu_ns();
        for _ in 0..3 {
            let now = loop {
                let now = thread_cpu_ns();
                if now != last {
                    break now;
                }
            };
            assert!(now - last < 1_000_000, "step of {} ns", now - last);
            last = now;
        }
    }
}
