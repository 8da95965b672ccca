//! The three workloads. Each iteration sets up from nothing (fresh
//! engines, empty memo caches, a freshly spawned in-process fleet),
//! runs one complete search or job mix through the program's public
//! API, checks the outputs, and tears everything down again.
//!
//! * `accel_local` — the paper's Fig. 5 `mobile-eyeriss` search on a
//!   2-thread `CoSearchEngine` through `accel_search_step`, saving a
//!   checkpoint after every generation like `run --checkpoint F
//!   --every 1`.
//! * `accel_fleet` — the same search through `DistributedCoordinator`
//!   over 2 single-thread TCP workers.
//! * `gateway_mixed` — a `GatewayService` over a `SharedCoordinator` of
//!   2 workers; tenants `arch` (accel jobs) and `nas` (joint jobs) each
//!   drive one closed-loop client connection.
//!
//! With a tracer attached, the iteration records spans around every call
//! into a layer; without one it makes exactly the calls a user of the
//! library makes.

use crate::fleet::{serve, spawn_worker, stop_all, Served, ServiceStats, TimedService};
use crate::host::{process_cpu_s, quantile, thread_cpu_ns};
use crate::trace::{blocking_path, span, Open, Span, Tracer};
use naas::accel_search::evaluate_candidate;
use naas::service::{BatchEvalService, ServiceConfig};
use naas::{
    accel_commit_generation, accel_sample_generation, accel_search_init, accel_search_step,
    AccelSearchConfig, AccelSearchState, CoSearchEngine, DistributedCoordinator, GatewayConfig,
    GatewayService, JointConfig, ShardPlan, SharedCoordinator,
};
use naas_cost::CostModel;
use naas_engine::telemetry::metrics;
use naas_engine::{checkpoint, parallel_map, scenario, CacheStats, RemoteWorker, Scenario};
use naas_nas::NasConfig;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine pool size of every in-process engine (the coordinator's, the
/// local search's, the gateway's).
pub const THREADS: usize = 2;
/// In-process workers per fleet, one thread each.
pub const WORKERS: usize = 2;
/// The accel search scenario: MobileNetV2, SqueezeNet and MnasNet in
/// the Eyeriss envelope, warm-started from Eyeriss.
const SCENARIO: &str = "mobile-eyeriss";
/// Joint jobs take only their envelope (Eyeriss) from the scenario; the
/// NAS space supplies the workload, so the cheapest Eyeriss scenario.
const JOINT_SCENARIO: &str = "cifar-eyeriss";
/// A gateway job that has not finished by then counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// The unit label of an `accel_fleet` search.
pub const FLEET_UNIT: &str = "fleet search";
/// Closed-loop tenants poll their job's status at this period.
const POLL: Duration = Duration::from_millis(10);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AccelLocal,
    AccelFleet,
    GatewayMixed,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::AccelLocal,
        Workload::AccelFleet,
        Workload::GatewayMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AccelLocal => "accel_local",
            Workload::AccelFleet => "accel_fleet",
            Workload::GatewayMixed => "gateway_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Population × generations of an accelerator search and of its inner
/// mapping search.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub population: usize,
    pub iterations: usize,
    pub map_population: usize,
    pub map_iterations: usize,
}

/// Search budgets of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// `accel_local` / `accel_fleet`.
    pub accel: Sizes,
    /// Gateway accel jobs (tenant `arch`).
    pub arch: Sizes,
    /// Gateway joint jobs' outer search (tenant `nas`).
    pub joint: Sizes,
    /// Gateway joint jobs' NAS population × generations.
    pub nas: (usize, usize),
    /// Closed-loop jobs each tenant runs per iteration.
    pub jobs_per_tenant: usize,
}

impl Budget {
    /// The measured budget: the paper's (Fig. 5) for the accel search,
    /// the CLI `quick` preset for gateway accel jobs, and accel 8 × 4 /
    /// NAS 16 × 8 / default mapping budget for joint jobs.
    pub fn paper() -> Budget {
        Budget {
            accel: Sizes {
                population: 20,
                iterations: 15,
                map_population: 16,
                map_iterations: 6,
            },
            arch: Sizes {
                population: 10,
                iterations: 8,
                map_population: 12,
                map_iterations: 4,
            },
            joint: Sizes {
                population: 8,
                iterations: 4,
                map_population: 16,
                map_iterations: 6,
            },
            nas: (16, 8),
            jobs_per_tenant: 3,
        }
    }

    /// A budget small enough for the self-test.
    pub fn tiny() -> Budget {
        let small = Sizes {
            population: 3,
            iterations: 2,
            map_population: 4,
            map_iterations: 2,
        };
        Budget {
            accel: small,
            arch: small,
            joint: small,
            nas: (4, 2),
            jobs_per_tenant: 1,
        }
    }
}

/// The accel search configuration for `sizes`, as the CLI builds it.
pub fn accel_config(sizes: Sizes, seed: u64) -> AccelSearchConfig {
    let mut cfg = AccelSearchConfig::paper(seed);
    cfg.population = sizes.population;
    cfg.iterations = sizes.iterations;
    cfg.mapping.population = sizes.map_population;
    cfg.mapping.iterations = sizes.map_iterations;
    cfg.mapping.seed = seed;
    cfg.threads = THREADS;
    cfg
}

/// The joint search configuration of a gateway `nas` job.
pub fn joint_config(budget: &Budget, seed: u64) -> JointConfig {
    JointConfig {
        accel: accel_config(budget.joint, seed),
        nas: NasConfig {
            population: budget.nas.0,
            generations: budget.nas.1,
            seed,
            ..NasConfig::default()
        },
    }
}

/// Everything an iteration needs to know.
pub struct Ctx {
    pub seed: u64,
    pub budget: Budget,
    /// Alter one result after the program returns it, to prove the
    /// checks catch a wrong answer.
    pub corrupt: bool,
    /// Checkpoint file of the accel workloads.
    pub checkpoint: PathBuf,
}

/// One checked unit of work: a whole search, or one gateway job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Unit {
    pub label: String,
    /// What must be identical across iterations, traced or not (and,
    /// on `accel_fleet`, identical to `accel_local`).
    pub summary: String,
    /// The design's simulated EDP (cycles·nJ; geomean over networks for
    /// accel searches).
    pub best_edp: Option<f64>,
    /// Why the unit failed, if it did.
    pub error: Option<String>,
}

impl Unit {
    fn failed(label: impl Into<String>, error: String) -> Unit {
        Unit {
            label: label.into(),
            summary: String::new(),
            best_edp: None,
            error: Some(error),
        }
    }
}

/// What one iteration measured.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Iteration {
    /// The seed the iteration's inputs were made from.
    pub seed: u64,
    pub traced: bool,
    pub setup_s: f64,
    pub search_s: f64,
    pub cpu_s: f64,
    /// `VmHWM` of the process that ran the iteration, MiB.
    pub peak_rss_mb: f64,
    pub units: Vec<Unit>,
    /// Per-layer metrics (traced iterations only).
    pub layers: BTreeMap<String, f64>,
    /// Traced iterations: summed self time per layer span name on the
    /// blocking path, seconds.
    pub blocking: Option<BTreeMap<String, f64>>,
}

/// Runs one iteration of `workload`, traced when `tracer` is given,
/// and returns it with its spans. An error is a set-up or tear-down
/// failure.
pub fn run_iteration(
    workload: Workload,
    ctx: &Ctx,
    tracer: Option<Arc<Tracer>>,
) -> Result<(Iteration, Vec<Span>), String> {
    match workload {
        Workload::AccelLocal => accel_iteration(ctx, false, tracer),
        Workload::AccelFleet => accel_iteration(ctx, true, tracer),
        Workload::GatewayMixed => gateway_iteration(ctx, tracer),
    }
}

/// Sets up the workload's environment and tears it down again; returns
/// the set-up seconds.
pub fn setup_only(workload: Workload, ctx: &Ctx) -> Result<f64, String> {
    let started = Instant::now();
    match workload {
        Workload::AccelLocal | Workload::AccelFleet => {
            let env = AccelEnv::setup(ctx, workload == Workload::AccelFleet, None)?;
            let setup_s = started.elapsed().as_secs_f64();
            env.teardown()?;
            Ok(setup_s)
        }
        Workload::GatewayMixed => {
            let env = GatewayEnv::setup(None)?;
            let setup_s = started.elapsed().as_secs_f64();
            env.teardown()?;
            Ok(setup_s)
        }
    }
}

// ---------------------------------------------------------------------------
// Process-global telemetry counters, read as deltas around an iteration.
// The in-process fleet shares the registry, so these are coordinator +
// worker totals.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    evaluations: u64,
    resamples: u64,
    deltas_gossiped: u64,
    joint_units: u64,
    job_generations: u64,
    jobs_rejected: u64,
    arch_generations: u64,
    nas_generations: u64,
}

impl Counters {
    fn read() -> Counters {
        let m = metrics();
        Counters {
            evaluations: m.pipeline.evaluations.get(),
            resamples: m.pipeline.resamples.get(),
            deltas_gossiped: m.coordinator.deltas_gossiped.get(),
            joint_units: m.coordinator.joint_units.get(),
            job_generations: m.gateway.job_generations.get(),
            jobs_rejected: m.gateway.jobs_rejected.get(),
            arch_generations: m.gateway.tenant_generations.get("arch").get(),
            nas_generations: m.gateway.tenant_generations.get("nas").get(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            evaluations: self.evaluations - before.evaluations,
            resamples: self.resamples - before.resamples,
            deltas_gossiped: self.deltas_gossiped - before.deltas_gossiped,
            joint_units: self.joint_units - before.joint_units,
            job_generations: self.job_generations - before.job_generations,
            jobs_rejected: self.jobs_rejected - before.jobs_rejected,
            arch_generations: self.arch_generations - before.arch_generations,
            nas_generations: self.nas_generations - before.nas_generations,
        }
    }
}

/// Metrics every traced workload reports: pipeline counters and the
/// summed cache counters of every engine in the process.
fn common_layers(layers: &mut Layers, c: Counters, caches: &[CacheStats]) {
    put(layers, "pipeline.evaluations", c.evaluations as f64);
    put(layers, "pipeline.resamples", c.resamples as f64);
    put(
        layers,
        "pipeline.useful_ratio",
        ratio(
            c.evaluations.saturating_sub(c.resamples) as f64,
            c.evaluations as f64,
        ),
    );
    let hits: u64 = caches.iter().map(|s| s.hits).sum();
    let misses: u64 = caches.iter().map(|s| s.misses).sum();
    put(layers, "cache.hits", hits as f64);
    put(layers, "cache.misses", misses as f64);
    put(
        layers,
        "cache.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    put(
        layers,
        "cache.entries",
        caches.iter().map(|s| s.entries).sum::<u64>() as f64,
    );
}

/// Worker-side metrics summed over a fleet.
fn service_layers(layers: &mut Layers, stats: &[ServiceStats], search_s: f64) {
    let shard_secs: Vec<f64> = stats.iter().flat_map(|s| s.shard_secs.clone()).collect();
    let busy: f64 = shard_secs.iter().sum();
    put(
        layers,
        "service.requests",
        stats.iter().map(|s| s.requests).sum::<u64>() as f64,
    );
    put(
        layers,
        "service.shard_ms_p50",
        quantile(&shard_secs, 0.5) * 1e3,
    );
    put(
        layers,
        "service.shard_ms_p95",
        quantile(&shard_secs, 0.95) * 1e3,
    );
    put(layers, "service.shard_busy_s", busy);
    put(
        layers,
        "service.shard_cpu_s",
        stats.iter().map(|s| s.shard_cpu_s).sum(),
    );
    put(
        layers,
        "service.reply_bytes",
        stats.iter().map(|s| s.reply_bytes).sum::<u64>() as f64,
    );
    put(
        layers,
        "distributed.idle_frac",
        1.0 - ratio(busy, WORKERS as f64 * search_s),
    );
}

/// Per-layer metric values by name.
type Layers = BTreeMap<String, f64>;

/// Inserts a per-layer metric.
fn put(layers: &mut Layers, name: &str, value: f64) {
    layers.insert(name.to_string(), value);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn durations<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    spans.iter().filter(move |s| s.name == name).map(Span::secs)
}

/// Flips the lowest mantissa bit of the number at `path` inside `value`.
fn corrupt_f64(value: &mut Value, path: &[&str]) {
    let Some((head, rest)) = path.split_first() else {
        if let Value::F64(x) = value {
            *x = f64::from_bits(x.to_bits() ^ 1);
        }
        return;
    };
    if let Value::Object(fields) = value {
        for (key, field) in fields {
            if key == head {
                corrupt_f64(field, rest);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// accel_local and accel_fleet
// ---------------------------------------------------------------------------

/// What `naas-search run --checkpoint` writes: the search state with
/// its scenario and the shard plan of a fleet run.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SearchCheckpoint {
    scenario: Scenario,
    state: AccelSearchState,
    shards: Option<ShardPlan>,
}

struct Fleet {
    workers: Vec<Served<TimedService>>,
    coordinator: DistributedCoordinator,
    trace_id: Arc<AtomicU64>,
}

impl Fleet {
    fn spawn(scenario: &Scenario, tracer: Option<Arc<Tracer>>) -> Result<Fleet, String> {
        let trace_id = Arc::new(AtomicU64::new(0));
        let workers = (0..WORKERS)
            .map(|_| spawn_worker(tracer.clone(), Arc::clone(&trace_id)))
            .collect::<Result<Vec<_>, _>>()?;
        let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
        let coordinator = DistributedCoordinator::connect(&addrs, scenario)
            .map_err(|e| format!("fleet connect: {e}"))?;
        Ok(Fleet {
            workers,
            coordinator,
            trace_id,
        })
    }

    fn teardown(self) -> Result<(), String> {
        drop(self.coordinator);
        stop_all(self.workers)
    }
}

struct AccelEnv {
    job: naas_engine::EvalJob,
    model: CostModel,
    engine: CoSearchEngine,
    state: AccelSearchState,
    fleet: Option<Fleet>,
}

impl AccelEnv {
    fn setup(ctx: &Ctx, fleet: bool, tracer: Option<Arc<Tracer>>) -> Result<AccelEnv, String> {
        let scenario =
            scenario::find(SCENARIO).ok_or_else(|| format!("scenario {SCENARIO} missing"))?;
        let job = scenario.resolve().map_err(|e| e.to_string())?;
        let model = CostModel::new();
        let engine = CoSearchEngine::new(THREADS);
        let cfg = accel_config(ctx.budget.accel, ctx.seed);
        let seeds = if job.scenario.warm_start {
            vec![job.baseline.clone()]
        } else {
            Vec::new()
        };
        let state = accel_search_init(&job.constraint, &cfg, &seeds);
        let fleet = if fleet {
            Some(Fleet::spawn(&job.scenario, tracer)?)
        } else {
            None
        };
        Ok(AccelEnv {
            job,
            model,
            engine,
            state,
            fleet,
        })
    }

    fn teardown(self) -> Result<(), String> {
        self.fleet.map_or(Ok(()), Fleet::teardown)
    }
}

/// The canonical form of an accel search's outcome: design card,
/// reward bits and per-generation history.
fn accel_summary(state: &AccelSearchState) -> Result<(String, f64), String> {
    let best = state.best().ok_or("the search found no valid design")?;
    let history = serde_json::to_string(&state.history().to_vec()).map_err(|e| e.to_string())?;
    Ok((
        format!(
            "{}\nreward_bits {:016x}\nhistory {history}",
            best.accelerator.design_card(),
            best.reward.to_bits()
        ),
        best.reward,
    ))
}

/// One generation through the `accel_search_step_with` seam, with spans
/// around sampling, the pooled candidate evaluations and the commit.
/// It makes the calls `accel_search_step` makes, in the same order.
#[allow(clippy::too_many_arguments)]
fn traced_local_step(
    tracer: &Tracer,
    generation: u64,
    parent: Option<u64>,
    engine: &CoSearchEngine,
    model: &CostModel,
    networks: &[naas::prelude::Network],
    state: &mut AccelSearchState,
    decode_rejects: &mut usize,
) -> bool {
    let t = Some(tracer);
    let Some(sampled) = span(t, "accel_search.sample", generation, parent, |_| {
        accel_sample_generation(state)
    }) else {
        return false;
    };
    *decode_rejects += sampled.rejected.len();
    let cfg = state.config;
    let results = span(t, "pool.evaluate", generation, parent, |pool| {
        parallel_map(engine.threads(), &sampled.slots, |_, (_, accel)| {
            span(t, "mapping_search.candidate", generation, pool, |_| {
                evaluate_candidate(engine, model, accel, networks, &cfg.mapping, cfg.reward)
            })
        })
    });
    span(t, "accel_search.commit", generation, parent, |_| {
        accel_commit_generation(state, sampled, results);
        state.cache_stats = engine.cache_stats();
    });
    true
}

fn accel_iteration(
    ctx: &Ctx,
    fleet: bool,
    tracer: Option<Arc<Tracer>>,
) -> Result<(Iteration, Vec<Span>), String> {
    let tr = tracer.as_deref();
    let setup_started = Instant::now();
    let env = AccelEnv::setup(ctx, fleet, tracer.clone())?;
    let setup_s = setup_started.elapsed().as_secs_f64();
    let AccelEnv {
        job,
        model,
        engine,
        mut state,
        mut fleet,
    } = env;

    let counters = Counters::read();
    let mut coordinator_cpu_ns = 0u64;
    let mut decode_rejects = 0usize;
    let mut step_error = None;
    let cpu0 = process_cpu_s();
    let started = Instant::now();
    let root = tr.map(|t| t.start("search", 0, None));
    let root_id = root.as_ref().map(Open::id);
    while !state.is_done() {
        let generation = state.iteration as u64 + 1;
        span(tr, "accel_search.generation", generation, root_id, |gen| {
            let advanced = match (&mut fleet, tr) {
                (None, None) => accel_search_step(&engine, &model, &job.networks, &mut state),
                (None, Some(t)) => traced_local_step(
                    t,
                    generation,
                    gen,
                    &engine,
                    &model,
                    &job.networks,
                    &mut state,
                    &mut decode_rejects,
                ),
                (Some(f), None) => f
                    .coordinator
                    .step(&engine, &model, &job.networks, &mut state),
                (Some(f), Some(_)) => {
                    f.trace_id.store(generation, Ordering::Relaxed);
                    span(tr, "distributed.step", generation, gen, |_| {
                        let cpu = thread_cpu_ns();
                        let advanced =
                            f.coordinator
                                .step(&engine, &model, &job.networks, &mut state);
                        coordinator_cpu_ns += thread_cpu_ns().saturating_sub(cpu);
                        advanced
                    })
                }
            };
            if advanced {
                span(tr, "checkpoint.save", generation, gen, |_| {
                    let snapshot = SearchCheckpoint {
                        scenario: job.scenario.clone(),
                        state: state.clone(),
                        shards: fleet.as_ref().map(|f| f.coordinator.plan()),
                    };
                    if let Err(e) = checkpoint::save(&ctx.checkpoint, &snapshot) {
                        step_error = Some(format!("checkpoint save: {e}"));
                    }
                });
            } else {
                step_error = Some(format!("generation {generation} did not advance"));
            }
        });
        if step_error.is_some() {
            break;
        }
    }
    let search_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    if let (Some(t), Some(root)) = (tr, root) {
        t.end(root);
    }
    let counters = Counters::read().since(counters);

    let mut caches = vec![engine.cache_stats()];
    let mut service_stats = Vec::new();
    let mut scheduler = None;
    if let Some(f) = &fleet {
        for w in &f.workers {
            caches.push(w.service.inner().engine().cache_stats());
            service_stats.push(w.service.stats());
        }
        scheduler = Some(f.coordinator.scheduler_stats());
    }
    if let Some(f) = fleet {
        f.teardown()?;
    }

    if ctx.corrupt {
        let mut value = serde_json::to_value(&state);
        corrupt_f64(&mut value, &["best", "reward"]);
        state = serde_json::from_value(&value).map_err(|e| e.to_string())?;
    }
    let label = if scheduler.is_some() {
        FLEET_UNIT
    } else {
        "local search"
    };
    let unit = match (step_error, accel_summary(&state)) {
        (Some(e), _) | (None, Err(e)) => Unit::failed(label, e),
        (None, Ok((summary, best_edp))) => {
            let error = match checkpoint::load::<SearchCheckpoint>(&ctx.checkpoint) {
                Err(e) => Some(format!("checkpoint reload: {e}")),
                Ok(loaded) => {
                    let on_disk =
                        serde_json::to_string(&loaded.state).map_err(|e| e.to_string())?;
                    let in_memory = serde_json::to_string(&state).map_err(|e| e.to_string())?;
                    (on_disk != in_memory).then(|| {
                        "the last checkpoint reloads different from the final state".to_string()
                    })
                }
            };
            Unit {
                label: label.to_string(),
                summary,
                best_edp: Some(best_edp),
                error,
            }
        }
    };

    let mut iteration = Iteration {
        traced: tr.is_some(),
        setup_s,
        search_s,
        cpu_s,
        units: vec![unit],
        ..Iteration::default()
    };
    let Some(t) = tr else {
        return Ok((iteration, Vec::new()));
    };
    let spans = t.take();
    let layers = &mut iteration.layers;
    common_layers(layers, counters, &caches);
    let gens: Vec<f64> = durations(&spans, "accel_search.generation").collect();
    put(
        layers,
        "accel_search.gen_ms_p50",
        quantile(&gens, 0.5) * 1e3,
    );
    let saves: Vec<f64> = durations(&spans, "checkpoint.save").collect();
    put(
        layers,
        "checkpoint.save_ms_p50",
        quantile(&saves, 0.5) * 1e3,
    );
    put(
        layers,
        "checkpoint.bytes",
        std::fs::metadata(&ctx.checkpoint).map_or(0.0, |m| m.len() as f64),
    );
    match scheduler {
        None => {
            put(
                layers,
                "accel_search.sample_ms",
                durations(&spans, "accel_search.sample").sum::<f64>() * 1e3,
            );
            put(
                layers,
                "accel_search.commit_ms",
                durations(&spans, "accel_search.commit").sum::<f64>() * 1e3,
            );
            put(layers, "accel_search.decode_rejects", decode_rejects as f64);
            let candidates: Vec<f64> = durations(&spans, "mapping_search.candidate").collect();
            let busy: f64 = candidates.iter().sum();
            put(
                layers,
                "mapping_search.candidate_ms_p50",
                quantile(&candidates, 0.5) * 1e3,
            );
            put(
                layers,
                "mapping_search.candidate_ms_p95",
                quantile(&candidates, 0.95) * 1e3,
            );
            put(layers, "mapping_search.busy_s", busy);
            put(
                layers,
                "mapping_search.us_per_eval",
                ratio(busy * 1e6, counters.evaluations as f64),
            );
            let pool_wall: f64 = durations(&spans, "pool.evaluate").sum();
            put(
                layers,
                "pool.parallel_eff",
                ratio(busy, engine.threads() as f64 * pool_wall),
            );
        }
        Some(stats) => {
            let steps: Vec<f64> = durations(&spans, "distributed.step").collect();
            put(
                layers,
                "distributed.step_ms_p50",
                quantile(&steps, 0.5) * 1e3,
            );
            put(layers, "distributed.microshards", stats.microshards as f64);
            put(layers, "distributed.steals", stats.steals as f64);
            put(layers, "distributed.reissues", stats.reissues as f64);
            put(
                layers,
                "distributed.deltas_gossiped",
                counters.deltas_gossiped as f64,
            );
            put(
                layers,
                "distributed.joint_units",
                counters.joint_units as f64,
            );
            put(
                layers,
                "distributed.coordinator_cpu_s",
                coordinator_cpu_ns as f64 * 1e-9,
            );
            service_layers(layers, &service_stats, search_s);
        }
    }
    iteration.blocking = root_id.map(|root| blocking_path(&spans, root));
    Ok((iteration, spans))
}

// ---------------------------------------------------------------------------
// gateway_mixed
// ---------------------------------------------------------------------------

/// One job a tenant submits.
struct JobSpec {
    label: String,
    tenant: &'static str,
    kind: &'static str,
    scenario: &'static str,
    /// The `config` object of the submission.
    config: Value,
}

/// The two tenants' job lists. Job seeds derive from the workload
/// seed: accel job k uses `seed + k`, joint job k `seed + 100 + k`.
fn job_plan(ctx: &Ctx) -> [Vec<JobSpec>; 2] {
    let n = ctx.budget.jobs_per_tenant as u64;
    let arch = (0..n)
        .map(|k| JobSpec {
            label: format!("arch#{}", k + 1),
            tenant: "arch",
            kind: "accel",
            scenario: SCENARIO,
            config: serde_json::to_value(&accel_config(ctx.budget.arch, ctx.seed.wrapping_add(k))),
        })
        .collect();
    let nas = (0..n)
        .map(|k| JobSpec {
            label: format!("nas#{}", k + 1),
            tenant: "nas",
            kind: "joint",
            scenario: JOINT_SCENARIO,
            config: serde_json::to_value(&joint_config(
                &ctx.budget,
                ctx.seed.wrapping_add(100 + k),
            )),
        })
        .collect();
    [arch, nas]
}

struct GatewayEnv {
    workers: Vec<Served<TimedService>>,
    shared: SharedCoordinator,
    inner: Arc<BatchEvalService>,
    gateway: Served<GatewayService>,
    clients: Vec<RemoteWorker>,
}

impl GatewayEnv {
    fn setup(tracer: Option<Arc<Tracer>>) -> Result<GatewayEnv, String> {
        let trace_id = Arc::new(AtomicU64::new(0));
        let workers = (0..WORKERS)
            .map(|_| spawn_worker(tracer.clone(), Arc::clone(&trace_id)))
            .collect::<Result<Vec<_>, _>>()?;
        let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
        let coordinator = DistributedCoordinator::connect_fleet(&addrs)
            .map_err(|e| format!("fleet connect: {e}"))?;
        let shared = SharedCoordinator::new(coordinator);
        let inner = Arc::new(
            BatchEvalService::new(ServiceConfig {
                threads: THREADS,
                ..ServiceConfig::default()
            })
            .map_err(|e| format!("gateway service: {e}"))?,
        );
        let gateway = serve(Arc::new(GatewayService::start(
            Arc::clone(&inner),
            Some(shared.clone()),
            GatewayConfig::default(),
        )))?;
        let clients = (0..2)
            .map(|_| {
                let mut client = RemoteWorker::new(gateway.addr.clone());
                client.connect().map(|()| client)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("tenant connect: {e}"))?;
        Ok(GatewayEnv {
            workers,
            shared,
            inner,
            gateway,
            clients,
        })
    }

    fn teardown(self) -> Result<(), String> {
        drop(self.clients);
        let gateway = self.gateway.stop();
        drop(self.shared);
        drop(self.inner);
        let workers = stop_all(self.workers);
        gateway.and(workers)
    }
}

/// What a tenant saw of one job.
struct JobRun {
    label: String,
    kind: &'static str,
    config: Value,
    submit_s: f64,
    job_s: f64,
    /// The `job_result` payload, or why there is none.
    result: Result<Value, String>,
}

/// One closed-loop tenant: submit, wait for the job to finish, fetch
/// its result, submit the next. Returns the jobs and when the last
/// result arrived.
fn run_tenant(
    client: &mut RemoteWorker,
    jobs: &[JobSpec],
    tracer: Option<&Tracer>,
) -> (Vec<JobRun>, Instant, Option<u64>) {
    let root = tracer.map(|t| t.start("gateway.tenant", 0, None));
    let root_id = root.as_ref().map(Open::id);
    let mut runs = Vec::new();
    for spec in jobs {
        let mut job_span = tracer.map(|t| t.start("gateway.job", 0, root_id));
        let job_id_span = job_span.as_ref().map(Open::id);
        let job_started = Instant::now();
        let mut submit_span = tracer.map(|t| t.start("gateway.submit", 0, job_id_span));
        let submitted = client.call(
            "job_submit",
            vec![
                ("scenario".into(), Value::Str(spec.scenario.into())),
                ("tenant".into(), Value::Str(spec.tenant.into())),
                ("kind".into(), Value::Str(spec.kind.into())),
                ("config".into(), spec.config.clone()),
            ],
        );
        let submit_s = job_started.elapsed().as_secs_f64();
        let job_id = submitted
            .as_ref()
            .ok()
            .and_then(|r| r.get("job_id"))
            .and_then(Value::as_u64);
        if let (Some(t), Some(mut open)) = (tracer, submit_span.take()) {
            open.trace_id = job_id.unwrap_or(0);
            t.end(open);
        }
        let result = match (submitted, job_id) {
            (Err(e), _) => Err(format!("submit: {e}")),
            (Ok(reply), None) => Err(format!("submit answered no job id: {reply:?}")),
            (Ok(_), Some(job_id)) => {
                let waited = span(tracer, "gateway.wait", job_id, job_id_span, |_| {
                    wait_for_job(client, job_id)
                });
                waited.and_then(|()| {
                    span(tracer, "gateway.result", job_id, job_id_span, |_| {
                        client
                            .call("job_result", vec![("job_id".into(), Value::U64(job_id))])
                            .map_err(|e| format!("job_result: {e}"))
                    })
                })
            }
        };
        if let (Some(t), Some(mut open)) = (tracer, job_span.take()) {
            open.trace_id = job_id.unwrap_or(0);
            t.end(open);
        }
        runs.push(JobRun {
            label: spec.label.clone(),
            kind: spec.kind,
            config: spec.config.clone(),
            submit_s,
            job_s: job_started.elapsed().as_secs_f64(),
            result,
        });
    }
    let finished = Instant::now();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.end(root);
    }
    (runs, finished, root_id)
}

/// Polls `job_status` until the job is terminal; `Ok` only for `done`.
fn wait_for_job(client: &mut RemoteWorker, job_id: u64) -> Result<(), String> {
    let deadline = Instant::now() + JOB_TIMEOUT;
    loop {
        let status = client
            .call("job_status", vec![("job_id".into(), Value::U64(job_id))])
            .map_err(|e| format!("job_status: {e}"))?;
        match status.get("status").and_then(Value::as_str) {
            Some("done") => return Ok(()),
            Some(terminal @ ("failed" | "cancelled")) => {
                let why = status.get("error").and_then(Value::as_str).unwrap_or("");
                return Err(format!("job {terminal}: {why}"));
            }
            _ if Instant::now() > deadline => {
                let _ = client.call("job_cancel", vec![("job_id".into(), Value::U64(job_id))]);
                return Err(format!("job timed out after {JOB_TIMEOUT:?}"));
            }
            _ => std::thread::sleep(POLL),
        }
    }
}

/// Re-derives a finished job's best score through the public cost path
/// on a fresh engine: `evaluate_candidate` for an accel job, the
/// mapping-searched cost of the winning subnet for a joint job. Returns
/// the score.
fn check_job(run: &JobRun, result: &Value) -> Result<f64, String> {
    let best = result
        .get("state")
        .and_then(|s| s.get("best"))
        .ok_or("result has no best candidate")?;
    let accel: naas_accel::Accelerator =
        serde_json::from_value(best.get("accelerator").ok_or("best has no accelerator")?)
            .map_err(|e| format!("best accelerator: {e}"))?;
    if result.get("design_card").and_then(Value::as_str) != Some(accel.design_card().as_str()) {
        return Err("design card does not match the best accelerator".into());
    }
    let engine = CoSearchEngine::new(1);
    let model = CostModel::new();
    let (claimed, derived) = if run.kind == "accel" {
        let cfg: AccelSearchConfig =
            serde_json::from_value(&run.config).map_err(|e| e.to_string())?;
        let job = scenario::find(SCENARIO)
            .ok_or("scenario missing")?
            .resolve()
            .map_err(|e| e.to_string())?;
        let eval = evaluate_candidate(
            &engine,
            &model,
            &accel,
            &job.networks,
            &cfg.mapping,
            cfg.reward,
        )
        .ok_or("the best design no longer maps")?;
        (result.get("reward").and_then(Value::as_f64), eval.reward)
    } else {
        let cfg: JointConfig = serde_json::from_value(&run.config).map_err(|e| e.to_string())?;
        let subnet: naas_nas::Subnet =
            serde_json::from_value(best.get("subnet").ok_or("best has no subnet")?)
                .map_err(|e| format!("best subnet: {e}"))?;
        let cost = naas::network_mapping_search_cached(
            &model,
            &subnet.to_network(),
            &accel,
            &cfg.accel.mapping,
            engine.cache(),
        )
        .ok_or("the best subnet no longer maps")?;
        (result.get("edp").and_then(Value::as_f64), cost.edp())
    };
    let claimed = claimed.ok_or("result has no score")?;
    if claimed.to_bits() != derived.to_bits() {
        return Err(format!("score {claimed:e} re-derives as {derived:e}"));
    }
    Ok(claimed)
}

fn gateway_iteration(
    ctx: &Ctx,
    tracer: Option<Arc<Tracer>>,
) -> Result<(Iteration, Vec<Span>), String> {
    let tr = tracer.as_deref();
    let plan = job_plan(ctx);
    let setup_started = Instant::now();
    let mut env = GatewayEnv::setup(tracer.clone())?;
    let setup_s = setup_started.elapsed().as_secs_f64();

    let counters = Counters::read();
    let cpu0 = process_cpu_s();
    let started = Instant::now();
    let tenants: Vec<(Vec<JobRun>, Instant, Option<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = env
            .clients
            .iter_mut()
            .zip(&plan)
            .map(|(client, jobs)| s.spawn(move || run_tenant(client, jobs, tr)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    let (last, last_root) = tenants
        .iter()
        .map(|(_, finished, root)| (*finished, *root))
        .max_by_key(|(finished, _)| *finished)
        .expect("two tenants");
    let search_s = (last - started).as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let counters = Counters::read().since(counters);

    let mut caches = vec![env.inner.engine().cache_stats()];
    let mut service_stats = Vec::new();
    for w in &env.workers {
        caches.push(w.service.inner().engine().cache_stats());
        service_stats.push(w.service.stats());
    }
    let scheduler = env.shared.scheduler_stats();
    env.teardown()?;

    let mut runs: Vec<JobRun> = tenants.into_iter().flat_map(|(runs, _, _)| runs).collect();
    if ctx.corrupt {
        if let Some(Ok(result)) = runs.first_mut().map(|r| &mut r.result) {
            corrupt_f64(result, &["reward"]);
        }
    }
    let mut units = Vec::new();
    let mut subnet_evals = 0u64;
    for run in &runs {
        let unit = match &run.result {
            Err(e) => Unit::failed(run.label.clone(), e.clone()),
            Ok(result) => {
                if run.kind == "joint" {
                    subnet_evals += result
                        .get("evaluations")
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                }
                let summary = serde_json::to_string(result).map_err(|e| e.to_string())?;
                match check_job(run, result) {
                    Ok(best_edp) => Unit {
                        label: run.label.clone(),
                        summary,
                        best_edp: Some(best_edp),
                        error: None,
                    },
                    Err(e) => Unit::failed(run.label.clone(), format!("result check: {e}")),
                }
            }
        };
        units.push(unit);
    }

    let mut iteration = Iteration {
        traced: tr.is_some(),
        setup_s,
        search_s,
        cpu_s,
        units,
        ..Iteration::default()
    };
    let Some(t) = tr else {
        return Ok((iteration, Vec::new()));
    };
    let spans = t.take();
    let layers = &mut iteration.layers;
    common_layers(layers, counters, &caches);
    service_layers(layers, &service_stats, search_s);
    let submits: Vec<f64> = runs.iter().map(|r| r.submit_s).collect();
    let job_secs = |kind: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.job_s)
            .collect()
    };
    put(
        layers,
        "gateway.submit_ms_p50",
        quantile(&submits, 0.5) * 1e3,
    );
    put(
        layers,
        "gateway.accel_job_s_p50",
        quantile(&job_secs("accel"), 0.5),
    );
    put(
        layers,
        "gateway.joint_job_s_p50",
        quantile(&job_secs("joint"), 0.5),
    );
    put(
        layers,
        "gateway.job_generations",
        counters.job_generations as f64,
    );
    put(
        layers,
        "gateway.arch_share",
        ratio(
            counters.arch_generations as f64,
            (counters.arch_generations + counters.nas_generations) as f64,
        ),
    );
    put(
        layers,
        "gateway.jobs_rejected",
        counters.jobs_rejected as f64,
    );
    put(layers, "nas.subnet_evals", subnet_evals as f64);
    put(
        layers,
        "distributed.microshards",
        scheduler.microshards as f64,
    );
    put(layers, "distributed.steals", scheduler.steals as f64);
    put(layers, "distributed.reissues", scheduler.reissues as f64);
    put(
        layers,
        "distributed.deltas_gossiped",
        counters.deltas_gossiped as f64,
    );
    put(
        layers,
        "distributed.joint_units",
        counters.joint_units as f64,
    );
    // The blocking path of a two-tenant makespan is the tenant whose
    // last result arrived last.
    iteration.blocking = last_root.map(|root| blocking_path(&spans, root));
    Ok((iteration, spans))
}

/// The per-layer metrics a workload cannot measure, with the reason.
pub fn absent_reason(workload: Workload, metric: &str) -> Option<&'static str> {
    let prefix = metric.split('.').next().unwrap_or("");
    match workload {
        Workload::AccelLocal => match prefix {
            "distributed" | "service" => Some("no fleet: the search runs in-process"),
            "gateway" | "nas" => Some("no gateway and no joint search on this workload"),
            _ => None,
        },
        Workload::AccelFleet => match metric {
            "accel_search.sample_ms" | "accel_search.commit_ms" | "accel_search.decode_rejects" => {
                Some("sampling and commit run inside DistributedCoordinator::step")
            }
            "pool.parallel_eff" => Some("candidates are evaluated inside the workers"),
            _ => match prefix {
                "mapping_search" => Some("candidates are evaluated inside the workers"),
                "gateway" | "nas" => Some("no gateway and no joint search on this workload"),
                _ => None,
            },
        },
        Workload::GatewayMixed => match metric {
            "distributed.step_ms_p50" | "distributed.coordinator_cpu_s" => Some(
                "fleet steps run on the gateway's executor threads, which the benchmark does not own",
            ),
            "pool.parallel_eff" => Some("candidates are evaluated inside the workers"),
            _ => match prefix {
                "accel_search" => Some("generations run on the gateway's executor threads"),
                "mapping_search" => Some("candidates are evaluated inside the workers"),
                "checkpoint" => Some("gateway jobs are not checkpointed to disk"),
                _ => None,
            },
        },
    }
}

/// Where the accel workloads write their checkpoint.
pub fn checkpoint_path(out_dir: &Path, workload: Workload) -> PathBuf {
    out_dir.join(format!(
        "{}-{}.ckpt.json",
        workload.name(),
        std::process::id()
    ))
}
