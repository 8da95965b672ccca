//! Integration tests of the `naas-engine` subsystem as used by the
//! co-search: thread-count determinism, memo correctness, and
//! checkpoint round-trips.

use naas::prelude::*;
use naas::{accel_search_init, accel_search_step, resume_accel_search, AccelSearchState};
use naas_cost::CostModel;
use naas_engine::{checkpoint, scenario};
use naas_ir::models;

fn quick_cfg(seed: u64, threads: usize) -> AccelSearchConfig {
    let mut cfg = AccelSearchConfig::quick(seed);
    cfg.threads = threads;
    cfg
}

/// Same seed ⇒ byte-identical best design for 1 and ≥4 threads, on a
/// fresh engine or one that already ran the search — the determinism
/// contract of the engine.
#[test]
fn determinism_across_threads_and_cache_warmth() {
    let model = CostModel::new();
    let baseline = naas_accel::baselines::eyeriss();
    let envelope = ResourceConstraint::from_design(&baseline);
    let net = models::cifar_resnet20();
    let nets = std::slice::from_ref(&net);
    let seeds = std::slice::from_ref(&baseline);

    // Cold engines at different thread counts.
    let single_engine = CoSearchEngine::new(1);
    let single = search_accelerator_with(
        &single_engine,
        &model,
        nets,
        &envelope,
        &quick_cfg(404, 1),
        seeds,
        None,
    );
    let multi_engine = CoSearchEngine::new(4);
    let multi = search_accelerator_with(
        &multi_engine,
        &model,
        nets,
        &envelope,
        &quick_cfg(404, 4),
        seeds,
        None,
    );
    assert_eq!(single.best.accelerator, multi.best.accelerator);
    assert_eq!(single.best.reward.to_bits(), multi.best.reward.to_bits());
    assert_eq!(single.history, multi.history);

    // Rerun on the multi-thread engine that already ran this search.
    let warm = search_accelerator_with(
        &multi_engine,
        &model,
        nets,
        &envelope,
        &quick_cfg(404, 4),
        seeds,
        None,
    );
    assert_eq!(warm.best.accelerator, single.best.accelerator);
    assert_eq!(warm.best.reward.to_bits(), single.best.reward.to_bits());
    assert_eq!(warm.history, single.history);
    // No memo outlived its candidate, so the rerun paid every lookup
    // again: the engine's totals exactly doubled.
    assert_eq!(warm.cache_stats.hits, 2 * multi.cache_stats.hits);
    assert_eq!(warm.cache_stats.misses, 2 * multi.cache_stats.misses);
    assert_eq!(warm.cache_stats.entries, 0);
}

/// A memoized evaluation agrees exactly with an independent one: the
/// memo never changes results, only skips repeated layer shapes.
#[test]
fn cached_and_cold_evaluations_agree() {
    let model = CostModel::new();
    let accel = naas_accel::baselines::nvdla_256();
    let net = models::squeezenet(224);
    let cfg = MappingSearchConfig::quick(7);

    let cold_engine = CoSearchEngine::new(1);
    let cold = network_mapping_search_cached(&model, &net, &accel, &cfg, cold_engine.cache())
        .expect("nvdla maps squeezenet");

    // Second engine: compute twice, and compare against an
    // independently computed result.
    let warm_engine = CoSearchEngine::new(4);
    let first = network_mapping_search_cached(&model, &net, &accel, &cfg, warm_engine.cache())
        .expect("maps");
    let warm = network_mapping_search_cached(&model, &net, &accel, &cfg, warm_engine.cache())
        .expect("maps");
    assert_eq!(first, cold);
    assert_eq!(warm, cold);

    // Distinct shapes, not layers: the memo deduplicates within the
    // network, and each call pays for its shapes again.
    let once = cold_engine.cache_stats();
    assert!(once.hits > 0, "repeated shapes must hit the memo");
    assert!(
        (once.misses as usize) < net.len(),
        "expected shape dedup: {} searches for {} layers",
        once.misses,
        net.len()
    );
    let stats = warm_engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (2 * once.hits, 2 * once.misses));
    assert_eq!(stats.entries, 0);
}

/// Save → load → resume reproduces the uninterrupted search bit-exactly.
#[test]
fn checkpoint_roundtrip_resumes_identically() {
    let model = CostModel::new();
    let baseline = naas_accel::baselines::shidiannao();
    let envelope = ResourceConstraint::from_design(&baseline);
    let net = models::cifar_resnet20();
    let nets = std::slice::from_ref(&net);
    let cfg = quick_cfg(909, 2);

    // Reference: uninterrupted run.
    let reference = search_accelerator_seeded(&model, nets, &envelope, &cfg, &[]);

    // Interrupted run: one generation, freeze to JSON, thaw, resume.
    let engine = CoSearchEngine::new(cfg.threads);
    let mut state = accel_search_init(&envelope, &cfg, &[]);
    assert!(accel_search_step(&engine, &model, nets, &mut state));
    let path =
        std::env::temp_dir().join(format!("naas-engine-test-{}.ckpt.json", std::process::id()));
    checkpoint::save(&path, &state).expect("save succeeds");
    let thawed: AccelSearchState = checkpoint::load(&path).expect("load succeeds");
    std::fs::remove_file(&path).ok();
    assert_eq!(thawed, state, "checkpoint must round-trip bit-exactly");

    // Resume on a *fresh* engine (cold cache) — content-derived seeds
    // make the continuation independent of cache state.
    let fresh_engine = CoSearchEngine::new(cfg.threads);
    let resumed = resume_accel_search(&fresh_engine, &model, nets, thawed, None);
    assert_eq!(resumed.best.accelerator, reference.best.accelerator);
    assert_eq!(
        resumed.best.reward.to_bits(),
        reference.best.reward.to_bits()
    );
    assert_eq!(resumed.history, reference.history);
    assert_eq!(resumed.evaluations, reference.evaluations);
}

/// A checkpoint written through a `CheckpointPolicy` during
/// `search_accelerator_with` is loadable and resumable mid-flight.
#[test]
fn policy_checkpoints_are_resumable() {
    let model = CostModel::new();
    let baseline = naas_accel::baselines::eyeriss();
    let envelope = ResourceConstraint::from_design(&baseline);
    let net = models::cifar_resnet20();
    let nets = std::slice::from_ref(&net);
    let cfg = quick_cfg(1234, 0);

    let path = std::env::temp_dir().join(format!(
        "naas-engine-policy-{}.ckpt.json",
        std::process::id()
    ));
    let policy = naas_engine::CheckpointPolicy::every_iteration(&path);
    let engine = CoSearchEngine::new(cfg.threads);
    let full = search_accelerator_with(&engine, &model, nets, &envelope, &cfg, &[], Some(&policy));

    // The last checkpoint on disk is the completed state.
    let final_state: AccelSearchState = checkpoint::load(&path).expect("checkpoint exists");
    std::fs::remove_file(&path).ok();
    assert!(final_state.is_done());
    assert_eq!(
        final_state.into_result().expect("found a design").best,
        full.best
    );
}

/// Scenario → search: the declarative registry resolves into runnable
/// jobs whose searches stay within the declared envelope.
#[test]
fn registered_scenario_runs_end_to_end() {
    let job = scenario::find("cifar-eyeriss")
        .expect("registered")
        .resolve()
        .expect("resolves");
    let model = CostModel::new();
    let mut cfg = AccelSearchConfig::quick(job.scenario.seed);
    cfg.threads = 2;
    let engine = CoSearchEngine::new(cfg.threads);
    let result = search_accelerator_with(
        &engine,
        &model,
        &job.networks,
        &job.constraint,
        &cfg,
        std::slice::from_ref(&job.baseline),
        None,
    );
    assert!(job.constraint.admits(&result.best.accelerator).is_ok());
    assert!(result.best.reward.is_finite());
    assert!(engine.cache_stats().misses > 0);
    assert_eq!(engine.cache_stats().entries, 0);
}
