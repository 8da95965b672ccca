//! Engine scaling baseline: population evaluation throughput at
//! 1/2/4/8 worker threads.
//!
//! This is the perf baseline future PRs (sharding, batch services)
//! measure against: the same 12-candidate population evaluated through
//! `naas::evaluate_candidate` on the engine's work-stealing pool.
//! Thread counts above the machine's core count simply saturate.

use criterion::{criterion_group, criterion_main, Criterion};
use naas::accel_search::evaluate_candidate;
use naas::prelude::*;
use naas::RewardKind;
use naas_engine::parallel_map;
use naas_opt::{EncodingScheme, HardwareEncoder, Optimizer, RandomSearch};

/// A deterministic population of decodable designs within the Eyeriss
/// envelope.
fn population(envelope: &ResourceConstraint, count: usize) -> Vec<Accelerator> {
    let encoder = HardwareEncoder::new(envelope.clone(), EncodingScheme::Importance);
    let mut sampler = RandomSearch::new(encoder.dim(), 7);
    let mut designs = Vec::with_capacity(count);
    while designs.len() < count {
        if let Some(accel) = encoder.decode(&sampler.ask()) {
            designs.push(accel);
        }
    }
    designs
}

fn bench(c: &mut Criterion) {
    let model = CostModel::new();
    let envelope = ResourceConstraint::from_design(&baselines::eyeriss());
    let net = models::cifar_resnet20();
    let nets = std::slice::from_ref(&net);
    let designs = population(&envelope, 12);
    let mapping_cfg = MappingSearchConfig::quick(3);

    let mut group = c.benchmark_group("engine_scaling");
    group.sample_size(10);

    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("population_eval/cold/{threads}t"), |b| {
            b.iter(|| {
                // Every candidate owns its memo, so each iteration runs
                // every mapping search again.
                let engine = CoSearchEngine::new(threads);
                let results = parallel_map(engine.threads(), &designs, |_idx, accel| {
                    evaluate_candidate(
                        &engine,
                        &model,
                        accel,
                        nets,
                        &mapping_cfg,
                        RewardKind::Geomean,
                    )
                });
                std::hint::black_box(results)
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
