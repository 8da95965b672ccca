//! Throughput of the batch-evaluation service: the batched request path
//! (one `evaluate_batch` carrying a whole population) against the scalar
//! per-request path (the same population as one request per mapping).
//!
//! The batched path pays request framing, layer/design resolution and
//! scratch setup once per population instead of once per mapping, and
//! rides `CostModel::evaluate_batch` through the worker's recycled
//! `EvalPipeline` — this bench is the acceptance check that serving a
//! population batched is at least as fast as serving it one call at a
//! time.

use criterion::{criterion_group, criterion_main, Criterion};
use naas::service::{BatchEvalService, ServiceConfig};
use naas::MappingSearchConfig;
use naas_opt::{EncodingScheme, MappingEncoder, Optimizer, RandomSearch};

const POPULATION: usize = 64;

fn bench(c: &mut Criterion) {
    let layer = naas_ir::ConvSpec::conv2d("c", 64, 128, (28, 28), (3, 3), 1, 1).unwrap();
    let accel = naas_accel::baselines::eyeriss();
    let encoder = MappingEncoder::new(accel.connectivity().ndim(), EncodingScheme::Importance);
    let mut sampler = RandomSearch::new(encoder.dim(), 3);
    let mappings: Vec<naas_mapping::Mapping> = (0..POPULATION)
        .map(|_| encoder.decode(&sampler.ask(), &layer, accel.connectivity()))
        .collect();

    let layer_json = serde_json::to_string(&layer).unwrap();
    // One request per mapping (what a naive client sends) ...
    let scalar_requests: Vec<String> = mappings
        .iter()
        .map(|m| {
            format!(
                r#"{{"id":1,"cmd":"evaluate_batch","layer":{},"design":"Eyeriss","mappings":[{}]}}"#,
                layer_json,
                serde_json::to_string(m).unwrap()
            )
        })
        .collect();
    // ... versus the whole population in one batched request.
    let batched_request = format!(
        r#"{{"id":1,"cmd":"evaluate_batch","layer":{},"design":"Eyeriss","mappings":{}}}"#,
        layer_json,
        serde_json::to_string(&mappings).unwrap()
    );

    let service = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::quick(7),
        eval_delay_us: 0,
    })
    .expect("no cache file");

    let mut group = c.benchmark_group("service_throughput");
    group.bench_function(format!("population_{POPULATION}/scalar_requests"), |b| {
        b.iter(|| {
            for request in &scalar_requests {
                std::hint::black_box(service.respond(request));
            }
        });
    });
    group.bench_function(format!("population_{POPULATION}/batched_request"), |b| {
        b.iter(|| std::hint::black_box(service.respond(&batched_request)));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
