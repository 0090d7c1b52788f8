//! Criterion benches for the layers a cold plan request pays after
//! scheduling: the registry key, the artifact encoding and the static
//! verifier. They time these layers without a daemon, on three
//! benchmarks from small to large at 32 PEs and 64 iterations.

use criterion::{criterion_group, criterion_main, Criterion};

use paraconv::registry::{request_key, PlanBundle, PlanPolicy};
use paraconv::verify::verify_outcome;
use paraconv_pim::PimConfig;
use paraconv_sched::{AllocationPolicy, ParaConvScheduler};
use paraconv_synth::benchmarks;

const BENCHMARKS: [&str; 3] = ["cat", "shortest-path", "protein"];

/// One scheduled plan per benchmark, bundled as the daemon stores it.
fn bundles() -> Vec<(&'static str, PlanBundle)> {
    let config = PimConfig::neurocube(32).unwrap();
    let policy = PlanPolicy {
        allocation: AllocationPolicy::DynamicProgram,
        iterations: 64,
    };
    BENCHMARKS
        .iter()
        .map(|&name| {
            let graph = benchmarks::by_name(name).unwrap().graph().unwrap();
            let outcome = ParaConvScheduler::new(config.clone())
                .schedule(&graph, policy.iterations)
                .unwrap();
            let bundle = PlanBundle {
                graph,
                config: config.clone(),
                policy,
                outcome,
            };
            (name, bundle)
        })
        .collect()
}

/// The SHA-256 of the canonical request, which every request pays.
fn bench_request_key(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_request_key");
    group.sample_size(50);
    for (name, bundle) in bundles() {
        group.bench_function(name, |b| {
            b.iter(|| request_key(&bundle.graph, &bundle.config, &bundle.policy))
        });
    }
    group.finish();
}

/// The whole artifact: body, content hash, key and header.
fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_encode");
    group.sample_size(50);
    for (name, bundle) in bundles() {
        group.bench_function(name, |b| b.iter(|| bundle.encode()));
    }
    group.finish();
}

/// The verifier gate every planned outcome passes before it is stored.
fn bench_verify_outcome(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify_outcome");
    group.sample_size(50);
    for (name, bundle) in bundles() {
        group.bench_function(name, |b| {
            b.iter(|| verify_outcome(&bundle.graph, &bundle.outcome, &bundle.config).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_request_key,
    bench_encode,
    bench_verify_outcome
);
criterion_main!(benches);
