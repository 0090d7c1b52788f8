//! Criterion benches for the validating simulator: replay cost versus
//! plan size (the denominator of every table in the evaluation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use paraconv::{ExperimentConfig, ParaConv};
use paraconv_pim::{simulate, simulate_periodic, PimConfig};
use paraconv_sched::{ParaConvScheduler, SpartaScheduler};
use paraconv_synth::benchmarks;

fn bench_simulate(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_replay");
    group.sample_size(10);
    for (name, iters) in [("flower", 100u64), ("stock-predict", 50), ("protein", 10)] {
        let graph = benchmarks::by_name(name).unwrap().graph().unwrap();
        let cfg = PimConfig::neurocube(32).unwrap();
        let plan = ParaConvScheduler::new(cfg.clone())
            .schedule(&graph, iters)
            .unwrap()
            .plan;
        group.bench_with_input(BenchmarkId::new(name, iters), &iters, |b, _| {
            b.iter(|| simulate(&graph, &plan, &cfg).unwrap())
        });
    }
    group.finish();
}

fn bench_simulate_periodic(c: &mut Criterion) {
    // The two replays of one Table 1 point: Para-CONV's description
    // and SPARTA's core, at 500 iterations on the sweep's architecture.
    let experiment = ExperimentConfig::default();
    let iterations = 500;
    let mut group = c.benchmark_group("simulate_periodic");
    for name in ["cat", "speech-2", "protein"] {
        let graph = benchmarks::by_name(name).unwrap().graph().unwrap();
        for pes in [16, 64] {
            let cfg = experiment.pim_config(pes).unwrap();
            let (_, paraconv) = ParaConvScheduler::new(cfg.clone())
                .schedule_periodic(&graph, iterations)
                .unwrap();
            let sparta = SpartaScheduler::new(cfg.clone())
                .schedule_core(&graph, iterations)
                .unwrap();
            let point = format!("{name}@{pes}");
            group.bench_function(BenchmarkId::new("paraconv", &point), |b| {
                b.iter(|| simulate_periodic(&graph, &paraconv, &cfg).unwrap())
            });
            group.bench_function(BenchmarkId::new("sparta", &point), |b| {
                b.iter(|| simulate_periodic(&graph, sparta.periodic(), &cfg).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_kernel_compaction(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_compaction");
    for name in ["string-matching", "protein"] {
        let graph = benchmarks::by_name(name).unwrap().graph().unwrap();
        group.bench_function(name, |b| {
            b.iter(|| paraconv_sched::KernelSchedule::compact(&graph, 64))
        });
    }
    group.finish();
}

fn bench_benchmark_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("benchmark_generation");
    group.sample_size(10);
    for name in ["cat", "shortest-path", "protein"] {
        let bench = benchmarks::by_name(name).unwrap();
        group.bench_function(name, |b| b.iter(|| bench.graph().unwrap()));
    }
    group.finish();
}

fn bench_full_pipeline_throughput(c: &mut Criterion) {
    // End-to-end: graph in hand, how fast can the harness evaluate one
    // (benchmark, PE count) cell of Table 1?
    let graph = benchmarks::by_name("character-2").unwrap().graph().unwrap();
    let runner = ParaConv::new(PimConfig::neurocube(32).unwrap());
    let mut group = c.benchmark_group("table_cell");
    group.sample_size(10);
    group.bench_function("character-2@32", |b| {
        b.iter(|| runner.compare(&graph, 25).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulate,
    bench_simulate_periodic,
    bench_kernel_compaction,
    bench_benchmark_generation,
    bench_full_pipeline_throughput
);
criterion_main!(benches);
