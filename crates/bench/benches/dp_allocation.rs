//! Criterion benches for the §3.3 dynamic program (Figure 6 axis):
//! table fill + reconstruction cost versus item count and capacity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use paraconv::alloc::{AllocItem, CacheAllocator, IncrementalDp};
use paraconv::graph::EdgeId;

fn items(n: usize) -> Vec<AllocItem> {
    (0..n)
        .map(|i| {
            AllocItem::new(
                EdgeId::new(i as u32),
                1 + (i as u64 % 4),
                (i as u64 * 7) % 3,
                i as u64,
            )
        })
        .collect()
}

fn bench_dp_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_fill");
    for n in [128usize, 512, 1449] {
        let items = items(n);
        for capacity in [64u64, 256] {
            group.bench_with_input(
                BenchmarkId::new(format!("n{n}"), capacity),
                &capacity,
                |b, &cap| {
                    b.iter(|| {
                        let mut session = IncrementalDp::new();
                        session.resolve(&items, cap);
                        session.max_profit()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_allocator_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");
    for n in [267usize, 1449] {
        let items = items(n);
        group.bench_function(format!("n{n}"), |b| {
            b.iter(|| CacheAllocator::new(256).allocate(items.clone()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dp_fill, bench_allocator_end_to_end);
criterion_main!(benches);
