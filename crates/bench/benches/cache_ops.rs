//! Hot-path microbenchmarks of the set-associative cache: hits, misses,
//! masked (CAT) insertion and QBS victim selection from the LLC's holder
//! column.

use cmm_sim::cache::Cache;
use cmm_sim::config::CacheGeometry;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const LLC: CacheGeometry = CacheGeometry { size_bytes: 2560 << 10, ways: 20, hit_latency: 40 };

fn llc() -> Cache {
    Cache::new(LLC)
}

fn cache_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_ops");
    g.throughput(Throughput::Elements(1));

    g.bench_function("hit", |b| {
        let mut cache = llc();
        cache.insert(42, false, u64::MAX);
        b.iter(|| std::hint::black_box(cache.access(42)));
    });

    g.bench_function("miss", |b| {
        let mut cache = llc();
        let mut line = 0u64;
        b.iter(|| {
            line = line.wrapping_add(0x9E37_79B9); // never repeats soon
            std::hint::black_box(cache.access(line))
        });
    });

    g.bench_function("insert_full_mask", |b| {
        let mut cache = llc();
        let mut line = 0u64;
        b.iter(|| {
            line += 1;
            std::hint::black_box(cache.insert(line, false, u64::MAX))
        });
    });

    g.bench_function("insert_2way_mask", |b| {
        let mut cache = llc();
        let mut line = 0u64;
        b.iter(|| {
            line += 1;
            std::hint::black_box(cache.insert(line, false, 0b11))
        });
    });

    // Every even line is held by one of 8 cores' L2s, so half the ways of
    // a full set are protected.
    g.bench_function("insert_qbs_half_protected", |b| {
        let mut cache = Cache::with_holders(LLC, 8);
        let mut line = 0u64;
        b.iter(|| {
            line += 1;
            let fill = cache.fill(line, false, u64::MAX, true);
            if line.is_multiple_of(2) {
                cache.set_holders(fill.way, 1 << (line / 2 % 8));
            }
            std::hint::black_box(fill)
        });
    });

    g.finish();
}

criterion_group!(benches, cache_ops);
criterion_main!(benches);
