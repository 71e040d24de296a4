//! Substrate performance: simulated cycles per wall-clock second across
//! core counts and socket layouts. This bounds how long the
//! figure-regeneration suite takes and documents the cost of the
//! simulation approach itself. The `grid_4x8` case runs four sockets with
//! their own memory controllers, which `System::run` steps concurrently
//! on a multi-CPU host; `grid_4x8_shared` is the same machine behind one
//! shared controller, which it steps in lockstep on one thread.
//! `grid_4x32` is the benchmark's `scale128` machine: 32 cores' L2s per
//! socket cover most of its LLC, so nearly every LLC victim choice finds
//! its LRU way held by an L2.

use cmm_sim::config::{SystemConfig, Topology};
use cmm_sim::System;
use cmm_workloads::build_mixes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn sim_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    for &cores in &[1usize, 4, 8] {
        let cycles = 200_000u64;
        g.throughput(Throughput::Elements(cycles * cores as u64));
        g.bench_with_input(BenchmarkId::new("mixed_workload", cores), &cores, |b, &cores| {
            let mix = &build_mixes(42, 1)[1];
            b.iter_batched(
                || {
                    let mut cfg = SystemConfig::scaled(cores);
                    cfg.set_num_cores(cores);
                    let ws = mix
                        .instantiate(cfg.llc.size_bytes)
                        .into_iter()
                        .take(cores)
                        .collect::<Vec<_>>();
                    System::new(cfg, ws)
                },
                |mut sys| {
                    sys.run(cycles);
                    sys
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    for (name, topo) in
        [("grid_4x8", "4x8"), ("grid_4x8_shared", "4x8@shared"), ("grid_4x32", "4x32")]
    {
        let topo: Topology = topo.parse().expect("a valid topology");
        let cycles = 200_000u64;
        g.throughput(Throughput::Elements(cycles * topo.total_cores() as u64));
        g.bench_function(name, |b| {
            let mix = build_mixes(42, 1)[1].tiled(topo.total_cores());
            b.iter_batched(
                || {
                    let mut cfg = SystemConfig::scaled(topo.cores_per_socket);
                    cfg.set_topology(topo);
                    let ws = mix.instantiate(cfg.llc.size_bytes);
                    System::new(cfg, ws)
                },
                |mut sys| {
                    sys.run(cycles);
                    sys
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, sim_throughput);
criterion_main!(benches);
