//! Wall-clock cost of the detect → search → apply epoch path, stage by
//! stage, plus the overhead of running the same epoch through the
//! fault-injection decorator (zero fault rate — pure interposition cost).
//!
//! `ablations.rs` times whole profiling epochs across mechanisms; this
//! bench decomposes one CMM-a epoch so a regression can be attributed to
//! the detection cascade, the throttle search, or the MSR apply path.

use cmm_core::backend::{self, PartitionPlan};
use cmm_core::driver::Driver;
use cmm_core::fault::{FaultConfig, FaultySubstrate};
use cmm_core::frontend::DetectorConfig;
use cmm_core::policy::{ControllerConfig, Mechanism};
use cmm_sim::config::SystemConfig;
use cmm_sim::System;
use cmm_workloads::build_mixes;
use criterion::{criterion_group, criterion_main, Criterion};

fn warm_system() -> System {
    let mix = build_mixes(42, 1).remove(1);
    let cfg = SystemConfig::scaled(mix.num_cores());
    let mut sys = System::new(cfg.clone(), mix.instantiate(cfg.llc.size_bytes));
    sys.run(400_000);
    sys
}

fn epoch_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("epoch_path");
    g.sample_size(10);
    let ctrl = ControllerConfig::quick();
    let det = DetectorConfig::default();

    g.bench_function("detect", |b| {
        b.iter_batched(
            warm_system,
            |mut sys| {
                backend::detect(&mut sys, &ctrl, &det);
                sys
            },
            criterion::BatchSize::LargeInput,
        );
    });

    g.bench_function("pt_profile", |b| {
        b.iter_batched(
            || Driver::new(warm_system(), Mechanism::Pt, ctrl.clone()),
            |mut drv| {
                drv.epoch();
                drv
            },
            criterion::BatchSize::LargeInput,
        );
    });

    g.bench_function("plan_apply", |b| {
        b.iter_batched(
            warm_system,
            |mut sys| {
                let ways = sys.config().llc.ways;
                let plan = PartitionPlan::flat(sys.num_cores(), ways);
                plan.apply_at(&mut sys, 0, &mut Vec::new()).unwrap();
                sys
            },
            criterion::BatchSize::LargeInput,
        );
    });

    g.bench_function("cmm_a_epoch", |b| {
        b.iter_batched(
            || Driver::new(warm_system(), Mechanism::CmmA, ctrl.clone()),
            |mut drv| {
                drv.epoch();
                drv
            },
            criterion::BatchSize::LargeInput,
        );
    });

    // Same epoch behind the fault decorator at rate 0: measures the pure
    // cost of the Substrate indirection + passthrough schedule draws.
    g.bench_function("cmm_a_epoch_faulty_passthrough", |b| {
        b.iter_batched(
            || {
                let sys = FaultySubstrate::new(warm_system(), FaultConfig::none());
                Driver::new(sys, Mechanism::CmmA, ctrl.clone())
            },
            |mut drv| {
                drv.epoch();
                drv
            },
            criterion::BatchSize::LargeInput,
        );
    });

    g.finish();
}

criterion_group!(benches, epoch_path);
criterion_main!(benches);
