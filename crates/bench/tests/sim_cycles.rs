//! Exact simulated-cycle accounting. The counter behind `BENCH_*.json`'s
//! `sim_cycles` is process-wide, so this binary holds a single test:
//! nothing else simulates while it reads the counter.

use cmm_bench::json::{parse, Json};
use cmm_bench::perf::BenchLog;
use cmm_core::experiment::{run_mix, run_mix_pooled, warm_mix, ExperimentConfig, WarmupPool};
use cmm_core::policy::Mechanism;
use cmm_sim::simulated_core_cycles;
use cmm_workloads::build_mixes;

/// Core-cycles `work` simulated.
fn counted(work: impl FnOnce()) -> u64 {
    let before = simulated_core_cycles();
    work();
    simulated_core_cycles() - before
}

#[test]
fn sim_cycles_count_exactly_what_was_simulated() {
    let mix = &build_mixes(3, 1)[1];
    let mut cfg = ExperimentConfig::quick();
    cfg.warmup_cycles = 100_000;
    cfg.total_cycles = 200_000;
    let cores = mix.num_cores() as u64;
    let cell = (cfg.warmup_cycles + cfg.total_cycles) * cores;

    // Two one-off cells warm twice; two pooled cells warm once.
    let one_off = counted(|| {
        run_mix(mix, Mechanism::Baseline, &cfg);
        run_mix(mix, Mechanism::Baseline, &cfg);
    });
    assert_eq!(one_off, 2 * cell);
    let pool = WarmupPool::new();
    let pooled = counted(|| {
        run_mix_pooled(&pool, mix, Mechanism::Baseline, &cfg);
        run_mix_pooled(&pool, mix, Mechanism::Baseline, &cfg);
    });
    assert_eq!(one_off - pooled, cfg.warmup_cycles * cores);

    // Restoring a snapshot simulates nothing.
    let snap = warm_mix(None, mix, &cfg).snapshot().expect("synthetic mixes snapshot");
    assert_eq!(counted(|| drop(snap.restore())), 0);

    // BenchLog::measure records the counter's delta around its work.
    let mut log = BenchLog::new(1, true);
    log.measure("one cell", 1, || run_mix(mix, Mechanism::Baseline, &cfg));
    let doc = parse(&log.to_json()).expect("valid JSON");
    let target = &doc.get("targets").and_then(Json::as_array).expect("targets")[0];
    assert_eq!(target.get("sim_cycles").and_then(Json::as_u64), Some(cell));
}
