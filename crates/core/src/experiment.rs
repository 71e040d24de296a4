//! Experiment harness: runs workload mixes under mechanisms and produces
//! the per-core numbers behind every figure of the evaluation.
//!
//! Methodology mirrors Sec. IV: each workload runs for a fixed simulated
//! time under the baseline and under each mechanism (benchmarks are
//! infinite generators, the analogue of the paper restarting finished
//! programs), and per-core IPC over the whole run feeds the HS/WS/
//! worst-case metrics. Run-alone IPCs for HS come from single-core runs of
//! the same machine configuration.

use crate::driver::Driver;
use crate::fault::{FaultConfig, FaultySubstrate};
use crate::governor::GovernorConfig;
use crate::learned::Learner;
use crate::policy::{ControllerConfig, Mechanism};
use crate::substrate::Substrate;
use cmm_sim::config::SystemConfig;
use cmm_sim::pmu::Pmu;
use cmm_sim::{System, Workload};
use cmm_workloads::{Mix, Slot};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Everything needed to run one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Machine geometry for mix runs (one core per mix benchmark).
    pub sys: SystemConfig,
    /// Controller tuning.
    pub ctrl: ControllerConfig,
    /// Simulated cycles per mix run (the paper's 2.5 minutes, scaled).
    pub total_cycles: u64,
    /// Simulated cycles for run-alone IPC measurements.
    pub alone_cycles: u64,
    /// Cycles run before measurement starts (cache warm-up).
    pub warmup_cycles: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            sys: SystemConfig::scaled(8),
            ctrl: ControllerConfig::default(),
            total_cycles: 12_000_000,
            alone_cycles: 2_000_000,
            // LLC-sensitive chases take ~2M cycles to populate their
            // working sets; measuring earlier under-weights the capacity
            // effects every CP mechanism depends on.
            warmup_cycles: 2_000_000,
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for tests and `--quick` harness runs.
    pub fn quick() -> Self {
        ExperimentConfig {
            sys: SystemConfig::scaled(8),
            ctrl: ControllerConfig::quick(),
            total_cycles: 2_500_000,
            alone_cycles: 500_000,
            warmup_cycles: 1_200_000,
        }
    }
}

/// Outcome of one (mix, mechanism) run.
#[derive(Debug, Clone)]
pub struct MixResult {
    /// The mechanism that ran.
    pub mechanism: Mechanism,
    /// The mix name (e.g. `"PrefAgg-03"`).
    pub mix_name: String,
    /// Workload name per core (benchmark or trace label).
    pub benchmarks: Vec<String>,
    /// Whole-run IPC per core (measurement window only).
    pub ipcs: Vec<f64>,
    /// Whole-run PMU deltas per core.
    pub pmu: Vec<Pmu>,
    /// Total memory traffic (demand + prefetch + writeback bytes), summed
    /// over cores — the Fig. 14 series.
    pub mem_bytes: u64,
    /// Summed `STALLS_L2_PENDING` — the Fig. 15 series.
    pub stalls_l2: u64,
    /// Controller overhead fraction (0 for the baseline).
    pub overhead_ratio: f64,
    /// Per-epoch decision telemetry of the measurement window (see
    /// [`crate::telemetry`]); feeds the `cmm-journal/2` run journal.
    pub epochs: Vec<crate::telemetry::EpochRecord>,
}

/// What a mix cell attaches beyond its mechanism (by default nothing).
#[derive(Debug, Clone, Default)]
pub struct MixOptions {
    /// Fault schedule: the warmed machine runs wrapped in a
    /// [`FaultySubstrate`] injecting it.
    pub faults: Option<FaultConfig>,
    /// Safety governor, attached with [`Driver::with_governor`].
    pub governor: Option<GovernorConfig>,
    /// Learned controller, attached with [`Driver::with_learner`].
    pub learner: Option<Learner>,
}

/// The one mix warm-up: a machine for `mix` with `cfg`'s warm-up applied.
/// With a `pool` it is restored from the mix's snapshot, or built, warmed
/// and captured for the mix's later cells; without one it is built and
/// warmed with no snapshot taken.
pub fn warm_mix(pool: Option<&WarmupPool>, mix: &Mix, cfg: &ExperimentConfig) -> System {
    if let Some(sys) = pool.and_then(|p| p.restore(mix, cfg)) {
        return sys;
    }
    let mut sys_cfg = cfg.sys.clone();
    sys_cfg.set_num_cores(mix.num_cores());
    let workloads = mix.instantiate(sys_cfg.llc.size_bytes);
    let mut sys = System::new(sys_cfg, workloads);
    if cfg.warmup_cycles > 0 {
        sys.run(cfg.warmup_cycles);
    }
    // When two cells race to warm one mix, the first capture wins; the
    // states are identical either way (warm-up is deterministic).
    if let Some(p) = pool {
        if let Entry::Vacant(v) = p.lock().snaps.entry(mix.name.clone()) {
            v.insert(
                sys.snapshot().map_or(WarmupEntry::Uncloneable, |s| WarmupEntry::Shared(s.into())),
            );
        }
    }
    sys
}

/// Runs `mix` under `mechanism` on a machine from [`warm_mix`] with `opts`
/// attached, and reports the measurement-window statistics; every other
/// mix runner is this with fixed options. Wrapping the warmed machine in
/// a [`FaultySubstrate`] is exact, because `FaultySubstrate::run` only
/// forwards; cells without faults run on the bare [`System`].
pub fn run_mix_cell(
    pool: Option<&WarmupPool>,
    mix: &Mix,
    mechanism: Mechanism,
    cfg: &ExperimentConfig,
    opts: MixOptions,
) -> MixResult {
    let MixOptions { faults, governor, learner } = opts;
    let sys = warm_mix(pool, mix, cfg);
    match faults {
        Some(f) => {
            run_mix_driver(FaultySubstrate::new(sys, f), mix, mechanism, cfg, governor, learner)
        }
        None => run_mix_driver(sys, mix, mechanism, cfg, governor, learner),
    }
}

/// Runs the measurement window on a warmed substrate, under a driver with
/// `governor` and `learner` attached.
///
/// Measurement-window PMU reads go through the checked-read path
/// ([`crate::backend::pmu_read_checked`]), so a corrupted boundary
/// snapshot on a faulty substrate degrades to a re-read instead of
/// poisoning the whole run's IPCs.
fn run_mix_driver<S: Substrate>(
    sys: S,
    mix: &Mix,
    mechanism: Mechanism,
    cfg: &ExperimentConfig,
    governor: Option<GovernorConfig>,
    learner: Option<Learner>,
) -> MixResult {
    let mut driver = Driver::new(sys, mechanism, cfg.ctrl.clone());
    if let Some(g) = governor {
        driver = driver.with_governor(g);
    }
    if let Some(l) = learner {
        driver = driver.with_learner(l);
    }
    let mut window_log = Vec::new();
    let before = crate::backend::pmu_read_checked(driver.system_mut(), &mut window_log);
    let traffic_before: u64 =
        (0..mix.num_cores()).map(|c| driver.system().traffic(c).total_bytes()).sum();

    driver.run_total(cfg.total_cycles);

    let after = crate::backend::pmu_read_checked(driver.system_mut(), &mut window_log);
    let deltas: Vec<Pmu> = after.iter().zip(before).map(|(&a, b)| a - b).collect();
    let traffic_after: u64 =
        (0..mix.num_cores()).map(|c| driver.system().traffic(c).total_bytes()).sum();

    MixResult {
        mechanism,
        mix_name: mix.name.clone(),
        benchmarks: mix.slots.iter().map(|s| s.name().to_string()).collect(),
        ipcs: deltas.iter().map(|d| d.ipc()).collect(),
        pmu: deltas.to_vec(),
        mem_bytes: traffic_after - traffic_before,
        stalls_l2: deltas.iter().map(|d| d.stalls_l2_pending).sum(),
        overhead_ratio: driver.overhead_ratio(),
        epochs: driver.take_records(),
    }
}

/// Runs `mix` under `mechanism` for the configured duration and reports
/// the measurement-window statistics.
pub fn run_mix(mix: &Mix, mechanism: Mechanism, cfg: &ExperimentConfig) -> MixResult {
    run_mix_cell(None, mix, mechanism, cfg, MixOptions::default())
}

/// Shares warm-up simulation across the cells of each mix.
///
/// Warm-up runs uncontrolled — no mechanism programs an MSR before the
/// measurement window — so the post-warm-up machine state depends only on
/// the mix and the [`ExperimentConfig`]. The pool simulates that warm-up
/// once per mix, captures it with [`System::snapshot`], and hands every
/// subsequent cell of the same mix a restored copy: a `(mix, N
/// mechanisms)` evaluation pays for one warm-up instead of `N`, with
/// byte-identical results (a restored machine *is* the warmed machine).
///
/// One pool serves one `(SystemConfig, warmup_cycles)`: snapshots are
/// keyed by mix name only, so the pool records the pair of its first use
/// and panics when a later cell brings another. Callers sweeping machine
/// configs or warm-ups use one pool per sweep point. Mixes whose
/// workloads cannot be cloned (no [`cmm_sim::Workload::try_clone_box`]
/// support) fall back to a fresh warm-up per cell, transparently.
#[derive(Default)]
pub struct WarmupPool {
    // Only ever touched under the lock (restore() is a memcpy, negligible
    // next to a cell), which keeps the pool `Sync` without demanding
    // `Sync` workloads.
    state: Mutex<PoolState>,
}

#[derive(Default)]
struct PoolState {
    /// The machine config and warm-up length of the pool's first use.
    config: Option<(SystemConfig, u64)>,
    snaps: HashMap<String, WarmupEntry>,
}

enum WarmupEntry {
    /// Warm-up captured; every cell restores from here. Boxed so the
    /// common `Uncloneable` probe doesn't pay the snapshot's footprint.
    Shared(Box<cmm_sim::SystemSnapshot>),
    /// Workloads not cloneable: each cell re-warms from scratch.
    Uncloneable,
}

impl WarmupPool {
    /// An empty pool for one evaluation's `ExperimentConfig`.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // A panicking cell must not wedge every later cell of the run on
        // a poisoned lock; the state is always consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A restored copy of `mix`'s warm machine, if captured. Panics when
    /// `cfg`'s machine or warm-up differs from the pool's first use.
    fn restore(&self, mix: &Mix, cfg: &ExperimentConfig) -> Option<System> {
        let mut state = self.lock();
        match &state.config {
            Some((sys, warmup)) => assert!(
                *sys == cfg.sys && *warmup == cfg.warmup_cycles,
                "WarmupPool serves one (SystemConfig, warmup_cycles), but mix {} brings another \
                 machine or warm-up than the pool's first use: use one pool per config",
                mix.name
            ),
            None => state.config = Some((cfg.sys.clone(), cfg.warmup_cycles)),
        }
        match state.snaps.get(&mix.name) {
            Some(WarmupEntry::Shared(snap)) => Some(snap.restore()),
            Some(WarmupEntry::Uncloneable) | None => None,
        }
    }
}

/// [`run_mix`] with warm-up shared through `pool`: identical results, one
/// warm-up simulation per mix instead of one per (mix, mechanism).
pub fn run_mix_pooled(
    pool: &WarmupPool,
    mix: &Mix,
    mechanism: Mechanism,
    cfg: &ExperimentConfig,
) -> MixResult {
    run_mix_cell(Some(pool), mix, mechanism, cfg, MixOptions::default())
}

/// Like [`run_mix`], but over a [`FaultySubstrate`] injecting the given
/// fault schedule.
pub fn run_mix_with_faults(
    mix: &Mix,
    mechanism: Mechanism,
    cfg: &ExperimentConfig,
    faults: &FaultConfig,
) -> MixResult {
    let opts = MixOptions { faults: Some(faults.clone()), ..MixOptions::default() };
    run_mix_cell(None, mix, mechanism, cfg, opts)
}

/// [`run_mix_with_faults`] with the safety governor attached to the
/// driver: apply-then-verify rollback, PMU quarantine and circuit
/// breakers all armed. At a zero fault rate the governor never
/// intervenes and the result is byte-identical to
/// [`run_mix_with_faults`].
pub fn run_mix_governed(
    mix: &Mix,
    mechanism: Mechanism,
    cfg: &ExperimentConfig,
    faults: &FaultConfig,
    gov: GovernorConfig,
) -> MixResult {
    let opts = MixOptions { faults: Some(faults.clone()), governor: Some(gov), learner: None };
    run_mix_cell(None, mix, mechanism, cfg, opts)
}

/// [`run_mix`] with a learned controller attached to the driver: the
/// `ML-Sel` classifier or the `RL-CBP` bandit policy drives the epoch
/// decisions instead of (or alongside) the profiling search. With no
/// learner the learned mechanisms degrade to the CMM-a search every
/// epoch, so passing `None` is well-defined but journals a fallback per
/// epoch.
pub fn run_mix_learned(
    mix: &Mix,
    mechanism: Mechanism,
    cfg: &ExperimentConfig,
    learner: Option<Learner>,
) -> MixResult {
    run_mix_cell(None, mix, mechanism, cfg, MixOptions { learner, ..MixOptions::default() })
}

/// The one-core machine of every run-alone measurement: `sys` narrowed to
/// one core, running the workload `instantiate(llc_bytes, base, seed)`
/// builds at a fixed base address and seed, so a workload's alone machine
/// is the same in every target.
pub fn alone_system(
    sys: &SystemConfig,
    instantiate: impl FnOnce(u64, u64, u64) -> Box<dyn Workload + Send>,
) -> System {
    let mut sys_cfg = sys.clone();
    sys_cfg.set_num_cores(1);
    let w = instantiate(sys_cfg.llc.size_bytes, 1 << 36, 7);
    System::new(sys_cfg, vec![w])
}

/// Measures a workload's run-alone IPC: a single-core machine with the
/// same cache/memory configuration, all prefetchers on, no control.
/// Accepts any [`Slot`], so trace-driven cores get alone-IPCs from the
/// same machine as synthetic ones.
pub fn run_alone_ipc(slot: &Slot, cfg: &ExperimentConfig) -> f64 {
    let mut sys = alone_system(&cfg.sys, |llc, base, seed| slot.instantiate(llc, base, seed));
    sys.run(cfg.warmup_cycles.max(1));
    let before = sys.pmu(0);
    sys.run(cfg.alone_cycles);
    (sys.pmu(0) - before).ipc()
}

/// Run-alone IPCs for every distinct workload in `mix`, in core order,
/// with memoisation across repeated slots (keyed by slot name).
pub fn run_alone_ipcs(mix: &Mix, cfg: &ExperimentConfig) -> Vec<f64> {
    let mut cache: HashMap<String, f64> = HashMap::new();
    mix.slots
        .iter()
        .map(|s| *cache.entry(s.name().to_string()).or_insert_with(|| run_alone_ipc(s, cfg)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_workloads::build_mixes;

    #[test]
    fn baseline_mix_run_produces_sane_numbers() {
        let mix = &build_mixes(3, 1)[1]; // a PrefAgg mix
        let cfg = ExperimentConfig::quick();
        let r = run_mix(mix, Mechanism::Baseline, &cfg);
        assert_eq!(r.ipcs.len(), 8);
        assert!(r.ipcs.iter().all(|&i| i > 0.0 && i <= 4.0), "{:?}", r.ipcs);
        assert!(r.mem_bytes > 0);
        assert!(r.stalls_l2 > 0);
        assert_eq!(r.overhead_ratio, 0.0);
    }

    #[test]
    fn run_alone_beats_contended_for_sensitive_benchmark() {
        let mix = &build_mixes(3, 1)[1];
        let cfg = ExperimentConfig::quick();
        let alone = run_alone_ipcs(mix, &cfg);
        let together = run_mix(mix, Mechanism::Baseline, &cfg);
        // In aggregate, running together cannot beat running alone.
        let sum_ratio: f64 =
            together.ipcs.iter().zip(&alone).map(|(&t, &a)| t / a.max(1e-9)).sum::<f64>() / 8.0;
        assert!(sum_ratio < 1.05, "together/alone ratio {sum_ratio:.3}");
    }

    #[test]
    fn memoised_alone_ipcs_consistent() {
        let mix = &build_mixes(3, 1)[0];
        let cfg = ExperimentConfig::quick();
        let a = run_alone_ipcs(mix, &cfg);
        assert_eq!(a.len(), 8);
        // Duplicate benchmarks in the mix must get identical alone-IPCs.
        for i in 0..8 {
            for j in 0..8 {
                if mix.slots[i].name() == mix.slots[j].name() {
                    assert_eq!(a[i], a[j]);
                }
            }
        }
    }

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick();
        cfg.warmup_cycles = 200_000;
        cfg.total_cycles = 500_000;
        cfg
    }

    #[test]
    fn pooled_cells_match_one_off_runs() {
        let mix = &build_mixes(3, 1)[1]; // a PrefAgg mix
        let cfg = tiny_cfg();
        let pool = WarmupPool::new();
        // The Baseline cell warms the mix; every later cell restores it.
        run_mix_pooled(&pool, mix, Mechanism::Baseline, &cfg);
        assert!(matches!(pool.lock().snaps.get(&mix.name), Some(WarmupEntry::Shared(_))));
        let mut faults = FaultConfig::uniform(7, 0.25);
        faults.clos_limit = Some(1);
        let rl = || Some(Learner::Rl(crate::learned::RlPolicy::new(7, 0.1)));
        let cases = [
            (
                "Baseline",
                Mechanism::Baseline,
                MixOptions::default(),
                run_mix(mix, Mechanism::Baseline, &cfg),
            ),
            (
                "faulty CBP",
                Mechanism::Cbp,
                MixOptions { faults: Some(faults.clone()), ..MixOptions::default() },
                run_mix_with_faults(mix, Mechanism::Cbp, &cfg, &faults),
            ),
            (
                "governed CBP",
                Mechanism::Cbp,
                MixOptions {
                    faults: Some(faults.clone()),
                    governor: Some(GovernorConfig::new(7)),
                    learner: None,
                },
                run_mix_governed(mix, Mechanism::Cbp, &cfg, &faults, GovernorConfig::new(7)),
            ),
            (
                "RL-CBP",
                Mechanism::RlCbp,
                MixOptions { learner: rl(), ..MixOptions::default() },
                run_mix_learned(mix, Mechanism::RlCbp, &cfg, rl()),
            ),
        ];
        let lines =
            |r: &MixResult| r.epochs.iter().map(|e| e.to_json_line(&mix.name)).collect::<Vec<_>>();
        for (what, mech, opts, one_off) in cases {
            let pooled = run_mix_cell(Some(&pool), mix, mech, &cfg, opts);
            assert_eq!(pooled.ipcs, one_off.ipcs, "{what}: ipcs");
            assert_eq!(pooled.pmu, one_off.pmu, "{what}: pmu");
            assert_eq!(lines(&pooled), lines(&one_off), "{what}: epoch records");
        }
    }

    #[test]
    #[should_panic(expected = "WarmupPool serves one")]
    fn pool_refuses_a_second_warmup_config() {
        let mix = &build_mixes(3, 1)[0];
        let mut cfg = tiny_cfg();
        cfg.warmup_cycles = 20_000;
        cfg.total_cycles = 20_000;
        let pool = WarmupPool::new();
        run_mix_pooled(&pool, mix, Mechanism::Baseline, &cfg);
        // Keyed by mix name only, the pool would hand back the 20k-cycle
        // machine for a 40k-cycle warm-up.
        cfg.warmup_cycles = 40_000;
        run_mix_pooled(&pool, mix, Mechanism::Baseline, &cfg);
    }

    #[test]
    fn managed_run_reports_overhead() {
        let mix = &build_mixes(3, 1)[1];
        let cfg = ExperimentConfig::quick();
        let r = run_mix(mix, Mechanism::CmmA, &cfg);
        assert!(r.overhead_ratio > 0.0 && r.overhead_ratio < 0.02);
    }
}
