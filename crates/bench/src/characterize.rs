//! Single-benchmark characterisation: Figs. 1–3, Table I and Fig. 5.
//!
//! Each benchmark runs alone on a one-core machine with the full cache
//! hierarchy (the paper's characterisation methodology), once with all
//! prefetchers on and once with them off, plus a CAT way sweep for Fig. 3.

use cmm_core::driver::Driver;
use cmm_core::experiment::alone_system;
use cmm_core::frontend::{self, Metrics};
use cmm_core::policy::{ControllerConfig, Mechanism};
use cmm_core::telemetry::EpochRecord;
use cmm_sim::config::SystemConfig;
use cmm_sim::msr::contiguous_mask;
use cmm_sim::System;
use cmm_workloads::spec::Benchmark;

/// How long to warm and measure each characterisation run.
#[derive(Debug, Clone, Copy)]
pub struct CharacterizeConfig {
    /// Cycles before measurement starts.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        // The LLC-sensitive chases need ~4M cycles to populate a
        // multi-megabyte working set at chase speed; measuring earlier
        // reports the compulsory-miss phase instead of steady state.
        CharacterizeConfig { warmup: 4_000_000, measure: 1_000_000 }
    }
}

impl CharacterizeConfig {
    /// Fast settings for tests: long enough that the steady-state class of
    /// every roster benchmark is already the measured one.
    pub fn quick() -> Self {
        CharacterizeConfig { warmup: 2_000_000, measure: 500_000 }
    }
}

/// One run-alone measurement.
#[derive(Debug, Clone, Copy)]
pub struct AloneRun {
    /// Instructions per cycle.
    pub ipc: f64,
    /// Demand bytes/cycle from memory.
    pub demand_bpc: f64,
    /// Prefetch bytes/cycle from memory.
    pub prefetch_bpc: f64,
    /// Writeback bytes/cycle.
    pub writeback_bpc: f64,
    /// Table I metrics over the measured window.
    pub metrics: Metrics,
}

impl AloneRun {
    /// Total memory bandwidth in bytes/cycle.
    pub fn total_bpc(&self) -> f64 {
        self.demand_bpc + self.prefetch_bpc + self.writeback_bpc
    }
}

/// Runs `bench` alone with the given prefetcher state (and optional CAT
/// way restriction) and measures it.
pub fn run_alone(
    bench: &Benchmark,
    sys_cfg: &SystemConfig,
    cfg: &CharacterizeConfig,
    prefetch_on: bool,
    ways: Option<u32>,
) -> AloneRun {
    run_alone_keep(bench, sys_cfg, cfg, prefetch_on, ways).0
}

/// [`run_alone`], also returning the still-warm machine so callers can
/// keep measuring it (e.g. [`profile_alone`]'s journal epoch).
pub fn run_alone_keep(
    bench: &Benchmark,
    sys_cfg: &SystemConfig,
    cfg: &CharacterizeConfig,
    prefetch_on: bool,
    ways: Option<u32>,
) -> (AloneRun, System) {
    let mut sys =
        alone_system(sys_cfg, |llc, base, seed| Box::new(bench.instantiate(llc, base, seed)));
    sys.set_prefetching(0, prefetch_on);
    if let Some(w) = ways {
        sys.set_clos_mask(1, contiguous_mask(0, w)).expect("way mask");
        sys.assign_clos(0, 1).expect("clos");
    }
    sys.run(cfg.warmup);
    let before_pmu = sys.pmu(0);
    let before_tr = sys.traffic(0);
    sys.run(cfg.measure);
    let d = sys.pmu(0) - before_pmu;
    let tr = sys.traffic(0);
    let cycles = d.cycles.max(1) as f64;
    let run = AloneRun {
        ipc: d.ipc(),
        demand_bpc: (tr.demand_bytes - before_tr.demand_bytes) as f64 / cycles,
        prefetch_bpc: (tr.prefetch_bytes - before_tr.prefetch_bytes) as f64 / cycles,
        writeback_bpc: (tr.writeback_bytes - before_tr.writeback_bytes) as f64 / cycles,
        metrics: frontend::metrics(&d),
    };
    (run, sys)
}

/// Measures `bench` like [`run_alone`] (prefetchers on, no way cap), then
/// runs one real PT profiling epoch on the still-warm machine so the
/// measurement also yields journal telemetry (detected `Agg` set, trialed
/// configurations with `hm_ipc`, applied winner). The measured numbers are
/// identical to [`run_alone`]'s — the controller only touches the machine
/// after the measurement window closes.
pub fn profile_alone(
    bench: &Benchmark,
    sys_cfg: &SystemConfig,
    cfg: &CharacterizeConfig,
    ctrl: &ControllerConfig,
) -> (AloneRun, Vec<EpochRecord>) {
    let (run, sys) = run_alone_keep(bench, sys_cfg, cfg, true, None);
    let mut driver = Driver::new(sys, Mechanism::Pt, ctrl.clone());
    driver.epoch();
    (run, driver.take_records())
}

/// Fig. 1 / Fig. 2 row: bandwidth and IPC with and without prefetching.
#[derive(Debug, Clone)]
pub struct PrefetchImpact {
    /// Benchmark name.
    pub name: &'static str,
    /// SPEC program this generator mimics.
    pub spec_alias: &'static str,
    /// Measurement with prefetchers off.
    pub off: AloneRun,
    /// Measurement with prefetchers on.
    pub on: AloneRun,
}

impl PrefetchImpact {
    /// Fractional bandwidth increase from prefetching (Fig. 1's stacked
    /// top bar relative to the demand-only bottom bar).
    pub fn bw_increase(&self) -> f64 {
        if self.off.total_bpc() <= 0.0 {
            0.0
        } else {
            self.on.total_bpc() / self.off.total_bpc() - 1.0
        }
    }

    /// IPC speedup from prefetching (Fig. 2).
    pub fn ipc_speedup(&self) -> f64 {
        if self.off.ipc <= 0.0 {
            0.0
        } else {
            self.on.ipc / self.off.ipc - 1.0
        }
    }
}

/// Measures one benchmark for Figs. 1–2.
pub fn prefetch_impact(
    bench: &Benchmark,
    sys_cfg: &SystemConfig,
    cfg: &CharacterizeConfig,
) -> PrefetchImpact {
    PrefetchImpact {
        name: bench.name,
        spec_alias: bench.spec_alias,
        off: run_alone(bench, sys_cfg, cfg, false, None),
        on: run_alone(bench, sys_cfg, cfg, true, None),
    }
}

/// Fig. 3 row: IPC at each way count (prefetchers on), 1..=llc_ways.
///
/// The per-way runs are independent simulations, so they fan out across
/// `jobs` threads; results come back in way order, making the sweep
/// bit-identical for every job count.
pub fn way_sweep(
    bench: &Benchmark,
    sys_cfg: &SystemConfig,
    cfg: &CharacterizeConfig,
    jobs: usize,
) -> Vec<f64> {
    let ways: Vec<u32> = (1..=sys_cfg.llc.ways).collect();
    crate::runner::parallel_map(&ways, jobs, |_, &w| {
        run_alone(bench, sys_cfg, cfg, true, Some(w)).ipc
    })
}

/// The smallest way count reaching `frac` of the peak IPC in a sweep
/// (Fig. 3's classification input; paper: 8 ways at 80 % ⇒ LLC sensitive).
pub fn ways_needed(sweep: &[f64], frac: f64) -> u32 {
    let peak = sweep.iter().cloned().fold(0.0f64, f64::max);
    for (i, &ipc) in sweep.iter().enumerate() {
        if ipc >= frac * peak {
            return i as u32 + 1;
        }
    }
    sweep.len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_workloads::spec;

    fn cfgs() -> (SystemConfig, CharacterizeConfig) {
        (SystemConfig::scaled(1), CharacterizeConfig::quick())
    }

    #[test]
    fn stream_is_aggressive_and_friendly_by_measurement() {
        let (sys, cfg) = cfgs();
        let imp = prefetch_impact(spec::by_name("bwaves3d").unwrap(), &sys, &cfg);
        assert!(imp.ipc_speedup() > 0.3, "speedup {:.2}", imp.ipc_speedup());
        assert!(imp.bw_increase() > 0.5, "bw increase {:.2}", imp.bw_increase());
        assert!(imp.off.demand_bpc > 0.5, "demand intensive: {:.2}", imp.off.demand_bpc);
    }

    #[test]
    fn rand_access_prefetching_is_harmful() {
        let (sys, cfg) = cfgs();
        let imp = prefetch_impact(spec::by_name("rand_access").unwrap(), &sys, &cfg);
        assert!(imp.ipc_speedup() < 0.05, "useless prefetching: {:.2}", imp.ipc_speedup());
        assert!(imp.bw_increase() > 0.5, "but aggressive: {:.2}", imp.bw_increase());
    }

    #[test]
    fn compute_benchmark_barely_touches_memory() {
        let (sys, cfg) = cfgs();
        let imp = prefetch_impact(spec::by_name("povray_rt").unwrap(), &sys, &cfg);
        assert!(imp.on.total_bpc() < 0.1, "bw {:.3}", imp.on.total_bpc());
    }

    #[test]
    fn ways_needed_finds_threshold() {
        assert_eq!(ways_needed(&[0.1, 0.5, 0.79, 0.9, 1.0], 0.8), 4);
        assert_eq!(ways_needed(&[1.0, 1.0, 1.0], 0.8), 1);
    }

    #[test]
    fn way_sweep_is_identical_across_job_counts() {
        let sys = SystemConfig::scaled(1);
        // Short windows: we compare the sweep against itself, not against
        // a steady-state classification.
        let cfg = CharacterizeConfig { warmup: 150_000, measure: 80_000 };
        let b = spec::by_name("astar_path").unwrap();
        let serial = way_sweep(b, &sys, &cfg, 1);
        let parallel = way_sweep(b, &sys, &cfg, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
    }

    #[test]
    fn llc_sensitive_benchmark_needs_many_ways() {
        let (sys, cfg) = cfgs();
        // A coarse sweep (4 points) to keep the test fast.
        let b = spec::by_name("mcf_refine").unwrap();
        let few = run_alone(b, &sys, &cfg, true, Some(2)).ipc;
        let many = run_alone(b, &sys, &cfg, true, Some(20)).ipc;
        assert!(many > few * 1.3, "way sensitivity: 2w={few:.3} 20w={many:.3}");
    }

    #[test]
    fn stream_indifferent_to_ways() {
        let (sys, cfg) = cfgs();
        let b = spec::by_name("bwaves3d").unwrap();
        let few = run_alone(b, &sys, &cfg, true, Some(2)).ipc;
        let many = run_alone(b, &sys, &cfg, true, Some(20)).ipc;
        assert!(many < few * 1.15, "streams need ≤2 ways: 2w={few:.3} 20w={many:.3}");
    }
}
