//! The four workloads: which cells one rep runs, and how one cell runs —
//! untraced through the public experiment entry points `repro` uses, or
//! traced by replicating those entry points step by step over a [`Probe`].

use std::collections::HashMap;
use std::time::Instant;

use cmm_core::backend::pmu_read_checked;
use cmm_core::driver::Driver;
use cmm_core::experiment::{
    run_alone_ipc, run_mix_governed, run_mix_learned, run_mix_pooled, run_mix_with_faults,
    ExperimentConfig, MixResult, WarmupPool,
};
use cmm_core::fault::{FaultConfig, FaultySubstrate};
use cmm_core::governor::GovernorConfig;
use cmm_core::learned::{Learner, RlPolicy};
use cmm_core::policy::Mechanism;
use cmm_core::substrate::Substrate;
use cmm_core::telemetry::EpochRecord;
use cmm_sim::config::{SystemConfig, Topology};
use cmm_sim::{System, SystemSnapshot};
use cmm_workloads::rng::SplitMix64;
use cmm_workloads::spec::{self, Benchmark};
use cmm_workloads::{build_mixes, Mix, Slot};

use crate::probe::{Machine, Phase, Probe, ProbeStats};

/// The workloads, in the order a suite run interleaves them.
pub const WORKLOADS: [&str; 4] = ["mix8", "scale128", "solo", "faults8"];

/// Exploration rate of the RL-CBP cell (the `repro learn` setting).
const RL_EPSILON: f64 = 0.1;

/// The `build_mixes` seed that fixes which benchmarks each mix holds. A
/// run's own seed shuffles them across cores and seeds their instances, the
/// RL policy and the fault schedule. Drawing the composition per seed as
/// well spread scale128's exact `hm_ipc_gain` 11.6 % and its wall time up
/// to 2x between seeds (README), which would hide most code changes.
const COMPOSITION_SEED: u64 = 42;

/// One mix per category: `COMPOSITION_SEED`'s benchmarks, placed and
/// seeded by `seed`.
fn seeded_mixes(seed: u64) -> Vec<Mix> {
    let mut rng = SplitMix64::new(seed);
    build_mixes(COMPOSITION_SEED, 1)
        .into_iter()
        .map(|mut m| {
            for i in (1..m.slots.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                m.slots.swap(i, j);
            }
            m.seed = rng.next_u64();
            m
        })
        .collect()
}

/// What one cell runs.
pub enum Job {
    /// `run_mix_pooled`; `warms` marks the mix's first pooled cell, the one
    /// that pays the shared warm-up.
    Pooled { mix: usize, mech: Mechanism, warms: bool },
    /// RL-CBP through `run_mix_learned`.
    Learned { mix: usize },
    /// CBP under a fault schedule: `run_mix_with_faults`, or
    /// `run_mix_governed` with the safety governor attached.
    Faulty { mix: usize, faults: FaultConfig, governed: bool },
    /// One roster benchmark alone through `run_alone_ipc`.
    Solo { bench: &'static Benchmark },
}

/// One measured unit of work.
pub struct Cell {
    /// Stable label: golden files and digests are keyed by it.
    pub name: String,
    pub job: Job,
    /// The cell whose harmonic-mean IPC this one's gain is measured
    /// against (Baseline, or bare CBP in `faults8`).
    pub reference: Option<usize>,
}

/// Everything one rep of a workload runs, built from the seed alone.
pub struct Plan {
    pub seed: u64,
    pub cfg: ExperimentConfig,
    pub mixes: Vec<Mix>,
    pub cells: Vec<Cell>,
}

/// A cell's simulated result.
pub struct Outcome {
    pub ipcs: Vec<f64>,
    pub epochs: Vec<EpochRecord>,
    /// Core-cycles this cell actually simulated (a pooled warm-up is
    /// counted once, on the cell that ran it). Traced cells count the
    /// machine's advance exactly; untraced ones sum each core's PMU clock
    /// over the window, which may overshoot by one op at either edge.
    pub core_cycles: u64,
}

impl Plan {
    /// The plan of `workload` for `seed`; `None` for an unknown workload.
    pub fn new(workload: &str, seed: u64) -> Option<Plan> {
        let mut cfg = ExperimentConfig::quick();
        let mut mixes = seeded_mixes(seed);
        let mut cells = Vec::new();
        match workload {
            "mix8" => {
                for (i, m) in mixes.iter().enumerate() {
                    let base = cells.len();
                    for (k, mech) in [Mechanism::Baseline, Mechanism::CmmA, Mechanism::Cbp]
                        .into_iter()
                        .enumerate()
                    {
                        cells.push(Cell {
                            name: format!("{}:{}", m.name, mech.label()),
                            job: Job::Pooled { mix: i, mech, warms: k == 0 },
                            reference: (k > 0).then_some(base),
                        });
                    }
                    cells.push(Cell {
                        name: format!("{}:{}", m.name, Mechanism::RlCbp.label()),
                        job: Job::Learned { mix: i },
                        reference: Some(base),
                    });
                }
            }
            "scale128" => {
                // The `repro scale --quick` sizes.
                let topo: Topology = "4x32".parse().expect("a valid topology literal");
                cfg.sys.set_topology(topo);
                cfg.warmup_cycles = 300_000;
                cfg.total_cycles = 600_000;
                mixes = mixes.iter().map(|m| m.tiled(topo.total_cores())).collect();
                for (i, m) in mixes.iter().enumerate() {
                    let base = cells.len();
                    for (k, mech) in [Mechanism::Baseline, Mechanism::CmmA].into_iter().enumerate()
                    {
                        cells.push(Cell {
                            name: format!("{}:{}", m.name, mech.label()),
                            job: Job::Pooled { mix: i, mech, warms: k == 0 },
                            reference: (k > 0).then_some(base),
                        });
                    }
                }
            }
            "solo" => {
                cfg.sys = SystemConfig::scaled(1);
                cfg.warmup_cycles = 1_000_000;
                cfg.alone_cycles = 4_000_000;
                mixes.clear();
                cells = spec::roster()
                    .iter()
                    .map(|b| Cell {
                        name: b.name.to_string(),
                        job: Job::Solo { bench: b },
                        reference: None,
                    })
                    .collect();
            }
            "faults8" => {
                // The PrefAgg and PrefUnfri mixes under the `repro governor`
                // hard-fault schedule.
                mixes = mixes.drain(1..3).collect();
                for (i, m) in mixes.iter().enumerate() {
                    for rate in [0.10, 0.25] {
                        let mut faults = FaultConfig::uniform(seed, rate);
                        faults.clos_limit = Some(1);
                        let base = cells.len();
                        for governed in [false, true] {
                            cells.push(Cell {
                                name: format!(
                                    "{}:rate={rate:.2}:{}",
                                    m.name,
                                    if governed { "CBP+gov" } else { "CBP" }
                                ),
                                job: Job::Faulty { mix: i, faults: faults.clone(), governed },
                                reference: governed.then_some(base),
                            });
                        }
                    }
                }
            }
            _ => return None,
        }
        Some(Plan { seed, cfg, mixes, cells })
    }

    fn warmup_core_cycles(&self, mix: usize) -> u64 {
        self.cfg.warmup_cycles * self.mixes[mix].num_cores() as u64
    }

    /// Runs `cell` through the public entry point `repro` uses. `pool` is
    /// the rep's warm-up pool.
    pub fn run(&self, cell: &Cell, pool: &WarmupPool) -> Outcome {
        let cfg = &self.cfg;
        let (r, warm) = match &cell.job {
            Job::Pooled { mix, mech, warms } => {
                let r = run_mix_pooled(pool, &self.mixes[*mix], *mech, cfg);
                (r, if *warms { self.warmup_core_cycles(*mix) } else { 0 })
            }
            Job::Learned { mix } => {
                let learner = Learner::Rl(RlPolicy::new(self.seed, RL_EPSILON));
                let r = run_mix_learned(&self.mixes[*mix], Mechanism::RlCbp, cfg, Some(learner));
                (r, self.warmup_core_cycles(*mix))
            }
            Job::Faulty { mix, faults, governed } => {
                let m = &self.mixes[*mix];
                let r = if *governed {
                    run_mix_governed(m, Mechanism::Cbp, cfg, faults, GovernorConfig::new(self.seed))
                } else {
                    run_mix_with_faults(m, Mechanism::Cbp, cfg, faults)
                };
                (r, self.warmup_core_cycles(*mix))
            }
            Job::Solo { bench } => {
                let ipc = run_alone_ipc(&Slot::Bench(bench), cfg);
                return Outcome {
                    ipcs: vec![ipc],
                    epochs: Vec::new(),
                    core_cycles: cfg.warmup_cycles.max(1) + cfg.alone_cycles,
                };
            }
        };
        window_outcome(r, warm)
    }

    /// Runs `cell` as [`Plan::run`] does, but step by step over a
    /// [`Probe`], recording per-layer time and counts into `tr`.
    pub fn run_traced(&self, cell: &Cell, tr: &mut Tracer) -> Outcome {
        let cfg = &self.cfg;
        match &cell.job {
            Job::Pooled { mix, mech, .. } => {
                // WarmupPool's steps: the first trial of a mix builds, warms
                // and snapshots the machine and runs on it; later trials run
                // on restored copies.
                let probe = match tr.snaps.get(mix) {
                    Some(snap) => {
                        let t = Instant::now();
                        let sys = snap.restore();
                        tr.layers.restore_ns += ns(t);
                        tr.layers.restores += 1;
                        Probe::new(sys)
                    }
                    None => {
                        let mut probe = Probe::new(tr.build(&self.mixes[*mix], cfg));
                        warm(&mut probe, cfg);
                        let t = Instant::now();
                        let snap = probe.inner().snapshot();
                        tr.layers.capture_ns += ns(t);
                        tr.layers.captures += 1;
                        if let Some(snap) = snap {
                            tr.snaps.insert(*mix, snap);
                        }
                        probe
                    }
                };
                tr.window(Driver::new(probe, *mech, cfg.ctrl.clone()), cfg)
            }
            Job::Learned { mix } => {
                let mut probe = Probe::new(tr.build(&self.mixes[*mix], cfg));
                warm(&mut probe, cfg);
                let learner = Learner::Rl(RlPolicy::new(self.seed, RL_EPSILON));
                let driver =
                    Driver::new(probe, Mechanism::RlCbp, cfg.ctrl.clone()).with_learner(learner);
                tr.window(driver, cfg)
            }
            Job::Faulty { mix, faults, governed } => {
                let sys = FaultySubstrate::new(tr.build(&self.mixes[*mix], cfg), faults.clone());
                let mut probe = Probe::new(sys);
                warm(&mut probe, cfg);
                let mut driver = Driver::new(probe, Mechanism::Cbp, cfg.ctrl.clone());
                if *governed {
                    driver = driver.with_governor(GovernorConfig::new(self.seed));
                }
                tr.window(driver, cfg)
            }
            Job::Solo { bench } => {
                // run_alone_ipc's steps.
                let t = Instant::now();
                let mut sys_cfg = cfg.sys.clone();
                sys_cfg.set_num_cores(1);
                let w = Slot::Bench(bench).instantiate(sys_cfg.llc.size_bytes, 1 << 36, 7);
                let mut probe = Probe::new(System::new(sys_cfg, vec![w]));
                tr.layers.instantiate_ns += ns(t);
                probe.run(cfg.warmup_cycles.max(1));
                probe.set_phase(Phase::Exec);
                let before = probe.pmu_all()[0];
                probe.run(cfg.alone_cycles);
                let ipc = (probe.pmu_all()[0] - before).ipc();
                let stats = probe.stats();
                tr.layers.probe.add(&stats);
                Outcome { ipcs: vec![ipc], epochs: Vec::new(), core_cycles: total(&stats) }
            }
        }
    }
}

fn window_outcome(r: MixResult, warmup_core_cycles: u64) -> Outcome {
    Outcome {
        core_cycles: r.pmu.iter().map(|p| p.cycles).sum::<u64>() + warmup_core_cycles,
        ipcs: r.ipcs,
        epochs: r.epochs,
    }
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn total(s: &ProbeStats) -> u64 {
    s.run_core_cycles.iter().sum()
}

/// The uncontrolled warm-up every entry point runs before its window.
fn warm<S: Machine>(probe: &mut Probe<S>, cfg: &ExperimentConfig) {
    if cfg.warmup_cycles > 0 {
        probe.set_phase(Phase::Warmup);
        probe.run(cfg.warmup_cycles);
    }
}

/// Per-layer time and counts of one traced rep.
#[derive(Debug, Default)]
pub struct Layers {
    pub probe: ProbeStats,
    pub captures: u64,
    pub restores: u64,
    pub capture_ns: u64,
    pub restore_ns: u64,
    /// Profiling epochs (`Driver::epochs`) and what their journal records
    /// (one per CAT domain and epoch) say.
    pub epochs: u64,
    pub trials: u64,
    pub searched_records: u64,
    pub winner_moved: u64,
    pub degraded: u64,
    pub ctrl_self_ns: u64,
    pub faults_retried: u64,
    pub faults_gave_up: u64,
    pub rollbacks: u64,
    pub quarantines: u64,
    pub breaker_trips: u64,
    pub journal_ns: u64,
    pub journal_bytes: u64,
    pub mixes_ns: u64,
    pub instantiate_ns: u64,
}

impl Layers {
    /// The per-layer metrics of a traced rep whose cells took `wall_s`
    /// (`bench.trace_overhead_pct` needs the untraced reps and is added by
    /// the parent).
    pub fn values(&self, wall_s: f64) -> Vec<(&'static str, f64)> {
        let p = &self.probe;
        let s = |ns: u64| ns as f64 / 1e9;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let sim_ns: u64 = p.run_ns.iter().sum();
        let core_cycles: u64 = p.run_core_cycles.iter().sum();
        let llc_lookups = p.pmu.l2_dm_miss + p.pmu.l2_pf_miss;
        let attributed = sim_ns
            + self.capture_ns
            + self.restore_ns
            + self.ctrl_self_ns
            + p.pmu_ns
            + p.msr_ns
            + self.journal_ns
            + self.instantiate_ns;
        vec![
            ("sim.warmup.host_s", s(p.run_ns[0])),
            ("sim.warmup.core_cycles", p.run_core_cycles[0] as f64),
            ("sim.profile.host_s", s(p.run_ns[1])),
            ("sim.profile.core_cycles", p.run_core_cycles[1] as f64),
            ("sim.profile.calls", p.run_calls[1] as f64),
            ("sim.exec.host_s", s(p.run_ns[2])),
            ("sim.exec.core_cycles", p.run_core_cycles[2] as f64),
            ("sim.host_ns_per_core_cycle", ratio(sim_ns as f64, core_cycles as f64)),
            ("sim.instructions", p.pmu.instructions as f64),
            ("sim.host_ns_per_kinstr", ratio(sim_ns as f64, p.pmu.instructions as f64 / 1e3)),
            ("sim.llc_lookups", llc_lookups as f64),
            ("sim.host_ns_per_llc_lookup", ratio(sim_ns as f64, llc_lookups as f64)),
            ("sim.l3_load_miss", p.pmu.l3_load_miss as f64),
            ("sim.pf.requests", (p.pmu.l1_pf_req + p.pmu.l2_pf_req) as f64),
            (
                "sim.pf.accuracy",
                ratio(p.pmu.pf_used as f64, (p.pmu.pf_used + p.pmu.pf_wasted) as f64),
            ),
            ("sim.pf.dropped", p.pf_dropped as f64),
            ("mem.bytes", p.pmu.mem_total_bytes() as f64),
            ("snapshot.captures", self.captures as f64),
            ("snapshot.restores", self.restores as f64),
            ("snapshot.capture.host_s", s(self.capture_ns)),
            ("snapshot.restore.host_s", s(self.restore_ns)),
            ("ctrl.epochs", self.epochs as f64),
            ("ctrl.trials", self.trials as f64),
            ("ctrl.trials_per_epoch", ratio(self.trials as f64, self.epochs as f64)),
            ("ctrl.profile_share", ratio(p.run_core_cycles[1] as f64, core_cycles as f64)),
            ("ctrl.self.host_s", s(self.ctrl_self_ns)),
            (
                "ctrl.winner_moved_ratio",
                ratio(self.winner_moved as f64, self.searched_records as f64),
            ),
            ("ctrl.degraded_epochs", self.degraded as f64),
            ("substrate.pmu_reads", p.pmu_reads as f64),
            ("substrate.pmu.host_s", s(p.pmu_ns)),
            ("substrate.msr_writes", p.msr_writes as f64),
            ("substrate.msr_write_errors", p.msr_write_errors as f64),
            ("substrate.msr.host_s", s(p.msr_ns)),
            ("faults.retried", self.faults_retried as f64),
            ("faults.gave_up", self.faults_gave_up as f64),
            ("governor.rollbacks", self.rollbacks as f64),
            ("governor.quarantines", self.quarantines as f64),
            ("governor.breaker_trips", self.breaker_trips as f64),
            ("journal.render.host_s", s(self.journal_ns)),
            ("journal.bytes", self.journal_bytes as f64),
            ("setup.mixes.host_s", s(self.mixes_ns)),
            ("setup.instantiate.host_s", s(self.instantiate_ns)),
            ("bench.attributed_share", ratio(s(attributed), wall_s)),
        ]
    }
}

/// State of one traced rep: its layer totals and its warm-up snapshots
/// (the traced twin of the rep's `WarmupPool`).
#[derive(Default)]
pub struct Tracer {
    pub layers: Layers,
    snaps: HashMap<usize, SystemSnapshot>,
}

impl Tracer {
    /// `build_system`'s steps: the mix's workloads on a machine sized to it.
    fn build(&mut self, mix: &Mix, cfg: &ExperimentConfig) -> System {
        let t = Instant::now();
        let mut sys_cfg = cfg.sys.clone();
        sys_cfg.set_num_cores(mix.num_cores());
        let workloads = mix.instantiate(sys_cfg.llc.size_bytes);
        let sys = System::new(sys_cfg, workloads);
        self.layers.instantiate_ns += ns(t);
        sys
    }

    /// The measurement window of `run_mix_driver`, with `Driver::run_total`
    /// unrolled so the time inside `epoch()` can be split from the
    /// execution epochs.
    fn window<S: Machine>(
        &mut self,
        mut driver: Driver<Probe<S>>,
        cfg: &ExperimentConfig,
    ) -> Outcome {
        let mut log = Vec::new();
        let before = pmu_read_checked(driver.system_mut(), &mut log);
        let target = driver.system().now() + cfg.total_cycles;
        while driver.system().now() < target {
            driver.system_mut().set_phase(Phase::Profile);
            let busy = driver.system().busy_ns();
            let t = Instant::now();
            driver.epoch();
            let below = driver.system().busy_ns() - busy;
            self.layers.ctrl_self_ns += ns(t).saturating_sub(below);
            driver.system_mut().set_phase(Phase::Exec);
            let exec = target.saturating_sub(driver.system().now()).min(cfg.ctrl.execution_epoch);
            if exec > 0 {
                driver.system_mut().run(exec);
            }
        }
        let after = pmu_read_checked(driver.system_mut(), &mut log);
        let ipcs = after.iter().zip(&before).map(|(&a, &b)| (a - b).ipc()).collect();
        let epochs = driver.take_records();
        let l = &mut self.layers;
        l.epochs += driver.epochs();
        for e in &epochs {
            l.trials += e.trials.len() as u64;
            if e.trials.len() >= 2 {
                l.searched_records += 1;
                l.winner_moved += (e.winner.is_some_and(|w| w != 0)) as u64;
            }
            l.degraded += e.degraded.is_some() as u64;
            for f in &e.faults {
                match f.action {
                    "retry_ok" | "reread" => l.faults_retried += 1,
                    "gave_up" => l.faults_gave_up += 1,
                    _ => {}
                }
            }
            for g in &e.governor {
                match g.action {
                    "rollback" => l.rollbacks += 1,
                    "quarantine" => l.quarantines += 1,
                    "breaker_open" => l.breaker_trips += 1,
                    _ => {}
                }
            }
        }
        let stats = driver.system().stats();
        l.probe.add(&stats);
        Outcome { ipcs, epochs, core_cycles: total(&stats) }
    }
}

/// FNV-1a over each core's IPC bits, then every epoch's journal line —
/// the cell's output check. Adds the journal bytes rendered to
/// `journal_bytes`.
pub fn digest(name: &str, out: &Outcome, journal_bytes: &mut u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for ipc in &out.ipcs {
        eat(&ipc.to_bits().to_le_bytes());
    }
    for e in &out.epochs {
        let line = e.to_json_line(name);
        *journal_bytes += line.len() as u64;
        eat(line.as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `workload`'s plan on durations short enough for a debug build, still
    /// long enough for two profiling epochs.
    fn tiny(workload: &str) -> Plan {
        let mut plan = Plan::new(workload, 7).expect("known workload");
        plan.cfg.warmup_cycles = 20_000;
        plan.cfg.total_cycles = 230_000;
        plan.cfg.alone_cycles = 30_000;
        plan
    }

    fn digests(plan: &Plan, cells: &[usize], traced: bool) -> Vec<u64> {
        let pool = WarmupPool::new();
        let mut tr = Tracer::default();
        cells
            .iter()
            .map(|&i| {
                let cell = &plan.cells[i];
                let out =
                    if traced { plan.run_traced(cell, &mut tr) } else { plan.run(cell, &pool) };
                digest(&cell.name, &out, &mut 0)
            })
            .collect()
    }

    #[test]
    fn probe_is_invisible_on_every_cell_kind() {
        // Pooled cells that warm and that restore, RL-CBP, the per-domain
        // path, bare and governed faulty cells at both rates, a solo cell.
        for (workload, cells) in [
            ("mix8", vec![0, 1, 2, 3]),
            ("scale128", vec![0, 1]),
            ("faults8", vec![0, 1, 2, 3]),
            ("solo", vec![0]),
        ] {
            let plan = tiny(workload);
            assert_eq!(digests(&plan, &cells, false), digests(&plan, &cells, true), "{workload}");
        }
    }

    #[test]
    fn traced_faulty_cells_see_faults() {
        let plan = tiny("faults8");
        let mut tr = Tracer::default();
        for cell in &plan.cells[2..4] {
            plan.run_traced(cell, &mut tr);
        }
        assert!(tr.layers.probe.msr_write_errors > 0);
        assert!(tr.layers.faults_retried > 0);
    }

    #[test]
    fn untraced_core_cycles_track_the_probe_count() {
        // Each core's PMU clock may overshoot the machine clock by one op at
        // either window edge: a few hundred cycles per core, 0.2 % of these
        // tiny windows.
        let plan = tiny("mix8");
        let (pool, mut tr) = (WarmupPool::new(), Tracer::default());
        for cell in &plan.cells[..4] {
            let exact = plan.run_traced(cell, &mut tr).core_cycles as f64;
            let measured = plan.run(cell, &pool).core_cycles as f64;
            assert!((measured / exact - 1.0).abs() < 5e-3, "{}: {measured} vs {exact}", cell.name);
        }
    }
}
