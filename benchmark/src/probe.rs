//! `Probe`: a timing-and-counting [`Substrate`] decorator, shaped like
//! [`cmm_core::fault::FaultySubstrate`].
//!
//! Every call the controller makes into the machine crosses the substrate
//! boundary, so wrapping the substrate is enough to split a traced cell's
//! host time into simulator (`run`), substrate (`pmu_all`, `write_msr`,
//! `read_msr`) and — by subtraction around `Driver::epoch` — controller self
//! time. The probe never consumes fault-schedule entropy of its own and
//! forwards every call unchanged, so a traced cell's results equal its
//! untraced twin's (the digest check proves it on every traced run).

use std::cell::Cell;
use std::time::Instant;

use cmm_core::fault::FaultySubstrate;
use cmm_core::substrate::Substrate;
use cmm_sim::config::SystemConfig;
use cmm_sim::memory::CoreMemTraffic;
use cmm_sim::pmu::Pmu;
use cmm_sim::system::{CoreControl, MsrError};
use cmm_sim::System;

/// Which part of a cell a `run` call belongs to, set by the benchmark
/// around its calls into the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Uncontrolled cache warm-up before the measurement window.
    Warmup = 0,
    /// Inside `Driver::epoch`: detection and trial sampling intervals.
    Profile = 1,
    /// The execution epoch between two profiling epochs.
    Exec = 2,
}

/// The simulator underneath a (possibly decorated) substrate. The probe
/// reads its counters through `&System` methods, which draw no fault
/// entropy, so accounting never perturbs a faulty run.
pub trait Machine: Substrate {
    /// The simulated machine.
    fn machine(&self) -> &System;
}

impl Machine for System {
    fn machine(&self) -> &System {
        self
    }
}

impl Machine for FaultySubstrate<System> {
    fn machine(&self) -> &System {
        self.inner()
    }
}

/// What one probe saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeStats {
    /// Host nanoseconds inside `run`, per [`Phase`].
    pub run_ns: [u64; 3],
    /// Simulated core-cycles advanced by `run`, per [`Phase`].
    pub run_core_cycles: [u64; 3],
    /// `run` calls, per [`Phase`].
    pub run_calls: [u64; 3],
    /// `pmu_all` calls and their host time.
    pub pmu_reads: u64,
    pub pmu_ns: u64,
    /// `write_msr` calls, how many returned an error, and the host time of
    /// every `write_msr` and `read_msr` call (filled in by `Probe::stats`).
    pub msr_writes: u64,
    pub msr_write_errors: u64,
    pub msr_ns: u64,
    /// Simulator counters accumulated on this machine while probed: the
    /// per-core PMU delta summed over cores, and dropped prefetches.
    pub pmu: Pmu,
    pub pf_dropped: u64,
}

/// The decorator.
pub struct Probe<S> {
    inner: S,
    phase: Phase,
    stats: ProbeStats,
    /// `read_msr` takes `&self`, so MSR time accumulates here.
    msr_ns: Cell<u64>,
    pmu_at_start: Vec<Pmu>,
    dropped_at_start: u64,
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

impl<S: Machine> Probe<S> {
    /// Wraps `inner`; simulator counters are accounted from this point on
    /// (a machine restored from a snapshot does not re-count its warm-up).
    pub fn new(inner: S) -> Self {
        let m = inner.machine();
        let pmu_at_start = m.pmu_all();
        let dropped_at_start = m.prefetches_dropped();
        Probe {
            inner,
            phase: Phase::Warmup,
            stats: ProbeStats::default(),
            msr_ns: Cell::new(0),
            pmu_at_start,
            dropped_at_start,
        }
    }

    /// Attributes subsequent `run` calls to `phase`.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// The wrapped substrate (a pooled warm-up is snapshotted from it).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Host time spent below the substrate boundary so far.
    pub fn busy_ns(&self) -> u64 {
        self.stats.run_ns.iter().sum::<u64>() + self.stats.pmu_ns + self.msr_ns.get()
    }

    fn add_msr_ns(&self, since: Instant) {
        self.msr_ns.set(self.msr_ns.get() + ns(since));
    }

    /// Counters so far, including the simulator's own.
    pub fn stats(&self) -> ProbeStats {
        let mut s = self.stats;
        s.msr_ns = self.msr_ns.get();
        let m = self.inner.machine();
        for (now, start) in m.pmu_all().iter().zip(&self.pmu_at_start) {
            add_pmu(&mut s.pmu, &(*now - *start));
        }
        s.pf_dropped = m.prefetches_dropped().saturating_sub(self.dropped_at_start);
        s
    }
}

impl ProbeStats {
    /// Accumulates another probe's stats.
    pub fn add(&mut self, o: &ProbeStats) {
        for p in 0..3 {
            self.run_ns[p] += o.run_ns[p];
            self.run_core_cycles[p] += o.run_core_cycles[p];
            self.run_calls[p] += o.run_calls[p];
        }
        self.pmu_reads += o.pmu_reads;
        self.pmu_ns += o.pmu_ns;
        self.msr_writes += o.msr_writes;
        self.msr_write_errors += o.msr_write_errors;
        self.msr_ns += o.msr_ns;
        add_pmu(&mut self.pmu, &o.pmu);
        self.pf_dropped += o.pf_dropped;
    }
}

/// Adds the counters the per-layer report uses.
fn add_pmu(acc: &mut Pmu, d: &Pmu) {
    acc.instructions += d.instructions;
    acc.l2_dm_miss += d.l2_dm_miss;
    acc.l2_pf_miss += d.l2_pf_miss;
    acc.l1_pf_req += d.l1_pf_req;
    acc.l2_pf_req += d.l2_pf_req;
    acc.l3_load_miss += d.l3_load_miss;
    acc.mem_demand_bytes += d.mem_demand_bytes;
    acc.mem_prefetch_bytes += d.mem_prefetch_bytes;
    acc.mem_writeback_bytes += d.mem_writeback_bytes;
    acc.pf_used += d.pf_used;
    acc.pf_wasted += d.pf_wasted;
}

impl<S: Machine> Substrate for Probe<S> {
    fn num_cores(&self) -> usize {
        self.inner.num_cores()
    }

    fn llc_ways(&self) -> u32 {
        self.inner.llc_ways()
    }

    fn config(&self) -> &SystemConfig {
        self.inner.config()
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn run(&mut self, cycles: u64) {
        let t = Instant::now();
        self.inner.run(cycles);
        let p = self.phase as usize;
        self.stats.run_ns[p] += ns(t);
        self.stats.run_core_cycles[p] += cycles * self.inner.num_cores() as u64;
        self.stats.run_calls[p] += 1;
    }

    fn pmu_all(&mut self) -> Vec<Pmu> {
        let t = Instant::now();
        let v = self.inner.pmu_all();
        self.stats.pmu_ns += ns(t);
        self.stats.pmu_reads += 1;
        v
    }

    fn traffic(&self, core: usize) -> CoreMemTraffic {
        self.inner.traffic(core)
    }

    fn write_msr(&mut self, core: usize, msr: u32, value: u64) -> Result<(), MsrError> {
        let t = Instant::now();
        let r = self.inner.write_msr(core, msr, value);
        self.add_msr_ns(t);
        self.stats.msr_writes += 1;
        self.stats.msr_write_errors += r.is_err() as u64;
        r
    }

    fn read_msr(&self, core: usize, msr: u32) -> Result<u64, MsrError> {
        let t = Instant::now();
        let r = self.inner.read_msr(core, msr);
        self.add_msr_ns(t);
        r
    }

    fn reset_cat(&mut self) {
        self.inner.reset_cat()
    }

    fn reset_cat_domain(&mut self, socket: usize) {
        self.inner.reset_cat_domain(socket)
    }

    fn control_state(&self) -> Vec<CoreControl> {
        self.inner.control_state()
    }
}
