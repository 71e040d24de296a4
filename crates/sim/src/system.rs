//! The whole machine: one or more sockets, each with its cores, a
//! CAT-partitionable LLC and (per topology) its own memory controller,
//! stepped in loosely-synchronised quanta.
//!
//! Cores advance their private clocks independently within one quantum
//! (default 1000 cycles) and re-synchronise at quantum boundaries, where
//! deferred inclusive back-invalidations are applied to the other cores'
//! private caches. This is the standard relaxed-synchronisation scheme of
//! fast multicore simulators; at 1000-cycle quanta the skew is far below
//! the epoch lengths the CMM controller operates on.
//!
//! A socket that owns its memory controller shares no mutable state with
//! any other socket, so [`System::run`] splits such sockets into one
//! share per host thread and runs each share through the whole call on
//! its own thread. Sockets behind one shared controller interact through
//! it and run together on the calling thread. Either way each quantum
//! steps every socket's cores and then drains every socket's
//! back-invalidations, and the results are bit-identical at any thread
//! count.

use crate::config::SystemConfig;
use crate::core_model::Core;
use crate::memory::{CoreMemTraffic, MemoryController};
use crate::msr::{
    mba_level_valid, CatError, CatState, IA32_L3_QOS_MASK_BASE, IA32_PQR_ASSOC, MSR_MBA_THROTTLE,
    MSR_MISC_FEATURE_CONTROL,
};
use crate::pmu::Pmu;
use crate::presence::Llc;
use crate::workload::Workload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static SIMULATED_CORE_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Core-cycles (machine cycles × cores) every [`System::run`] in this
/// process has simulated so far; a [`SystemSnapshot`] restore adds none.
/// Measure a span of work by the difference of two reads.
pub fn simulated_core_cycles() -> u64 {
    SIMULATED_CORE_CYCLES.load(Ordering::Relaxed)
}

/// Errors from the WRMSR/RDMSR emulation surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsrError {
    /// The MSR address is not emulated.
    UnknownMsr(u32),
    /// CAT programming fault (would be #GP(0) on hardware).
    Cat(CatError),
    /// Core index out of range.
    BadCore(usize),
    /// Transient WRMSR rejection (a spurious #GP a retry may clear). The
    /// base [`System`] never raises this; fault-injecting substrates do,
    /// and the controller's bounded-retry path depends on distinguishing
    /// it from the permanent errors above.
    Rejected(u32),
    /// An MBA delay value outside the programmable 0/10/…/90 set (would
    /// be #GP(0) on a reserved delay-register encoding).
    BadMbaLevel(u64),
}

impl std::fmt::Display for MsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsrError::UnknownMsr(a) => write!(f, "unknown MSR {a:#x}"),
            MsrError::Cat(e) => write!(f, "CAT error: {e}"),
            MsrError::BadCore(c) => write!(f, "core {c} out of range"),
            MsrError::Rejected(a) => write!(f, "WRMSR {a:#x} transiently rejected"),
            MsrError::BadMbaLevel(v) => {
                write!(f, "MBA throttle level {v} is not a multiple of 10 in 0..=90")
            }
        }
    }
}

impl std::error::Error for MsrError {}

impl From<CatError> for MsrError {
    fn from(e: CatError) -> Self {
        MsrError::Cat(e)
    }
}

/// One socket's shared state: its LLC (with the L2-holder masks), CAT
/// domain, deferred back-invalidation queue, and (when the topology gives
/// each socket a private channel) its memory controller. CAT and holder
/// masks are indexed by socket-*local* core ids.
#[derive(Clone)]
struct SocketState {
    llc: Llc,
    cat: CatState,
    inval: Vec<u64>,
    /// `Some` iff [`Topology::mem_per_socket`](crate::config::Topology);
    /// otherwise the machine-wide [`System::shared_mem`] serves this
    /// socket (with the cross-socket penalty for non-zero sockets).
    mem: Option<MemoryController>,
}

/// The simulated machine: `topology.sockets` instances of
/// [`SocketState`] over one socket-major array of cores.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    sockets: Vec<SocketState>,
    /// The machine-wide memory controller when the topology shares one
    /// channel group across sockets (always the case for single-socket).
    shared_mem: Option<MemoryController>,
    now: u64,
}

impl SocketState {
    /// The controller serving this socket: its own, else `shared`.
    fn mem<'a>(
        mem: &'a mut Option<MemoryController>,
        shared: Option<&'a mut MemoryController>,
    ) -> &'a mut MemoryController {
        mem.as_mut().or(shared).expect("a controller")
    }

    /// Steps this socket's cores (`cores`, indexed by socket-local id) to
    /// `qend`. `shared` is the machine-wide controller, if any.
    fn run_cores(&mut self, cores: &mut [Core], qend: u64, shared: Option<&mut MemoryController>) {
        let SocketState { llc, cat, inval, mem } = self;
        let mem = Self::mem(mem, shared);
        for core in cores {
            core.run_until(qend, llc, cat, mem, inval);
        }
    }

    /// Inclusive back-invalidation of the queued LLC victims, targeted at
    /// the cores whose private caches hold a copy now (the line's holder
    /// mask, wherever it lives) instead of broadcasting to every core.
    /// The evicting core already dropped its own copy at fill time.
    fn drain_invalidations(&mut self, cores: &mut [Core], shared: Option<&mut MemoryController>) {
        let SocketState { llc, inval, mem, .. } = self;
        let mem = Self::mem(mem, shared);
        for line in inval.drain(..) {
            let mut mask = llc.take_holders(line);
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                cores[i].back_invalidate(line, mem);
            }
        }
    }
}

/// One socket and its cores, in socket-local order.
type Domain<'a> = (&'a mut SocketState, &'a mut [Core]);

/// Runs `domains` through the quanta from `now` to `target` in lockstep:
/// each quantum steps every socket's cores, then drains every socket's
/// back-invalidation queue. `shared` is the machine-wide controller, if
/// any; sockets without one of their own queue at it in socket order.
///
/// Kept out of line so that the hot loop (`Core::run_until` and the
/// access path it inlines) is compiled once, whichever path of
/// [`System::run`] calls it.
#[inline(never)]
fn run_lockstep(
    domains: &mut [Domain<'_>],
    mut now: u64,
    target: u64,
    quantum: u64,
    mut shared: Option<&mut MemoryController>,
) {
    while now < target {
        let qend = (now + quantum).min(target);
        for (sock, cores) in domains.iter_mut() {
            sock.run_cores(cores, qend, shared.as_deref_mut());
        }
        for (sock, cores) in domains.iter_mut() {
            sock.drain_invalidations(cores, shared.as_deref_mut());
        }
        now = qend;
    }
}

/// Host threads available to one [`System::run`], read once per process.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl System {
    /// Builds a machine running one workload per core.
    /// `workloads.len()` must equal `cfg.num_cores`.
    pub fn new(cfg: SystemConfig, workloads: Vec<Box<dyn Workload + Send>>) -> Self {
        cfg.validate();
        assert_eq!(
            workloads.len(),
            cfg.num_cores,
            "one workload per core ({} cores, {} workloads)",
            cfg.num_cores,
            workloads.len()
        );
        let topo = cfg.topology;
        let cores: Vec<Core> =
            workloads.into_iter().enumerate().map(|(i, w)| Core::new(i, &cfg, w)).collect();
        let sockets: Vec<SocketState> = (0..topo.sockets)
            .map(|_| SocketState {
                llc: Llc::new(cfg.llc, topo.cores_per_socket),
                cat: CatState::new(cfg.num_clos, cfg.llc.ways, &topo),
                inval: Vec::new(),
                mem: topo.mem_per_socket.then(|| MemoryController::new(cfg.memory, &topo)),
            })
            .collect();
        let shared_mem = (!topo.mem_per_socket).then(|| MemoryController::new(cfg.memory, &topo));
        System { cfg, cores, sockets, shared_mem, now: 0 }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of sockets (CAT domains).
    pub fn num_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// LLC associativity (CAT mask width) — identical on every socket.
    pub fn llc_ways(&self) -> u32 {
        self.cfg.llc.ways
    }

    /// The machine configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Global cycle count (quantum-granular).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The memory controller serving `socket`.
    fn mem_for(&self, socket: usize) -> &MemoryController {
        self.sockets[socket].mem.as_ref().or(self.shared_mem.as_ref()).expect("a controller")
    }

    /// Mutable access to the controller serving `socket`.
    fn mem_for_mut(&mut self, socket: usize) -> &mut MemoryController {
        SocketState::mem(&mut self.sockets[socket].mem, self.shared_mem.as_mut())
    }

    /// Advances the whole machine by `cycles` cycles.
    ///
    /// Every quantum steps the cores of each socket to the quantum's end
    /// and then drains each socket's back-invalidation queue. Sockets
    /// behind one shared controller interact through it, so they run on
    /// the calling thread in that lockstep order. Sockets with their own
    /// controller share no mutable state, so the order among them is
    /// unobservable: they are split into `min(sockets,
    /// available_parallelism())` contiguous shares, and each share runs
    /// through the whole call on its own thread — the calling thread
    /// takes the first, one scoped thread each of the others. A single
    /// socket, or a host with one CPU, spawns no thread. Either way the
    /// result is bit-identical to stepping all sockets in lockstep on one
    /// thread.
    ///
    /// A panic in any socket's workload propagates from this call with
    /// its original payload.
    pub fn run(&mut self, cycles: u64) {
        SIMULATED_CORE_CYCLES.fetch_add(cycles * self.cores.len() as u64, Ordering::Relaxed);
        let (from, target, quantum) = (self.now, self.now + cycles, self.cfg.quantum);
        let cps = self.cfg.topology.cores_per_socket;
        let System { cores, sockets, shared_mem, .. } = self;
        let mut domains: Vec<Domain> = sockets.iter_mut().zip(cores.chunks_mut(cps)).collect();
        match shared_mem {
            Some(mem) => run_lockstep(&mut domains, from, target, quantum, Some(mem)),
            None => {
                let share = domains.len().div_ceil(domains.len().min(host_threads()));
                let mut shares = domains.chunks_mut(share);
                let first = shares.next().expect("at least one socket");
                std::thread::scope(|scope| {
                    let handles: Vec<_> = shares
                        .map(|s| scope.spawn(move || run_lockstep(s, from, target, quantum, None)))
                        .collect();
                    run_lockstep(first, from, target, quantum, None);
                    // Re-raise a worker's own payload: the scope's generic
                    // "a scoped thread panicked" would replace its message.
                    for h in handles {
                        if let Err(payload) = h.join() {
                            std::panic::resume_unwind(payload);
                        }
                    }
                });
            }
        }
        self.now = target;
    }

    /// Captures the machine's complete state — every core's caches,
    /// prefetcher training, MSHRs and clock, the LLC, CAT programming,
    /// memory-controller state and L2-holder masks — as an immutable snapshot
    /// that [`SystemSnapshot::restore`] can later rehydrate any number of
    /// times.
    ///
    /// Returns `None` when any core's workload does not implement
    /// [`Workload::try_clone_box`] (externally-streamed workloads cannot
    /// be rewound). The built-in synthetic and trace workloads all can;
    /// trace recordings are shared behind an `Arc`, so a snapshot costs a
    /// few memcpys of tag arrays, not a copy of the trace.
    ///
    /// The intended use is warm-up sharing: simulate the (uncontrolled,
    /// mechanism-independent) cache warm-up once, snapshot, and restore
    /// per mechanism trial — instead of re-simulating the warm-up for
    /// every trial. A restored machine is byte-for-byte the machine that
    /// was snapshotted, so results are identical to the re-simulated path.
    pub fn snapshot(&self) -> Option<SystemSnapshot> {
        self.try_clone().map(|sys| SystemSnapshot { sys })
    }

    fn try_clone(&self) -> Option<System> {
        let mut cores = Vec::with_capacity(self.cores.len());
        for c in &self.cores {
            cores.push(c.try_clone()?);
        }
        Some(System {
            cfg: self.cfg.clone(),
            cores,
            sockets: self.sockets.clone(),
            shared_mem: self.shared_mem.clone(),
            now: self.now,
        })
    }

    // ----- cache-state introspection (tests, debugging) -----------------

    /// True if core `i`'s L1 holds `line` (testing/debug introspection).
    pub fn l1_contains(&self, core: usize, line: u64) -> bool {
        self.cores[core].l1.contains(line)
    }

    /// True if core `i`'s L2 holds `line` (testing/debug introspection).
    pub fn l2_contains(&self, core: usize, line: u64) -> bool {
        self.cores[core].l2.contains(line)
    }

    /// True if any socket's LLC holds `line` (testing/debug
    /// introspection). On single-socket machines this is the one LLC.
    pub fn llc_contains(&self, line: u64) -> bool {
        self.sockets.iter().any(|s| s.llc.cache().contains(line))
    }

    /// Bitmask of socket-0 cores whose L2 the holder masks record as
    /// holding `line` (testing/debug introspection); see
    /// [`System::presence_holders_in`] for other sockets.
    pub fn presence_holders(&self, line: u64) -> u64 {
        self.presence_holders_in(0, line)
    }

    /// Socket-local holder bitmask for `line` on `socket` — bit *i* is
    /// the core with global id `socket * cores_per_socket + i`.
    pub fn presence_holders_in(&self, socket: usize, line: u64) -> u64 {
        self.sockets[socket].llc.holders(line)
    }

    /// Reads core `i`'s PMU snapshot (valid as of the last quantum
    /// boundary).
    pub fn pmu(&self, core: usize) -> Pmu {
        self.cores[core].pmu
    }

    /// Snapshots all cores' PMUs at once (the controller reads these at
    /// epoch boundaries, like the paper's PMI handler).
    pub fn pmu_all(&self) -> Vec<Pmu> {
        self.cores.iter().map(|c| c.pmu).collect()
    }

    /// Per-core memory traffic counters (global core id; reads the
    /// controller serving that core's socket).
    pub fn traffic(&self, core: usize) -> CoreMemTraffic {
        self.mem_for(self.cfg.topology.socket_of(core)).traffic(core)
    }

    /// Total prefetch requests dropped across every memory controller.
    pub fn prefetches_dropped(&self) -> u64 {
        self.shared_mem
            .iter()
            .chain(self.sockets.iter().filter_map(|s| s.mem.as_ref()))
            .map(|m| m.prefetches_dropped)
            .sum()
    }

    /// Name of the benchmark on core `i`.
    pub fn workload_name(&self, core: usize) -> &str {
        self.cores[core].workload.name()
    }

    /// WRMSR emulation. Supported MSRs: `MSR_MISC_FEATURE_CONTROL`
    /// (per-core prefetcher disable bits), `IA32_PQR_ASSOC` (CLOS
    /// association; low bits = CLOS id) and `IA32_L3_QOS_MASK_BASE + n`
    /// (way mask of CLOS *n*). CAT MSRs are socket-scoped, exactly as on
    /// hardware: a PQR or mask write issued from `core` programs the CAT
    /// domain of *that core's socket* and no other.
    pub fn write_msr(&mut self, core: usize, msr: u32, value: u64) -> Result<(), MsrError> {
        if core >= self.cores.len() {
            return Err(MsrError::BadCore(core));
        }
        let topo = self.cfg.topology;
        let sock = topo.socket_of(core);
        match msr {
            MSR_MISC_FEATURE_CONTROL => {
                self.cores[core].battery.write_msr(value);
                Ok(())
            }
            MSR_MBA_THROTTLE => {
                if !mba_level_valid(value) {
                    return Err(MsrError::BadMbaLevel(value));
                }
                // The throttle is enforced by whichever controller serves
                // this core's socket; the per-core slot is global-id
                // indexed, so shared and per-socket layouts program alike.
                self.mem_for_mut(sock).set_mba_level(core, value);
                Ok(())
            }
            IA32_PQR_ASSOC => {
                self.sockets[sock].cat.set_assoc(topo.local_id(core), value as usize)?;
                Ok(())
            }
            m if m >= IA32_L3_QOS_MASK_BASE
                && m < IA32_L3_QOS_MASK_BASE + self.cfg.num_clos as u32 =>
            {
                self.sockets[sock].cat.set_mask((m - IA32_L3_QOS_MASK_BASE) as usize, value)?;
                Ok(())
            }
            other => Err(MsrError::UnknownMsr(other)),
        }
    }

    /// RDMSR emulation; see [`System::write_msr`] for the supported set
    /// and socket scoping.
    pub fn read_msr(&self, core: usize, msr: u32) -> Result<u64, MsrError> {
        if core >= self.cores.len() {
            return Err(MsrError::BadCore(core));
        }
        let topo = self.cfg.topology;
        let sock = topo.socket_of(core);
        match msr {
            MSR_MISC_FEATURE_CONTROL => Ok(self.cores[core].battery.read_msr()),
            MSR_MBA_THROTTLE => Ok(self.mem_for(sock).mba_level(core)),
            IA32_PQR_ASSOC => Ok(self.sockets[sock].cat.assoc(topo.local_id(core)) as u64),
            m if m >= IA32_L3_QOS_MASK_BASE
                && m < IA32_L3_QOS_MASK_BASE + self.cfg.num_clos as u32 =>
            {
                Ok(self.sockets[sock].cat.mask((m - IA32_L3_QOS_MASK_BASE) as usize)?)
            }
            other => Err(MsrError::UnknownMsr(other)),
        }
    }

    // ----- convenience wrappers used by the controller ------------------

    /// Enables (`true`) or disables (`false`) all four prefetchers of one
    /// core, the granularity the paper's mechanisms use.
    pub fn set_prefetching(&mut self, core: usize, enabled: bool) {
        self.cores[core].battery.write_msr(if enabled { 0x0 } else { 0xF });
    }

    /// True if any prefetcher of `core` is enabled.
    pub fn prefetching_enabled(&self, core: usize) -> bool {
        self.cores[core].battery.read_msr() != 0xF
    }

    /// Programs the way mask of a CLOS on **every** socket (machine-wide
    /// convenience; domain-scoped programming goes through
    /// [`System::write_msr`] with a core of the target socket).
    pub fn set_clos_mask(&mut self, clos: usize, mask: u64) -> Result<(), MsrError> {
        for sock in &mut self.sockets {
            sock.cat.set_mask(clos, mask)?;
        }
        Ok(())
    }

    /// Moves a core into a CLOS (of its own socket's CAT domain).
    pub fn assign_clos(&mut self, core: usize, clos: usize) -> Result<(), MsrError> {
        let topo = self.cfg.topology;
        self.sockets[topo.socket_of(core)].cat.set_assoc(topo.local_id(core), clos)?;
        Ok(())
    }

    /// Restores power-on CAT state on every socket (all cores share their
    /// socket's whole LLC).
    pub fn reset_cat(&mut self) {
        for sock in &mut self.sockets {
            sock.cat.reset();
        }
    }

    /// Restores power-on CAT state on one socket only, leaving the other
    /// domains' programming intact.
    pub fn reset_cat_domain(&mut self, socket: usize) {
        self.sockets[socket].cat.reset();
    }

    /// Current allocation mask in force for a core.
    pub fn effective_mask(&self, core: usize) -> u64 {
        let topo = self.cfg.topology;
        self.sockets[topo.socket_of(core)].cat.mask_for_core(topo.local_id(core))
    }

    /// Snapshot of the control state applied to every core — the
    /// CAT class and way mask in force plus the raw prefetcher MSR image.
    /// This is the "what did the controller actually program" half of the
    /// telemetry journal; the PMU snapshots ([`System::pmu_all`]) are the
    /// "what did the machine do" half.
    pub fn control_state(&self) -> Vec<CoreControl> {
        let topo = self.cfg.topology;
        (0..self.cores.len())
            .map(|c| {
                let cat = &self.sockets[topo.socket_of(c)].cat;
                let local = topo.local_id(c);
                CoreControl {
                    clos: cat.assoc(local),
                    way_mask: cat.mask_for_core(local),
                    msr_1a4: self.cores[c].battery.read_msr(),
                    mba_level: self.mem_for(topo.socket_of(c)).mba_level(c),
                }
            })
            .collect()
    }
}

/// A frozen copy of a [`System`]'s complete state (see
/// [`System::snapshot`]). Immutable; each [`SystemSnapshot::restore`]
/// produces an independent live machine resuming from the captured
/// instant.
pub struct SystemSnapshot {
    sys: System,
}

impl SystemSnapshot {
    /// Rehydrates a live machine from the snapshot. May be called any
    /// number of times; restored machines are independent of each other
    /// and of the snapshot.
    pub fn restore(&self) -> System {
        self.sys.try_clone().expect("snapshotted workloads are cloneable by construction")
    }

    /// Global cycle count at the captured instant.
    pub fn now(&self) -> u64 {
        self.sys.now()
    }
}

/// Applied per-core control state (see [`System::control_state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreControl {
    /// CAT class of service the core is associated with.
    pub clos: usize,
    /// Effective LLC way mask (the mask of `clos`).
    pub way_mask: u64,
    /// Raw `MSR_MISC_FEATURE_CONTROL` image (bit set = engine disabled).
    pub msr_1a4: u64,
    /// MBA bandwidth-throttle level in force (percent, 0 = unthrottled).
    pub mba_level: u64,
}

impl CoreControl {
    /// True if any prefetch engine of the core is still enabled.
    pub fn prefetching(&self) -> bool {
        self.msr_1a4 != 0xF
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Topology;
    use crate::workload::{Idle, Op};

    struct Seq {
        pos: u64,
        span: u64,
        mlp: u32,
    }
    impl Workload for Seq {
        fn next(&mut self) -> Op {
            let a = self.pos;
            self.pos = (self.pos + 8) % self.span;
            Op::Load { addr: a, pc: 0x400 }
        }
        fn mlp(&self) -> u32 {
            self.mlp
        }
        fn reset(&mut self) {
            self.pos = 0;
        }
        fn name(&self) -> &str {
            "seq"
        }
    }

    fn seq(span: u64) -> Box<dyn Workload + Send> {
        Box::new(Seq { pos: 0, span, mlp: 4 })
    }

    #[test]
    #[should_panic(expected = "one workload per core")]
    fn workload_count_must_match() {
        System::new(SystemConfig::tiny(2), vec![Box::new(Idle)]);
    }

    #[test]
    fn runs_all_cores_to_time() {
        let mut sys = System::new(SystemConfig::tiny(2), vec![Box::new(Idle), seq(1 << 20)]);
        sys.run(10_000);
        assert_eq!(sys.now(), 10_000);
        for i in 0..2 {
            assert!(sys.pmu(i).cycles >= 10_000);
            assert!(sys.pmu(i).instructions > 0);
        }
    }

    #[test]
    fn msr_prefetch_roundtrip() {
        let mut sys = System::new(SystemConfig::tiny(1), vec![Box::new(Idle)]);
        sys.write_msr(0, MSR_MISC_FEATURE_CONTROL, 0xF).unwrap();
        assert_eq!(sys.read_msr(0, MSR_MISC_FEATURE_CONTROL).unwrap(), 0xF);
        assert!(!sys.prefetching_enabled(0));
        sys.set_prefetching(0, true);
        assert!(sys.prefetching_enabled(0));
    }

    #[test]
    fn msr_cat_roundtrip() {
        let mut sys = System::new(SystemConfig::tiny(1), vec![Box::new(Idle)]);
        sys.write_msr(0, IA32_L3_QOS_MASK_BASE + 1, 0b11).unwrap();
        assert_eq!(sys.read_msr(0, IA32_L3_QOS_MASK_BASE + 1).unwrap(), 0b11);
        sys.write_msr(0, IA32_PQR_ASSOC, 1).unwrap();
        assert_eq!(sys.effective_mask(0), 0b11);
        sys.reset_cat();
        assert_eq!(sys.effective_mask(0), 0b1111); // tiny() LLC has 4 ways
    }

    #[test]
    fn msr_mba_roundtrip_and_validation() {
        let mut sys = System::new(SystemConfig::tiny(2), vec![Box::new(Idle), Box::new(Idle)]);
        assert_eq!(sys.read_msr(0, MSR_MBA_THROTTLE).unwrap(), 0);
        sys.write_msr(1, MSR_MBA_THROTTLE, 40).unwrap();
        assert_eq!(sys.read_msr(1, MSR_MBA_THROTTLE).unwrap(), 40);
        assert_eq!(sys.read_msr(0, MSR_MBA_THROTTLE).unwrap(), 0, "per-core scope");
        assert!(matches!(sys.write_msr(0, MSR_MBA_THROTTLE, 45), Err(MsrError::BadMbaLevel(45))));
        assert!(matches!(sys.write_msr(0, MSR_MBA_THROTTLE, 100), Err(MsrError::BadMbaLevel(100))));
        assert_eq!(sys.control_state()[1].mba_level, 40);
        assert_eq!(sys.control_state()[0].mba_level, 0);
    }

    #[test]
    fn mba_throttle_costs_a_stream_ipc() {
        let run = |level: u64| {
            let mut sys = System::new(SystemConfig::tiny(1), vec![seq(1 << 22)]);
            sys.write_msr(0, MSR_MBA_THROTTLE, level).unwrap();
            sys.run(200_000);
            (sys.pmu(0).ipc(), sys.traffic(0).total_bytes())
        };
        let (ipc_free, bytes_free) = run(0);
        let (ipc_throttled, bytes_throttled) = run(90);
        assert!(
            ipc_throttled < ipc_free,
            "90 % throttle must cost IPC: {ipc_throttled:.3} vs {ipc_free:.3}"
        );
        assert!(
            bytes_throttled < bytes_free,
            "90 % throttle must cut traffic: {bytes_throttled} vs {bytes_free}"
        );
    }

    #[test]
    fn unknown_msr_rejected() {
        let mut sys = System::new(SystemConfig::tiny(1), vec![Box::new(Idle)]);
        assert!(matches!(sys.write_msr(0, 0xDEAD, 1), Err(MsrError::UnknownMsr(0xDEAD))));
        assert!(matches!(sys.read_msr(0, 0xDEAD), Err(MsrError::UnknownMsr(0xDEAD))));
        assert!(matches!(sys.write_msr(9, 0x1A4, 0), Err(MsrError::BadCore(9))));
    }

    #[test]
    fn invalid_cat_mask_surfaces_error() {
        let mut sys = System::new(SystemConfig::tiny(1), vec![Box::new(Idle)]);
        assert!(matches!(
            sys.write_msr(0, IA32_L3_QOS_MASK_BASE, 0b101),
            Err(MsrError::Cat(CatError::NonContiguousMask(0b101)))
        ));
    }

    #[test]
    fn contention_slows_down_a_stream() {
        // One stream alone vs. the same stream sharing memory with three
        // other streams: contention must cost IPC.
        let alone = {
            let mut cfg = SystemConfig::tiny(1);
            cfg.memory.bytes_per_cycle = 4.0;
            let mut sys = System::new(cfg, vec![seq(1 << 22)]);
            sys.run(200_000);
            sys.pmu(0).ipc()
        };
        let contended = {
            // Keep memory bandwidth tight so four streams saturate it.
            let mut cfg = SystemConfig::tiny(4);
            cfg.memory.bytes_per_cycle = 4.0;
            let mut sys = System::new(cfg, (0..4).map(|_| seq(1 << 22)).collect());
            sys.run(200_000);
            sys.pmu(0).ipc()
        };
        assert!(
            contended < alone,
            "contended IPC {contended:.3} must be below alone IPC {alone:.3}"
        );
    }

    #[test]
    fn cache_partitioning_protects_a_small_working_set() {
        // Core 0 loops over an LLC-resident set; core 1 streams and thrashes
        // the LLC. Giving core 1 a tiny partition must help core 0.
        let run = |partitioned: bool| {
            let cfg = SystemConfig::tiny(2);
            let resident = cfg.llc.size_bytes / 2;
            let mut sys = System::new(
                cfg,
                vec![
                    Box::new(Seq { pos: 0, span: resident, mlp: 1 }),
                    Box::new(Seq { pos: 0, span: 1 << 24, mlp: 4 }),
                ],
            );
            if partitioned {
                // CLOS1 = 1 way for the streamer; core 0 keeps everything.
                sys.set_clos_mask(1, 0b1).unwrap();
                sys.assign_clos(1, 1).unwrap();
            }
            sys.run(400_000);
            sys.pmu(0).ipc()
        };
        let unprotected = run(false);
        let protected = run(true);
        assert!(
            protected > unprotected,
            "partitioning must protect the resident core: {protected:.3} vs {unprotected:.3}"
        );
    }

    /// Loads `span` bytes starting at `base`, line by line, forever.
    struct SeqAt {
        base: u64,
        pos: u64,
        span: u64,
    }
    impl Workload for SeqAt {
        fn next(&mut self) -> Op {
            let a = self.base + self.pos;
            self.pos = (self.pos + 64) % self.span;
            Op::Load { addr: a, pc: 0x400 }
        }
        fn mlp(&self) -> u32 {
            4
        }
        fn reset(&mut self) {
            self.pos = 0;
        }
        fn name(&self) -> &str {
            "seq-at"
        }
    }

    fn seq_at(base: u64, span: u64) -> Box<dyn Workload + Send> {
        Box::new(SeqAt { base, pos: 0, span })
    }

    /// Drains socket 0's back-invalidation queue, as [`System::run`]
    /// does at every quantum boundary.
    fn drain_socket_0(sys: &mut System) {
        sys.sockets[0].drain_invalidations(&mut sys.cores, sys.shared_mem.as_mut());
    }

    #[test]
    fn back_invalidation_hits_only_the_holding_core() {
        // Two cores with disjoint address ranges: every cached line has
        // exactly one private holder.
        let mut sys =
            System::new(SystemConfig::tiny(2), vec![seq_at(0, 1 << 13), seq_at(1 << 24, 1 << 13)]);
        sys.run(30_000);
        let victim = (0u64..(1 << 13) / 64)
            .find(|&l| sys.sockets[0].llc.holders(l) == 0b01 && sys.cores[0].l2.contains(l))
            .expect("core 0 must have cached part of its working set");
        assert!(
            !sys.cores[1].l1.contains(victim) && !sys.cores[1].l2.contains(victim),
            "disjoint ranges: core 1 must not hold core 0's line"
        );
        // Snapshot core 1's private cache contents over its own range.
        let base1 = (1u64 << 24) / 64;
        let core1_lines: Vec<u64> =
            (base1..base1 + (1 << 13) / 64).filter(|&l| sys.cores[1].l2.contains(l)).collect();
        assert!(!core1_lines.is_empty());

        // Apply an inclusive back-invalidation for the victim, as
        // System::run does for LLC victims at quantum boundaries.
        sys.sockets[0].inval.push(victim);
        drain_socket_0(&mut sys);

        assert!(!sys.cores[0].l1.contains(victim), "victim must leave the holder's L1");
        assert!(!sys.cores[0].l2.contains(victim), "victim must leave the holder's L2");
        assert_eq!(sys.presence_holders(victim), 0, "presence must drop the holder bit");
        for &l in &core1_lines {
            assert!(
                sys.cores[1].l2.contains(l),
                "non-holder core 1 must be untouched (line {l:#x} evicted)"
            );
        }
    }

    #[test]
    fn back_invalidation_reaches_every_holder_of_a_shared_line() {
        // Both cores walk the same range, so lines end up in both L2s.
        let mut sys =
            System::new(SystemConfig::tiny(2), vec![seq_at(0, 1 << 13), seq_at(0, 1 << 13)]);
        sys.run(30_000);
        let shared = (0u64..(1 << 13) / 64)
            .find(|&l| sys.presence_holders(l) == 0b11)
            .expect("some line must be resident in both private caches");
        sys.sockets[0].inval.push(shared);
        drain_socket_0(&mut sys);
        for c in 0..2 {
            assert!(!sys.cores[c].l1.contains(shared));
            assert!(!sys.cores[c].l2.contains(shared));
        }
        assert_eq!(sys.presence_holders(shared), 0);
    }

    #[test]
    fn presence_map_mirrors_private_l2_contents() {
        // After runs that cause real LLC evictions (some cores stream far
        // more than the tiny LLC holds, others share a small set), every
        // socket's holder masks must agree exactly with its private L2s.
        // That equivalence is what makes holder-targeted back-invalidation
        // semantically identical to a broadcast, and QBS read from the
        // LLC's holder column identical to asking every L2.
        //
        // Inclusion (L2 ⊆ LLC) is checked as near-total rather than exact:
        // a fill in flight in an MSHR when the LLC evicts its line lands
        // after the deferred invalidation already drained, a relaxed-sync
        // artifact this simulator shares with its broadcast predecessor.
        // Such a line is an orphan: its mask lives in the orphan table,
        // and it must be tracked there.
        const SMALL: u64 = 1 << 13;
        const BIG: u64 = 1 << 22;
        let mut shared = Topology::grid(2, 4);
        shared.mem_per_socket = false;
        // (case, topology, per-core (base, span))
        let cases = [
            ("tiny(2)", Topology::single(2), vec![(0, SMALL), (0, BIG)]),
            (
                "2x4",
                Topology::grid(2, 4),
                [(0, SMALL), (0, BIG), (0, SMALL), (BIG, SMALL)].repeat(2),
            ),
            ("2x4@shared", shared, [(0, BIG), (0, SMALL), (BIG, SMALL), (0, SMALL)].repeat(2)),
        ];
        let mut orphans_seen = 0;
        for (case, topo, spans) in cases {
            let cps = topo.cores_per_socket;
            let mut cfg = SystemConfig::tiny(topo.total_cores());
            cfg.set_topology(topo);
            let wl = spans.iter().map(|&(base, span)| seq_at(base, span)).collect();
            let mut sys = System::new(cfg, wl);
            for _ in 0..3 {
                sys.run(70_000);
                for (s, sock) in sys.sockets.iter().enumerate() {
                    let cores = &sys.cores[s * cps..(s + 1) * cps];
                    let (mut resident, mut orphans) = (0u64, 0usize);
                    // Prefetchers run past the end of a span: scan well beyond.
                    for l in 0u64..2 * BIG / 64 {
                        let mut mask = 0u64;
                        for (c, core) in cores.iter().enumerate() {
                            if core.l2.contains(l) {
                                mask |= 1 << c;
                            }
                            assert!(
                                !core.l1.contains(l) || core.l2.contains(l),
                                "{case}: L1 ⊆ L2 violated at line {l:#x} core {c}"
                            );
                        }
                        assert_eq!(
                            sys.presence_holders_in(s, l),
                            mask,
                            "{case}: socket {s}'s holder masks out of sync with its L2s at line {l:#x}"
                        );
                        if mask != 0 {
                            resident += 1;
                            orphans += usize::from(!sock.llc.cache().contains(l));
                        }
                    }
                    assert!(resident > 0, "{case}: socket {s} holds nothing");
                    assert_eq!(sock.llc.orphans(), orphans, "{case}: socket {s}'s orphan table");
                    assert!(
                        orphans * 20 <= resident as usize,
                        "{case}: inclusion leaks must stay a rare in-flight-fill artifact: \
                         {orphans} of {resident} resident lines"
                    );
                    orphans_seen += orphans;
                }
            }
        }
        assert!(orphans_seen > 0, "no case exercised an orphan line");
    }

    /// Records the host thread that generates each op into `seen`.
    struct ThreadProbe {
        seen: std::sync::Arc<std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>>,
    }
    impl Workload for ThreadProbe {
        fn next(&mut self) -> Op {
            self.seen.lock().unwrap().insert(std::thread::current().id());
            Op::Compute { cycles: 10 }
        }
        fn mlp(&self) -> u32 {
            1
        }
        fn reset(&mut self) {}
        fn name(&self) -> &str {
            "thread-probe"
        }
    }

    /// The distinct host threads one `run` call steps `topo`'s cores on.
    fn threads_used(topo: Topology) -> std::collections::HashSet<std::thread::ThreadId> {
        let seen = std::sync::Arc::default();
        let mut cfg = SystemConfig::tiny(topo.total_cores());
        cfg.set_topology(topo);
        let wl = (0..topo.total_cores())
            .map(|_| Box::new(ThreadProbe { seen: std::sync::Arc::clone(&seen) }) as _)
            .collect();
        System::new(cfg, wl).run(5_000);
        let seen = seen.lock().unwrap().clone();
        seen
    }

    #[test]
    fn single_socket_and_shared_controller_machines_run_on_the_calling_thread() {
        let caller = std::collections::HashSet::from([std::thread::current().id()]);
        let mut shared = Topology::grid(4, 2);
        shared.mem_per_socket = false;
        for topo in [Topology::single(4), Topology::grid(1, 4), shared] {
            assert_eq!(threads_used(topo), caller, "{topo:?} must not spawn a thread");
        }
    }

    #[test]
    fn independent_sockets_spread_over_the_host_threads() {
        // One share per host thread, up to one per socket; the caller
        // always runs the first. On a one-CPU host that is the caller
        // alone.
        let used = threads_used(Topology::grid(4, 2));
        assert!(used.contains(&std::thread::current().id()));
        assert_eq!(used.len(), 4.min(host_threads()));
    }

    /// Panics with a fixed message on its first op.
    struct Boom;
    impl Workload for Boom {
        fn next(&mut self) -> Op {
            panic!("boom on socket 1");
        }
        fn mlp(&self) -> u32 {
            1
        }
        fn reset(&mut self) {}
        fn name(&self) -> &str {
            "boom"
        }
    }

    #[test]
    fn a_worker_socket_panic_keeps_its_message() {
        // Socket 1 runs on a worker thread whenever the host has two
        // CPUs; its payload must reach the caller unchanged rather than
        // as the scope's generic "a scoped thread panicked".
        let mut cfg = SystemConfig::tiny(4);
        cfg.set_topology(Topology::grid(2, 2));
        let wl: Vec<Box<dyn Workload + Send>> =
            vec![seq(1 << 20), seq(1 << 20), Box::new(Idle), Box::new(Boom)];
        let mut sys = System::new(cfg, wl);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.run(10_000)))
            .expect_err("the socket-1 workload panics");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom on socket 1"));
    }

    #[test]
    fn traffic_accounted_per_core() {
        let mut sys = System::new(SystemConfig::tiny(2), vec![Box::new(Idle), seq(1 << 22)]);
        sys.run(100_000);
        assert_eq!(sys.traffic(0).total_bytes(), 0);
        assert!(sys.traffic(1).total_bytes() > 0);
    }

    #[test]
    fn pmu_all_matches_individual_reads() {
        let mut sys = System::new(SystemConfig::tiny(2), vec![seq(1 << 20), seq(1 << 20)]);
        sys.run(50_000);
        let all = sys.pmu_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], sys.pmu(0));
        assert_eq!(all[1], sys.pmu(1));
    }
}
