//! Multi-socket topology invariants on tiny machines: the cross-socket
//! penalty of shared-controller layouts, per-socket CAT isolation,
//! snapshot/restore equality, a 1xN-vs-Nx1 equivalence property for
//! non-interacting workloads, and a differential property pinning each
//! socket of a per-socket-controller grid to a standalone machine.

use cmm_sim::config::{SystemConfig, Topology};
use cmm_sim::msr::{IA32_L3_QOS_MASK_BASE, IA32_PQR_ASSOC};
use cmm_sim::workload::{Idle, Op, Workload};
use cmm_sim::System;
use proptest::prelude::*;

/// A dependent-chain pointer chase: one outstanding load at a time, each
/// to a fresh line far beyond any cache, so every access is a memory fill
/// of constant service time.
#[derive(Clone)]
struct Chase {
    line: u64,
    base: u64,
}

impl Workload for Chase {
    fn next(&mut self) -> Op {
        self.line = self.line.wrapping_add(97); // odd stride, defeats reuse
        Op::Load { addr: self.base + (self.line % (1 << 30)) * 64, pc: 0x400 }
    }
    fn mlp(&self) -> u32 {
        1
    }
    fn reset(&mut self) {
        self.line = 0;
    }
    fn name(&self) -> &str {
        "chase"
    }
    fn try_clone_box(&self) -> Option<Box<dyn Workload + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// A cache-resident sequential loop: `lines` contiguous lines at `base`,
/// touched round-robin. Small enough footprints never reach memory after
/// the first pass.
#[derive(Clone)]
struct Loop {
    base: u64,
    lines: u64,
    pos: u64,
    compute: u32,
    phase: bool,
}

impl Workload for Loop {
    fn next(&mut self) -> Op {
        if self.phase && self.compute > 0 {
            self.phase = false;
            return Op::Compute { cycles: self.compute };
        }
        self.phase = true;
        let a = self.base + self.pos * 64;
        self.pos = (self.pos + 1) % self.lines;
        Op::Load { addr: a, pc: 0x400 }
    }
    fn mlp(&self) -> u32 {
        2
    }
    fn reset(&mut self) {
        self.pos = 0;
    }
    fn name(&self) -> &str {
        "loop"
    }
    fn try_clone_box(&self) -> Option<Box<dyn Workload + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// 2 sockets × 1 core over one shared controller homed on socket 0, with
/// only core 1 (the *remote* socket) running a chase; `extra_latency` is
/// added to the memory controller's unloaded round trip. Returns the
/// remote core's whole-run PMU.
fn remote_chase_pmu(penalty: u64, extra_latency: u64, window: u64) -> cmm_sim::pmu::Pmu {
    let mut topo = Topology::grid(2, 1);
    topo.mem_per_socket = false;
    topo.cross_socket_penalty = penalty;
    let mut cfg = SystemConfig::tiny(2);
    cfg.set_topology(topo);
    cfg.memory.base_latency += extra_latency;
    let wl: Vec<Box<dyn Workload + Send>> =
        vec![Box::new(Idle), Box::new(Chase { line: 0, base: 1 << 36 })];
    let mut sys = System::new(cfg, wl);
    sys.run(window);
    sys.pmu(1)
}

#[test]
fn remote_access_penalty_applied_exactly_once_per_fill() {
    const WINDOW: u64 = 200_000;
    // A remote core paying penalty P is indistinguishable from one whose
    // memory is simply P cycles further away: the penalty lands on every
    // fill exactly once (demand and prefetch alike), never twice and
    // never on a subset. A double-applied penalty would match the +2P
    // machine instead.
    for p in [100u64, 250] {
        let penalized = remote_chase_pmu(p, 0, WINDOW);
        assert_eq!(penalized, remote_chase_pmu(0, p, WINDOW), "penalty {p} == +{p} latency");
        assert_ne!(penalized, remote_chase_pmu(0, 2 * p, WINDOW), "not applied twice");
    }
    // And with no penalty, the remote core matches the plain machine.
    assert_eq!(remote_chase_pmu(0, 0, WINDOW), remote_chase_pmu(0, 0, WINDOW));
    assert!(remote_chase_pmu(0, 0, WINDOW).instructions > 0, "the chase actually ran");
}

#[test]
fn clos_masks_are_isolated_per_socket() {
    let mut cfg = SystemConfig::tiny(4);
    cfg.set_topology(Topology::grid(2, 2));
    let mut sys = System::new(cfg, (0..4).map(|_| Box::new(Idle) as _).collect());
    // Program CLOS 1 differently on each socket, through a core of that
    // socket, then put one core per socket into CLOS 1.
    sys.write_msr(0, IA32_L3_QOS_MASK_BASE + 1, 0b0011).unwrap();
    sys.write_msr(2, IA32_L3_QOS_MASK_BASE + 1, 0b1100).unwrap();
    sys.write_msr(1, IA32_PQR_ASSOC, 1).unwrap();
    sys.write_msr(3, IA32_PQR_ASSOC, 1).unwrap();
    assert_eq!(sys.effective_mask(1), 0b0011, "socket 0's CLOS 1");
    assert_eq!(sys.effective_mask(3), 0b1100, "socket 1's CLOS 1");
    // Cores left in CLOS 0 keep the full default mask on both sockets.
    assert_eq!(sys.effective_mask(0), 0b1111);
    assert_eq!(sys.effective_mask(2), 0b1111);
    // Resetting one CAT domain must not disturb the other socket.
    sys.reset_cat_domain(0);
    assert_eq!(sys.effective_mask(1), 0b1111, "socket 0 back to default");
    assert_eq!(sys.effective_mask(3), 0b1100, "socket 1 untouched");
}

#[test]
fn snapshot_restore_is_exact_on_a_2x2_machine() {
    let mut cfg = SystemConfig::tiny(4);
    let mut topo = Topology::grid(2, 2);
    topo.mem_per_socket = false;
    topo.cross_socket_penalty = 50;
    cfg.set_topology(topo);
    let build = |i: usize| -> Box<dyn Workload + Send> {
        Box::new(Chase { line: i as u64 * 13, base: (i as u64 + 1) << 36 })
    };
    let mut sys = System::new(cfg, (0..4).map(build).collect());
    sys.write_msr(3, IA32_L3_QOS_MASK_BASE + 1, 0b0011).unwrap();
    sys.write_msr(3, IA32_PQR_ASSOC, 1).unwrap();
    sys.run(20_000);
    let snap = sys.snapshot().expect("chase workloads are cloneable");
    sys.run(20_000);
    let mut twin = snap.restore();
    twin.run(20_000);
    assert_eq!(sys.now(), twin.now());
    assert_eq!(sys.pmu_all(), twin.pmu_all(), "restored run must replay exactly");
    for core in 0..4 {
        assert_eq!(sys.effective_mask(core), twin.effective_mask(core));
    }
}

/// Machines where cores cannot interact must make the socket grouping
/// unobservable: N cache-resident loops with disjoint, set-disjoint
/// footprints behave identically on one N-core socket and on N one-core
/// sockets sharing a penalty-free controller.
fn pmu_after(
    sockets: usize,
    cores_per_socket: usize,
    seeds: &[u64],
    window: u64,
) -> Vec<cmm_sim::pmu::Pmu> {
    let n = sockets * cores_per_socket;
    let mut topo = Topology::grid(sockets, cores_per_socket);
    topo.mem_per_socket = false;
    topo.cross_socket_penalty = 0;
    let mut cfg = SystemConfig::tiny(n);
    cfg.set_topology(topo);
    // tiny() LLC: 32 KiB, 4-way, 64 B lines -> 128 sets. Each core loops
    // over 16 lines in its own quarter of the set index space (and its own
    // 64 GiB window), so the shared-LLC and private-LLC layouts see the
    // same hits and misses.
    let wl: Vec<Box<dyn Workload + Send>> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            Box::new(Loop {
                base: ((i as u64 + 1) << 36) + (i as u64 % 4) * 32 * 64,
                lines: 8 + seed % 8,
                pos: 0,
                compute: (seed % 5) as u32,
                phase: false,
            }) as _
        })
        .collect();
    let mut sys = System::new(cfg, wl);
    for c in 0..n {
        sys.set_prefetching(c, false);
    }
    sys.run(window);
    sys.pmu_all()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn flat_and_sharded_topologies_agree_without_interaction(
        n in 2usize..=4,
        seeds in proptest::collection::vec(0u64..1000, 4),
        window in 5_000u64..20_000,
    ) {
        let flat = pmu_after(1, n, &seeds[..n], window);
        let sharded = pmu_after(n, 1, &seeds[..n], window);
        prop_assert_eq!(flat, sharded);
    }
}

/// Workload `i` of a socket in the grid differential: a cache-resident
/// loop, a loop overflowing the private caches, or a prefetchable stream
/// that thrashes the socket's LLC (and so back-invalidates its
/// neighbours' private lines), each in its own address window.
fn grid_workload(socket: usize, i: usize, seed: u64) -> Box<dyn Workload + Send> {
    let lines = [12, 200, 1 << 16][(seed % 3) as usize];
    Box::new(Loop {
        base: ((socket * 8 + i + 1) as u64) << 36,
        lines,
        pos: seed % lines,
        compute: (seed / 3 % 4) as u32,
        phase: false,
    })
}

/// Programs socket-local CAT state: CLOS 1 gets a mask chosen by `seed`
/// and local core `seed % cores` joins it. `core0` is the socket's first
/// global core id.
fn program_cat(sys: &mut System, core0: usize, cores: usize, seed: u64) {
    let mask = [0b0001, 0b0011, 0b0110, 0b1100][(seed % 4) as usize];
    sys.write_msr(core0, IA32_L3_QOS_MASK_BASE + 1, mask).unwrap();
    sys.write_msr(core0 + (seed as usize % cores), IA32_PQR_ASSOC, 1).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Each socket of an S x M grid with its own memory controller must
    /// behave exactly like an M-core single-socket machine running the
    /// same workloads under the same CAT programming. The grid advances
    /// in many short `run` calls, crosses a `snapshot()`/`restore()`, and
    /// steps several sockets per call (concurrently, on a multi-CPU host).
    /// The references advance one quantum per `run` call, so they never
    /// rely on the in-call quantum loop the grid exercises.
    #[test]
    fn grid_sockets_match_standalone_machines(
        sockets in 2usize..=3,
        cores in 2usize..=4,
        seeds in proptest::collection::vec(0u64..1000, 12),
        cat_seeds in proptest::collection::vec(0u64..1000, 3),
        windows in proptest::collection::vec(1u64..2_500, 16),
        restore_at in 0usize..16,
    ) {
        let mut cfg = SystemConfig::tiny(sockets * cores);
        cfg.set_topology(Topology::grid(sockets, cores));
        let quantum = cfg.quantum;
        let wl = (0..sockets * cores)
            .map(|c| grid_workload(c / cores, c % cores, seeds[c]))
            .collect();
        let mut grid = System::new(cfg, wl);
        let mut refs: Vec<System> = (0..sockets)
            .map(|s| {
                let wl = (0..cores).map(|i| grid_workload(s, i, seeds[s * cores + i])).collect();
                let mut sys = System::new(SystemConfig::tiny(cores), wl);
                program_cat(&mut sys, 0, cores, cat_seeds[s]);
                sys
            })
            .collect();
        for (s, &seed) in cat_seeds.iter().enumerate().take(sockets) {
            program_cat(&mut grid, s * cores, cores, seed);
        }
        for (k, &w) in windows.iter().enumerate() {
            if k == restore_at {
                grid = grid.snapshot().expect("loop workloads are cloneable").restore();
            }
            grid.run(w);
            for r in &mut refs {
                let mut left = w;
                while left > 0 {
                    let q = left.min(quantum);
                    r.run(q);
                    left -= q;
                }
            }
        }
        for (s, r) in refs.iter().enumerate() {
            for i in 0..cores {
                let c = s * cores + i;
                prop_assert_eq!(grid.pmu(c), r.pmu(i), "socket {} core {} PMU", s, i);
                prop_assert_eq!(grid.traffic(c), r.traffic(i), "socket {} core {} traffic", s, i);
            }
        }
    }
}
