//! Per-core execution model.
//!
//! Each [`Core`] owns its private L1D and L2, its prefetcher [`Battery`],
//! an MSHR file of in-flight prefetch fills, and a bounded
//! *memory-level-parallelism window* that approximates an out-of-order
//! core: demand-load misses enter the window and the core only stalls when
//! the window is full, so a pattern exposing MLP *k* overlaps up to *k*
//! misses (pointer chasing gets *k = 1* and eats full latency, streams get
//! *k ≈ 4–8*).
//!
//! Demand fills install lines immediately (their cost is charged through
//! the window); prefetch fills are tracked in the MSHR and install at their
//! completion time, so prefetch *timeliness* is modelled: a demand touching
//! an in-flight prefetch pays only the remaining latency (a "late
//! prefetch").
//!
//! Stall attribution follows Intel's `CYCLE_ACTIVITY.STALLS_L2_PENDING`:
//! stall cycles are classified by whether the blocking miss was pending
//! *beyond* L2 (LLC or memory).

use std::collections::VecDeque;

use crate::cache::Cache;
use crate::config::SystemConfig;
use crate::memory::MemoryController;
use crate::msr::CatState;
use crate::pmu::Pmu;
use crate::prefetch::{Battery, PrefetchRequest, PrefetcherKind};
use crate::presence::Llc;
use crate::workload::{Op, Workload};

/// Metadata of an in-flight prefetch fill. The target line numbers live in
/// a parallel `Vec<u64>` (`Core::mshr_lines`) so the per-access merge and
/// duplicate scans sweep a contiguous `u64` slice instead of striding
/// through these records.
#[derive(Debug, Clone, Copy)]
struct PendingFill {
    complete: u64,
    /// Install into L1 as well as L2 (true for L1-prefetcher fills).
    to_l1: bool,
    /// Install into the LLC as well (true when the data comes from memory).
    to_llc: bool,
    /// Still speculative: install with the prefetched bit set. Cleared if a
    /// demand merges with this fill while in flight.
    prefetched: bool,
    /// Data sourced beyond L2 (LLC or memory) — used for stall attribution.
    beyond_l2: bool,
    /// A store merged with this fill while in flight: mark the line dirty
    /// once it lands in L1 (otherwise its writeback would be lost).
    dirty: bool,
}

/// How many ops the core pulls from its workload per ring refill. Two
/// tiny-config quanta's worth, so idle cores refill at most every other
/// quantum.
const OP_BATCH: usize = 64;

/// One simulated physical core.
pub struct Core {
    /// Global core id (its memory-controller traffic port).
    pub id: usize,
    /// Socket-local index (`id % cores_per_socket`): the key into the
    /// owning socket's CAT state and LLC holder masks.
    pub slot: usize,
    /// Fixed extra cycles on every memory fill (demand or prefetch) this
    /// core sources from a *remote* controller — zero on single-socket and
    /// per-socket-controller topologies.
    mem_penalty: u64,
    /// Private L1 data cache.
    pub l1: Cache,
    /// Private unified L2.
    pub l2: Cache,
    /// The four hardware prefetchers.
    pub battery: Battery,
    /// Local cycle clock.
    pub time: u64,
    /// Performance counters.
    pub pmu: Pmu,
    /// The running benchmark.
    pub workload: Box<dyn Workload + Send>,
    /// Ring of upcoming ops pulled from `workload` one batch at a time.
    ops_buf: Vec<Op>,
    ops_pos: usize,
    /// Lines of in-flight prefetch fills (SoA: scans touch only this).
    mshr_lines: Vec<u64>,
    /// Fill metadata parallel to `mshr_lines`.
    mshr: Vec<PendingFill>,
    /// Earliest `complete` among MSHR entries (`u64::MAX` when empty), so
    /// the per-access drain is one comparison in the common case.
    mshr_min_complete: u64,
    mshr_capacity: usize,
    /// (completion, beyond_l2, line) of in-flight demand loads. One entry
    /// per line: further loads to a line already in the window coalesce
    /// into the existing entry, as in a real MSHR.
    window: VecDeque<(u64, bool, u64)>,
    window_capacity: usize,
    /// Scratch buffer for prefetcher output.
    pf_buf: Vec<PrefetchRequest>,
    l2_hit_latency: u64,
    llc_hit_latency: u64,
    /// Demand merges with in-flight prefetches (ground-truth "used").
    merged_prefetches: u64,
    /// Query-Based Selection enabled for LLC victim choice.
    qbs: bool,
}

impl Core {
    /// Builds a core with cold caches running `workload`.
    pub fn new(id: usize, cfg: &SystemConfig, workload: Box<dyn Workload + Send>) -> Self {
        let window_capacity = workload.mlp().clamp(1, cfg.core.max_mlp) as usize;
        let topo = cfg.topology;
        // The shared controller sits on socket 0; cores elsewhere pay the
        // cross-socket penalty on every fill. Per-socket controllers are
        // always local.
        let mem_penalty = if !topo.mem_per_socket && topo.socket_of(id) != 0 {
            topo.cross_socket_penalty
        } else {
            0
        };
        Core {
            id,
            slot: topo.local_id(id),
            mem_penalty,
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            battery: Battery::new(),
            time: 0,
            pmu: Pmu::default(),
            workload,
            ops_buf: Vec::with_capacity(OP_BATCH),
            ops_pos: 0,
            mshr_lines: Vec::with_capacity(cfg.core.mshr_entries),
            mshr: Vec::with_capacity(cfg.core.mshr_entries),
            mshr_min_complete: u64::MAX,
            mshr_capacity: cfg.core.mshr_entries,
            window: VecDeque::with_capacity(window_capacity),
            window_capacity,
            pf_buf: Vec::with_capacity(16),
            l2_hit_latency: cfg.l2.hit_latency,
            llc_hit_latency: cfg.llc.hit_latency,
            merged_prefetches: 0,
            qbs: cfg.qbs,
        }
    }

    /// Deep-copies the core's entire microarchitectural state — caches,
    /// prefetcher training, MSHRs, op ring, PMU image, local clock.
    /// Returns `None` when the workload does not support
    /// [`Workload::try_clone_box`]; cloneable workloads share their cold
    /// state (e.g. a trace recording behind an `Arc`), so the copy costs a
    /// few memcpys of tag arrays rather than a re-simulation.
    pub fn try_clone(&self) -> Option<Core> {
        let workload = self.workload.try_clone_box()?;
        Some(Core {
            id: self.id,
            slot: self.slot,
            mem_penalty: self.mem_penalty,
            l1: self.l1.clone(),
            l2: self.l2.clone(),
            battery: self.battery.clone(),
            time: self.time,
            pmu: self.pmu,
            workload,
            ops_buf: self.ops_buf.clone(),
            ops_pos: self.ops_pos,
            mshr_lines: self.mshr_lines.clone(),
            mshr: self.mshr.clone(),
            mshr_min_complete: self.mshr_min_complete,
            mshr_capacity: self.mshr_capacity,
            window: self.window.clone(),
            window_capacity: self.window_capacity,
            pf_buf: self.pf_buf.clone(),
            l2_hit_latency: self.l2_hit_latency,
            llc_hit_latency: self.llc_hit_latency,
            merged_prefetches: self.merged_prefetches,
            qbs: self.qbs,
        })
    }

    /// Executes operations until the local clock reaches `qend`.
    /// `inval` collects LLC victim lines for cross-core back-invalidation.
    pub fn run_until(
        &mut self,
        qend: u64,
        llc: &mut Llc,
        cat: &CatState,
        mem: &mut MemoryController,
        inval: &mut Vec<u64>,
    ) {
        while self.time < qend {
            match self.next_op() {
                Op::Compute { cycles } => {
                    let c = cycles.max(1) as u64;
                    self.time += c;
                    self.pmu.instructions += c;
                    // Coalesce buffered compute runs. Each pop happens only
                    // while `time < qend`, mirroring the loop condition, so
                    // this is cycle-exact with the one-op-per-iteration
                    // path — including where the quantum boundary lands.
                    while self.time < qend {
                        match self.ops_buf.get(self.ops_pos) {
                            Some(&Op::Compute { cycles }) => {
                                self.ops_pos += 1;
                                let c = cycles.max(1) as u64;
                                self.time += c;
                                self.pmu.instructions += c;
                            }
                            _ => break,
                        }
                    }
                }
                Op::Load { addr, pc } => {
                    self.demand_access(addr, pc, true, llc, cat, mem, inval);
                    self.time += 1;
                    self.pmu.instructions += 1;
                }
                Op::Store { addr, pc } => {
                    self.demand_access(addr, pc, false, llc, cat, mem, inval);
                    self.time += 1;
                    self.pmu.instructions += 1;
                }
            }
        }
        self.sync_pmu();
    }

    /// Pops the next op from the ring, refilling a batch from the workload
    /// when the ring runs dry. Refilling ahead of consumption is safe:
    /// workloads are pure deterministic streams, so the op sequence is
    /// independent of *when* it is generated.
    #[inline]
    fn next_op(&mut self) -> Op {
        if self.ops_pos == self.ops_buf.len() {
            self.ops_buf.clear();
            self.ops_pos = 0;
            self.workload.fill(&mut self.ops_buf, OP_BATCH);
            debug_assert!(!self.ops_buf.is_empty(), "workload streams are infinite");
        }
        let op = self.ops_buf[self.ops_pos];
        self.ops_pos += 1;
        op
    }

    /// Publishes clock and ground-truth prefetch counters into the PMU
    /// image. Called at quantum boundaries.
    pub fn sync_pmu(&mut self) {
        self.pmu.cycles = self.time;
        self.pmu.pf_used =
            self.l1.stats.prefetch_used + self.l2.stats.prefetch_used + self.merged_prefetches;
        self.pmu.pf_wasted = self.l2.stats.prefetch_wasted;
    }

    /// Applies an inclusive back-invalidation for an LLC victim this core's
    /// L2 holds; the caller has already cleared the line's holder mask.
    /// Dirty private copies are written back to memory.
    pub fn back_invalidate(&mut self, line: u64, mem: &mut MemoryController) {
        let mut dirty = false;
        if let Some(ev) = self.l1.invalidate_line(line) {
            dirty |= ev.dirty;
        }
        let l2 = self.l2.invalidate_line(line);
        debug_assert!(l2.is_some(), "core {} held line {line} without its L2", self.slot);
        if let Some(ev) = l2 {
            dirty |= ev.dirty;
        }
        if dirty {
            mem.writeback(self.time, self.id, line);
            self.pmu.mem_writeback_bytes += 64;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn demand_access(
        &mut self,
        addr: u64,
        pc: u64,
        is_load: bool,
        llc: &mut Llc,
        cat: &CatState,
        mem: &mut MemoryController,
        inval: &mut Vec<u64>,
    ) {
        self.drain_mshr(llc, cat, mem, inval);

        let line = crate::addr::line_of(addr);
        self.pmu.l1d_accesses += 1;

        self.pf_buf.clear();
        let l1_hit = self.l1.access(line).is_some();
        self.battery.l1_access(pc, addr, l1_hit, &mut self.pf_buf);

        if l1_hit {
            if !is_load {
                self.l1.mark_dirty(line);
            }
            self.issue_prefetches(llc, mem);
            return;
        }
        self.pmu.l1d_misses += 1;

        // Merge with an in-flight prefetch: pay only the remaining latency.
        let (completion, beyond_l2) =
            if let Some(j) = self.mshr_lines.iter().position(|&l| l == line) {
                let p = &mut self.mshr[j];
                if p.prefetched {
                    p.prefetched = false;
                    self.merged_prefetches += 1;
                }
                p.to_l1 = true;
                if !is_load {
                    p.dirty = true;
                }
                (p.complete, p.beyond_l2)
            } else {
                self.fetch_for_demand(line, addr, pc, is_load, llc, cat, mem, inval)
            };

        if !is_load {
            self.l1.mark_dirty(line);
        }

        // Demand window: admit this miss, stalling if the window is full.
        // Stores participate too — the store buffer drains through the
        // same MSHRs, so a store-miss stream is bounded by the same MLP
        // (this is what makes store-dominated streams like 470.lbm memory
        // bound). Repeated accesses to a line already in flight coalesce
        // into its existing entry (MSHR behaviour) instead of occupying
        // slots.
        while let Some(&(c, _, _)) = self.window.front() {
            if c <= self.time {
                self.window.pop_front();
            } else {
                break;
            }
        }
        if !self.window.iter().any(|&(_, _, l)| l == line) {
            if self.window.len() == self.window_capacity {
                let (c, blocked_beyond_l2, _) = self.window.pop_front().expect("window non-empty");
                if c > self.time {
                    let dt = c - self.time;
                    self.time = c;
                    self.pmu.stall_cycles += dt;
                    if blocked_beyond_l2 {
                        self.pmu.stalls_l2_pending += dt;
                    }
                }
            }
            self.window.push_back((completion, beyond_l2, line));
        }

        self.issue_prefetches(llc, mem);
    }

    /// Demand miss beyond L1: walk L2 → LLC → memory, install immediately,
    /// return (completion time, sourced-beyond-L2).
    #[allow(clippy::too_many_arguments)]
    fn fetch_for_demand(
        &mut self,
        line: u64,
        addr: u64,
        pc: u64,
        is_load: bool,
        llc: &mut Llc,
        cat: &CatState,
        mem: &mut MemoryController,
        inval: &mut Vec<u64>,
    ) -> (u64, bool) {
        self.pmu.l2_dm_req += 1;
        let l2_hit = self.l2.access(line).is_some();
        self.battery.l2_access(pc, addr, l2_hit, &mut self.pf_buf);

        if l2_hit {
            self.fill_l1(line, false);
            return (self.time + self.l2_hit_latency, false);
        }
        self.pmu.l2_dm_miss += 1;

        if let Some(hit) = llc.access(line) {
            self.fill_l2(line, false, llc, Some(hit.way));
            self.fill_l1(line, false);
            return (self.time + self.llc_hit_latency, true);
        }
        if is_load {
            self.pmu.l3_load_miss += 1;
        }

        let completion = mem.demand_fill(self.time, self.id, line) + self.mem_penalty;
        self.pmu.mem_demand_bytes += 64;
        let way = self.fill_llc(line, false, llc, cat, mem, inval);
        self.fill_l2(line, false, llc, Some(way));
        self.fill_l1(line, false);
        (completion, true)
    }

    /// Issues the prefetch candidates accumulated in `pf_buf`. L1 prefetch
    /// requests that miss L1 travel to L2 and — as on hardware — train the
    /// L2 prefetchers there, which may append further candidates; the loop
    /// keeps draining until the buffer is exhausted.
    fn issue_prefetches(&mut self, llc: &mut Llc, mem: &mut MemoryController) {
        let mut buf = std::mem::take(&mut self.pf_buf);
        let mut i = 0;
        while i < buf.len() {
            let req = buf[i];
            i += 1;
            match req.source {
                PrefetcherKind::L1NextLine | PrefetcherKind::L1IpStride => {
                    self.issue_l1_prefetch(req.line, &mut buf, llc, mem)
                }
                PrefetcherKind::L2Streamer | PrefetcherKind::L2Adjacent => {
                    self.issue_l2_prefetch(req.line, llc, mem)
                }
            }
        }
        buf.clear();
        self.pf_buf = buf;
    }

    #[inline]
    fn mshr_has(&self, line: u64) -> bool {
        self.mshr_lines.contains(&line)
    }

    /// Issues one L1 prefetch request. CAT applies when the fill lands
    /// (`drain_mshr`), not here.
    fn issue_l1_prefetch(
        &mut self,
        line: u64,
        buf: &mut Vec<PrefetchRequest>,
        llc: &mut Llc,
        mem: &mut MemoryController,
    ) {
        self.pmu.l1_pf_req += 1;
        if self.l1.contains(line) || self.mshr_has(line) || self.mshr.len() >= self.mshr_capacity {
            return;
        }
        // L1 prefetch requests check L2 on their way out (they are not
        // demand requests, so they do not count in l2_dm_req) and, like any
        // request arriving at L2, they train the L2 prefetchers.
        let l2_hit = self.l2.probe_for_prefetch(line);
        self.battery.l2_access(0, crate::addr::addr_of_line(line), l2_hit, buf);
        if l2_hit {
            self.push_fill(
                line,
                PendingFill {
                    complete: self.time + self.l2_hit_latency,
                    to_l1: true,
                    to_llc: false,
                    prefetched: true,
                    beyond_l2: false,
                    dirty: false,
                },
            );
            return;
        }
        if llc.probe_for_prefetch(line) {
            self.push_fill(
                line,
                PendingFill {
                    complete: self.time + self.llc_hit_latency,
                    to_l1: true,
                    to_llc: false,
                    prefetched: true,
                    beyond_l2: true,
                    dirty: false,
                },
            );
            return;
        }
        if let Some(complete) = mem.prefetch_fill(self.time, self.id, line) {
            self.pmu.mem_prefetch_bytes += 64;
            self.push_fill(
                line,
                PendingFill {
                    complete: complete + self.mem_penalty,
                    to_l1: true,
                    to_llc: true,
                    prefetched: true,
                    beyond_l2: true,
                    dirty: false,
                },
            );
        }
    }

    fn issue_l2_prefetch(&mut self, line: u64, llc: &mut Llc, mem: &mut MemoryController) {
        self.pmu.l2_pf_req += 1;
        if self.l2.contains(line) || self.mshr_has(line) || self.mshr.len() >= self.mshr_capacity {
            return;
        }
        // The request leaves L2 towards the LLC: this is the paper's
        // `L2 pref miss` event.
        self.pmu.l2_pf_miss += 1;
        if llc.probe_for_prefetch(line) {
            self.push_fill(
                line,
                PendingFill {
                    complete: self.time + self.llc_hit_latency,
                    to_l1: false,
                    to_llc: false,
                    prefetched: true,
                    beyond_l2: true,
                    dirty: false,
                },
            );
            return;
        }
        self.pmu.llc_pf_to_mem += 1;
        if let Some(complete) = mem.prefetch_fill(self.time, self.id, line) {
            self.pmu.mem_prefetch_bytes += 64;
            self.push_fill(
                line,
                PendingFill {
                    complete: complete + self.mem_penalty,
                    to_l1: false,
                    to_llc: true,
                    prefetched: true,
                    beyond_l2: true,
                    dirty: false,
                },
            );
        }
    }

    fn push_fill(&mut self, line: u64, fill: PendingFill) {
        debug_assert!(self.mshr.len() < self.mshr_capacity);
        self.mshr_min_complete = self.mshr_min_complete.min(fill.complete);
        self.mshr_lines.push(line);
        self.mshr.push(fill);
    }

    /// Applies all fills whose data has arrived. The cached
    /// `mshr_min_complete` makes the common no-fill-ready case a single
    /// comparison; the walk below preserves the historical apply order
    /// (ascending scan with swap-remove) so fill side effects — LRU
    /// updates, evictions, back-invalidations — land byte-identically.
    #[inline]
    fn drain_mshr(
        &mut self,
        llc: &mut Llc,
        cat: &CatState,
        mem: &mut MemoryController,
        inval: &mut Vec<u64>,
    ) {
        if self.mshr_min_complete > self.time {
            return;
        }
        let now = self.time;
        let mut min_left = u64::MAX;
        let mut j = 0;
        while j < self.mshr.len() {
            if self.mshr[j].complete <= now {
                let line = self.mshr_lines.swap_remove(j);
                let fill = self.mshr.swap_remove(j);
                // An LLC-hit fill finds its line's way when it lands: the
                // LLC may have evicted the line since the request left.
                let way =
                    fill.to_llc.then(|| self.fill_llc(line, fill.prefetched, llc, cat, mem, inval));
                self.fill_l2(line, fill.prefetched, llc, way);
                if fill.to_l1 {
                    self.fill_l1(line, fill.prefetched);
                    if fill.dirty {
                        self.l1.mark_dirty(line);
                    }
                }
            } else {
                min_left = min_left.min(self.mshr[j].complete);
                j += 1;
            }
        }
        self.mshr_min_complete = min_left;
    }

    fn fill_l1(&mut self, line: u64, prefetched: bool) {
        if let Some(ev) = self.l1.insert(line, prefetched, u64::MAX) {
            if ev.dirty {
                // Inclusive hierarchy: the line is still in L2; propagate.
                self.l2.mark_dirty(ev.line);
            }
        }
    }

    /// Installs `line` in L2 and records this core as a holder. `way` is
    /// the line's LLC way when the caller already knows it.
    fn fill_l2(&mut self, line: u64, prefetched: bool, llc: &mut Llc, way: Option<usize>) {
        let fill = self.l2.fill(line, prefetched, u64::MAX, false);
        if fill.was_resident {
            return;
        }
        llc.add_holder(line, way, self.slot);
        if let Some(ev) = fill.evicted {
            // L1 must not outlive L2 if we keep the hierarchy inclusive.
            self.l1.invalidate_line(ev.line);
            llc.drop_holder(ev.line, self.slot, ev.dirty);
        }
    }

    /// Installs `line` in the LLC under this core's CAT mask and returns
    /// its way.
    fn fill_llc(
        &mut self,
        line: u64,
        prefetched: bool,
        llc: &mut Llc,
        cat: &CatState,
        mem: &mut MemoryController,
        inval: &mut Vec<u64>,
    ) -> usize {
        let mask = cat.mask_for_core(self.slot);
        // With Query-Based Selection the LLC avoids victimising lines
        // resident in any core's private caches (Broadwell's
        // inclusion-victim mitigation).
        let fill = llc.fill(line, prefetched, mask, self.qbs, self.slot);
        if let Some(ev) = fill.evicted {
            if ev.dirty {
                mem.writeback(self.time, self.id, ev.line);
                self.pmu.mem_writeback_bytes += 64;
            }
            // Inclusive LLC: victims must leave every private cache.
            // Our own copies go now (L1 holds a subset of L2); other
            // cores' at the quantum boundary.
            if ev.holders & (1 << self.slot) != 0 {
                self.l1.invalidate_line(ev.line);
                self.l2.invalidate_line(ev.line);
            } else {
                debug_assert!(!self.l2.contains(ev.line) && !self.l1.contains(ev.line));
            }
            inval.push(ev.line);
        }
        fill.way
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemConfig, Topology};
    use crate::workload::Idle;

    fn rig() -> (Core, Llc, CatState, MemoryController, Vec<u64>) {
        let cfg = SystemConfig::tiny(1);
        let core = Core::new(0, &cfg, Box::new(Idle));
        let llc = Llc::new(cfg.llc, 1);
        let cat = CatState::new(cfg.num_clos, cfg.llc.ways, &Topology::single(1));
        let mem = MemoryController::new(cfg.memory, &Topology::single(1));
        (core, llc, cat, mem, Vec::new())
    }

    #[test]
    fn compute_only_runs_at_ipc_one() {
        let (mut core, mut llc, cat, mut mem, mut inval) = rig();
        core.run_until(10_000, &mut llc, &cat, &mut mem, &mut inval);
        assert!(core.time >= 10_000);
        assert!((core.pmu.ipc() - 1.0).abs() < 0.01);
        assert_eq!(core.pmu.l1d_accesses, 0);
    }

    /// Sequential loads, one per 8 bytes.
    struct Seq {
        pos: u64,
        span: u64,
    }
    impl Workload for Seq {
        fn next(&mut self) -> Op {
            let a = self.pos;
            self.pos = (self.pos + 8) % self.span;
            Op::Load { addr: a, pc: 0x400 }
        }
        fn mlp(&self) -> u32 {
            4
        }
        fn reset(&mut self) {
            self.pos = 0;
        }
        fn name(&self) -> &str {
            "seq"
        }
    }

    #[test]
    fn streaming_load_counts_misses_and_fills() {
        let cfg = SystemConfig::tiny(1);
        let mut core = Core::new(0, &cfg, Box::new(Seq { pos: 0, span: 1 << 20 }));
        let mut llc = Llc::new(cfg.llc, 1);
        let cat = CatState::new(cfg.num_clos, cfg.llc.ways, &Topology::single(1));
        let mut mem = MemoryController::new(cfg.memory, &Topology::single(1));
        let mut inval = Vec::new();
        core.run_until(50_000, &mut llc, &cat, &mut mem, &mut inval);
        assert!(core.pmu.l1d_accesses > 0);
        assert!(core.pmu.l1d_misses > 0);
        assert!(core.pmu.l2_dm_req > 0);
        // A sequential stream must trigger L2 prefetch requests.
        assert!(core.pmu.l2_pf_req > 0, "{:?}", core.pmu);
        assert!(core.pmu.mem_demand_bytes + core.pmu.mem_prefetch_bytes > 0);
    }

    #[test]
    fn prefetching_improves_streaming_ipc() {
        let cfg = SystemConfig::tiny(1);
        let run = |msr: u64| {
            let mut core = Core::new(0, &cfg, Box::new(Seq { pos: 0, span: 1 << 22 }));
            core.battery.write_msr(msr);
            let mut llc = Llc::new(cfg.llc, 1);
            let cat = CatState::new(cfg.num_clos, cfg.llc.ways, &Topology::single(1));
            let mut mem = MemoryController::new(cfg.memory, &Topology::single(1));
            let mut inval = Vec::new();
            core.run_until(300_000, &mut llc, &cat, &mut mem, &mut inval);
            core.pmu.ipc()
        };
        let ipc_on = run(0x0);
        let ipc_off = run(0xF);
        assert!(
            ipc_on > ipc_off * 1.3,
            "prefetch-on IPC {ipc_on:.3} should clearly beat off {ipc_off:.3}"
        );
    }

    #[test]
    fn stalls_attributed_beyond_l2() {
        let cfg = SystemConfig::tiny(1);
        let mut core = Core::new(0, &cfg, Box::new(Seq { pos: 0, span: 1 << 22 }));
        core.battery.write_msr(0xF); // no prefetch: every line from memory
        let mut llc = Llc::new(cfg.llc, 1);
        let cat = CatState::new(cfg.num_clos, cfg.llc.ways, &Topology::single(1));
        let mut mem = MemoryController::new(cfg.memory, &Topology::single(1));
        let mut inval = Vec::new();
        core.run_until(100_000, &mut llc, &cat, &mut mem, &mut inval);
        assert!(core.pmu.stalls_l2_pending > 0);
        assert!(core.pmu.stalls_l2_pending <= core.pmu.stall_cycles);
    }

    #[test]
    fn store_streams_stall_like_load_streams() {
        struct StoreStream {
            pos: u64,
        }
        impl Workload for StoreStream {
            fn next(&mut self) -> Op {
                self.pos += 64;
                Op::Store { addr: self.pos, pc: 0x500 }
            }
            fn reset(&mut self) {
                self.pos = 0;
            }
            fn name(&self) -> &str {
                "stores"
            }
        }
        let cfg = SystemConfig::tiny(1);
        let mut core = Core::new(0, &cfg, Box::new(StoreStream { pos: 0 }));
        core.battery.write_msr(0xF);
        let mut llc = Llc::new(cfg.llc, 1);
        let cat = CatState::new(cfg.num_clos, cfg.llc.ways, &Topology::single(1));
        let mut mem = MemoryController::new(cfg.memory, &Topology::single(1));
        let mut inval = Vec::new();
        core.run_until(20_000, &mut llc, &cat, &mut mem, &mut inval);
        // The store buffer drains through the MLP window: a write-allocate
        // miss stream must stall once the window fills.
        assert!(core.pmu.stall_cycles > 0);
        assert!(core.pmu.mem_demand_bytes > 0);
    }

    #[test]
    fn back_invalidate_writes_back_dirty_lines() {
        let (mut core, mut llc, cat, mut mem, mut inval) = rig();
        // Install a line and dirty it in L1 via a store.
        core.demand_access(0x1000, 0x400, false, &mut llc, &cat, &mut mem, &mut inval);
        let before = core.pmu.mem_writeback_bytes;
        let line = crate::addr::line_of(0x1000);
        assert_eq!(llc.take_holders(line), 0b1);
        core.back_invalidate(line, &mut mem);
        assert_eq!(core.pmu.mem_writeback_bytes, before + 64);
        assert!(!core.l1.contains(crate::addr::line_of(0x1000)));
        assert!(!core.l2.contains(crate::addr::line_of(0x1000)));
    }
}
