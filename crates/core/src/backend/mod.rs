//! CMM back-end: resource allocators.
//!
//! Shared plumbing for the four allocator families:
//!
//! * [`pt`] — prefetch throttling (Sec. III-B1);
//! * [`cp`] — Pref-CP / Pref-CP2 cache partitioning (Sec. III-B2);
//! * [`dunn`] — the Selfa et al. clustering baseline;
//! * [`cmm`] — the coordinated CMM-a/b/c policies (Sec. III-B3);
//! * [`cbp`] — the MBA delay levels of the CBP extension.
//!
//! All allocators speak in terms of a [`PartitionPlan`] (CLOS masks +
//! core→CLOS assignments) and per-core register images, applied through
//! the [`Substrate`] MSR surface. Every profiling trial — prefetch
//! throttling, PT-fine levels, MBA delay levels — runs through the one
//! trial search, [`search_in`].
//!
//! Every actuator path here is *fault-aware*: MSR writes go through
//! [`write_msr_logged`] (bounded retry of transient rejections), PMU reads
//! through [`pmu_read_stable`] (re-read until two snapshots agree), and
//! each operation that observes a fault appends a
//! [`crate::telemetry::FaultRecord`] to the caller's log so the journal
//! can show what the hardware did and how the controller degraded.

pub mod cbp;
pub mod cmm;
pub mod cp;
pub mod dunn;
pub mod pt;

use crate::substrate::Substrate;
use crate::telemetry::{FaultRecord, Trial};
use cmm_sim::msr::{contiguous_mask, CatError, MSR_MBA_THROTTLE, MSR_MISC_FEATURE_CONTROL};
use cmm_sim::pmu::PmuDelta;
use cmm_sim::system::MsrError;

/// How many times a transiently rejected WRMSR is retried before the
/// controller gives up on the write and degrades.
pub const MSR_WRITE_RETRIES: usize = 3;

/// How many extra PMU snapshots [`pmu_read_stable`] takes chasing two
/// consecutive reads that agree.
pub const PMU_READ_RETRIES: usize = 3;

/// Classifies an [`MsrError`] into the journal's fault taxonomy.
fn fault_kind(e: &MsrError) -> &'static str {
    match e {
        MsrError::Rejected(_) => "msr_rejected",
        MsrError::Cat(CatError::BadClos(_)) => "clos_exhausted",
        _ => "msr_error",
    }
}

/// WRMSR with bounded retry of transient rejections. A rejection that a
/// retry clears is logged with action `retry_ok`; a write that still fails
/// after [`MSR_WRITE_RETRIES`] retries (or fails permanently, e.g. CLOS
/// exhaustion) is logged with `gave_up` and returned to the caller, whose
/// job is to pick a degradation.
pub fn write_msr_logged<S: Substrate>(
    sys: &mut S,
    core: usize,
    msr: u32,
    value: u64,
    log: &mut Vec<FaultRecord>,
) -> Result<(), MsrError> {
    let mut attempts = 0;
    loop {
        match sys.write_msr(core, msr, value) {
            Ok(()) => {
                if attempts > 0 {
                    log.push(FaultRecord {
                        cycle: sys.now(),
                        kind: "msr_rejected",
                        core: Some(core),
                        msr: Some(msr),
                        action: "retry_ok",
                    });
                }
                return Ok(());
            }
            Err(MsrError::Rejected(_)) if attempts < MSR_WRITE_RETRIES => attempts += 1,
            Err(e) => {
                log.push(FaultRecord {
                    cycle: sys.now(),
                    kind: fault_kind(&e),
                    core: Some(core),
                    msr: Some(msr),
                    action: "gave_up",
                });
                return Err(e);
            }
        }
    }
}

/// Snapshots the PMUs until two consecutive reads agree. Reading does not
/// advance the machine clock, so clean reads always agree; a transiently
/// corrupted read (bus garbage, mid-overflow) differs from its neighbour
/// and is logged with action `reread`. After [`PMU_READ_RETRIES`]
/// disagreements the last snapshot is returned — the sampling backstop in
/// [`sample_logged`] then discards anything still implausible.
pub fn pmu_read_stable<S: Substrate>(
    sys: &mut S,
    log: &mut Vec<FaultRecord>,
) -> Vec<cmm_sim::pmu::Pmu> {
    let mut prev = sys.pmu_all();
    for _ in 0..PMU_READ_RETRIES {
        let next = sys.pmu_all();
        if next == prev {
            return next;
        }
        log.push(FaultRecord {
            cycle: sys.now(),
            kind: "pmu_anomaly",
            core: None,
            msr: None,
            action: "reread",
        });
        prev = next;
    }
    prev
}

/// How many [`pmu_read_stable`] rounds [`pmu_read_checked`] takes chasing
/// a snapshot that also passes the plausibility window. Corrupted reads
/// are transient, so each round is an independent chance at a clean pair;
/// 16 rounds make survival of a corrupt snapshot astronomically unlikely
/// even at the fault sweep's highest rates.
pub const PMU_CHECKED_RETRIES: usize = 16;

/// How far past the machine clock a clean core clock may legitimately
/// read: a core finishes its quantum on the first op boundary at or after
/// the quantum end, so its published cycle counter can overshoot `now` by
/// at most one op's latency. Anything beyond this is corruption.
pub const PMU_OVERSHOOT_SLACK: u64 = 1 << 20;

/// True when every core's snapshot could have come from a healthy machine
/// whose global clock reads `now`: cores never halt and sync at quantum
/// boundaries, so a clean core clock sits in `[now, now + one op]`. A
/// wrapped counter reads far *below* `now`; garbage reads far above it.
fn pmu_snapshot_plausible(snap: &[cmm_sim::pmu::Pmu], now: u64) -> bool {
    snap.iter().all(|p| p.cycles >= now && p.cycles - now <= PMU_OVERSHOOT_SLACK)
}

/// [`pmu_read_stable`] hardened for measurement-window boundaries: the
/// snapshot is additionally validated against the clean-machine clock
/// window (see [`pmu_snapshot_plausible`]) and re-read while it fails.
///
/// The profiling path can afford to *discard* a sample that survives the
/// stability check corrupted ([`sample_logged`]'s zeroing backstop — the
/// trial just ranks last); a window boundary cannot, because the window
/// delta IS the run's result: one wrapped boundary core would report the
/// whole run's harmonic-mean IPC as zero. Re-reading is always safe here —
/// reads do not advance the machine — and terminates in practice because
/// corruption is per-read transient. On a clean substrate the first
/// snapshot passes and this is exactly [`pmu_read_stable`], record for
/// record.
pub fn pmu_read_checked<S: Substrate>(
    sys: &mut S,
    log: &mut Vec<FaultRecord>,
) -> Vec<cmm_sim::pmu::Pmu> {
    let now = sys.now();
    let mut snap = pmu_read_stable(sys, log);
    for _ in 0..PMU_CHECKED_RETRIES {
        if pmu_snapshot_plausible(&snap, now) {
            return snap;
        }
        log.push(FaultRecord {
            cycle: now,
            kind: "pmu_anomaly",
            core: None,
            msr: None,
            action: "reread",
        });
        snap = pmu_read_stable(sys, log);
    }
    snap
}

/// A complete CAT programming: which mask each CLOS holds and which CLOS
/// each core belongs to. CLOS 0 is conventionally the full-LLC "neutral"
/// class.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// `(clos, way_mask)` pairs to program.
    pub masks: Vec<(usize, u64)>,
    /// `(core, clos)` assignments.
    pub assignments: Vec<(usize, usize)>,
}

impl PartitionPlan {
    /// The no-partitioning plan: every core in the full-mask CLOS 0.
    pub fn flat(num_cores: usize, llc_ways: u32) -> Self {
        PartitionPlan {
            masks: vec![(0, contiguous_mask(0, llc_ways))],
            assignments: (0..num_cores).map(|c| (c, 0)).collect(),
        }
    }

    /// Shifts every core assignment by `base` — turns a plan built against
    /// socket-local core ids (what the per-domain allocators produce) into
    /// one addressing the machine's global ids. Masks are untouched: CLOS
    /// ids are already socket-local on the target domain.
    pub fn offset(mut self, base: usize) -> Self {
        for (core, _) in self.assignments.iter_mut() {
            *core += base;
        }
        self
    }

    /// Programs the plan into the machine, retrying transient rejections.
    /// The CLOS mask writes are issued via `anchor`: CAT mask MSRs are
    /// socket-scoped, so the anchor core selects which socket's CAT domain
    /// the masks land on; pass the domain's base core when applying a
    /// per-domain plan.
    ///
    /// Fails fast on the first unrecoverable write: CAT state is then
    /// partially programmed and the caller must fall back to a safe
    /// configuration ([`Substrate::reset_cat_domain`]) before continuing —
    /// exactly what [`crate::driver::Driver`] does.
    pub fn apply_at<S: Substrate>(
        &self,
        sys: &mut S,
        anchor: usize,
        log: &mut Vec<FaultRecord>,
    ) -> Result<(), MsrError> {
        for &(clos, mask) in &self.masks {
            write_msr_logged(
                sys,
                anchor,
                cmm_sim::msr::IA32_L3_QOS_MASK_BASE + clos as u32,
                mask,
                log,
            )?;
        }
        for &(core, clos) in &self.assignments {
            write_msr_logged(sys, core, cmm_sim::msr::IA32_PQR_ASSOC, clos as u64, log)?;
        }
        Ok(())
    }
}

/// The paper's partition-sizing rule (Sec. III-B3): a partition holding
/// `cores` cores gets `ceil(scale × cores)` ways, clamped so the partition
/// never swallows the whole cache (at least one way must stay exclusive to
/// the neutral set for isolation to mean anything) and never goes below
/// CAT's 1-way minimum.
///
/// `min_ways_per_core` is the inclusive-LLC coverage floor: a partition
/// smaller than the sum of its cores' private L2 capacities makes the
/// (inclusive) LLC back-invalidate the very lines those L2s are using —
/// an eviction war real CAT deployments avoid by never sizing masks below
/// L2 coverage. On the paper's geometry one 1 MiB way covers an entire
/// 256 KiB L2 (`min = 1`, the rule is purely 1.5×); on the scaled
/// geometry a way is 128 KiB, so the floor is 2 ways per core.
pub fn partition_ways(cores: usize, scale: f64, llc_ways: u32, min_ways_per_core: u32) -> u32 {
    assert!(cores > 0);
    let want = (scale * cores as f64).ceil() as u32;
    let floor = cores as u32 * min_ways_per_core.max(1);
    want.max(floor).clamp(1, llc_ways.saturating_sub(2).max(1))
}

/// The inclusive-LLC coverage floor for a machine: how many LLC ways it
/// takes to cover one private L2 (see [`partition_ways`]).
pub fn min_ways_per_core(cfg: &cmm_sim::config::SystemConfig) -> u32 {
    let way_bytes = cfg.llc.size_bytes / cfg.llc.ways as u64;
    (cfg.l2.size_bytes.div_ceil(way_bytes)) as u32
}

/// One profiling sample: run the machine for `cycles` and return the
/// per-core PMU deltas, logging any PMU anomalies encountered.
///
/// Both boundary snapshots go through [`pmu_read_stable`]; as a backstop,
/// a per-core delta whose cycle count is zero (wrapped counter — the
/// saturating subtraction clamped it) or implausibly large (garbage that
/// survived the stability check) is zeroed and logged with action
/// `zeroed_sample`. A zeroed core gives the sample an `hm_ipc` of 0, so a
/// corrupted trial ranks last instead of poisoning the search.
pub fn sample_logged<S: Substrate>(
    sys: &mut S,
    cycles: u64,
    log: &mut Vec<FaultRecord>,
) -> Vec<PmuDelta> {
    let before = pmu_read_stable(sys, log);
    sys.run(cycles);
    let after = pmu_read_stable(sys, log);
    let mut deltas: Vec<PmuDelta> = after.iter().zip(before).map(|(&after, b)| after - b).collect();
    let bound = cycles.saturating_mul(4).saturating_add(10_000);
    for (core, d) in deltas.iter_mut().enumerate() {
        if (d.cycles == 0 || d.cycles > bound) && *d != PmuDelta::default() {
            *d = PmuDelta::default();
            log.push(FaultRecord {
                cycle: sys.now(),
                kind: "pmu_anomaly",
                core: Some(core),
                msr: None,
                action: "zeroed_sample",
            });
        }
    }
    deltas
}

/// [`sample_logged`] without a fault log — the convenience harnesses and
/// examples use on a clean substrate.
pub fn sample<S: Substrate>(sys: &mut S, cycles: u64) -> Vec<PmuDelta> {
    sample_logged(sys, cycles, &mut Vec::new())
}

/// Harmonic-mean IPC of a sample — the paper's configuration-ranking proxy.
pub fn sample_hm_ipc(deltas: &[PmuDelta]) -> f64 {
    let ipcs: Vec<f64> = deltas.iter().map(|d| d.ipc()).collect();
    cmm_metrics::hm_ipc(&ipcs)
}

/// Sets the prefetchers of the cores starting at `base` per the enable
/// vector (`enabled[i]` programs core `base + i`), retrying transient
/// rejections. Cores outside the range are left untouched — this is how
/// per-domain controllers throttle their own socket without clobbering a
/// concurrent search on another one. A core whose write still fails keeps
/// its previous setting: throttling is an optimisation, not a correctness
/// requirement, so per-core failures are logged and tolerated rather than
/// propagated.
pub fn apply_prefetch_range_logged<S: Substrate>(
    sys: &mut S,
    base: usize,
    enabled: &[bool],
    log: &mut Vec<FaultRecord>,
) {
    for (i, &on) in enabled.iter().enumerate() {
        let value = if on { 0x0 } else { 0xF };
        let _ = write_msr_logged(sys, base + i, MSR_MISC_FEATURE_CONTROL, value, log);
    }
}

/// What the first two sampling intervals establish (Sec. III-B1): the
/// `Agg` set from an all-prefetchers-on interval, and its friendly /
/// unfriendly split from an interval with the `Agg` prefetchers disabled.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Per-core deltas of the all-on interval (used for M-3 clustering and
    /// by Dunn's stall clustering).
    pub interval1: Vec<PmuDelta>,
    /// Prefetch-aggressive cores, ascending.
    pub agg: Vec<usize>,
    /// `Agg` cores whose IPC drops ≥ the friendliness threshold without
    /// prefetching.
    pub friendly: Vec<usize>,
    /// `Agg` cores that are not prefetch friendly.
    pub unfriendly: Vec<usize>,
}

/// Runs the first one or two sampling intervals: interval 1 with every
/// prefetcher on (mandatory — cores throttled last epoch would otherwise
/// never be re-observed), and, if the `Agg` set is non-empty, interval 2
/// with the `Agg` prefetchers off to probe prefetch friendliness.
/// Prefetchers are left all-on afterwards.
///
/// The machine is split into `domains` equal slices (one per CAT domain /
/// socket). The sampling intervals are *shared*: one all-on interval for
/// everybody, then — if any domain found aggressors — one interval with
/// every domain's `Agg` prefetchers off simultaneously. That keeps
/// wall-clock profiling cost independent of the socket count, which is
/// what lets the per-domain controllers run "concurrently".
///
/// Each returned [`Detection`] is **domain-local**: `interval1` holds just
/// that domain's core deltas and the `agg`/`friendly`/`unfriendly` indices
/// are offsets into the domain (add `d * len` for global core ids).
pub fn detect_domains_logged<S: Substrate>(
    sys: &mut S,
    ctrl: &crate::policy::ControllerConfig,
    det: &crate::frontend::DetectorConfig,
    log: &mut Vec<FaultRecord>,
    domains: usize,
) -> Vec<Detection> {
    let n = sys.num_cores();
    assert!(domains > 0 && n.is_multiple_of(domains), "domains must evenly split the cores");
    let len = n / domains;
    apply_prefetch_range_logged(sys, 0, &vec![true; n], log);
    let interval1 = sample_logged(sys, ctrl.sampling_interval, log);
    let aggs: Vec<Vec<usize>> = (0..domains)
        .map(|d| crate::frontend::detect_agg(&interval1[d * len..(d + 1) * len], det))
        .collect();
    if aggs.iter().all(|a| a.is_empty()) {
        return (0..domains)
            .map(|d| Detection {
                interval1: interval1[d * len..(d + 1) * len].to_vec(),
                agg: Vec::new(),
                friendly: Vec::new(),
                unfriendly: Vec::new(),
            })
            .collect();
    }

    let mut enabled = vec![true; n];
    for (d, agg) in aggs.iter().enumerate() {
        for &c in agg {
            enabled[d * len + c] = false;
        }
    }
    apply_prefetch_range_logged(sys, 0, &enabled, log);
    let interval2 = sample_logged(sys, ctrl.sampling_interval, log);
    apply_prefetch_range_logged(sys, 0, &vec![true; n], log);

    aggs.into_iter()
        .enumerate()
        .map(|(d, agg)| {
            let i1 = &interval1[d * len..(d + 1) * len];
            let i2 = &interval2[d * len..(d + 1) * len];
            let mut friendly = Vec::new();
            let mut unfriendly = Vec::new();
            for &c in &agg {
                let with_pf = i1[c].ipc();
                let without = i2[c].ipc();
                if without > 0.0 && with_pf / without > 1.0 + ctrl.friendly_speedup {
                    friendly.push(c);
                } else {
                    unfriendly.push(c);
                }
            }
            Detection { interval1: i1.to_vec(), agg, friendly, unfriendly }
        })
        .collect()
}

/// [`detect_domains_logged`] over the whole machine as one domain, without
/// a fault log — the convenience examples use.
pub fn detect<S: Substrate>(
    sys: &mut S,
    ctrl: &crate::policy::ControllerConfig,
    det: &crate::frontend::DetectorConfig,
) -> Detection {
    detect_domains_logged(sys, ctrl, det, &mut Vec::new(), 1).pop().expect("one domain")
}

/// The per-core register a [`search_in`] trials. Level 0 is the power-on
/// state of both: every prefetcher on, no bandwidth delay.
#[derive(Debug, Clone, Copy)]
pub enum Knob<'a> {
    /// MSR 0x1A4, the prefetcher-disable bits.
    Prefetch,
    /// The MBA delay level, searched with the given domain-local MSR 0x1A4
    /// image in force; each trial journals it next to the MBA image, so the
    /// journal shows the joint configuration the trial actually ran.
    Mba(&'a [u64]),
}

/// Outcome of a [`search_in`]: the applied winner plus the full trial log
/// the telemetry journal records.
#[derive(Debug, Clone, PartialEq)]
pub struct Search {
    /// The winning domain-local register image (already applied).
    pub best: Vec<u64>,
    /// Every trialed configuration with its `hm_ipc`, in trial order.
    pub trials: Vec<Trial>,
    /// Index of the winner in `trials`; `None` when no trial ran.
    pub winner: Option<usize>,
}

/// The back-end's trial search (Sec. III-B): tries every combination of
/// `levels` across `groups` on the `knob` register, one sampling interval
/// each, ranks the trials by `hm_ipc` (the paper's "best" criterion — the
/// reciprocal of ANTT up to the unknown run-alone IPCs), and applies the
/// winner. Group `g` takes level `levels[(combo / levels.len()^g) %
/// levels.len()]` in trial `combo`; cores outside the groups stay at
/// level 0.
///
/// The search is scoped to the `len` cores starting at `base` (one CAT
/// domain): `groups` hold **global** core ids within that range, the trial
/// `hm_ipc` is computed over the domain's cores only (another domain's
/// phase change must not steer this domain's search), and the returned
/// image and trial images are domain-local (index = global id − `base`).
/// The whole machine still advances during each trial interval — cores
/// outside the domain keep whatever setting they have.
///
/// Trial-interval write failures are tolerated (the trial ranks whatever
/// configuration actually took hold). If applying the *winner* fails, the
/// search reverts to level 0 — the entry state every trial started from
/// and the power-on default — and logs `kept_last_good`.
#[allow(clippy::too_many_arguments)]
pub fn search_in<S: Substrate>(
    sys: &mut S,
    knob: Knob,
    groups: &[Vec<usize>],
    levels: &[u64],
    sampling_interval: u64,
    log: &mut Vec<FaultRecord>,
    base: usize,
    len: usize,
) -> Search {
    assert!(!levels.is_empty());
    let msr = match knob {
        Knob::Prefetch => MSR_MISC_FEATURE_CONTROL,
        Knob::Mba(pf_image) => {
            assert_eq!(pf_image.len(), len, "prefetch image must cover the domain");
            MSR_MBA_THROTTLE
        }
    };
    let write = |sys: &mut S, image: &[u64], log: &mut Vec<FaultRecord>| {
        for (i, &value) in image.iter().enumerate() {
            let _ = write_msr_logged(sys, base + i, msr, value, log);
        }
    };
    let entry = vec![0u64; len];
    if groups.is_empty() {
        write(sys, &entry, log);
        return Search { best: entry, trials: Vec::new(), winner: None };
    }
    let combos = levels.len().pow(groups.len() as u32);
    let mut best = entry.clone();
    let mut best_hm = f64::NEG_INFINITY;
    let mut winner = 0;
    let mut trials = Vec::with_capacity(combos);
    for combo in 0..combos {
        let mut image = entry.clone();
        let mut c = combo;
        for cores in groups {
            let level = levels[c % levels.len()];
            c /= levels.len();
            for &core in cores {
                image[core - base] = level;
            }
        }
        write(sys, &image, log);
        let deltas = sample_logged(sys, sampling_interval, log);
        let hm_ipc = sample_hm_ipc(&deltas[base..base + len]);
        if hm_ipc > best_hm {
            best_hm = hm_ipc;
            winner = trials.len();
            best.clone_from(&image);
        }
        trials.push(match knob {
            Knob::Prefetch => Trial { msr_1a4: image, mba: Vec::new(), hm_ipc },
            Knob::Mba(pf_image) => Trial { msr_1a4: pf_image.to_vec(), mba: image, hm_ipc },
        });
    }
    let before = log.len();
    write(sys, &best, log);
    if log.iter().skip(before).any(|f| f.action == "gave_up") {
        // The winner could not be fully programmed: revert to the entry
        // state (best effort) rather than run an unknown mixture.
        write(sys, &entry, log);
        log.push(FaultRecord {
            cycle: sys.now(),
            kind: "degraded",
            core: None,
            msr: None,
            action: "kept_last_good",
        });
        best = entry;
    }
    Search { best, trials, winner: Some(winner) }
}

/// Groups `agg` cores for throttling: exhaustive (each core its own group)
/// when the set is small, otherwise k-means on the cores' L2 PTR (M-3) into
/// at most `groups` clusters (Sec. III-B1's scalability mechanism).
pub fn throttle_groups(
    agg: &[usize],
    deltas: &[PmuDelta],
    exhaustive_limit: usize,
    groups: usize,
) -> Vec<Vec<usize>> {
    if agg.is_empty() {
        return Vec::new();
    }
    if agg.len() <= exhaustive_limit {
        return agg.iter().map(|&c| vec![c]).collect();
    }
    let ptrs: Vec<f64> = agg.iter().map(|&c| crate::frontend::metrics(&deltas[c]).l2_ptr).collect();
    let clustering = cmm_metrics::kmeans_1d(&ptrs, groups);
    (0..clustering.k())
        .map(|g| clustering.members(g).into_iter().map(|i| agg[i]).collect())
        .filter(|g: &Vec<usize>| !g.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_sim::config::SystemConfig;
    use cmm_sim::pmu::Pmu;
    use cmm_sim::workload::Idle;
    use cmm_sim::System;

    #[test]
    fn partition_ways_follows_the_1_5x_rule() {
        assert_eq!(partition_ways(1, 1.5, 20, 1), 2);
        assert_eq!(partition_ways(2, 1.5, 20, 1), 3);
        assert_eq!(partition_ways(4, 1.5, 20, 1), 6);
        assert_eq!(partition_ways(8, 1.5, 20, 1), 12);
    }

    #[test]
    fn partition_ways_clamped() {
        // Never swallow the whole cache...
        assert_eq!(partition_ways(20, 1.5, 20, 1), 18);
        // ...and never below one way.
        assert_eq!(partition_ways(1, 0.1, 20, 1), 1);
        assert_eq!(partition_ways(1, 1.5, 2, 1), 1);
    }

    #[test]
    fn partition_ways_respects_l2_coverage_floor() {
        // 2 ways per core floor (scaled geometry): a 2-core partition gets
        // 4 ways even though 1.5× asks for 3.
        assert_eq!(partition_ways(2, 1.5, 20, 2), 4);
        assert_eq!(partition_ways(4, 1.5, 20, 2), 8);
        // Floor still clamped below the whole cache.
        assert_eq!(partition_ways(12, 1.5, 20, 2), 18);
    }

    #[test]
    fn min_ways_per_core_from_geometry() {
        // Paper geometry: 1 MiB way covers the 256 KiB L2.
        assert_eq!(min_ways_per_core(&cmm_sim::config::SystemConfig::paper()), 1);
        // Scaled geometry: 128 KiB way → 2 ways per L2.
        assert_eq!(min_ways_per_core(&cmm_sim::config::SystemConfig::scaled(8)), 2);
    }

    #[test]
    fn flat_plan_applies() {
        let mut sys = System::new(SystemConfig::tiny(2), vec![Box::new(Idle), Box::new(Idle)]);
        sys.set_clos_mask(1, 0b1).unwrap();
        sys.assign_clos(1, 1).unwrap();
        let mut log = Vec::new();
        PartitionPlan::flat(2, sys.llc_ways()).apply_at(&mut sys, 0, &mut log).unwrap();
        assert_eq!(sys.effective_mask(1), 0b1111);
        assert!(log.is_empty(), "clean machine, no faults: {log:?}");
    }

    #[test]
    fn bad_plan_fails_instead_of_panicking() {
        let mut sys = System::new(SystemConfig::tiny(2), vec![Box::new(Idle), Box::new(Idle)]);
        let plan = PartitionPlan {
            masks: vec![(0, 0b1111), (99, 0b11)], // CLOS 99 does not exist
            assignments: vec![(0, 0)],
        };
        let mut log = Vec::new();
        let err = plan.apply_at(&mut sys, 0, &mut log).unwrap_err();
        // CLOS 99's mask register is beyond the machine's MSR map entirely.
        assert!(matches!(err, MsrError::UnknownMsr(_)), "{err:?}");
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, "msr_error");
        assert_eq!(log[0].action, "gave_up");
    }

    #[test]
    fn write_msr_logged_retries_transient_rejections() {
        use crate::fault::{FaultConfig, FaultySubstrate};
        let sys = System::new(SystemConfig::tiny(1), vec![Box::new(Idle)]);
        // Rejection rate low enough that MSR_WRITE_RETRIES almost surely
        // clears at least one rejected write across many attempts.
        let mut faulty = FaultySubstrate::new(sys, FaultConfig::uniform(11, 0.4));
        let mut log = Vec::new();
        let mut oks = 0;
        for _ in 0..32 {
            if write_msr_logged(&mut faulty, 0, MSR_MISC_FEATURE_CONTROL, 0xF, &mut log).is_ok() {
                oks += 1;
            }
        }
        assert_eq!(oks, 32, "rate 0.4 with 3 retries should always clear");
        assert!(log.iter().any(|f| f.kind == "msr_rejected" && f.action == "retry_ok"));
        assert!(faulty.injected().msr_rejections > 0);
    }

    #[test]
    fn stable_read_filters_transient_garbage() {
        use crate::fault::{FaultConfig, FaultySubstrate};
        let sys = System::new(SystemConfig::tiny(2), vec![Box::new(Idle), Box::new(Idle)]);
        let mut cfg = FaultConfig::none();
        cfg.seed = 5;
        cfg.pmu_garbage_rate = 0.5;
        let mut faulty = FaultySubstrate::new(sys, cfg);
        faulty.run(20_000);
        let mut log = Vec::new();
        let deltas = sample_logged(&mut faulty, 10_000, &mut log);
        // Whatever the schedule injected, the deltas must be plausible:
        // either a clean interval or a zeroed (discarded) core.
        for d in &deltas {
            assert!(d.cycles <= 10_000 * 4 + 10_000, "implausible delta {}", d.cycles);
        }
        if faulty.injected().pmu_garbage > 0 {
            assert!(log.iter().any(|f| f.kind == "pmu_anomaly"), "{log:?}");
        }
    }

    #[test]
    fn sample_returns_deltas() {
        let mut sys = System::new(SystemConfig::tiny(1), vec![Box::new(Idle)]);
        sys.run(1_000);
        let d = sample(&mut sys, 5_000);
        assert_eq!(d.len(), 1);
        // The core clock can sit up to one op ahead of the global clock at
        // the sampling boundaries, so the delta is approximate.
        assert!(
            d[0].cycles >= 4_800 && d[0].cycles < 5_500,
            "delta, not cumulative: {}",
            d[0].cycles
        );
    }

    #[test]
    fn apply_prefetch_sets_each_core() {
        let mut sys = System::new(SystemConfig::tiny(2), vec![Box::new(Idle), Box::new(Idle)]);
        apply_prefetch_range_logged(&mut sys, 0, &[true, false], &mut Vec::new());
        assert!(sys.prefetching_enabled(0));
        assert!(!sys.prefetching_enabled(1));
    }

    fn ptr_delta(pf_miss: u64) -> PmuDelta {
        Pmu { cycles: 100_000, l2_pf_miss: pf_miss, l2_pf_req: pf_miss + 1, ..Pmu::default() }
    }

    #[test]
    fn small_agg_sets_get_exhaustive_groups() {
        let deltas = vec![ptr_delta(100); 8];
        let g = throttle_groups(&[1, 5], &deltas, 3, 3);
        assert_eq!(g, vec![vec![1], vec![5]]);
    }

    #[test]
    fn large_agg_sets_get_clustered() {
        // Six aggressive cores with two distinct traffic levels.
        let mut deltas = vec![ptr_delta(0); 8];
        for &c in &[0, 1, 2] {
            deltas[c] = ptr_delta(100);
        }
        for &c in &[3, 4, 5] {
            deltas[c] = ptr_delta(10_000);
        }
        let g = throttle_groups(&[0, 1, 2, 3, 4, 5], &deltas, 3, 3);
        assert!(g.len() <= 3);
        // Similar-traffic cores must share a group.
        let find = |c: usize| g.iter().position(|grp| grp.contains(&c)).unwrap();
        assert_eq!(find(0), find(1));
        assert_eq!(find(3), find(4));
        assert_ne!(find(0), find(3));
    }

    #[test]
    fn empty_agg_has_no_groups() {
        assert!(throttle_groups(&[], &[], 3, 3).is_empty());
    }
}
