//! The runtime safety governor — closes the controller's open loop.
//!
//! The paper's controller applies each profiling epoch's winner open-loop:
//! the plan runs for a whole execution epoch even if it regresses the
//! machine, and the driver trusts PMU readings the fault model shows can
//! be garbage. [`Governor`] wraps any mechanism the
//! [`crate::driver::Driver`] runs with four cooperating defenses:
//!
//! 1. **Apply-then-verify with rollback** — the driver snapshots the
//!    control state ([`cmm_sim::system::CoreControl`] per core) before
//!    applying a plan; when the next execution-epoch measurement comes in
//!    it asks [`Governor::should_roll_back`] whether harmonic-mean IPC
//!    dropped more than [`GovernorConfig::rollback_margin`] below the
//!    last-known-good epoch, and if so restores the snapshot via
//!    [`restore`] and journals a `rollback`.
//! 2. **PMU anomaly quarantine** — cores whose PMU stream produced an
//!    implausible sample (the `pmu_anomaly`/`zeroed_sample` faults
//!    `sample_logged` already detects) are quarantined for
//!    [`GovernorConfig::quarantine_epochs`] profiling epochs, starting
//!    with the epoch that observed the anomaly. A quarantined core's
//!    fresh classification is discarded and its **last trusted
//!    classification** reinstated ([`Governor::filter_detection`]), so
//!    one lying counter can neither eject an aggressor from the `Agg`
//!    set nor promote an innocent core into it — the ungoverned
//!    controller replans from the poisoned sample instead.
//! 3. **Substrate circuit breakers** — per register class
//!    ([`RegClass::Prefetch`], [`RegClass::Cat`], [`RegClass::Mba`]) the
//!    governor counts consecutive *hard* MSR failures (retries exhausted);
//!    at [`GovernorConfig::breaker_threshold`] it opens the class's
//!    breaker for a seeded exponential-backoff cooldown (with jitter) and
//!    the driver pins the documented degradation leg (CBP → CMM-a → Dunn
//!    → no-op) instead of paying the retry tax every epoch.
//! 4. The fourth defense — the cell hang watchdog — lives in the bench
//!    harness (`cmm_bench::runner`), not here: a wedged *simulation* is a
//!    harness-level fault, not a substrate one.
//!
//! Everything is deterministic: the jitter stream is seeded splitmix64,
//! state advances only on observed faults, and a run at fault rate zero
//! never triggers any defense — governed zero-rate journals are
//! byte-identical to ungoverned ones (golden-diff pinned in CI, like MBA
//! level 0).

use crate::backend::Detection;
use crate::substrate::Substrate;
use crate::telemetry::{FaultRecord, GovernorEvent};
use cmm_sim::msr::{
    IA32_L3_QOS_MASK_BASE, IA32_PQR_ASSOC, MSR_MBA_THROTTLE, MSR_MISC_FEATURE_CONTROL,
};
use cmm_sim::system::CoreControl;

/// Register classes the circuit breakers track. Each class maps to one
/// rung of the degradation chain: a dead `Mba` register costs CBP its
/// third resource (→ CMM-a), a dead `Cat` class costs the partitioner
/// (→ Dunn's reset leg → no-op), a dead `Prefetch` class costs the
/// throttle search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegClass {
    /// `MSR_MISC_FEATURE_CONTROL` (0x1A4) — the prefetch throttle knob.
    Prefetch,
    /// `IA32_PQR_ASSOC` / `IA32_L3_QOS_MASK_BASE+n` — CAT programming.
    Cat,
    /// `MSR_MBA_THROTTLE` — the bandwidth knob.
    Mba,
}

impl RegClass {
    /// Journal label for the class.
    pub fn label(self) -> &'static str {
        match self {
            RegClass::Prefetch => "prefetch",
            RegClass::Cat => "cat",
            RegClass::Mba => "mba",
        }
    }

    fn index(self) -> usize {
        match self {
            RegClass::Prefetch => 0,
            RegClass::Cat => 1,
            RegClass::Mba => 2,
        }
    }

    /// Classifies a journaled MSR fault by register address. CAT mask
    /// registers occupy a window above `IA32_L3_QOS_MASK_BASE`; anything
    /// unrecognised is unclassified (`None`) and never trips a breaker.
    pub fn of_msr(msr: u32) -> Option<RegClass> {
        match msr {
            MSR_MISC_FEATURE_CONTROL => Some(RegClass::Prefetch),
            IA32_PQR_ASSOC => Some(RegClass::Cat),
            MSR_MBA_THROTTLE => Some(RegClass::Mba),
            m if (IA32_L3_QOS_MASK_BASE..IA32_L3_QOS_MASK_BASE + 128).contains(&m) => {
                Some(RegClass::Cat)
            }
            _ => None,
        }
    }
}

/// Governor tuning. Every field participates in the deterministic state
/// machine; two governors with equal configs and equal fault streams make
/// byte-identical decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorConfig {
    /// Seed of the jitter stream (splitmix64). Entropy is consumed only
    /// when a breaker opens, so fault-free runs never draw.
    pub seed: u64,
    /// Maximum fractional drop of exec hm_ipc below the last-known-good
    /// epoch before the governor rolls the control state back.
    pub rollback_margin: f64,
    /// Profiling epochs a PMU-anomalous core stays quarantined.
    pub quarantine_epochs: u32,
    /// Consecutive hard MSR failures on one register class before its
    /// breaker opens.
    pub breaker_threshold: u32,
    /// Base breaker cooldown in profiling epochs; doubles per trip
    /// (capped at 8× base) — classic exponential backoff.
    pub breaker_cooldown: u32,
    /// Maximum extra cooldown epochs drawn from the seeded jitter stream.
    pub breaker_jitter: u32,
}

impl GovernorConfig {
    /// Production defaults: a 5% regression bound, 3-epoch quarantine,
    /// breakers opening after 2 consecutive hard failures for 4–6 epochs.
    pub fn new(seed: u64) -> Self {
        GovernorConfig {
            seed,
            rollback_margin: 0.05,
            quarantine_epochs: 3,
            breaker_threshold: 2,
            breaker_cooldown: 4,
            breaker_jitter: 2,
        }
    }
}

/// One register class's breaker state.
#[derive(Debug, Clone, Default, PartialEq)]
struct Breaker {
    /// Consecutive hard failures since the last success or trip.
    consecutive: u32,
    /// Remaining profiling epochs the breaker stays open; 0 = closed.
    open_for: u32,
    /// Lifetime trip count (drives the exponential backoff).
    trips: u32,
}

/// The governor state machine. The driver keeps one instance per CAT
/// domain, indexed by domain-local core ids; all state advances
/// deterministically from the observed fault stream.
#[derive(Debug, Clone)]
pub struct Governor {
    cfg: GovernorConfig,
    rng: u64,
    /// Last execution-epoch hm_ipc the governor accepted as healthy.
    last_good: Option<f64>,
    /// Whether the previous epoch observed any substrate fault. Rollback
    /// is only armed while faults are active: natural workload-phase IPC
    /// swings on a healthy machine must never trigger a restore (this is
    /// also what keeps zero-rate runs byte-identical to ungoverned ones).
    fault_active: bool,
    /// Control state captured before the last plan was applied.
    snapshot: Option<Vec<CoreControl>>,
    /// Per-core remaining quarantine epochs; 0 = trusted.
    quarantine: Vec<u32>,
    /// Per-core last trusted classification, as membership bits
    /// (bit 0 = `Agg`, bit 1 = friendly, bit 2 = unfriendly). Reinstated
    /// for quarantined cores by [`Governor::filter_detection`].
    last_class: Vec<u8>,
    breakers: [Breaker; 3],
    events: Vec<GovernorEvent>,
    /// Lifetime rollback count (exposed for tests and summaries).
    rollbacks: u64,
}

impl Governor {
    /// A governor for a `num_cores`-core machine.
    pub fn new(cfg: GovernorConfig, num_cores: usize) -> Self {
        let rng = cfg.seed;
        Governor {
            cfg,
            rng,
            last_good: None,
            fault_active: false,
            snapshot: None,
            quarantine: vec![0; num_cores],
            last_class: vec![0; num_cores],
            breakers: Default::default(),
            events: Vec::new(),
            rollbacks: 0,
        }
    }

    /// The governor's tuning.
    pub fn config(&self) -> &GovernorConfig {
        &self.cfg
    }

    /// Lifetime rollback count.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Advances per-epoch cooldowns: quarantines expire silently, breaker
    /// expiries journal a `breaker_close`. Call once at the top of every
    /// profiling epoch, before classification.
    pub fn begin_epoch(&mut self, cycle: u64) {
        for q in &mut self.quarantine {
            *q = q.saturating_sub(1);
        }
        for (i, b) in self.breakers.iter_mut().enumerate() {
            if b.open_for > 0 {
                b.open_for -= 1;
                if b.open_for == 0 {
                    let class = [RegClass::Prefetch, RegClass::Cat, RegClass::Mba][i];
                    self.events.push(GovernorEvent {
                        cycle,
                        action: "breaker_close",
                        core: None,
                        class: Some(class.label()),
                    });
                }
            }
        }
    }

    /// True while `core`'s PMU stream is untrusted: the driver drops the
    /// core from Agg/friendly/unfriendly sets and throttle search.
    pub fn quarantined(&self, core: usize) -> bool {
        self.quarantine.get(core).is_some_and(|&q| q > 0)
    }

    /// True while `class`'s breaker is closed (operations may proceed).
    pub fn allow(&self, class: RegClass) -> bool {
        self.breakers[class.index()].open_for == 0
    }

    /// Records the control state in force before a plan is applied — the
    /// state [`restore`] reinstates if the verification window regresses.
    pub fn note_snapshot(&mut self, state: Vec<CoreControl>) {
        self.snapshot = Some(state);
    }

    /// The snapshot to restore on rollback, if one was captured.
    pub fn snapshot(&self) -> Option<&[CoreControl]> {
        self.snapshot.as_deref()
    }

    /// Apply-then-verify: given the measured hm_ipc of the execution
    /// epoch that just ran under the last applied plan, decides whether
    /// to roll back. Rollback requires (a) an armed fault state — a
    /// substrate fault observed the epoch before, so a healthy machine
    /// can never regress "past the bound" from workload phase changes
    /// alone — (b) a last-known-good reference, and (c) a captured
    /// snapshot to restore.
    pub fn should_roll_back(&self, exec_hm_ipc: f64) -> bool {
        self.fault_active
            && self.snapshot.is_some()
            && self
                .last_good
                .is_some_and(|good| exec_hm_ipc < good * (1.0 - self.cfg.rollback_margin))
    }

    /// Accepts an execution epoch's hm_ipc as the new last-known-good.
    pub fn accept(&mut self, exec_hm_ipc: f64) {
        if exec_hm_ipc.is_finite() && exec_hm_ipc > 0.0 {
            self.last_good = Some(exec_hm_ipc);
        }
    }

    /// Journals a rollback (the driver performs the [`restore`] itself,
    /// since only it holds the substrate).
    pub fn log_rollback(&mut self, cycle: u64) {
        self.rollbacks += 1;
        self.events.push(GovernorEvent { cycle, action: "rollback", core: None, class: None });
    }

    /// Feeds one epoch's journaled fault stream through the breaker and
    /// quarantine state machines. `cycle` stamps any resulting events.
    pub fn observe_faults(&mut self, faults: &[FaultRecord], cycle: u64) {
        self.fault_active = !faults.is_empty();
        for f in faults {
            match f.kind {
                "msr_rejected" | "msr_error" | "clos_exhausted" => {
                    let class = match f.msr.and_then(RegClass::of_msr) {
                        Some(c) => c,
                        None if f.kind == "clos_exhausted" => RegClass::Cat,
                        None => continue,
                    };
                    let threshold = self.cfg.breaker_threshold;
                    let b = &mut self.breakers[class.index()];
                    if f.action == "gave_up" {
                        b.consecutive += 1;
                        if b.consecutive >= threshold && b.open_for == 0 {
                            self.trip(class, cycle);
                        }
                    } else {
                        // A successful retry proves the register lives.
                        b.consecutive = 0;
                    }
                }
                "pmu_anomaly" => {
                    if let Some(core) = f.core {
                        self.quarantine_core(core, cycle);
                    }
                }
                _ => {}
            }
        }
    }

    /// Quarantines `core` for the configured cooldown (idempotent while
    /// already quarantined — no duplicate event, no cooldown extension).
    fn quarantine_core(&mut self, core: usize, cycle: u64) {
        if core < self.quarantine.len() && !self.quarantined(core) {
            self.quarantine[core] = self.cfg.quarantine_epochs;
            self.events.push(GovernorEvent {
                cycle,
                action: "quarantine",
                core: Some(core),
                class: None,
            });
        }
    }

    /// Scans the fault records a detection pass just produced and
    /// quarantines every core whose sample was flagged implausible
    /// (`pmu_anomaly` with a core attribution, e.g. `zeroed_sample`).
    /// Called by the driver *between* detection and planning, so the
    /// quarantine covers the very epoch that observed the anomaly — by the
    /// next epoch the transient corruption is usually gone and the damage
    /// (a misclassification) already done.
    pub fn observe_detection(&mut self, records: &[FaultRecord], cycle: u64) {
        for f in records {
            if f.kind == "pmu_anomaly" {
                if let Some(core) = f.core {
                    self.quarantine_core(core, cycle);
                }
            }
        }
    }

    /// Governor defense 2: rewrites a fresh [`Detection`] so quarantined
    /// cores keep their last *trusted* classification instead of whatever
    /// the untrusted sample produced, and records the classification of
    /// every trusted core as the new reference. Set order stays ascending,
    /// so downstream plans are deterministic.
    pub fn filter_detection(&mut self, det: &mut Detection) {
        for core in 0..self.quarantine.len() {
            if self.quarantined(core) {
                let bits = self.last_class.get(core).copied().unwrap_or(0);
                set_membership(&mut det.agg, core, bits & 1 != 0);
                set_membership(&mut det.friendly, core, bits & 2 != 0);
                set_membership(&mut det.unfriendly, core, bits & 4 != 0);
            } else {
                self.last_class[core] = u8::from(det.agg.contains(&core))
                    | u8::from(det.friendly.contains(&core)) << 1
                    | u8::from(det.unfriendly.contains(&core)) << 2;
            }
        }
    }

    /// Opens `class`'s breaker: exponential backoff (cooldown ×2 per
    /// trip, capped at 8× base) plus seeded jitter.
    fn trip(&mut self, class: RegClass, cycle: u64) {
        let b = &mut self.breakers[class.index()];
        let backoff = self.cfg.breaker_cooldown << b.trips.min(3);
        let jitter = if self.cfg.breaker_jitter > 0 {
            (splitmix64(&mut self.rng) % (self.cfg.breaker_jitter as u64 + 1)) as u32
        } else {
            0
        };
        b.open_for = backoff + jitter;
        b.trips += 1;
        b.consecutive = 0;
        self.events.push(GovernorEvent {
            cycle,
            action: "breaker_open",
            core: None,
            class: Some(class.label()),
        });
    }

    /// Drains the events accumulated since the last call — the driver
    /// attaches them to the epoch's journal record.
    pub fn take_events(&mut self) -> Vec<GovernorEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Reinstates a captured control state on the CAT domain whose first core
/// is `base` (`state[i]` belongs to core `base + i`): per core, the
/// prefetcher MSR image, CLOS association + way mask, and the MBA level.
/// CLOS masks are socket-scoped, so they are written through `base`,
/// which lands them on that domain's socket. Best-effort — a register
/// that faults during restore is skipped (the breaker state machine will
/// see its fault records like any other write's).
pub fn restore<S: Substrate>(sys: &mut S, state: &[CoreControl], base: usize) {
    for (i, ctl) in state.iter().enumerate() {
        let core = base + i;
        let _ = sys.write_msr(core, MSR_MISC_FEATURE_CONTROL, ctl.msr_1a4);
        let _ = sys.write_msr(base, IA32_L3_QOS_MASK_BASE + ctl.clos as u32, ctl.way_mask);
        let _ = sys.assign_clos(core, ctl.clos);
        let _ = sys.set_mba_throttle(core, ctl.mba_level);
    }
}

/// Adds or removes `core` from an ascending membership set, preserving
/// order (and determinism) either way.
fn set_membership(set: &mut Vec<usize>, core: usize, member: bool) {
    match (set.iter().position(|&c| c == core), member) {
        (Some(i), false) => {
            set.remove(i);
        }
        (None, true) => {
            let at = set.partition_point(|&c| c < core);
            set.insert(at, core);
        }
        _ => {}
    }
}

/// The jitter stream: splitmix64, the same generator the fault schedule
/// and workload builders use.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_sim::config::SystemConfig;
    use cmm_sim::workload::Idle;
    use cmm_sim::System;

    fn gov() -> Governor {
        Governor::new(GovernorConfig::new(42), 4)
    }

    fn hard_fault(class: RegClass) -> FaultRecord {
        let msr = match class {
            RegClass::Prefetch => MSR_MISC_FEATURE_CONTROL,
            RegClass::Cat => IA32_PQR_ASSOC,
            RegClass::Mba => MSR_MBA_THROTTLE,
        };
        FaultRecord {
            cycle: 0,
            kind: "msr_error",
            core: Some(0),
            msr: Some(msr),
            action: "gave_up",
        }
    }

    #[test]
    fn msr_addresses_classify_to_register_classes() {
        assert_eq!(RegClass::of_msr(MSR_MISC_FEATURE_CONTROL), Some(RegClass::Prefetch));
        assert_eq!(RegClass::of_msr(IA32_PQR_ASSOC), Some(RegClass::Cat));
        assert_eq!(RegClass::of_msr(IA32_L3_QOS_MASK_BASE + 3), Some(RegClass::Cat));
        assert_eq!(RegClass::of_msr(MSR_MBA_THROTTLE), Some(RegClass::Mba));
        assert_eq!(RegClass::of_msr(0x10), None);
    }

    #[test]
    fn rollback_requires_armed_faults_and_a_snapshot() {
        let mut g = gov();
        g.accept(1.0);
        // No faults observed: even a huge regression must not roll back.
        assert!(!g.should_roll_back(0.5));
        g.observe_faults(&[hard_fault(RegClass::Mba)], 10);
        // Faults armed but no snapshot captured yet.
        assert!(!g.should_roll_back(0.5));
        g.note_snapshot(vec![CoreControl { clos: 0, way_mask: 0xFF, msr_1a4: 0, mba_level: 0 }]);
        assert!(g.should_roll_back(0.5));
        // Within the margin: accepted.
        assert!(!g.should_roll_back(0.96));
        // Fault stream went quiet again: disarmed.
        g.observe_faults(&[], 20);
        assert!(!g.should_roll_back(0.5));
    }

    #[test]
    fn accept_ignores_degenerate_samples() {
        let mut g = gov();
        g.accept(f64::NAN);
        g.accept(0.0);
        g.note_snapshot(vec![]);
        g.observe_faults(&[hard_fault(RegClass::Cat)], 0);
        assert!(!g.should_roll_back(0.1), "no last-known-good yet");
        g.accept(2.0);
        g.note_snapshot(vec![CoreControl { clos: 0, way_mask: 1, msr_1a4: 0, mba_level: 0 }]);
        assert!(g.should_roll_back(1.0));
    }

    #[test]
    fn breaker_opens_after_threshold_and_closes_after_cooldown() {
        let mut g = gov();
        assert!(g.allow(RegClass::Mba));
        g.observe_faults(&[hard_fault(RegClass::Mba)], 1);
        assert!(g.allow(RegClass::Mba), "one failure is below the threshold");
        g.observe_faults(&[hard_fault(RegClass::Mba)], 2);
        assert!(!g.allow(RegClass::Mba), "second consecutive failure trips");
        let events = g.take_events();
        assert_eq!(events.iter().filter(|e| e.action == "breaker_open").count(), 1);
        assert_eq!(events.last().unwrap().class, Some("mba"));
        // Other classes are unaffected.
        assert!(g.allow(RegClass::Prefetch));
        assert!(g.allow(RegClass::Cat));
        // Cooldown: 4..=6 epochs at default config, then a close event.
        let mut epochs = 0;
        while !g.allow(RegClass::Mba) {
            g.begin_epoch(100 + epochs);
            epochs += 1;
            assert!(epochs <= 6, "breaker never closed");
        }
        assert!(epochs >= 4, "closed before the base cooldown");
        let events = g.take_events();
        assert_eq!(events.iter().filter(|e| e.action == "breaker_close").count(), 1);
    }

    #[test]
    fn successful_retry_resets_the_consecutive_count() {
        let mut g = gov();
        g.observe_faults(&[hard_fault(RegClass::Prefetch)], 1);
        let mut ok = hard_fault(RegClass::Prefetch);
        ok.kind = "msr_rejected";
        ok.action = "retry_ok";
        g.observe_faults(&[ok], 2);
        g.observe_faults(&[hard_fault(RegClass::Prefetch)], 3);
        assert!(g.allow(RegClass::Prefetch), "retry_ok must reset the streak");
    }

    #[test]
    fn clos_exhaustion_without_an_msr_counts_against_cat() {
        let mut g = gov();
        let f = FaultRecord {
            cycle: 0,
            kind: "clos_exhausted",
            core: None,
            msr: None,
            action: "gave_up",
        };
        g.observe_faults(&[f.clone(), f], 5);
        assert!(!g.allow(RegClass::Cat));
    }

    #[test]
    fn backoff_grows_exponentially_with_trips() {
        let mut cfg = GovernorConfig::new(42);
        cfg.breaker_jitter = 0; // isolate the deterministic backoff
        let mut g = Governor::new(cfg, 1);
        let mut open_spans = Vec::new();
        let mut cycle = 0;
        for _ in 0..3 {
            g.observe_faults(&[hard_fault(RegClass::Mba), hard_fault(RegClass::Mba)], cycle);
            let mut span = 0;
            while !g.allow(RegClass::Mba) {
                g.begin_epoch(cycle);
                cycle += 1;
                span += 1;
            }
            open_spans.push(span);
        }
        assert_eq!(open_spans, vec![4, 8, 16]);
    }

    #[test]
    fn quarantine_excludes_a_core_for_the_cooldown_then_expires() {
        let mut g = gov();
        let f = FaultRecord {
            cycle: 7,
            kind: "pmu_anomaly",
            core: Some(2),
            msr: None,
            action: "zeroed_sample",
        };
        g.observe_faults(std::slice::from_ref(&f), 7);
        assert!(g.quarantined(2));
        assert!(!g.quarantined(0));
        // Re-observing while quarantined does not emit a duplicate event.
        g.observe_faults(&[f], 8);
        let events = g.take_events();
        assert_eq!(events.iter().filter(|e| e.action == "quarantine").count(), 1);
        assert_eq!(events[0].core, Some(2));
        for e in 0..3 {
            assert!(g.quarantined(2), "expired after {e} epochs, want 3");
            g.begin_epoch(10 + e);
        }
        assert!(!g.quarantined(2));
        // Out-of-range cores never quarantine (and never panic).
        assert!(!g.quarantined(99));
    }

    #[test]
    fn quarantined_cores_keep_their_last_trusted_classification() {
        let mut g = gov();
        let det = |agg: &[usize], friendly: &[usize], unfriendly: &[usize]| Detection {
            interval1: Vec::new(),
            agg: agg.to_vec(),
            friendly: friendly.to_vec(),
            unfriendly: unfriendly.to_vec(),
        };
        // Epoch 1: clean detection establishes the trusted reference.
        let mut d1 = det(&[1, 3], &[1], &[3]);
        g.filter_detection(&mut d1);
        assert_eq!(d1.agg, vec![1, 3], "clean detections pass through");
        // Epoch 2: core 3's sample zeroes out mid-detection, so the fresh
        // classification drops it from Agg — and smuggles core 2 in.
        let anomaly = FaultRecord {
            cycle: 9,
            kind: "pmu_anomaly",
            core: Some(3),
            msr: None,
            action: "zeroed_sample",
        };
        g.observe_detection(&[anomaly], 9);
        let mut d2 = det(&[1, 2], &[1, 2], &[]);
        g.filter_detection(&mut d2);
        assert_eq!(d2.agg, vec![1, 2, 3], "core 3 reinstated from the trusted class");
        assert_eq!(d2.unfriendly, vec![3]);
        assert_eq!(d2.friendly, vec![1, 2], "trusted cores' fresh classes stand");
        // Epoch 3+: quarantine expires, fresh samples are trusted again.
        for c in 0..3 {
            g.begin_epoch(10 + c);
        }
        let mut d3 = det(&[2], &[], &[2]);
        g.filter_detection(&mut d3);
        assert_eq!(d3.agg, vec![2]);
        let events = g.take_events();
        assert_eq!(events.iter().filter(|e| e.action == "quarantine").count(), 1);
    }

    #[test]
    fn identical_fault_streams_produce_identical_governors() {
        let feed = |g: &mut Governor| {
            for c in 0..20u64 {
                g.begin_epoch(c);
                g.observe_faults(&[hard_fault(RegClass::Mba), hard_fault(RegClass::Cat)], c);
                g.accept(1.0 + c as f64 * 0.01);
            }
            g.take_events()
        };
        let mut a = gov();
        let mut b = gov();
        let (ea, eb) = (feed(&mut a), feed(&mut b));
        assert_eq!(ea, eb);
        assert!(!ea.is_empty());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // A different seed shifts the jittered cooldowns but the breaker
        // still cycles open/closed deterministically for that seed.
        let mut c = Governor::new(GovernorConfig::new(43), 4);
        let mut d = Governor::new(GovernorConfig::new(43), 4);
        let (ec, ed) = (feed(&mut c), feed(&mut d));
        assert_eq!(ec, ed);
        assert!(ec.iter().any(|e| e.action == "breaker_open"));
    }

    #[test]
    fn restore_reinstates_the_snapshot_on_a_live_substrate() {
        let mut sys =
            System::new(SystemConfig::tiny(2), (0..2).map(|_| Box::new(Idle) as _).collect());
        let clean = Substrate::control_state(&sys);
        Substrate::set_prefetching(&mut sys, 0, false).unwrap();
        Substrate::set_clos_mask(&mut sys, 1, 0b11).unwrap();
        Substrate::assign_clos(&mut sys, 1, 1).unwrap();
        Substrate::set_mba_throttle(&mut sys, 1, 40).unwrap();
        assert_ne!(Substrate::control_state(&sys), clean);
        restore(&mut sys, &clean, 0);
        assert_eq!(Substrate::control_state(&sys), clean);
    }

    #[test]
    fn restore_lands_on_the_domain_socket_only() {
        let mut cfg = SystemConfig::tiny(4);
        cfg.set_topology("2x2".parse().unwrap());
        let mut sys = System::new(cfg, (0..4).map(|_| Box::new(Idle) as _).collect());
        // Socket 1 (cores 2, 3) partitions core 3 into CLOS 1: the snapshot.
        Substrate::write_msr(&mut sys, 2, IA32_L3_QOS_MASK_BASE + 1, 0b11).unwrap();
        Substrate::assign_clos(&mut sys, 3, 1).unwrap();
        let snapshot = Substrate::control_state(&sys)[2..].to_vec();
        // Socket 1 moves on; socket 0 programs its own CLOS 1.
        Substrate::write_msr(&mut sys, 2, IA32_L3_QOS_MASK_BASE + 1, 0b1100).unwrap();
        Substrate::assign_clos(&mut sys, 3, 0).unwrap();
        Substrate::write_msr(&mut sys, 0, IA32_L3_QOS_MASK_BASE + 1, 0b1).unwrap();
        Substrate::assign_clos(&mut sys, 1, 1).unwrap();
        let socket0 = Substrate::control_state(&sys)[..2].to_vec();
        restore(&mut sys, &snapshot, 2);
        let state = Substrate::control_state(&sys);
        assert_eq!(state[2..], snapshot[..]);
        assert_eq!(state[..2], socket0[..], "socket 0's CAT state must be untouched");
    }
}
