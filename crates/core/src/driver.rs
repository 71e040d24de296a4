//! The epoch/sampling scheduler (Fig. 4) — the analogue of the paper's
//! loadable kernel module.
//!
//! Execution is a sequence of *execution epochs*, each preceded by a
//! *profiling epoch* of short sampling intervals in which the front-end
//! detects the `Agg` set and the back-end trials candidate configurations.
//! The winning configuration is applied for the following execution epoch.
//!
//! Every profiling epoch runs one controller instance per CAT domain
//! (socket). A single-socket machine is the one-domain case and journals
//! `domain: None`. The detection intervals are shared across domains;
//! each domain then plans and applies its own decision against its
//! socket's CAT state and cores, under its own safety governor when one
//! is attached ([`Driver::with_governor`]).
//!
//! The controller's own work is charged as
//! [`ControllerConfig::overhead_cycles`] per domain and invocation and
//! reported by [`Driver::overhead_ratio`] — the analogue of the paper's
//! PMU-vs-TSC overhead measurement (<0.1 %).
//!
//! The driver is generic over the [`Substrate`] it manages and **degrades
//! gracefully** when the substrate misbehaves: transiently rejected MSR
//! writes are retried (see [`backend::write_msr_logged`]), a CAT plan that
//! cannot be programmed makes the epoch retreat CMM → Dunn → no-op
//! (always via the infallible [`Substrate::reset_cat_domain`] safe state
//! first), and every observed fault plus the chosen degradation lands in
//! the epoch's [`EpochRecord::faults`] / [`EpochRecord::degraded`]
//! telemetry.

use crate::backend::{self, cbp, cmm, cp, dunn, pt, Detection, Knob, PartitionPlan};
use crate::frontend::DetectorConfig;
use crate::governor::{self, Governor, GovernorConfig, RegClass};
use crate::learned::{self, Learner};
use crate::policy::{ControllerConfig, Mechanism};
use crate::substrate::Substrate;
use crate::telemetry::{CoreSample, EpochRecord, FaultRecord};
use cmm_sim::msr::{MSR_MBA_THROTTLE, MSR_MISC_FEATURE_CONTROL};
use cmm_sim::pmu::{Pmu, PmuDelta};
use cmm_sim::System;

/// The register images of an RL-CBP action held in force across stretched
/// execution epochs (the learned epoch-length knob).
struct RlHold {
    /// Execution epochs the action still has to run before re-planning.
    skip: u64,
    /// Domain-local MSR 0x1A4 image to re-assert after a shared detection
    /// interval turned every prefetcher back on.
    pf_image: Vec<u64>,
    /// Domain-local MBA levels to re-assert.
    mba_image: Vec<u64>,
    /// The held action's journal label.
    label: String,
}

/// One CAT domain's controller state, carried from epoch to epoch.
#[derive(Default)]
struct DomainController {
    /// `exec_hm_ipc` of the domain's previous record, for the delta.
    prev_exec_hm: Option<f64>,
    /// RL-CBP's stretched action, while one is in force.
    rl_hold: Option<RlHold>,
    /// The domain's safety governor, when attached. `None` leaves every
    /// epoch byte-identical to the ungoverned driver.
    governor: Option<Governor>,
}

/// The domain-local `(MSR 0x1A4, MBA)` register images a parked domain
/// re-asserts after a shared detection turned every prefetcher back on.
type Images = (Vec<u64>, Vec<u64>);

/// Drives one [`Substrate`] under one [`Mechanism`].
pub struct Driver<S: Substrate = System> {
    sys: S,
    mechanism: Mechanism,
    ctrl: ControllerConfig,
    det_cfg: DetectorConfig,
    epochs: u64,
    overhead_cycles: u64,
    /// Agg-set size observed at each profiling epoch (diagnostics).
    agg_history: Vec<usize>,
    /// Full per-epoch decision telemetry (see [`crate::telemetry`]).
    records: Vec<EpochRecord>,
    /// `(cycle, pmus)` at the end of the previous `epoch()` call — the
    /// baseline the next epoch measures its execution-epoch IPC against.
    exec_anchor: Option<(u64, Vec<Pmu>)>,
    /// Per-CAT-domain controller state, one entry per socket.
    domains: Vec<DomainController>,
    /// The learned controller, when attached ([`Driver::with_learner`]).
    /// Without one, ML-Sel and RL-CBP degrade every epoch to the CMM-a
    /// search.
    learner: Option<Learner>,
}

impl<S: Substrate> Driver<S> {
    /// Wraps a machine. The detector thresholds are taken from `ctrl`.
    pub fn new(sys: S, mechanism: Mechanism, ctrl: ControllerConfig) -> Self {
        ctrl.validate();
        let det_cfg = DetectorConfig {
            pmr_threshold: ctrl.pmr_threshold,
            ptr_threshold: ctrl.ptr_threshold,
            pga_floor: ctrl.pga_floor,
        };
        let domains = (0..sys.config().topology.sockets).map(|_| Default::default()).collect();
        Driver {
            sys,
            mechanism,
            ctrl,
            det_cfg,
            epochs: 0,
            overhead_cycles: 0,
            agg_history: Vec::new(),
            records: Vec::new(),
            exec_anchor: None,
            domains,
            learner: None,
        }
    }

    /// Attaches a safety governor (see [`crate::governor`]) to every CAT
    /// domain: each subsequent epoch verifies the domain's applied plan
    /// against its last-known-good hm_ipc (rolling back on regression
    /// under faults), drops quarantined cores from classification, and
    /// consults the domain's circuit breakers before touching a register
    /// class. At fault rate zero none of the defenses ever fire and the
    /// run stays byte-identical to an ungoverned one.
    pub fn with_governor(mut self, cfg: GovernorConfig) -> Self {
        let len = self.sys.config().topology.cores_per_socket;
        for dc in &mut self.domains {
            dc.governor = Some(Governor::new(cfg.clone(), len));
        }
        self
    }

    /// CAT domain `domain`'s governor, if one is attached (tests and run
    /// summaries).
    pub fn governor(&self, domain: usize) -> Option<&Governor> {
        self.domains.get(domain)?.governor.as_ref()
    }

    /// Attaches a learned controller (see [`crate::learned`]): ML-Sel
    /// consults it as its phase classifier, RL-CBP as its bandit policy.
    /// Without a learner both mechanisms degrade every epoch to the CMM-a
    /// search, journaled as `fallback_cmm_a`.
    pub fn with_learner(mut self, learner: Learner) -> Self {
        self.learner = Some(learner);
        self
    }

    /// The attached learner, if any (tests and run summaries).
    pub fn learner(&self) -> Option<&Learner> {
        self.learner.as_ref()
    }

    /// The managed machine.
    pub fn system(&self) -> &S {
        &self.sys
    }

    /// Mutable access (tests and harnesses).
    pub fn system_mut(&mut self) -> &mut S {
        &mut self.sys
    }

    /// Consumes the driver, returning the machine.
    pub fn into_system(self) -> S {
        self.sys
    }

    /// Profiling epochs completed.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// `Agg`-set sizes per epoch (empty entries mean no profiling ran,
    /// e.g. for the baseline).
    pub fn agg_history(&self) -> &[usize] {
        &self.agg_history
    }

    /// Per-epoch decision telemetry recorded so far, in epoch order.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Drains the recorded telemetry (harnesses call this once per run to
    /// move the records into the run journal).
    pub fn take_records(&mut self) -> Vec<EpochRecord> {
        std::mem::take(&mut self.records)
    }

    /// Fraction of machine time spent in the controller itself.
    pub fn overhead_ratio(&self) -> f64 {
        if self.sys.now() == 0 {
            0.0
        } else {
            self.overhead_cycles as f64 / self.sys.now() as f64
        }
    }

    /// Runs until the machine clock reaches (at least) `total_cycles`,
    /// alternating profiling and execution epochs.
    pub fn run_total(&mut self, total_cycles: u64) {
        let target = self.sys.now() + total_cycles;
        while self.sys.now() < target {
            self.epoch();
            let remaining = target.saturating_sub(self.sys.now());
            let exec = remaining.min(self.ctrl.execution_epoch);
            if exec > 0 {
                self.sys.run(exec);
            }
        }
    }

    /// Runs exactly one profiling epoch (decision + application), without
    /// the following execution epoch. Exposed for tests and examples.
    /// Every epoch appends one [`EpochRecord`] per CAT domain to
    /// [`Driver::records`], all stamped with this epoch's index and start
    /// cycle.
    ///
    /// Never panics on substrate faults: unrecoverable CAT failures make
    /// the epoch retreat CMM → Dunn → no-op (flat CAT via
    /// `reset_cat_domain`), recording the chosen degradation in the
    /// domain's telemetry.
    ///
    /// The detection intervals are shared across domains (two
    /// machine-wide samples total, see [`backend::detect_domains_logged`]).
    /// Throttle-search trial intervals run per domain in sequence today:
    /// each trial runs the whole machine and scores only its own domain.
    /// Independent per-socket daemons would trial concurrently instead;
    /// running every domain's trials in the same intervals is the open
    /// "lockstep per-domain profiling" item in ROADMAP.md.
    /// Faults are attributed to the domain whose controller section
    /// observed them; machine-wide faults with a core id are routed to
    /// that core's domain, core-less ones to domain 0.
    pub fn epoch(&mut self) {
        self.epochs += 1;
        let epoch_start = self.sys.now();
        let topo = self.sys.config().topology;
        let len = topo.cores_per_socket;
        let mut log: Vec<FaultRecord> = Vec::new();
        // How did the execution epoch each domain just finished perform?
        let exec_deltas: Option<Vec<PmuDelta>> = match self.exec_anchor.take() {
            Some((anchor_cycle, anchor)) if self.sys.now() > anchor_cycle => {
                let current = backend::pmu_read_stable(&mut self.sys, &mut log);
                Some(current.iter().zip(anchor).map(|(&c, a)| c - a).collect())
            }
            _ => None,
        };
        let mut recs: Vec<EpochRecord> = (0..topo.sockets)
            .map(|d| EpochRecord {
                epoch: self.epochs,
                cycle: epoch_start,
                mechanism: self.mechanism.label(),
                domain: (!topo.is_single()).then_some(d),
                cores: Vec::new(),
                agg: Vec::new(),
                friendly: Vec::new(),
                unfriendly: Vec::new(),
                trials: Vec::new(),
                winner: None,
                exec_hm_ipc: None,
                exec_ipc_delta: None,
                faults: Vec::new(),
                degraded: None,
                governor: Vec::new(),
                features: Vec::new(),
                action: None,
                applied: Vec::new(),
            })
            .collect();
        route_faults(&mut log, &mut recs, len);
        // One control-state read serves every governed domain's snapshot.
        let state = if self.domains.iter().any(|dc| dc.governor.is_some()) {
            self.sys.control_state()
        } else {
            Vec::new()
        };
        // A domain is parked for this epoch when its governor rolled it
        // back or it holds a stretched RL-CBP action: it runs its last
        // state for one more execution epoch instead of re-planning.
        let mut parked: Vec<Option<Images>> = Vec::with_capacity(recs.len());
        for (d, (dc, rec)) in self.domains.iter_mut().zip(&mut recs).enumerate() {
            let base = d * len;
            rec.exec_hm_ipc =
                exec_deltas.as_ref().map(|x| backend::sample_hm_ipc(&x[base..base + len]));
            rec.exec_ipc_delta = rec.exec_hm_ipc.zip(dc.prev_exec_hm).map(|(cur, prev)| cur - prev);
            if rec.exec_hm_ipc.is_some() {
                dc.prev_exec_hm = rec.exec_hm_ipc;
            }
            // Governor defense 1 (apply-then-verify): the execution epoch
            // that just ran is the verification window of the previously
            // applied plan. A regression past the bound — only ever while
            // substrate faults are active — restores the pre-plan snapshot
            // and parks the domain, letting the last-known-good state run
            // one more execution epoch instead of re-planning from
            // fault-tainted telemetry.
            if let Some(g) = dc.governor.as_mut() {
                g.begin_epoch(epoch_start);
                match rec.exec_hm_ipc {
                    Some(hm) if g.should_roll_back(hm) => {
                        let snap = g.snapshot().expect("rollback requires a snapshot");
                        governor::restore(&mut self.sys, snap, base);
                        parked.push(Some((
                            snap.iter().map(|c| c.msr_1a4).collect(),
                            snap.iter().map(|c| c.mba_level).collect(),
                        )));
                        g.log_rollback(epoch_start);
                        rec.faults.push(FaultRecord {
                            cycle: epoch_start,
                            kind: "degraded",
                            core: None,
                            msr: None,
                            action: "kept_last_good",
                        });
                        continue;
                    }
                    hm => {
                        if let Some(hm) = hm {
                            g.accept(hm);
                        }
                        g.note_snapshot(state[base..base + len].to_vec());
                    }
                }
            }
            let mut held = None;
            if self.mechanism == Mechanism::RlCbp {
                // Credit the action in force with the execution epoch's
                // hm_ipc delta before picking the next one.
                if let (Some(Learner::Rl(rl)), Some(delta)) =
                    (self.learner.as_mut(), rec.exec_ipc_delta)
                {
                    rl.bandit_mut(d).observe(delta);
                }
                // A stretched action stays in force: no re-plan — the
                // learned epoch-length knob.
                if let Some(h) = dc.rl_hold.as_mut().filter(|h| h.skip > 0) {
                    h.skip -= 1;
                    rec.action = Some(format!("hold:{}", h.label));
                    held = Some((h.pf_image.clone(), h.mba_image.clone()));
                }
            }
            parked.push(held);
        }
        if self.mechanism != Mechanism::Baseline {
            // One controller instance per domain does its own bookkeeping.
            self.overhead_cycles += self.ctrl.overhead_cycles * recs.len() as u64;
        }
        // With every domain parked the epoch runs no profiling at all.
        if parked.iter().any(Option::is_none) {
            self.plan(&mut recs, &parked);
        }
        // Anchor for the next epoch's execution-IPC measurement.
        let anchor = backend::pmu_read_stable(&mut self.sys, &mut log);
        self.exec_anchor = Some((self.sys.now(), anchor));
        route_faults(&mut log, &mut recs, len);
        let applied = self.sys.control_state();
        let now = self.sys.now();
        for (d, (dc, mut rec)) in self.domains.iter_mut().zip(recs).enumerate() {
            let base = d * len;
            // Feed the domain's fault stream through its breaker and
            // quarantine state machines and journal the interventions.
            if let Some(g) = dc.governor.as_mut() {
                g.observe_faults(&localize(&rec.faults, base, len), now);
                rec.governor = g.take_events();
            }
            rec.applied = applied[base..base + len].to_vec();
            self.records.push(rec);
        }
    }

    /// The re-planning half of an epoch: each domain that is not parked
    /// resets to its mechanism's starting state, the shared detection
    /// runs, parked domains re-assert their register images, and every
    /// other domain makes its own decision.
    fn plan(&mut self, recs: &mut [EpochRecord], parked: &[Option<Images>]) {
        let len = self.sys.config().topology.cores_per_socket;
        let ways = self.sys.llc_ways();
        let all_on = vec![true; len];
        for (d, rec) in recs.iter_mut().enumerate().filter(|(d, _)| parked[*d].is_none()) {
            let base = d * len;
            match self.mechanism {
                // No control: prefetchers on, flat CAT — enforced every
                // epoch so a baseline run after a managed run is truly
                // uncontrolled.
                Mechanism::Baseline => {
                    backend::apply_prefetch_range_logged(
                        &mut self.sys,
                        base,
                        &all_on,
                        &mut rec.faults,
                    );
                    self.sys.reset_cat_domain(d);
                }
                // PT never touches CAT.
                Mechanism::Pt | Mechanism::PtFine => {}
                mech => {
                    // Dunn observes one all-on interval instead of running
                    // the detector, which turns prefetchers on itself.
                    if mech == Mechanism::Dunn {
                        backend::apply_prefetch_range_logged(
                            &mut self.sys,
                            base,
                            &all_on,
                            &mut rec.faults,
                        );
                    }
                    let flat = PartitionPlan::flat(len, ways).offset(base);
                    if flat.apply_at(&mut self.sys, base, &mut rec.faults).is_err() {
                        self.sys.reset_cat_domain(d);
                    }
                }
            }
        }
        if self.mechanism == Mechanism::Baseline {
            return;
        }
        let mut log: Vec<FaultRecord> = Vec::new();
        let dets: Vec<Detection> = if self.mechanism == Mechanism::Dunn {
            let d1 = backend::sample_logged(&mut self.sys, self.ctrl.sampling_interval, &mut log);
            d1.chunks(len)
                .map(|interval1| Detection {
                    interval1: interval1.to_vec(),
                    agg: Vec::new(),
                    friendly: Vec::new(),
                    unfriendly: Vec::new(),
                })
                .collect()
        } else {
            backend::detect_domains_logged(
                &mut self.sys,
                &self.ctrl,
                &self.det_cfg,
                &mut log,
                recs.len(),
            )
        };
        self.agg_history.push(dets.iter().map(|det| det.agg.len()).sum());
        let det_starts: Vec<usize> = recs.iter().map(|r| r.faults.len()).collect();
        route_faults(&mut log, recs, len);
        // The arms the governor's quarantine and breakers gate: the
        // coordinated and learned mechanisms.
        let gated = matches!(
            self.mechanism,
            Mechanism::CmmA
                | Mechanism::CmmB
                | Mechanism::CmmC
                | Mechanism::Cbp
                | Mechanism::MlSel
                | Mechanism::RlCbp
        );
        for (d, (mut det, rec)) in dets.into_iter().zip(recs.iter_mut()).enumerate() {
            let base = d * len;
            if let Some((pf_image, mba_image)) = &parked[d] {
                // The shared detection turned every prefetcher back on:
                // re-assert the parked domain's register images.
                self.write_image(base, MSR_MISC_FEATURE_CONTROL, pf_image, &mut rec.faults);
                if mba_image.iter().any(|&l| l != 0)
                    && cbp::mba_available(&mut self.sys, base, &mut rec.faults)
                {
                    self.write_image(base, MSR_MBA_THROTTLE, mba_image, &mut rec.faults);
                }
                continue;
            }
            // Governor defense 2: a core whose detection sample was flagged
            // implausible is quarantined on the spot and keeps its last
            // trusted classification, so one lying counter cannot steer
            // this epoch's plan or the searches.
            if let Some(g) = self.domains[d].governor.as_mut().filter(|_| gated) {
                g.observe_detection(
                    &localize(&rec.faults[det_starts[d]..], base, len),
                    self.sys.now(),
                );
                g.filter_detection(&mut det);
            }
            rec.cores = samples_of(&det.interval1);
            self.decide(d, &det, rec);
            rec.agg = det.agg;
            rec.friendly = det.friendly;
            rec.unfriendly = det.unfriendly;
        }
    }

    /// Domain `d`'s decision from its (domain-local) detection.
    fn decide(&mut self, d: usize, det: &Detection, rec: &mut EpochRecord) {
        let (base, len) = self.span(d);
        let ways = self.sys.llc_ways();
        let min_pc = backend::min_ways_per_core(self.sys.config());
        match self.mechanism {
            Mechanism::Baseline => unreachable!("the baseline never plans"),
            Mechanism::Pt => {
                // PT throttles the whole Agg set (friendly included).
                let groups = self.throttle_groups(&det.agg, det, base);
                let search = backend::search_in(
                    &mut self.sys,
                    Knob::Prefetch,
                    &groups,
                    &pt::ON_OFF,
                    self.ctrl.sampling_interval,
                    &mut rec.faults,
                    base,
                    len,
                );
                (rec.trials, rec.winner) = (search.trials, search.winner);
            }
            Mechanism::PtFine => {
                let groups = globalize(
                    backend::throttle_groups(
                        &det.agg,
                        &det.interval1,
                        pt::FINE_GROUP_CAP,
                        pt::FINE_GROUP_CAP,
                    ),
                    base,
                );
                let search = backend::search_in(
                    &mut self.sys,
                    Knob::Prefetch,
                    &groups,
                    &pt::FINE_LEVELS,
                    self.ctrl.sampling_interval,
                    &mut rec.faults,
                    base,
                    len,
                );
                (rec.trials, rec.winner) = (search.trials, search.winner);
            }
            Mechanism::Dunn => {
                let plan = dunn::dunn_plan(&det.interval1, ways, self.ctrl.dunn_clusters);
                self.apply_or_noop(plan, d, rec);
            }
            Mechanism::PrefCp | Mechanism::PrefCp2 => {
                let plan = if self.mechanism == Mechanism::PrefCp {
                    cp::pref_cp_plan(det, len, ways, self.ctrl.partition_scale, min_pc)
                } else {
                    cp::pref_cp2_plan(det, len, ways, self.ctrl.partition_scale, min_pc)
                };
                self.apply_or_noop(plan, d, rec);
            }
            Mechanism::Mba => {
                // Bandwidth-only ablation: prefetchers on, flat CAT, MBA
                // delay-level search over the aggressor throttle groups.
                if cbp::mba_available(&mut self.sys, base, &mut rec.faults) {
                    let groups = self.throttle_groups(&det.agg, det, base);
                    // The detection left every prefetcher on.
                    let search = backend::search_in(
                        &mut self.sys,
                        Knob::Mba(&vec![0u64; len]),
                        &groups,
                        &cbp::MBA_LEVELS,
                        self.ctrl.sampling_interval,
                        &mut rec.faults,
                        base,
                        len,
                    );
                    (rec.trials, rec.winner) = (search.trials, search.winner);
                } else {
                    // No bandwidth knob: nothing left for the bandwidth-only
                    // mechanism to do.
                    degrade(rec, self.sys.now(), "fallback_noop");
                }
            }
            Mechanism::CmmA | Mechanism::CmmB | Mechanism::CmmC | Mechanism::Cbp => {
                let variant = match self.mechanism {
                    Mechanism::CmmB => cmm::Variant::B,
                    Mechanism::CmmC => cmm::Variant::C,
                    // CMM-a and CBP share the paper's plan (a); CBP layers
                    // the MBA search on top of it.
                    _ => cmm::Variant::A,
                };
                self.cmm(variant, self.mechanism == Mechanism::Cbp, det, d, rec);
            }
            Mechanism::MlSel => {
                rec.features = learned::mean_features(&det.interval1);
                // Classify every core; the epoch trusts the model only if
                // its *least* confident per-core posterior clears the floor.
                let image: Option<Vec<u64>> = match &self.learner {
                    Some(Learner::Ml { model, floor }) => {
                        let preds: Vec<_> = det
                            .interval1
                            .iter()
                            .map(|delta| model.predict(&learned::core_features(delta)))
                            .collect();
                        let min_conf =
                            preds.iter().map(|p| p.confidence).fold(f64::INFINITY, f64::min);
                        (min_conf >= *floor)
                            .then(|| preds.iter().map(|p| model.labels[p.class]).collect())
                    }
                    _ => None,
                };
                // Below the confidence floor (or no model loaded): this
                // epoch runs the full CMM-a search instead.
                let Some(image) = image else {
                    return self.cmm_a_fallback(det, d, rec);
                };
                // The zero-trial epoch: CMM-a's partition plan plus the
                // classifier's per-core prefetch image — no profiling
                // search at all.
                self.partition_cmm_a(det, d, rec);
                if self.allow(d, RegClass::Prefetch) {
                    self.write_image(base, MSR_MISC_FEATURE_CONTROL, &image, &mut rec.faults);
                }
                rec.action = Some(pf_label(&image));
            }
            Mechanism::RlCbp => {
                rec.features = learned::mean_features(&det.interval1);
                let chosen = match self.learner.as_mut() {
                    Some(Learner::Rl(rl)) => {
                        let b = rl.bandit_mut(d);
                        // A quiet domain gives the bandit nothing to
                        // throttle and no usable reward — exploit the
                        // incumbent instead of burning an exploration step
                        // it can never evaluate.
                        Some(if det.agg.is_empty() {
                            b.exploit(learned::state_of(det))
                        } else {
                            b.select(learned::state_of(det))
                        })
                    }
                    _ => None,
                };
                // No policy attached: the full CMM-a epoch.
                let Some(a) = chosen else {
                    return self.cmm_a_fallback(det, d, rec);
                };
                let act = learned::decode_action(a);
                if act.cat_cmm {
                    self.partition_cmm_a(det, d, rec);
                }
                let mut pf_image = vec![0u64; len];
                for &c in &det.unfriendly {
                    pf_image[c] = act.pf;
                }
                if self.allow(d, RegClass::Prefetch) {
                    self.write_image(base, MSR_MISC_FEATURE_CONTROL, &pf_image, &mut rec.faults);
                }
                let mut mba_image = vec![0u64; len];
                for &c in &det.agg {
                    mba_image[c] = act.mba;
                }
                if self.allow(d, RegClass::Mba)
                    && cbp::mba_available(&mut self.sys, base, &mut rec.faults)
                {
                    self.write_image(base, MSR_MBA_THROTTLE, &mba_image, &mut rec.faults);
                }
                let label = learned::action_label(&act);
                rec.action = Some(label.clone());
                self.domains[d].rl_hold =
                    Some(RlHold { skip: act.stretch - 1, pf_image, mba_image, label });
            }
        }
    }

    /// The coordinated CMM leg on domain `d`, shared by CMM-a/b/c, CBP
    /// (`mba_stage`) and the learned mechanisms' CMM-a fallback. In the
    /// paper's order it partitions first, then searches throttle settings
    /// for the unfriendly cores inside the partitioned domain; CBP then
    /// searches MBA delay levels for the whole `Agg` set on top.
    fn cmm(
        &mut self,
        variant: cmm::Variant,
        mba_stage: bool,
        det: &Detection,
        d: usize,
        rec: &mut EpochRecord,
    ) {
        let (base, len) = self.span(d);
        let ways = self.sys.llc_ways();
        // Governor defense 3: consult the breakers before paying a
        // known-dead register class's per-epoch retry tax.
        let allow_cat = self.allow(d, RegClass::Cat);
        if allow_cat {
            let min_pc = backend::min_ways_per_core(self.sys.config());
            let applied = cmm::cmm_plan(variant, det, len, ways, self.ctrl.partition_scale, min_pc)
                .map(|plan| plan.offset(base).apply_at(&mut self.sys, base, &mut rec.faults));
            if !matches!(applied, Some(Ok(()))) {
                if applied.is_some() {
                    // The coordinated plan could not be programmed (e.g.
                    // CLOS exhaustion). Back out to the safe state, then
                    // retreat down the chain: try the less CLOS-hungry Dunn
                    // plan; if even that fails, stay flat (no-op). Throttle
                    // search is skipped — coordinated throttling without
                    // its partition is not the mechanism the paper
                    // evaluates.
                    self.sys.reset_cat_domain(d);
                    degrade(rec, self.sys.now(), "fallback_dunn");
                }
                // Fig. 6 (d): an empty Agg set means Dunn partitioning too,
                // with nothing to search.
                let plan = dunn::dunn_plan(&det.interval1, ways, self.ctrl.dunn_clusters);
                return self.apply_or_noop(plan, d, rec);
            }
        } else {
            // CAT's breaker is open: every partition plan is doomed, so
            // stop paying its per-epoch retry tax — but the prefetch and
            // MBA register classes may well be alive, and for a
            // prefetch-aggressive mix they carry most of the mechanism's
            // value. Pin a throttle-only degradation over the flat (reset)
            // cache until the breaker closes.
            self.sys.reset_cat_domain(d);
            degrade(rec, self.sys.now(), "fallback_throttle");
        }
        // The detection left every prefetcher on; if the prefetch breaker
        // is open the search is skipped and that all-on image stands.
        let mut pf_image = vec![0u64; len];
        if self.allow(d, RegClass::Prefetch) {
            let groups = self.throttle_groups(&det.unfriendly, det, base);
            let search = backend::search_in(
                &mut self.sys,
                Knob::Prefetch,
                &groups,
                &pt::ON_OFF,
                self.ctrl.sampling_interval,
                &mut rec.faults,
                base,
                len,
            );
            pf_image = search.best;
            (rec.trials, rec.winner) = (search.trials, search.winner);
        }
        if !mba_stage {
            return;
        }
        // The hierarchical third stage: with the prefetch winner and
        // partition in force, search MBA delay levels for the whole Agg
        // set. Without the knob, CBP is exactly CMM-a.
        if self.allow(d, RegClass::Mba) && cbp::mba_available(&mut self.sys, base, &mut rec.faults)
        {
            let groups = self.throttle_groups(&det.agg, det, base);
            let search = backend::search_in(
                &mut self.sys,
                Knob::Mba(&pf_image),
                &groups,
                &cbp::MBA_LEVELS,
                self.ctrl.sampling_interval,
                &mut rec.faults,
                base,
                len,
            );
            if let Some(w) = search.winner {
                rec.winner = Some(rec.trials.len() + w);
            }
            rec.trials.extend(search.trials);
        } else if allow_cat {
            degrade(rec, self.sys.now(), "fallback_cmm_a");
        }
    }

    /// The CMM-a search the learned mechanisms retreat to (ML-Sel below
    /// its confidence floor, RL-CBP without a policy), journaled as
    /// `fallback_cmm_a`.
    fn cmm_a_fallback(&mut self, det: &Detection, d: usize, rec: &mut EpochRecord) {
        degrade(rec, self.sys.now(), "fallback_cmm_a");
        rec.action = Some("fallback_cmm_a".into());
        self.cmm(cmm::Variant::A, false, det, d, rec);
    }

    /// CMM-a's partition plan (Dunn's on an empty `Agg` set) without any
    /// search — the learned mechanisms' zero-trial CAT step. An open CAT
    /// breaker leaves the domain flat instead.
    fn partition_cmm_a(&mut self, det: &Detection, d: usize, rec: &mut EpochRecord) {
        if !self.allow(d, RegClass::Cat) {
            self.sys.reset_cat_domain(d);
            degrade(rec, self.sys.now(), "fallback_throttle");
            return;
        }
        let (_, len) = self.span(d);
        let ways = self.sys.llc_ways();
        let min_pc = backend::min_ways_per_core(self.sys.config());
        let plan =
            cmm::cmm_plan(cmm::Variant::A, det, len, ways, self.ctrl.partition_scale, min_pc)
                .unwrap_or_else(|| dunn::dunn_plan(&det.interval1, ways, self.ctrl.dunn_clusters));
        self.apply_or_noop(plan, d, rec);
    }

    /// Programs a domain-local plan on domain `d`; a plan that cannot be
    /// programmed leaves the domain flat and degrades the epoch to no-op.
    fn apply_or_noop(&mut self, plan: PartitionPlan, d: usize, rec: &mut EpochRecord) {
        let (base, _) = self.span(d);
        if plan.offset(base).apply_at(&mut self.sys, base, &mut rec.faults).is_err() {
            self.sys.reset_cat_domain(d);
            degrade(rec, self.sys.now(), "fallback_noop");
        }
    }

    /// Writes a domain-local per-core register image: `image[i]` goes to
    /// core `base + i`.
    fn write_image(&mut self, base: usize, msr: u32, image: &[u64], log: &mut Vec<FaultRecord>) {
        for (i, &value) in image.iter().enumerate() {
            let _ = backend::write_msr_logged(&mut self.sys, base + i, msr, value, log);
        }
    }

    /// Throttle groups over the domain-local `cores`, lifted to global ids.
    fn throttle_groups(&self, cores: &[usize], det: &Detection, base: usize) -> Vec<Vec<usize>> {
        let groups = backend::throttle_groups(
            cores,
            &det.interval1,
            self.ctrl.exhaustive_limit,
            self.ctrl.throttle_groups,
        );
        globalize(groups, base)
    }

    /// True while domain `d`'s breaker for `class` is closed (always,
    /// without a governor).
    fn allow(&self, d: usize, class: RegClass) -> bool {
        self.domains[d].governor.as_ref().is_none_or(|g| g.allow(class))
    }

    /// `(base, len)`: domain `d`'s first global core id and core count.
    fn span(&self, d: usize) -> (usize, usize) {
        let len = self.sys.config().topology.cores_per_socket;
        (d * len, len)
    }
}

/// The journal's `action` label for an ML-Sel per-core prefetch image.
fn pf_label(image: &[u64]) -> String {
    let imgs: Vec<String> = image.iter().map(|v| format!("{v:#x}")).collect();
    format!("pf=[{}]", imgs.join(","))
}

/// Records an epoch-level degradation decision in a domain's record: the
/// fault-stream entry plus the [`EpochRecord::degraded`] label.
fn degrade(rec: &mut EpochRecord, cycle: u64, action: &'static str) {
    rec.faults.push(FaultRecord { cycle, kind: "degraded", core: None, msr: None, action });
    rec.degraded = Some(match action {
        "fallback_cmm_a" => "CMM-a",
        "fallback_dunn" => "Dunn",
        "fallback_throttle" => "throttle-only",
        _ => "no-op",
    });
}

/// Moves faults from a machine-wide phase into the per-domain records:
/// faults naming a core go to that core's domain, core-less ones to
/// domain 0.
fn route_faults(log: &mut Vec<FaultRecord>, recs: &mut [EpochRecord], len: usize) {
    for f in log.drain(..) {
        let d = f.core.map_or(0, |c| (c / len).min(recs.len() - 1));
        recs[d].faults.push(f);
    }
}

/// A domain's fault records with domain-local core ids — the ids its
/// governor indexes quarantine by. A sample taken during the domain's own
/// trial interval can still flag a core of another domain; that record
/// keeps its place in the stream but names no core.
fn localize(faults: &[FaultRecord], base: usize, len: usize) -> Vec<FaultRecord> {
    faults
        .iter()
        .map(|f| FaultRecord {
            core: f.core.and_then(|c| c.checked_sub(base)).filter(|&c| c < len),
            ..f.clone()
        })
        .collect()
}

/// Lifts socket-local throttle groups to global core ids (`+ base`).
fn globalize(groups: Vec<Vec<usize>>, base: usize) -> Vec<Vec<usize>> {
    groups.into_iter().map(|g| g.into_iter().map(|c| c + base).collect()).collect()
}

/// Per-core [`CoreSample`]s (IPC + metric cascade) of one interval.
fn samples_of(deltas: &[PmuDelta]) -> Vec<CoreSample> {
    deltas
        .iter()
        .map(|d| CoreSample { ipc: d.ipc(), metrics: crate::frontend::metrics(d) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_sim::config::SystemConfig;
    use cmm_sim::workload::Workload;
    use cmm_workloads::spec;

    fn system_with(names: &[&str]) -> System {
        let cfg = SystemConfig::scaled(names.len());
        let llc = cfg.llc.size_bytes;
        let ws: Vec<Box<dyn Workload + Send>> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Box::new(spec::by_name(n).unwrap().instantiate(llc, (i as u64 + 1) << 36, 11))
                    as Box<dyn Workload + Send>
            })
            .collect();
        System::new(cfg, ws)
    }

    #[test]
    fn baseline_driver_never_partitions_or_throttles() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::Baseline, ControllerConfig::quick());
        drv.run_total(500_000);
        let sys = drv.system();
        for c in 0..4 {
            assert!(sys.prefetching_enabled(c));
            assert_eq!(sys.effective_mask(c), (1 << sys.llc_ways()) - 1);
        }
    }

    #[test]
    fn pref_cp_partitions_the_aggressors() {
        let sys = system_with(&["bwaves3d", "lbm_fluid", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::PrefCp, ControllerConfig::quick());
        drv.run_total(800_000);
        let sys = drv.system();
        let full = (1u64 << sys.llc_ways()) - 1;
        // The two streams must sit in a small partition...
        assert!(sys.effective_mask(0).count_ones() < 20, "{:b}", sys.effective_mask(0));
        assert_eq!(sys.effective_mask(0), sys.effective_mask(1));
        // ...while the neutral cores keep the whole cache.
        assert_eq!(sys.effective_mask(2), full);
        assert_eq!(sys.effective_mask(3), full);
        // CP never throttles.
        assert!((0..4).all(|c| sys.prefetching_enabled(c)));
    }

    #[test]
    fn cmm_a_partitions_and_throttles_unfriendly() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::CmmA, ControllerConfig::quick());
        drv.run_total(1_200_000);
        let sys = drv.system();
        // Both aggressors (friendly stream + unfriendly random) partitioned.
        assert!(sys.effective_mask(0).count_ones() < 20);
        assert!(sys.effective_mask(1).count_ones() < 20);
        // The friendly stream's prefetchers must stay on — CMM only ever
        // throttles unfriendly cores.
        assert!(sys.prefetching_enabled(0));
        assert!(drv.agg_history().iter().any(|&a| a >= 2), "{:?}", drv.agg_history());
    }

    #[test]
    fn cmm_falls_back_to_dunn_on_empty_agg() {
        let sys = system_with(&["mcf_refine", "omnet_events", "povray_rt", "gobmk_ai"]);
        let mut drv = Driver::new(sys, Mechanism::CmmA, ControllerConfig::quick());
        drv.system_mut().run(400_000); // past the cold streaming phase
        drv.epoch();
        // No aggressor: Dunn's nested plan is in force; the most-stalled
        // core has the full mask, and nobody was throttled.
        let sys = drv.system();
        assert!((0..4).all(|c| sys.prefetching_enabled(c)));
        let full = (1u64 << sys.llc_ways()) - 1;
        assert!((0..4).any(|c| sys.effective_mask(c) == full));
    }

    #[test]
    fn overhead_is_small() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::CmmC, ControllerConfig::quick());
        drv.run_total(2_000_000);
        assert!(drv.overhead_ratio() < 0.01, "overhead {:.4}", drv.overhead_ratio());
        assert!(drv.epochs() >= 2);
    }

    #[test]
    fn run_total_reaches_target() {
        let sys = system_with(&["povray_rt", "gobmk_ai"]);
        let mut drv = Driver::new(sys, Mechanism::Pt, ControllerConfig::quick());
        drv.run_total(300_000);
        assert!(drv.system().now() >= 300_000);
    }

    #[test]
    fn cmm_records_trials_and_winner() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::CmmA, ControllerConfig::quick());
        drv.run_total(1_200_000);
        let recs = drv.records();
        assert_eq!(recs.len() as u64, drv.epochs());
        // Some epoch detected aggressors and searched throttle settings.
        let searched = recs.iter().find(|r| !r.trials.is_empty()).expect("no trials recorded");
        assert_eq!(searched.mechanism, "CMM-a");
        assert!(!searched.agg.is_empty());
        let w = searched.winner.expect("search must pick a winner");
        let best = searched.trials[w].hm_ipc;
        assert!(searched.trials.iter().all(|t| t.hm_ipc <= best), "winner must rank first");
        // Cascade samples cover every core, and the applied state matches
        // the machine.
        assert_eq!(searched.cores.len(), 4);
        let last = recs.last().unwrap();
        assert_eq!(last.applied.len(), 4);
        for c in 0..4 {
            assert_eq!(last.applied[c].way_mask, drv.system().effective_mask(c));
            assert_eq!(last.applied[c].prefetching(), drv.system().prefetching_enabled(c));
        }
    }

    #[test]
    fn baseline_records_epochs_without_decisions() {
        let sys = system_with(&["povray_rt", "gobmk_ai"]);
        let mut drv = Driver::new(sys, Mechanism::Baseline, ControllerConfig::quick());
        drv.run_total(500_000);
        assert!(!drv.records().is_empty());
        for r in drv.records() {
            assert!(r.cores.is_empty() && r.agg.is_empty() && r.trials.is_empty());
            assert_eq!(r.winner, None);
            assert_eq!(r.applied.len(), 2);
        }
    }

    #[test]
    fn take_records_drains() {
        let sys = system_with(&["povray_rt", "gobmk_ai"]);
        let mut drv = Driver::new(sys, Mechanism::Pt, ControllerConfig::quick());
        drv.epoch();
        let taken = drv.take_records();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].epoch, 1);
        assert!(drv.records().is_empty());
    }

    #[test]
    fn exec_ipc_is_tracked_across_epochs() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::CmmA, ControllerConfig::quick());
        drv.run_total(1_000_000);
        let recs = drv.records();
        assert!(recs.len() >= 3, "need several epochs: {}", recs.len());
        // First epoch has no completed execution epoch behind it.
        assert_eq!(recs[0].exec_hm_ipc, None);
        assert_eq!(recs[0].exec_ipc_delta, None);
        // From the second epoch on, the preceding execution epoch is
        // measured; from the third, the delta exists and is consistent.
        assert!(recs[1].exec_hm_ipc.unwrap() > 0.0);
        let (prev, cur) = (recs[1].exec_hm_ipc.unwrap(), recs[2].exec_hm_ipc.unwrap());
        let delta = recs[2].exec_ipc_delta.unwrap();
        assert!((delta - (cur - prev)).abs() < 1e-9);
        // A clean substrate records no faults and no degradation.
        for r in recs {
            assert!(r.faults.is_empty(), "{:?}", r.faults);
            assert_eq!(r.degraded, None);
        }
    }

    #[test]
    fn clos_exhaustion_walks_the_fallback_chain() {
        use crate::fault::{FaultConfig, FaultySubstrate};
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        // Only CLOS 0 exists: every partitioning plan (CMM and Dunn both
        // start at CLOS 1) is unprogrammable.
        let mut cfg = FaultConfig::none();
        cfg.clos_limit = Some(1);
        let faulty = FaultySubstrate::new(sys, cfg);
        let mut drv = Driver::new(faulty, Mechanism::CmmA, ControllerConfig::quick());
        drv.system_mut().run(600_000); // past the cold phase → nonempty Agg
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert!(!rec.agg.is_empty(), "mix must trigger the CMM plan: {rec:?}");
        let actions: Vec<&str> = rec.faults.iter().map(|f| f.action).collect();
        assert!(actions.contains(&"fallback_dunn"), "{actions:?}");
        assert!(actions.contains(&"fallback_noop"), "{actions:?}");
        assert_eq!(rec.degraded, Some("no-op"));
        assert!(rec.faults.iter().any(|f| f.kind == "clos_exhausted"));
        // The machine ends in the safe flat state, prefetchers on.
        let sys = drv.system();
        let full = (1u64 << sys.inner().llc_ways()) - 1;
        for c in 0..4 {
            assert_eq!(sys.inner().effective_mask(c), full);
        }
        // No throttle search ran without the partition.
        assert!(rec.trials.is_empty());
        assert_eq!(rec.winner, None);
    }

    #[test]
    fn cbp_layers_mba_trials_on_the_cmm_plan() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::Cbp, ControllerConfig::quick());
        drv.run_total(1_200_000);
        let recs = drv.records();
        // Some epoch ran the full three-stage search: prefetch trials
        // (no mba image) followed by MBA trials (mba image present).
        let layered = recs
            .iter()
            .find(|r| r.trials.iter().any(|t| !t.mba.is_empty()))
            .expect("no MBA trials recorded");
        assert_eq!(layered.mechanism, "CBP");
        // Search order is hierarchical: any prefetch trials precede every
        // MBA trial.
        let first_mba = layered.trials.iter().position(|t| !t.mba.is_empty()).unwrap();
        assert!(layered.trials[first_mba..].iter().all(|t| !t.mba.is_empty()));
        assert_eq!(layered.degraded, None);
        // MBA trials never program an invalid level.
        for t in &layered.trials {
            assert!(t.mba.iter().all(|&l| cmm_sim::msr::mba_level_valid(l)), "{:?}", t.mba);
        }
        // The winner indexes the combined trial list.
        let w = layered.winner.expect("search must pick a winner");
        assert!(w < layered.trials.len());
        // The applied read-back includes the MBA level in force.
        for (c, a) in recs.last().unwrap().applied.iter().enumerate() {
            assert_eq!(a.mba_level, Substrate::mba_throttle(drv.system(), c));
        }
    }

    #[test]
    fn cbp_without_the_mba_knob_degrades_to_cmm_a() {
        use crate::fault::{FaultConfig, FaultySubstrate};
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        // Every MBA write fails permanently after retries; everything else
        // is healthy — CBP must retreat to exact CMM-a behavior.
        let faulty = FaultySubstrate::new(sys, FaultConfig::mba_only(7, 1.0));
        let mut drv = Driver::new(faulty, Mechanism::Cbp, ControllerConfig::quick());
        drv.system_mut().run(600_000); // past the cold phase → nonempty Agg
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert!(!rec.agg.is_empty(), "mix must trigger the plan: {rec:?}");
        assert_eq!(rec.degraded, Some("CMM-a"));
        assert!(rec.faults.iter().any(|f| f.action == "fallback_cmm_a"), "{:?}", rec.faults);
        // The prefetch search still ran; no MBA trial exists and no MBA
        // level is in force.
        assert!(!rec.trials.is_empty());
        assert!(rec.trials.iter().all(|t| t.mba.is_empty()));
        assert!(rec.applied.iter().all(|a| a.mba_level == 0));
    }

    #[test]
    fn mba_only_mechanism_never_partitions_or_throttles_prefetchers() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::Mba, ControllerConfig::quick());
        drv.run_total(1_200_000);
        let sys = drv.system();
        let full = (1u64 << sys.llc_ways()) - 1;
        for c in 0..4 {
            assert!(sys.prefetching_enabled(c));
            assert_eq!(sys.effective_mask(c), full);
        }
        // Some epoch searched MBA levels for the aggressors.
        let searched =
            drv.records().iter().find(|r| !r.trials.is_empty()).expect("no MBA search recorded");
        assert!(searched.trials.iter().all(|t| !t.mba.is_empty()));
    }

    #[test]
    fn governed_clean_run_matches_ungoverned_byte_for_byte() {
        // The zero-fault invisibility contract: attaching a governor to a
        // healthy machine changes nothing — not timing, not decisions,
        // not the rendered journal.
        let mk = || system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut plain = Driver::new(mk(), Mechanism::Cbp, ControllerConfig::quick());
        let mut gov = Driver::new(mk(), Mechanism::Cbp, ControllerConfig::quick())
            .with_governor(GovernorConfig::new(9));
        plain.run_total(1_200_000);
        gov.run_total(1_200_000);
        let (ra, rb) = (plain.take_records(), gov.take_records());
        assert_eq!(ra.len(), rb.len());
        assert!(!ra.is_empty());
        for (a, b) in ra.iter().zip(&rb) {
            assert_eq!(a.to_json_line("cell"), b.to_json_line("cell"));
            assert!(b.governor.is_empty());
        }
    }

    #[test]
    fn governor_rollback_restores_last_good_and_skips_replanning() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::CmmA, ControllerConfig::quick())
            .with_governor(GovernorConfig::new(1));
        drv.run_total(900_000); // several epochs: snapshot + last-good exist
        let before = drv.records().len();
        // Arm the governor by hand: a fault was observed and the
        // last-known-good hm_ipc is implausibly high, so the next
        // measurement reads as a regression past the bound.
        let g = drv.domains[0].governor.as_mut().unwrap();
        g.accept(1e6);
        g.observe_faults(
            &[FaultRecord {
                cycle: 0,
                kind: "msr_rejected",
                core: Some(0),
                msr: Some(0x1A4),
                action: "retry_ok",
            }],
            0,
        );
        let snapshot = drv.governor(0).unwrap().snapshot().unwrap().to_vec();
        drv.system_mut().run(100_000);
        drv.epoch();
        let rec = &drv.records()[before..].last().unwrap();
        assert!(rec.governor.iter().any(|e| e.action == "rollback"), "{:?}", rec.governor);
        assert!(rec.faults.iter().any(|f| f.action == "kept_last_good"), "{:?}", rec.faults);
        assert_eq!(drv.governor(0).unwrap().rollbacks(), 1);
        // The rollback epoch re-runs the restored state: no profiling, no
        // re-plan, and the applied read-back equals the snapshot.
        assert!(rec.cores.is_empty() && rec.trials.is_empty());
        assert_eq!(rec.winner, None);
        assert_eq!(rec.applied, snapshot);
    }

    #[test]
    fn quarantined_cores_are_dropped_from_classification() {
        let mk = || system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        // Reference: which cores does a healthy epoch classify as Agg?
        let mut reference = Driver::new(mk(), Mechanism::CmmA, ControllerConfig::quick());
        reference.system_mut().run(600_000);
        reference.epoch();
        let full_agg = reference.records().last().unwrap().agg.clone();
        assert!(!full_agg.is_empty(), "mix must produce aggressors");
        // Same machine, same point in time, but core agg[0]'s PMU stream
        // is quarantined: it must vanish from every detected set.
        let bad = full_agg[0];
        let mut drv = Driver::new(mk(), Mechanism::CmmA, ControllerConfig::quick())
            .with_governor(GovernorConfig::new(1));
        drv.system_mut().run(600_000);
        drv.domains[0].governor.as_mut().unwrap().observe_faults(
            &[FaultRecord {
                cycle: 0,
                kind: "pmu_anomaly",
                core: Some(bad),
                msr: None,
                action: "zeroed_sample",
            }],
            0,
        );
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert!(!rec.agg.contains(&bad), "{:?}", rec.agg);
        assert!(!rec.friendly.contains(&bad));
        assert!(!rec.unfriendly.contains(&bad));
        assert!(rec.governor.iter().any(|e| e.action == "quarantine" && e.core == Some(bad)));
    }

    #[test]
    fn dead_mba_register_opens_the_breaker_and_pins_cmm_a() {
        use crate::fault::{FaultConfig, FaultySubstrate};
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let faulty = FaultySubstrate::new(sys, FaultConfig::mba_only(7, 1.0));
        let mut drv = Driver::new(faulty, Mechanism::Cbp, ControllerConfig::quick())
            .with_governor(GovernorConfig::new(3));
        drv.system_mut().run(600_000);
        for _ in 0..4 {
            drv.epoch();
            drv.system_mut().run(200_000);
        }
        let recs = drv.records();
        let open = recs
            .iter()
            .position(|r| r.governor.iter().any(|e| e.action == "breaker_open"))
            .expect("two consecutive hard MBA failures must open the breaker");
        assert_eq!(
            recs[open].governor.iter().find(|e| e.action == "breaker_open").unwrap().class,
            Some("mba")
        );
        // While the breaker is open the driver stops probing the dead
        // register (no MBA faults) but still degrades CBP to CMM-a.
        let after = &recs[open + 1];
        assert_eq!(after.degraded, Some("CMM-a"));
        assert!(
            after.faults.iter().all(|f| f.msr != Some(cmm_sim::msr::MSR_MBA_THROTTLE)),
            "{:?}",
            after.faults
        );
    }

    #[test]
    fn mlsel_without_a_model_journals_the_cmm_a_fallback() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::MlSel, ControllerConfig::quick());
        drv.system_mut().run(600_000);
        drv.epoch();
        let rec = drv.records().last().unwrap();
        // No learner attached: every epoch degrades to the CMM-a search,
        // and the degradation is journaled under the /6 keys.
        assert_eq!(rec.degraded, Some("CMM-a"));
        assert_eq!(rec.action.as_deref(), Some("fallback_cmm_a"));
        assert!(rec.faults.iter().any(|f| f.action == "fallback_cmm_a"));
        assert!(!rec.trials.is_empty(), "the fallback runs the full search");
        assert_eq!(rec.features.len(), cmm_learn::N_FEATURES);
        assert!(rec.features[0] > 0.0, "mean IPC feature must be positive");
    }

    #[test]
    fn mlsel_with_a_confident_model_plans_without_trials() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        // A degenerate single-class model is maximally confident (p = 1)
        // and always picks "all prefetchers on".
        let model = cmm_learn::Model {
            labels: vec![0x0],
            weights: vec![vec![0.0; cmm_learn::N_FEATURES + 1]],
        };
        let mut drv = Driver::new(sys, Mechanism::MlSel, ControllerConfig::quick())
            .with_learner(Learner::Ml { model, floor: 0.5 });
        drv.system_mut().run(600_000);
        drv.epoch();
        let rec = drv.records().last().unwrap();
        // Zero profiling trials, yet the CMM-a partition was applied.
        assert!(rec.trials.is_empty());
        assert_eq!(rec.winner, None);
        assert_eq!(rec.degraded, None);
        assert_eq!(rec.action.as_deref(), Some("pf=[0x0,0x0,0x0,0x0]"));
        assert!(!rec.agg.is_empty(), "mix must trigger the plan");
        let sys = drv.system();
        assert!(sys.effective_mask(rec.agg[0]).count_ones() < 20, "aggressor partitioned");
        assert!((0..4).all(|c| sys.prefetching_enabled(c)), "classifier chose all-on");
    }

    #[test]
    fn mlsel_below_the_confidence_floor_falls_back() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        // Two identical classes: every posterior is 0.5, below any floor
        // above one half — the fallback leg must run and be journaled.
        let model = cmm_learn::Model {
            labels: vec![0x0, 0xF],
            weights: vec![vec![0.0; cmm_learn::N_FEATURES + 1]; 2],
        };
        let mut drv = Driver::new(sys, Mechanism::MlSel, ControllerConfig::quick())
            .with_learner(Learner::Ml { model, floor: 0.9 });
        drv.system_mut().run(600_000);
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert_eq!(rec.degraded, Some("CMM-a"));
        assert_eq!(rec.action.as_deref(), Some("fallback_cmm_a"));
        assert!(!rec.trials.is_empty());
    }

    #[test]
    fn rlcbp_zero_epsilon_applies_the_cmm_prior_deterministically() {
        let mk = || system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let run = |seed: u64| {
            let mut drv = Driver::new(mk(), Mechanism::RlCbp, ControllerConfig::quick())
                .with_learner(Learner::Rl(crate::learned::RlPolicy::new(seed, 0.0)));
            drv.run_total(1_200_000);
            drv.take_records().iter().map(|r| r.to_json_line("cell")).collect::<Vec<_>>()
        };
        // With epsilon 0 the bandit draws no entropy: the seed must not
        // matter and the greedy policy starts at the CMM-like prior.
        let a = run(1);
        let b = run(999);
        assert_eq!(a, b);
        assert!(
            a.iter().any(|l| l.contains("\"action\":\"pf=0xf,cat=cmm,mba=0,stretch=1\"")),
            "greedy start must be the CMM prior"
        );
        // Zero-trial epochs: the bandit replaces the exhaustive search.
        assert!(a.iter().all(|l| l.contains("\"trials\":[]")));
    }

    #[test]
    fn rlcbp_stretch_holds_the_action_without_profiling() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::RlCbp, ControllerConfig::quick())
            .with_learner(Learner::Rl(crate::learned::RlPolicy::new(5, 0.0)));
        drv.system_mut().run(600_000);
        drv.epoch();
        // Force a stretch by hand: the held action must skip the next
        // epoch's profiling entirely.
        drv.domains[0].rl_hold.as_mut().unwrap().skip = 1;
        drv.system_mut().run(200_000);
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert!(rec.action.as_deref().unwrap().starts_with("hold:"), "{:?}", rec.action);
        assert!(rec.cores.is_empty() && rec.trials.is_empty());
        assert!(rec.features.is_empty());
        // The epoch after the hold re-plans normally.
        drv.system_mut().run(200_000);
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert!(!rec.cores.is_empty());
    }

    #[test]
    fn rlcbp_without_a_policy_falls_back_to_cmm_a() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::RlCbp, ControllerConfig::quick());
        drv.system_mut().run(600_000);
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert_eq!(rec.degraded, Some("CMM-a"));
        assert_eq!(rec.action.as_deref(), Some("fallback_cmm_a"));
        assert!(!rec.trials.is_empty());
    }

    #[test]
    fn epoch_records_are_ordered_and_cycle_stamped() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::PrefCp, ControllerConfig::quick());
        drv.run_total(900_000);
        let recs = drv.records();
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.epoch, i as u64 + 1);
        }
        for pair in recs.windows(2) {
            assert!(pair[0].cycle < pair[1].cycle, "cycles must advance");
        }
    }

    /// A 2x4 machine (two sockets, four cores each) running `names` on
    /// both sockets.
    fn two_socket_with(names: [&str; 4]) -> System {
        let mut cfg = SystemConfig::scaled(8);
        cfg.set_topology("2x4".parse().unwrap());
        let llc = cfg.llc.size_bytes;
        let ws: Vec<Box<dyn Workload + Send>> = names
            .iter()
            .chain(&names)
            .enumerate()
            .map(|(i, n)| {
                Box::new(spec::by_name(n).unwrap().instantiate(llc, (i as u64 + 1) << 36, 11))
                    as Box<dyn Workload + Send>
            })
            .collect();
        System::new(cfg, ws)
    }

    const MIX: [&str; 4] = ["bwaves3d", "rand_access", "mcf_refine", "povray_rt"];

    #[test]
    fn every_mechanism_journals_one_record_per_domain() {
        for mech in [
            Mechanism::Baseline,
            Mechanism::Pt,
            Mechanism::PtFine,
            Mechanism::Dunn,
            Mechanism::PrefCp,
            Mechanism::PrefCp2,
            Mechanism::Mba,
            Mechanism::CmmA,
            Mechanism::CmmB,
            Mechanism::CmmC,
            Mechanism::Cbp,
            Mechanism::MlSel,
            Mechanism::RlCbp,
        ] {
            let mut drv = Driver::new(two_socket_with(MIX), mech, ControllerConfig::quick());
            drv.system_mut().run(300_000);
            drv.epoch();
            drv.system_mut().run(100_000);
            drv.epoch();
            let recs = drv.records();
            assert_eq!(recs.len(), 4, "{mech:?}: one record per domain per epoch");
            let state = drv.system().control_state();
            for (i, r) in recs.iter().enumerate() {
                assert_eq!(r.epoch, i as u64 / 2 + 1, "{mech:?}");
                assert_eq!(r.domain, Some(i % 2), "{mech:?}");
                assert_eq!(r.mechanism, mech.label());
                assert_eq!(r.applied.len(), 4, "{mech:?}: applied is sliced to the domain");
                if mech != Mechanism::Baseline {
                    assert_eq!(r.cores.len(), 4, "{mech:?}: domain-local samples");
                }
                assert!(r.agg.iter().chain(&r.friendly).chain(&r.unfriendly).all(|&c| c < 4));
                assert!(r.trials.iter().all(|t| t.msr_1a4.len() == 4), "{mech:?}");
            }
            // The last epoch's read-back is the machine's state, domain by
            // domain.
            for r in &recs[2..] {
                let base = r.domain.unwrap() * 4;
                assert_eq!(r.applied, state[base..base + 4], "{mech:?}");
            }
        }
    }

    #[test]
    fn governed_multi_socket_run_journals_per_domain_breaker_events() {
        use crate::fault::{FaultConfig, FaultySubstrate};
        // Every MBA write fails: each domain's own governor must see its
        // own socket's hard failures and open its own MBA breaker.
        let faulty = FaultySubstrate::new(two_socket_with(MIX), FaultConfig::mba_only(7, 1.0));
        let mut drv = Driver::new(faulty, Mechanism::Cbp, ControllerConfig::quick())
            .with_governor(GovernorConfig::new(3));
        drv.system_mut().run(600_000);
        for _ in 0..4 {
            drv.epoch();
            drv.system_mut().run(200_000);
        }
        let recs = drv.records();
        for d in 0..2 {
            let dom: Vec<&EpochRecord> = recs.iter().filter(|r| r.domain == Some(d)).collect();
            assert_eq!(dom.len(), 4);
            let open = dom
                .iter()
                .position(|r| {
                    r.governor.iter().any(|e| e.action == "breaker_open" && e.class == Some("mba"))
                })
                .unwrap_or_else(|| panic!("domain {d} never opened its MBA breaker"));
            // While the breaker is open the domain stops probing the dead
            // register but still degrades CBP to CMM-a.
            let after = dom[open + 1];
            assert_eq!(after.degraded, Some("CMM-a"), "domain {d}");
            assert!(
                after.faults.iter().all(|f| f.msr != Some(cmm_sim::msr::MSR_MBA_THROTTLE)),
                "domain {d}: {:?}",
                after.faults
            );
            // Faults stay on their own domain's record.
            let base = d * 4;
            assert!(dom
                .iter()
                .flat_map(|r| &r.faults)
                .filter_map(|f| f.core)
                .all(|c| (base..base + 4).contains(&c)));
        }
        assert!(drv.governor(1).is_some() && drv.governor(2).is_none());
        // PMU garbage and overflows: quarantines name domain-local cores.
        let faulty = FaultySubstrate::new(two_socket_with(MIX), FaultConfig::uniform(5, 0.3));
        let mut drv = Driver::new(faulty, Mechanism::Cbp, ControllerConfig::quick())
            .with_governor(GovernorConfig::new(3));
        drv.run_total(1_500_000);
        let quarantined: Vec<usize> = drv
            .records()
            .iter()
            .flat_map(|r| &r.governor)
            .filter(|e| e.action == "quarantine")
            .filter_map(|e| e.core)
            .collect();
        assert!(!quarantined.is_empty(), "rate 0.3 must quarantine some core");
        assert!(quarantined.iter().all(|&c| c < 4), "{quarantined:?}");
    }

    #[test]
    fn rollback_on_one_domain_leaves_the_other_untouched() {
        // Two identical governed runs; in one, domain 1's governor is armed
        // by hand so the next measurement reads as a regression.
        let run = |arm: bool| {
            let mut drv =
                Driver::new(two_socket_with(MIX), Mechanism::CmmA, ControllerConfig::quick())
                    .with_governor(GovernorConfig::new(1));
            drv.run_total(900_000);
            let before = drv.records().len();
            let mut snapshot = Vec::new();
            if arm {
                let g = drv.domains[1].governor.as_mut().unwrap();
                g.accept(1e6);
                g.observe_faults(
                    &[FaultRecord {
                        cycle: 0,
                        kind: "msr_rejected",
                        core: Some(0),
                        msr: Some(0x1A4),
                        action: "retry_ok",
                    }],
                    0,
                );
                snapshot = g.snapshot().unwrap().to_vec();
            }
            drv.system_mut().run(100_000);
            drv.epoch();
            (drv.records()[before..].to_vec(), snapshot)
        };
        let (reference, _) = run(false);
        let (armed, snapshot) = run(true);
        assert_eq!(armed.len(), 2);
        let rolled = &armed[1];
        assert_eq!(rolled.domain, Some(1));
        assert!(rolled.governor.iter().any(|e| e.action == "rollback"), "{:?}", rolled.governor);
        assert!(rolled.faults.iter().any(|f| f.action == "kept_last_good"));
        // The rolled-back domain re-runs its restored state: no profiling,
        // no re-plan, and its read-back equals its own snapshot.
        assert!(rolled.cores.is_empty() && rolled.trials.is_empty());
        assert_eq!(rolled.applied, snapshot);
        // Domain 0 planned as if nothing happened on socket 1.
        assert!(!armed[0].cores.is_empty());
        assert_eq!(armed[0].to_json_line("cell"), reference[0].to_json_line("cell"));
    }

    #[test]
    fn multi_socket_pt_fine_keeps_its_two_group_cap() {
        // Three aggressors per domain: more than PT-fine's two groups, so
        // without the cap each domain would trial 3^3 = 27 settings.
        let mix = ["bwaves3d", "lbm_fluid", "rand_access", "povray_rt"];
        let mut drv =
            Driver::new(two_socket_with(mix), Mechanism::PtFine, ControllerConfig::quick());
        drv.system_mut().run(600_000);
        drv.epoch();
        for r in drv.records() {
            assert!(r.agg.len() >= 3, "mix must give 3 aggressors per domain: {:?}", r.agg);
            assert!(!r.trials.is_empty());
            assert!(r.trials.len() <= 9, "domain {:?}: {} trials", r.domain, r.trials.len());
        }
    }
}
