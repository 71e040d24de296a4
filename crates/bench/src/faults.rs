//! `repro faults` — fault-injection resilience sweep.
//!
//! Runs one prefetch-aggressive mix under CMM-a while a
//! [`cmm_core::fault::FaultySubstrate`] injects MSR write rejections, CLOS
//! exhaustion and PMU corruption at increasing rates, and checks that
//! harmonic-mean IPC *degrades smoothly* instead of cliffing: a controller
//! that panics, wedges on a rejected WRMSR, or trusts a garbage PMU
//! snapshot shows up here as a collapse relative to the fault-free run.
//!
//! A second leg ([`MBA`]) runs the same mix under CBP while only the MBA
//! throttle register misbehaves (transient rejections plus stuck
//! writes): CBP must shed its third resource and keep the CMM-a plan —
//! the CBP → CMM-a rung of the degradation chain — rather than cliffing
//! or wedging on the dead register.
//!
//! The sweep is deterministic — fault schedules come from a seeded
//! splitmix64 stream — so the journal cells it emits are byte-identical
//! across `--jobs`, and CI runs it twice to prove exactly that.

use crate::checkpoint::{self, CellCodec, Checkpoint};
use crate::journal::Tally;
use crate::json::Json;
use crate::report;
use crate::runner::{run_cells, CellFailure, Progress};
use cmm_core::experiment::{run_mix_cell, ExperimentConfig, MixOptions, WarmupPool};
use cmm_core::fault::FaultConfig;
use cmm_core::json::Lossless;
use cmm_core::policy::Mechanism;
use cmm_core::telemetry::EpochRecord;
use cmm_workloads::build_mixes;

/// Fault rates swept, fault-free first (the normalisation baseline).
pub const RATES: [f64; 5] = [0.0, 0.01, 0.05, 0.1, 0.25];

/// Minimum allowed hm_ipc relative to the fault-free run at any swept
/// rate. Transient rejections are retried and corrupt samples discarded,
/// so even the heaviest rate must keep a large fraction of the fault-free
/// throughput — a cliff below this is a degradation bug, not noise.
pub const SMOOTHNESS_FLOOR: f64 = 0.5;

/// One swept rate's outcome.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// Injected per-operation fault rate.
    pub rate: f64,
    /// Harmonic-mean IPC over the measurement window.
    pub hm_ipc: f64,
    /// The run's controller telemetry (journal cell payload); its
    /// [`Tally`] holds the fault and degraded-epoch counts.
    pub epochs: Vec<EpochRecord>,
}

/// The payload also carries the run's fault and degraded-epoch counts;
/// they follow from its epochs, so decoding recounts them.
impl CellCodec for FaultCell {
    fn encode(&self) -> String {
        let t = Tally::of(&self.epochs);
        let mut s = format!(
            "{{\"rate\":{},\"hm_ipc\":{},\"faults\":{},\"degraded_epochs\":{},\"epochs\":",
            Lossless(self.rate),
            Lossless(self.hm_ipc),
            t.faults,
            t.degraded
        );
        checkpoint::push_epochs(&mut s, &self.epochs);
        s.push('}');
        s
    }

    fn decode(j: &Json) -> Result<FaultCell, String> {
        Ok(FaultCell {
            rate: j.field("rate", Json::as_f64)?,
            hm_ipc: j.field("hm_ipc", Json::as_f64)?,
            epochs: checkpoint::decode_epochs(j)?,
        })
    }
}

/// One leg of the sweep: the mechanism under test and the fault schedule
/// it runs against. Its label prefix keys the cells and journal runs, so
/// the two legs never collide in a shared checkpoint.
#[derive(Debug)]
pub struct Leg {
    /// The leg's perf-log target name.
    pub name: &'static str,
    prefix: &'static str,
    mechanism: Mechanism,
    faults: fn(u64, f64) -> FaultConfig,
    title: &'static str,
    /// What a failed smoothness gate means on this leg.
    pub cliff: &'static str,
}

/// CMM-a under uniform MSR, CLOS and PMU faults.
pub const UNIFORM: Leg = Leg {
    name: "faults",
    prefix: "faults",
    mechanism: Mechanism::CmmA,
    faults: FaultConfig::uniform,
    title: "Fault-injection sweep — CMM-a, hm_ipc vs injected fault rate",
    cliff: "faults: hm_ipc cliffed below the smoothness floor",
};

/// CBP with faults confined to the MBA throttle register
/// ([`FaultConfig::mba_only`]). At rate 1.0 the register is gone and every
/// epoch degrades CBP → CMM-a; the smoothness gate then asserts that
/// losing the third resource costs bounded throughput.
pub const MBA: Leg = Leg {
    name: "faults_mba",
    prefix: "faults mba",
    mechanism: Mechanism::Cbp,
    faults: FaultConfig::mba_only,
    title: "MBA-fault sweep — CBP, hm_ipc vs MBA-register fault rate",
    cliff: "faults: MBA leg cliffed below the smoothness floor",
};

impl Leg {
    /// A swept rate's cell label — also its journal run label and
    /// checkpoint key (`"faults rate=0.05: CMM-a"`).
    pub fn cell_label(&self, rate: f64) -> String {
        format!("{} rate={rate:.2}: {}", self.prefix, self.mechanism.label())
    }
}

/// Runs one leg panic-isolated and (optionally) checkpointed.
/// `fault_seed` seeds the fault schedule (workload construction stays on
/// `seed`, so the same PrefAgg mix runs at every rate, and every rate
/// shares one pooled warm-up); a failing rate surfaces in the `Err` list
/// only after every sibling rate completed.
#[allow(clippy::too_many_arguments)]
pub fn sweep_resumable(
    leg: &Leg,
    quick: bool,
    seed: u64,
    fault_seed: u64,
    jobs: usize,
    attempts: u32,
    log: &Progress,
    ckpt: Option<&Checkpoint>,
) -> Result<Vec<FaultCell>, Vec<CellFailure>> {
    let mix = build_mixes(seed, 1).remove(1); // a PrefAgg mix
    let cfg = if quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
    let pool = WarmupPool::new();
    run_cells(
        &RATES,
        jobs,
        attempts,
        ckpt,
        |_, &rate| leg.cell_label(rate),
        |_, &rate| {
            log.cell(&format!("{}: rate {rate:.2}", leg.prefix), || {
                let faults = Some((leg.faults)(fault_seed, rate));
                let opts = MixOptions { faults, ..MixOptions::default() };
                let r = run_mix_cell(Some(&pool), &mix, leg.mechanism, &cfg, opts);
                FaultCell { rate, hm_ipc: cmm_metrics::hm_ipc(&r.ipcs), epochs: r.epochs }
            })
        },
    )
    .into_results()
}

/// The leg's table: per rate, hm_ipc, the ratio to the fault-free run,
/// faults, degraded epochs and the smoothness verdict.
pub fn table(leg: &Leg, cells: &[FaultCell]) -> String {
    report::table(
        &format!("{} (floor {SMOOTHNESS_FLOOR:.2}× fault-free)", leg.title),
        &["rate", "hm_ipc", "rel", "faults", "degraded epochs", "verdict"],
        &rows(cells),
    )
}

/// Table rows (rate, hm_ipc, relative-to-fault-free, faults, degraded
/// epochs) and the smoothness verdict per rate.
pub fn rows(cells: &[FaultCell]) -> Vec<Vec<String>> {
    let base = cells.first().map(|c| c.hm_ipc).unwrap_or(0.0).max(1e-12);
    cells
        .iter()
        .map(|c| {
            let rel = c.hm_ipc / base;
            let t = Tally::of(&c.epochs);
            vec![
                format!("{:.2}", c.rate),
                format!("{:.3}", c.hm_ipc),
                format!("{rel:.3}"),
                t.faults.to_string(),
                t.degraded.to_string(),
                if rel >= SMOOTHNESS_FLOOR { "ok".into() } else { "CLIFF".into() },
            ]
        })
        .collect()
}

/// True when every swept rate kept at least [`SMOOTHNESS_FLOOR`] of the
/// fault-free hm_ipc.
pub fn passes(cells: &[FaultCell]) -> bool {
    let base = cells.first().map(|c| c.hm_ipc).unwrap_or(0.0);
    base > 0.0 && cells.iter().all(|c| c.hm_ipc / base >= SMOOTHNESS_FLOOR)
}

/// Journal cells for one leg, one per rate, in sweep order.
pub fn journal_cells(leg: &Leg, cells: Vec<FaultCell>) -> Vec<(String, Vec<EpochRecord>)> {
    cells.into_iter().map(|c| (leg.cell_label(c.rate), c.epochs)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::sample_epoch;

    fn cell(rate: f64, hm: f64) -> FaultCell {
        FaultCell { rate, hm_ipc: hm, epochs: vec![] }
    }

    #[test]
    fn smooth_degradation_passes_and_cliff_fails() {
        let smooth = vec![cell(0.0, 1.0), cell(0.1, 0.8), cell(0.25, 0.6)];
        assert!(passes(&smooth));
        let cliff = vec![cell(0.0, 1.0), cell(0.1, 0.2)];
        assert!(!passes(&cliff));
        assert!(!passes(&[cell(0.0, 0.0)]), "dead baseline must not pass");
    }

    #[test]
    fn rows_are_normalised_to_the_fault_free_run() {
        let rows = rows(&[cell(0.0, 2.0), cell(0.1, 1.0)]);
        assert_eq!(rows[0][2], "1.000");
        assert_eq!(rows[1][2], "0.500");
        assert_eq!(rows[1][5], "ok");
        let bad = super::rows(&[cell(0.0, 2.0), cell(0.25, 0.5)]);
        assert_eq!(bad[1][5], "CLIFF");
    }

    #[test]
    fn cell_codec_round_trips_losslessly() {
        let mut quiet = sample_epoch();
        quiet.faults.clear();
        quiet.degraded = None;
        let c = FaultCell {
            rate: 0.05,
            hm_ipc: 1.0872273441234567,
            epochs: vec![sample_epoch(), quiet, sample_epoch()],
        };
        let payload = c.encode();
        assert!(payload.contains("\"faults\":2,\"degraded_epochs\":2,\"epochs\":["), "{payload}");
        let j = crate::json::parse(&payload).expect("valid payload");
        let back = FaultCell::decode(&j).unwrap();
        assert_eq!(back.rate, c.rate);
        assert_eq!(back.hm_ipc, c.hm_ipc, "hm_ipc must be bit-identical");
        let t = Tally::of(&back.epochs);
        assert_eq!((t.faults, t.degraded), (2, 2));
        assert_eq!(back.encode(), payload, "the sidecar bytes survive a round trip");
    }

    #[test]
    fn journal_labels_are_stable() {
        let cells = vec![cell(0.0, 1.0), cell(0.05, 0.9)];
        let labels: Vec<String> =
            journal_cells(&UNIFORM, cells).into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["faults rate=0.00: CMM-a", "faults rate=0.05: CMM-a"]);
        let cells = vec![cell(0.0, 1.0), cell(0.25, 0.9)];
        let labels: Vec<String> = journal_cells(&MBA, cells).into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["faults mba rate=0.00: CBP", "faults mba rate=0.25: CBP"]);
    }

    #[test]
    fn mba_leg_degrades_cbp_instead_of_cliffing() {
        let log = Progress::new(false);
        let cells = sweep_resumable(&MBA, true, 42, 7, 1, 1, &log, None).unwrap();
        assert_eq!(cells.len(), RATES.len());
        assert!(passes(&cells), "MBA faults must degrade smoothly, not cliff");
        // With the register fully gone, every CBP epoch must take the
        // CBP -> CMM-a rung of the degradation chain — losing the third
        // resource is bounded, not a wedge or collapse.
        let r = cmm_core::experiment::run_mix_with_faults(
            &build_mixes(42, 1).remove(1),
            Mechanism::Cbp,
            &ExperimentConfig::quick(),
            &FaultConfig::mba_only(7, 1.0),
        );
        assert!(!r.epochs.is_empty());
        assert!(
            r.epochs.iter().all(|e| e.degraded == Some("CMM-a")),
            "a dead MBA register must degrade every CBP epoch to CMM-a"
        );
    }
}
