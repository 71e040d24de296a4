//! `repro governor` — safety-governor resilience sweep.
//!
//! Runs one prefetch-aggressive mix under CBP twice per fault rate — once
//! bare, once with the [`cmm_core::governor`] attached to the driver —
//! while a [`cmm_core::fault::FaultySubstrate`] injects MSR rejections,
//! CLOS exhaustion and PMU corruption at increasing rates. The gate is
//! **dominance**: at every nonzero rate the governed run must keep at
//! least the bare run's harmonic-mean IPC (rollback, quarantine and the
//! circuit breakers are supposed to *help* under faults), and at rate
//! zero the governed run must be byte-identical to the bare one (the
//! governor must be invisible when nothing goes wrong).
//!
//! The sweep is deterministic — the fault schedule and every governor
//! draw come from seeded splitmix64 streams — so its journal cells are
//! byte-identical across `--jobs`, and CI runs it twice to prove that.

use crate::checkpoint::{self, CellCodec, Checkpoint};
use crate::json::Json;
use crate::report;
use crate::runner::{run_cells, CellFailure, Progress};
use cmm_core::experiment::{run_mix_cell, ExperimentConfig, MixOptions, WarmupPool};
use cmm_core::fault::FaultConfig;
use cmm_core::governor::GovernorConfig;
use cmm_core::json::Lossless;
use cmm_core::policy::Mechanism;
use cmm_core::telemetry::EpochRecord;
use cmm_workloads::build_mixes;

/// Fault rates swept, fault-free first (the invisibility check).
pub const RATES: [f64; 5] = [0.0, 0.01, 0.05, 0.1, 0.25];

/// Rates at or above this run the *hard-fault* regime: on top of the
/// uniform transient schedule, CLOS exhaustion (`clos_limit = 1`) kills
/// CAT outright. Transient faults are largely absorbed by the retry and
/// sample-zeroing layers below the governor; a dead register class is the
/// failure mode the circuit breaker exists for — the bare controller
/// re-profiles and re-fails every epoch, the governed one pins the
/// degradation leg and stops perturbing the machine.
pub const HARD_RATE: f64 = 0.1;

/// The fault schedule for one swept rate (shared by both legs of a pair).
fn fault_config(fault_seed: u64, rate: f64) -> FaultConfig {
    let mut f = FaultConfig::uniform(fault_seed, rate);
    if rate >= HARD_RATE {
        f.clos_limit = Some(1);
    }
    f
}

/// One swept (rate, governed?) cell's outcome.
#[derive(Debug, Clone)]
pub struct GovCell {
    /// Injected per-operation fault rate.
    pub rate: f64,
    /// Whether the driver carried the governor.
    pub governed: bool,
    /// Harmonic-mean IPC over the measurement window.
    pub hm_ipc: f64,
    /// Total substrate faults the controller observed and journaled.
    pub faults: u64,
    /// Profiling epochs that retreated to a fallback mechanism.
    pub degraded_epochs: u64,
    /// Governor rollbacks (kept-last-good epochs).
    pub rollbacks: u64,
    /// Governor core quarantines.
    pub quarantines: u64,
    /// Governor circuit-breaker trips.
    pub breaker_trips: u64,
    /// The run's controller telemetry (journal cell payload).
    pub epochs: Vec<EpochRecord>,
}

/// The sweep's cell label — also its journal run label and checkpoint key.
pub fn cell_label(rate: f64, governed: bool) -> String {
    format!("governor rate={rate:.2}: {}", if governed { "CBP+gov" } else { "CBP" })
}

fn count_events(epochs: &[EpochRecord], action: &str) -> u64 {
    epochs.iter().flat_map(|e| &e.governor).filter(|ev| ev.action == action).count() as u64
}

impl CellCodec for GovCell {
    fn encode(&self) -> String {
        let mut s = format!(
            "{{\"rate\":{},\"governed\":{},\"hm_ipc\":{},\"faults\":{},\
             \"degraded_epochs\":{},\"rollbacks\":{},\"quarantines\":{},\
             \"breaker_trips\":{},\"epochs\":",
            Lossless(self.rate),
            self.governed,
            Lossless(self.hm_ipc),
            self.faults,
            self.degraded_epochs,
            self.rollbacks,
            self.quarantines,
            self.breaker_trips
        );
        checkpoint::push_epochs(&mut s, &self.epochs);
        s.push('}');
        s
    }

    fn decode(j: &Json) -> Result<GovCell, String> {
        Ok(GovCell {
            rate: j.field("rate", Json::as_f64)?,
            governed: j.field("governed", Json::as_bool)?,
            hm_ipc: j.field("hm_ipc", Json::as_f64)?,
            faults: j.field("faults", Json::as_u64)?,
            degraded_epochs: j.field("degraded_epochs", Json::as_u64)?,
            rollbacks: j.field("rollbacks", Json::as_u64)?,
            quarantines: j.field("quarantines", Json::as_u64)?,
            breaker_trips: j.field("breaker_trips", Json::as_u64)?,
            epochs: checkpoint::decode_epochs(j)?,
        })
    }
}

/// Runs the paired sweep panic-isolated and (optionally) checkpointed:
/// for each rate a bare-CBP cell and a governed-CBP cell, adjacent in
/// output order. `fault_seed` seeds both the fault schedule and the
/// governor's jitter stream; workload construction stays on `seed`, so
/// every cell shares one pooled warm-up.
pub fn sweep_resumable(
    quick: bool,
    seed: u64,
    fault_seed: u64,
    jobs: usize,
    attempts: u32,
    log: &Progress,
    ckpt: Option<&Checkpoint>,
) -> Result<Vec<GovCell>, Vec<CellFailure>> {
    let mix = build_mixes(seed, 1).remove(1); // a PrefAgg mix
    let cfg = if quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
    let items: Vec<(f64, bool)> = RATES.iter().flat_map(|&r| [(r, false), (r, true)]).collect();
    let pool = WarmupPool::new();
    run_cells(
        &items,
        jobs,
        attempts,
        ckpt,
        |_, &(rate, governed)| cell_label(rate, governed),
        |_, &(rate, governed)| {
            log.cell(&cell_label(rate, governed), || {
                let opts = MixOptions {
                    faults: Some(fault_config(fault_seed, rate)),
                    governor: governed.then(|| GovernorConfig::new(fault_seed)),
                    learner: None,
                };
                let r = run_mix_cell(Some(&pool), &mix, Mechanism::Cbp, &cfg, opts);
                GovCell {
                    rate,
                    governed,
                    hm_ipc: cmm_metrics::hm_ipc(&r.ipcs),
                    faults: r.epochs.iter().map(|e| e.faults.len() as u64).sum(),
                    degraded_epochs: r.epochs.iter().filter(|e| e.degraded.is_some()).count()
                        as u64,
                    rollbacks: count_events(&r.epochs, "rollback"),
                    quarantines: count_events(&r.epochs, "quarantine"),
                    breaker_trips: count_events(&r.epochs, "breaker_open"),
                    epochs: r.epochs,
                }
            })
        },
    )
    .into_results()
}

/// [`sweep_resumable`] without checkpointing, panicking on cell failure —
/// the convenience entry point for tests.
pub fn sweep(quick: bool, seed: u64, fault_seed: u64, jobs: usize, log: &Progress) -> Vec<GovCell> {
    sweep_resumable(quick, seed, fault_seed, jobs, 1, log, None).unwrap_or_else(|failures| {
        panic!("{} governor-sweep cell(s) failed", failures.len());
    })
}

/// The sweep's (bare, governed) pairs in rate order. Panics on a
/// malformed cell list (the sweep always emits adjacent pairs).
pub fn pairs(cells: &[GovCell]) -> Vec<(&GovCell, &GovCell)> {
    cells
        .chunks(2)
        .map(|pair| {
            assert!(
                pair.len() == 2
                    && pair[0].rate == pair[1].rate
                    && !pair[0].governed
                    && pair[1].governed,
                "governor sweep cells must come in (bare, governed) pairs"
            );
            (&pair[0], &pair[1])
        })
        .collect()
}

/// Table rows: per rate, bare vs governed hm_ipc, the governed delta, and
/// the governor's intervention counts, with the dominance verdict.
pub fn rows(cells: &[GovCell]) -> Vec<Vec<String>> {
    pairs(cells)
        .into_iter()
        .map(|(bare, gov)| {
            let delta = gov.hm_ipc - bare.hm_ipc;
            vec![
                format!("{:.2}", bare.rate),
                format!("{:.3}", bare.hm_ipc),
                format!("{:.3}", gov.hm_ipc),
                format!("{delta:+.3}"),
                gov.faults.to_string(),
                gov.rollbacks.to_string(),
                gov.quarantines.to_string(),
                gov.breaker_trips.to_string(),
                if bare.rate == 0.0 || gov.hm_ipc >= bare.hm_ipc {
                    "ok".into()
                } else {
                    "WORSE".into()
                },
            ]
        })
        .collect()
}

/// The sweep's table: [`rows`] under the dominance gate's title.
pub fn table(cells: &[GovCell]) -> String {
    report::table(
        "Safety-governor sweep — CBP bare vs governed, hm_ipc vs fault rate (gate: governed \
         >= bare at every nonzero rate)",
        &[
            "rate",
            "hm bare",
            "hm gov",
            "delta",
            "faults",
            "rollbacks",
            "quarantines",
            "breaker trips",
            "verdict",
        ],
        &rows(cells),
    )
}

/// What a failed [`passes`] gate means.
pub const GATE_FAILURE: &str = "governor: governed CBP lost to bare CBP at a nonzero fault rate";

/// True when the governed run dominates at every nonzero rate: losing to
/// the bare run under faults means a defense is misfiring.
pub fn passes(cells: &[GovCell]) -> bool {
    !cells.is_empty()
        && pairs(cells).into_iter().all(|(bare, gov)| bare.rate == 0.0 || gov.hm_ipc >= bare.hm_ipc)
}

/// Journal cells for the sweep, one per (rate, leg), in sweep order.
pub fn journal_cells(cells: Vec<GovCell>) -> Vec<(String, Vec<EpochRecord>)> {
    cells.into_iter().map(|c| (cell_label(c.rate, c.governed), c.epochs)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(rate: f64, governed: bool, hm: f64) -> GovCell {
        GovCell {
            rate,
            governed,
            hm_ipc: hm,
            faults: 0,
            degraded_epochs: 0,
            rollbacks: 0,
            quarantines: 0,
            breaker_trips: 0,
            epochs: vec![],
        }
    }

    #[test]
    fn dominance_gate_passes_and_fails_correctly() {
        let good = vec![
            cell(0.0, false, 1.0),
            cell(0.0, true, 1.0),
            cell(0.1, false, 0.8),
            cell(0.1, true, 0.85),
        ];
        assert!(passes(&good));
        let bad = vec![
            cell(0.0, false, 1.0),
            cell(0.0, true, 1.0),
            cell(0.1, false, 0.8),
            cell(0.1, true, 0.7),
        ];
        assert!(!passes(&bad));
        assert!(!passes(&[]), "an empty sweep must not pass");
        // A zero-rate governed deficit would be a determinism bug caught
        // elsewhere; the dominance gate only judges nonzero rates.
        let zero_only = vec![cell(0.0, false, 1.0), cell(0.0, true, 0.9)];
        assert!(passes(&zero_only));
    }

    #[test]
    fn rows_report_the_governed_delta_and_verdict() {
        let cells = vec![
            cell(0.0, false, 1.0),
            cell(0.0, true, 1.0),
            cell(0.25, false, 0.6),
            cell(0.25, true, 0.5),
        ];
        let rows = rows(&cells);
        assert_eq!(rows[0][3], "+0.000");
        assert_eq!(rows[0][8], "ok");
        assert_eq!(rows[1][3], "-0.100");
        assert_eq!(rows[1][8], "WORSE");
    }

    #[test]
    fn journal_labels_are_stable() {
        let cells = vec![cell(0.0, false, 1.0), cell(0.0, true, 1.0)];
        let labels: Vec<String> = journal_cells(cells).into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["governor rate=0.00: CBP", "governor rate=0.00: CBP+gov"]);
    }

    #[test]
    fn cell_codec_round_trips_losslessly() {
        let c = GovCell {
            rate: 0.05,
            governed: true,
            hm_ipc: 1.0872273441234567,
            faults: 17,
            degraded_epochs: 3,
            rollbacks: 2,
            quarantines: 1,
            breaker_trips: 4,
            epochs: vec![],
        };
        let j = crate::json::parse(&c.encode()).expect("valid payload");
        let back = GovCell::decode(&j).unwrap();
        assert_eq!(back.rate, c.rate);
        assert!(back.governed);
        assert_eq!(back.hm_ipc, c.hm_ipc, "hm_ipc must be bit-identical");
        assert_eq!(
            (
                back.faults,
                back.degraded_epochs,
                back.rollbacks,
                back.quarantines,
                back.breaker_trips
            ),
            (17, 3, 2, 1, 4)
        );
        assert!(back.epochs.is_empty());
    }

    #[test]
    fn zero_rate_legs_are_byte_identical_and_jobs_invariant() {
        let log = Progress::new(false);
        let cells = sweep(true, 42, 7, 1, &log);
        assert_eq!(cells.len(), 2 * RATES.len());
        // Invisibility: at rate 0 the governed journal cell renders
        // byte-identically to the bare one.
        let render = |c: &GovCell| {
            c.epochs.iter().map(|e| e.to_json_line("x")).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(render(&cells[0]), render(&cells[1]), "governor visible at zero fault rate");
        // Scheduling independence: a parallel sweep is byte-identical.
        let parallel = sweep(true, 42, 7, 4, &log);
        for (a, b) in cells.iter().zip(&parallel) {
            assert_eq!(render(a), render(b), "sweep differs across --jobs");
        }
        // Under faults the governor must actually act somewhere.
        assert!(
            cells.iter().any(|c| c.rollbacks + c.quarantines + c.breaker_trips > 0),
            "no governor interventions across the whole sweep"
        );
    }
}
