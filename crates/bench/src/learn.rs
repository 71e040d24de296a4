//! `repro learn` — learned-controller training and evaluation.
//!
//! Two halves, mirroring the `cmm-learn` crate's two backends:
//!
//! * **Training** ([`train_model`]): builds the `ML-Sel` phase
//!   classifier's corpus from run-alone phases of the roster — each
//!   workload runs solo with every candidate MSR 0x1A4 image and the
//!   image with the best IPC labels the phase's feature vector (measured
//!   prefetch-on, exactly what the controller's detection interval sees
//!   at inference time). Training is batch gradient descent from zero
//!   weights: byte-reproducible, so the committed
//!   `benchmarks/fixtures/mlsel.model` can be regenerated bit-for-bit by
//!   `repro learn train`.
//! * **Evaluation** ([`evaluate_resumable`]): every standard mix under
//!   {Baseline, CMM-a, CBP, ML-Sel, RL-CBP}, journaled under
//!   `cmm-journal/6` with per-epoch feature vectors and action labels.
//!   The gate ([`passes`]): ML-Sel keeps at least
//!   [`MLSEL_FLOOR_RATIO`]× CMM-a's harmonic-mean IPC on *every* mix,
//!   and RL-CBP's tail (converged) execution epochs reach CMM-a's on
//!   every mix — an online learner that fails to rediscover the
//!   incumbent policy is a regression, not an experiment.
//!
//! Everything is seeded and deterministic: cells are byte-identical
//! across `--jobs` and `--resume` splices (the checkpoint payloads reuse
//! the lossless [`crate::checkpoint`] MixResult codec).

use crate::checkpoint::Checkpoint;
use crate::journal::Tally;
use crate::report;
use crate::runner::{run_cells, CellFailure, Progress};
use cmm_core::experiment::{
    alone_system, run_mix_cell, ExperimentConfig, MixOptions, MixResult, WarmupPool,
};
use cmm_core::learned::{self, Learner, RlPolicy};
use cmm_core::policy::Mechanism;
use cmm_core::telemetry::EpochRecord;
use cmm_learn::features::N_FEATURES;
use cmm_learn::model::Model;
use cmm_sim::msr;
use cmm_workloads::{build_mixes, spec};

/// The evaluation's mechanism roster: the uncontrolled baseline, the
/// paper's best coordinated mechanism, the three-resource search, and the
/// two learned controllers under test.
pub const MECHS: [Mechanism; 5] =
    [Mechanism::Baseline, Mechanism::CmmA, Mechanism::Cbp, Mechanism::MlSel, Mechanism::RlCbp];

/// ML-Sel must keep at least this fraction of CMM-a's hm_ipc on every mix.
pub const MLSEL_FLOOR_RATIO: f64 = 0.95;

/// Minimum per-core classifier confidence before ML-Sel trusts a
/// prediction (3 classes ⇒ an uninformative posterior is ~0.33; below
/// this the epoch degrades to the CMM-a search).
pub const CONFIDENCE_FLOOR: f64 = 0.45;

/// RL-CBP's initial exploration probability for the evaluation (decays
/// multiplicatively per selection inside the bandit).
pub const RL_EPSILON: f64 = 0.1;

/// Phases sampled per roster workload when building the training corpus.
pub const TRAIN_WINDOWS: usize = 2;

/// Gradient-descent schedule for [`train_model`] (full-batch steps,
/// learning rate, L2 decay) — fixed so the fixture is reproducible.
const TRAIN_ITERS: usize = 400;
const TRAIN_LR: f64 = 0.5;
const TRAIN_DECAY: f64 = 1e-4;

/// One fitted classifier plus its training-set report.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// The fitted `cmm-model/1` classifier.
    pub model: Model,
    /// Training samples (one per roster workload × window).
    pub samples: usize,
    /// Training-set accuracy of the fitted model.
    pub accuracy: f64,
    /// Per-sample rows: workload/window, IPC under each image, the label.
    pub rows: Vec<Vec<String>>,
}

/// Builds the training corpus and fits the phase classifier. Fully
/// deterministic: each workload runs on its
/// [`cmm_core::experiment::alone_system`], and gradient descent has no
/// random state.
pub fn train_model(quick: bool) -> TrainReport {
    let cfg = if quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
    let mut samples: Vec<([f64; N_FEATURES], usize)> = Vec::new();
    let mut rows = Vec::new();
    for b in spec::roster() {
        let mut sys =
            alone_system(&cfg.sys, |llc, base, seed| Box::new(b.instantiate(llc, base, seed)));
        sys.run(cfg.warmup_cycles.max(1));
        for window in 0..TRAIN_WINDOWS {
            // The feature vector comes from the prefetch-on segment —
            // the controller's own detection interval also runs with
            // every prefetcher enabled, so train and inference see the
            // same distribution.
            let mut feats = [0.0; N_FEATURES];
            let mut ipcs = [0.0; learned::PF_CHOICES.len()];
            for (k, &image) in learned::PF_CHOICES.iter().enumerate() {
                sys.write_msr(0, msr::MSR_MISC_FEATURE_CONTROL, image)
                    .expect("run-alone machine accepts 0x1A4 writes");
                let before = sys.pmu(0);
                sys.run(cfg.alone_cycles);
                let delta = sys.pmu(0) - before;
                if k == 0 {
                    feats = learned::core_features(&delta);
                }
                ipcs[k] = delta.ipc();
            }
            sys.write_msr(0, msr::MSR_MISC_FEATURE_CONTROL, 0x0)
                .expect("run-alone machine accepts 0x1A4 writes");
            let best = ipcs
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.total_cmp(b))
                .map(|(k, _)| k)
                .unwrap_or(0);
            rows.push(vec![
                format!("{}/w{window}", b.name),
                format!("{:.3}", ipcs[0]),
                format!("{:.3}", ipcs[1]),
                format!("{:.3}", ipcs[2]),
                format!("{:#x}", learned::PF_CHOICES[best]),
            ]);
            samples.push((feats, best));
        }
    }
    let model =
        Model::train(&samples, learned::PF_CHOICES.to_vec(), TRAIN_ITERS, TRAIN_LR, TRAIN_DECAY);
    let accuracy = model.accuracy(&samples);
    TrainReport { model, samples: samples.len(), accuracy, rows }
}

/// Column headers for the [`TrainReport::rows`] table.
pub const TRAIN_HEADERS: [&str; 5] = ["phase", "ipc@0x0", "ipc@0x3", "ipc@0xf", "label"];

/// The evaluation's cell label — also its journal run label and
/// checkpoint key.
pub fn cell_label(mix: &str, mechanism: Mechanism) -> String {
    format!("{mix}: {}", mechanism.label())
}

/// Runs the (mix × mechanism) evaluation grid panic-isolated and
/// (optionally) checkpointed, with `cfg`'s durations (the determinism
/// tests use deliberately tiny windows). `seed` builds the standard mixes
/// and seeds the RL policy's entropy stream; the grid order (per mix,
/// [`MECHS`] order) is independent of `jobs`. Every cell of a mix shares
/// one pooled warm-up.
pub fn evaluate_resumable(
    cfg: &ExperimentConfig,
    seed: u64,
    jobs: usize,
    attempts: u32,
    log: &Progress,
    ckpt: Option<&Checkpoint>,
    model: &Model,
) -> Result<Vec<MixResult>, Vec<CellFailure>> {
    let mixes = build_mixes(seed, 1);
    let items: Vec<(cmm_workloads::Mix, Mechanism)> =
        mixes.iter().flat_map(|m| MECHS.iter().map(move |&mech| (m.clone(), mech))).collect();
    let pool = WarmupPool::new();
    run_cells(
        &items,
        jobs,
        attempts,
        ckpt,
        |_, (mix, mech)| cell_label(&mix.name, *mech),
        |_, (mix, mech)| {
            log.cell(&cell_label(&mix.name, *mech), || {
                let learner = match mech {
                    Mechanism::MlSel => {
                        Some(Learner::Ml { model: model.clone(), floor: CONFIDENCE_FLOOR })
                    }
                    Mechanism::RlCbp => Some(Learner::Rl(RlPolicy::new(seed, RL_EPSILON))),
                    _ => None,
                };
                let opts = MixOptions { learner, ..MixOptions::default() };
                run_mix_cell(Some(&pool), mix, *mech, cfg, opts)
            })
        },
    )
    .into_results()
}

/// Mean `exec_hm_ipc` over the run's last (up to) three reporting epochs
/// — the converged tail an online learner is judged by. `None` before
/// any execution epoch completes.
pub fn tail_hm(epochs: &[EpochRecord]) -> Option<f64> {
    let vals: Vec<f64> = epochs.iter().filter_map(|e| e.exec_hm_ipc).collect();
    if vals.is_empty() {
        return None;
    }
    let tail = &vals[vals.len().saturating_sub(3)..];
    Some(tail.iter().sum::<f64>() / tail.len() as f64)
}

/// The cell for (mix, mechanism), if present.
fn find<'a>(cells: &'a [MixResult], mix: &str, mech: Mechanism) -> Option<&'a MixResult> {
    cells.iter().find(|r| r.mix_name == mix && r.mechanism == mech)
}

/// The distinct mix names in first-appearance (grid) order.
pub fn mix_names(cells: &[MixResult]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in cells {
        if !names.contains(&r.mix_name) {
            names.push(r.mix_name.clone());
        }
    }
    names
}

/// Table rows: one per (mix, mechanism) — hm_ipc, ratio to the mix's
/// CMM-a, Jain fairness over baseline-normalized per-core IPCs, and the
/// [`Tally`]'s decision churn and degraded-epoch count — the same counts
/// `repro journal-summary` reports.
pub fn rows(cells: &[MixResult]) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for mix in mix_names(cells) {
        let cmm = find(cells, &mix, Mechanism::CmmA).map(|r| cmm_metrics::hm_ipc(&r.ipcs));
        let base = find(cells, &mix, Mechanism::Baseline).map(|r| r.ipcs.clone());
        for mech in MECHS {
            let Some(r) = find(cells, &mix, mech) else { continue };
            let hm = cmm_metrics::hm_ipc(&r.ipcs);
            let vs_cmm = match cmm {
                Some(c) if c > 0.0 => format!("{:.3}", hm / c),
                _ => "-".into(),
            };
            let fairness = match &base {
                Some(b) => format!(
                    "{:.3}",
                    cmm_metrics::jain_index(&cmm_metrics::normalized_ipcs(&r.ipcs, b))
                ),
                None => "-".into(),
            };
            let t = Tally::of(&r.epochs);
            out.push(vec![
                mix.clone(),
                mech.label().to_string(),
                format!("{hm:.3}"),
                vs_cmm,
                fairness,
                t.churn.to_string(),
                t.degraded.to_string(),
            ]);
        }
    }
    out
}

/// Column headers for the [`rows`] table.
pub const EVAL_HEADERS: [&str; 7] =
    ["mix", "mechanism", "hm_ipc", "vs CMM-a", "fairness", "churn", "degraded"];

/// Journal-diff rows comparing ML-Sel's decisions to CMM-a's: per mix,
/// how many epochs applied the same prefetch image CMM-a's search chose,
/// and how many of ML-Sel's epochs were zero-trial classifier decisions
/// versus fallback searches.
pub fn agreement_rows(cells: &[MixResult]) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for mix in mix_names(cells) {
        let (Some(ml), Some(cmm)) =
            (find(cells, &mix, Mechanism::MlSel), find(cells, &mix, Mechanism::CmmA))
        else {
            continue;
        };
        let n = ml.epochs.len().min(cmm.epochs.len());
        let agree = (0..n)
            .filter(|&i| {
                let img = |e: &EpochRecord| e.applied.iter().map(|c| c.msr_1a4).collect::<Vec<_>>();
                img(&ml.epochs[i]) == img(&cmm.epochs[i])
            })
            .count();
        let zero_trial = ml.epochs.iter().filter(|e| e.trials.is_empty()).count();
        out.push(vec![
            mix.clone(),
            format!("{agree}/{n}"),
            format!("{zero_trial}/{}", ml.epochs.len()),
            format!("{}/{}", ml.epochs.len() - zero_trial, ml.epochs.len()),
        ]);
    }
    out
}

/// Column headers for the [`agreement_rows`] table.
pub const AGREEMENT_HEADERS: [&str; 4] =
    ["mix", "pf-image agreement", "zero-trial epochs", "fallback epochs"];

/// One mix's gate verdict.
#[derive(Debug, Clone)]
pub struct MixVerdict {
    /// The mix judged.
    pub mix: String,
    /// `hm_ipc(ML-Sel) / hm_ipc(CMM-a)` — must reach
    /// [`MLSEL_FLOOR_RATIO`].
    pub mlsel_ratio: f64,
    /// `tail_hm(RL-CBP) / tail_hm(CMM-a)` — must reach 1.0 (the online
    /// learner converged to at least the incumbent policy), with the
    /// whole-run `hm_ipc` ratio accepted as an alternative witness.
    pub rl_tail_ratio: f64,
    /// Whole-run `hm_ipc(RL-CBP) / hm_ipc(CMM-a)`.
    pub rl_run_ratio: f64,
}

impl MixVerdict {
    /// Whether both learned controllers clear the mix's gate.
    pub fn ok(&self) -> bool {
        self.mlsel_ratio >= MLSEL_FLOOR_RATIO
            && (self.rl_tail_ratio >= 1.0 || self.rl_run_ratio >= 1.0)
    }
}

/// Per-mix gate verdicts, in grid order.
pub fn verdicts(cells: &[MixResult]) -> Vec<MixVerdict> {
    mix_names(cells)
        .into_iter()
        .filter_map(|mix| {
            let cmm = find(cells, &mix, Mechanism::CmmA)?;
            let ml = find(cells, &mix, Mechanism::MlSel)?;
            let rl = find(cells, &mix, Mechanism::RlCbp)?;
            let cmm_hm = cmm_metrics::hm_ipc(&cmm.ipcs);
            let ratio = |v: f64| if cmm_hm > 0.0 { v / cmm_hm } else { 0.0 };
            let tail_ratio = match (tail_hm(&rl.epochs), tail_hm(&cmm.epochs)) {
                (Some(r), Some(c)) if c > 0.0 => r / c,
                _ => 0.0,
            };
            Some(MixVerdict {
                mix,
                mlsel_ratio: ratio(cmm_metrics::hm_ipc(&ml.ipcs)),
                rl_tail_ratio: tail_ratio,
                rl_run_ratio: ratio(cmm_metrics::hm_ipc(&rl.ipcs)),
            })
        })
        .collect()
}

/// The evaluation gate: every mix's verdict holds (and the grid was not
/// empty).
pub fn passes(cells: &[MixResult]) -> bool {
    let v = verdicts(cells);
    !v.is_empty() && v.iter().all(MixVerdict::ok)
}

/// The evaluation's three tables: per-cell results, ML-Sel's decision
/// agreement with CMM-a, and the per-mix gate verdicts.
pub fn tables(cells: &[MixResult]) -> String {
    let verdict_rows: Vec<Vec<String>> = verdicts(cells)
        .iter()
        .map(|v| {
            vec![
                v.mix.clone(),
                format!("{:.3}", v.mlsel_ratio),
                format!("{:.3}", v.rl_tail_ratio),
                format!("{:.3}", v.rl_run_ratio),
                if v.ok() { "ok" } else { "MISS" }.into(),
            ]
        })
        .collect();
    [
        report::table(
            "Learned controllers — per-mix hm_ipc, fairness and decision churn vs CMM-a/CBP",
            &EVAL_HEADERS,
            &rows(cells),
        ),
        report::table(
            "ML-Sel vs CMM-a decision diff — per-epoch 0x1A4 agreement",
            &AGREEMENT_HEADERS,
            &agreement_rows(cells),
        ),
        report::table(
            &format!(
                "Gate — ML-Sel >= {MLSEL_FLOOR_RATIO:.2}x CMM-a on every mix; RL-CBP converges \
                 to >= CMM-a (tail or whole-run)"
            ),
            &["mix", "mlsel/cmm", "rl tail/cmm", "rl run/cmm", "verdict"],
            &verdict_rows,
        ),
    ]
    .concat()
}

/// What a failed [`passes`] gate means.
pub const GATE_FAILURE: &str =
    "learn: a learned controller missed its gate (ML-Sel floor or RL-CBP convergence)";

/// Journal cells in the harness's canonical grid order.
pub fn journal_cells(cells: Vec<MixResult>) -> Vec<(String, Vec<EpochRecord>)> {
    cells.into_iter().map(|r| (cell_label(&r.mix_name, r.mechanism), r.epochs)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_core::experiment::{run_mix, run_mix_learned};

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick();
        cfg.total_cycles = 500_000;
        cfg.warmup_cycles = 200_000;
        cfg.alone_cycles = 100_000;
        cfg
    }

    fn tiny_train() -> Model {
        // A tiny hand-rolled corpus keeps the unit tests off the full
        // roster sweep: streaming phases (high pf accuracy) keep
        // prefetchers, thrashing phases (wasted prefetch) drop them.
        let mut on = [0.0; N_FEATURES];
        on[0] = 1.5;
        on[5] = 0.9;
        let mut off = [0.0; N_FEATURES];
        off[0] = 0.4;
        off[5] = 0.1;
        Model::train(&[(on, 0), (off, 2)], learned::PF_CHOICES.to_vec(), 200, 0.5, 0.0)
    }

    #[test]
    fn training_is_deterministic_and_fits_its_corpus() {
        let a = tiny_train();
        let b = tiny_train();
        assert_eq!(a.to_text(), b.to_text(), "training must be reproducible");
        assert_eq!(a.labels, learned::PF_CHOICES.to_vec());
        let mut on = [0.0; N_FEATURES];
        on[0] = 1.5;
        on[5] = 0.9;
        assert_eq!(a.predict(&on).class, 0);
    }

    #[test]
    fn evaluation_grid_is_byte_identical_across_job_counts() {
        let model = tiny_train();
        let log = Progress::new(false);
        let cfg = tiny_cfg();
        let serial = evaluate_resumable(&cfg, 42, 1, 1, &log, None, &model).expect("serial grid");
        let parallel =
            evaluate_resumable(&cfg, 42, 4, 1, &log, None, &model).expect("parallel grid");
        assert_eq!(serial.len(), 4 * MECHS.len(), "4 standard mixes × mechanisms");
        let render = |cells: &[MixResult]| {
            journal_cells(cells.to_vec())
                .iter()
                .flat_map(|(run, epochs)| {
                    epochs.iter().map(move |e| e.to_json_line(run)).collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&serial), render(&parallel), "learn grid differs across --jobs");
    }

    #[test]
    fn zero_exploration_rl_is_deterministic_and_no_worse_than_baseline() {
        let cfg = tiny_cfg();
        for mix in build_mixes(42, 1) {
            let base = run_mix(&mix, Mechanism::Baseline, &cfg);
            let cmm = run_mix(&mix, Mechanism::CmmA, &cfg);
            let rl = |seed: u64| {
                run_mix_learned(
                    &mix,
                    Mechanism::RlCbp,
                    &cfg,
                    Some(Learner::Rl(RlPolicy::new(seed, 0.0))),
                )
            };
            let a = rl(1);
            let b = rl(999);
            let lines = |r: &MixResult| {
                r.epochs.iter().map(|e| e.to_json_line(&mix.name)).collect::<Vec<_>>()
            };
            // Epsilon 0 draws no entropy: the seed must not matter.
            assert_eq!(lines(&a), lines(&b), "{}: epsilon=0 run depends on its seed", mix.name);
            assert_eq!(a.ipcs, b.ipcs);
            // The greedy policy is the CMM prior: it must track the real
            // CMM-a run at the same (transient-dominated) window size,
            // and never collapse below the uncontrolled machine — the
            // full-size `repro learn` gate pins RL-CBP >= baseline on
            // every mix where the partition's transient has amortized.
            let rl_hm = cmm_metrics::hm_ipc(&a.ipcs);
            let (base_hm, cmm_hm) =
                (cmm_metrics::hm_ipc(&base.ipcs), cmm_metrics::hm_ipc(&cmm.ipcs));
            assert!(
                rl_hm >= cmm_hm * 0.995,
                "{}: epsilon=0 RL-CBP hm_ipc {rl_hm} lost to its own CMM-a prior {cmm_hm}",
                mix.name
            );
            assert!(
                rl_hm >= base_hm * 0.95,
                "{}: epsilon=0 RL-CBP hm_ipc {rl_hm} collapsed below baseline {base_hm}",
                mix.name
            );
        }
    }

    #[test]
    fn resumed_evaluation_splices_identical_cells() {
        let model = tiny_train();
        let log = Progress::new(false);
        let cfg = tiny_cfg();
        let dir = std::env::temp_dir().join("cmm_learn_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("learn-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();

        let (ck, _) = Checkpoint::open(&path, "learn", "fnv1a:test").unwrap();
        let fresh =
            evaluate_resumable(&cfg, 42, 2, 1, &log, Some(&ck), &model).expect("fresh grid");
        drop(ck);
        let (ck, info) = Checkpoint::open(&path, "learn", "fnv1a:test").unwrap();
        assert_eq!(info.cached, fresh.len(), "every cell checkpointed");
        let resumed = evaluate_resumable(&cfg, 42, 2, 1, &log, Some(&ck), &model).expect("resumed");
        let render = |cells: &[MixResult]| {
            journal_cells(cells.to_vec())
                .iter()
                .flat_map(|(run, epochs)| {
                    epochs.iter().map(move |e| e.to_json_line(run)).collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&fresh), render(&resumed), "resume must splice byte-identical cells");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn churn_counts_applied_state_changes() {
        use cmm_sim::system::CoreControl;
        let mut a = EpochRecord {
            epoch: 1,
            cycle: 0,
            mechanism: "RL-CBP",
            domain: None,
            cores: vec![],
            agg: vec![],
            friendly: vec![],
            unfriendly: vec![],
            trials: vec![],
            winner: None,
            exec_hm_ipc: None,
            exec_ipc_delta: None,
            faults: vec![],
            degraded: None,
            features: vec![],
            action: None,
            governor: vec![],
            applied: vec![CoreControl { clos: 0, way_mask: 0xF, msr_1a4: 0, mba_level: 0 }],
        };
        let b = a.clone();
        let mut c = a.clone();
        c.applied[0].msr_1a4 = 0xF;
        let churn = |epochs: &[EpochRecord]| Tally::of(epochs).churn;
        assert_eq!(churn(&[a.clone(), b.clone()]), 0, "identical state: no churn");
        assert_eq!(churn(&[a.clone(), c.clone(), b.clone()]), 2);
        a.exec_hm_ipc = Some(1.0);
        assert_eq!(churn(&[a]), 0, "a single epoch cannot churn");
    }

    #[test]
    fn tail_hm_averages_the_final_reporting_epochs() {
        let mk = |hm: Option<f64>| {
            let mut e = EpochRecord {
                epoch: 1,
                cycle: 0,
                mechanism: "CMM-a",
                domain: None,
                cores: vec![],
                agg: vec![],
                friendly: vec![],
                unfriendly: vec![],
                trials: vec![],
                winner: None,
                exec_hm_ipc: None,
                exec_ipc_delta: None,
                faults: vec![],
                degraded: None,
                features: vec![],
                action: None,
                governor: vec![],
                applied: vec![],
            };
            e.exec_hm_ipc = hm;
            e
        };
        assert_eq!(tail_hm(&[mk(None)]), None);
        let epochs: Vec<EpochRecord> =
            [None, Some(0.1), Some(1.0), Some(2.0), Some(3.0)].map(mk).into_iter().collect();
        assert_eq!(tail_hm(&epochs), Some(2.0), "mean of the last three values");
    }

    #[test]
    fn gate_judges_mlsel_floor_and_rl_convergence() {
        let ok = MixVerdict {
            mix: "m".into(),
            mlsel_ratio: 0.97,
            rl_tail_ratio: 1.01,
            rl_run_ratio: 0.9,
        };
        assert!(ok.ok());
        let rl_late_bloomer = MixVerdict { rl_tail_ratio: 0.8, rl_run_ratio: 1.0, ..ok.clone() };
        assert!(rl_late_bloomer.ok(), "whole-run parity is an accepted witness");
        let ml_bad = MixVerdict { mlsel_ratio: 0.90, ..ok.clone() };
        assert!(!ml_bad.ok());
        let rl_bad = MixVerdict { rl_tail_ratio: 0.9, rl_run_ratio: 0.95, ..ok };
        assert!(!rl_bad.ok());
        assert!(!passes(&[]), "an empty grid must not pass");
    }
}
