//! The multiprogrammed evaluation: Figs. 7–15.
//!
//! [`evaluate`] runs every workload mix under the baseline and a chosen
//! set of mechanisms once, measuring run-alone IPCs on the side; each
//! `fig*` function then extracts one figure's series from the shared
//! [`Evaluation`], so `repro all` pays for each simulation exactly once.

use std::collections::HashMap;

use cmm_core::experiment::{
    run_alone_ipc, run_mix_pooled, ExperimentConfig, MixResult, WarmupPool,
};
use cmm_core::policy::Mechanism;
use cmm_metrics as met;
use cmm_workloads::{build_mixes, Category, Mix, Slot};

use crate::checkpoint::Checkpoint;
use crate::runner::{run_cells, CellFailure, Progress, DEFAULT_ATTEMPTS};

/// Evaluation-wide settings.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Per-run settings (machine, controller, durations).
    pub exp: ExperimentConfig,
    /// Workloads per category (paper: 10).
    pub mixes_per_category: usize,
    /// Mix-construction seed.
    pub seed: u64,
    /// Worker threads for the (mix × mechanism) matrix; `1` = serial.
    /// Output is bit-identical regardless of the value.
    pub jobs: usize,
    /// Per-cell attempt budget for panic isolation (`1` = no retries).
    /// Like `jobs`, never part of the config digest: retrying cannot
    /// change a deterministic cell's result.
    pub attempts: u32,
    /// When set, these mixes replace the synthetic `build_mixes` grid —
    /// the `--trace-dir` path. The trace-set digest (not the mixes) must
    /// then be folded into the checkpoint config digest by the caller.
    pub trace_mixes: Option<Vec<Mix>>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            exp: ExperimentConfig::default(),
            mixes_per_category: 10,
            seed: 42,
            jobs: 1,
            attempts: DEFAULT_ATTEMPTS,
            trace_mixes: None,
        }
    }
}

impl EvalConfig {
    /// Reduced size/duration for tests and `--quick`.
    pub fn quick() -> Self {
        EvalConfig {
            exp: ExperimentConfig::quick(),
            mixes_per_category: 2,
            ..EvalConfig::default()
        }
    }
}

/// All measurements for one workload mix.
#[derive(Debug, Clone)]
pub struct WorkloadEval {
    /// The mix that ran.
    pub mix: Mix,
    /// Run-alone IPC per core (for HS).
    pub alone: Vec<f64>,
    /// Baseline result.
    pub baseline: MixResult,
    /// Result per managed mechanism.
    pub managed: HashMap<Mechanism, MixResult>,
}

impl WorkloadEval {
    /// Harmonic speedup of a result against the run-alone IPCs.
    pub fn hs(&self, r: &MixResult) -> f64 {
        met::harmonic_speedup(&self.alone, &r.ipcs)
    }

    /// HS of `mech` normalized to the baseline's HS (the paper's Fig. 7/9/
    /// 11/13 y-axis).
    pub fn norm_hs(&self, mech: Mechanism) -> f64 {
        self.hs(&self.managed[&mech]) / self.hs(&self.baseline)
    }

    /// WS of `mech` normalized by the core count (1.0 = baseline parity).
    pub fn norm_ws(&self, mech: Mechanism) -> f64 {
        met::weighted_speedup(&self.managed[&mech].ipcs, &self.baseline.ipcs)
            / self.mix.num_cores() as f64
    }

    /// Lowest per-application normalized IPC (Figs. 8/10/12).
    pub fn worst_case(&self, mech: Mechanism) -> f64 {
        met::worst_case_speedup(&self.managed[&mech].ipcs, &self.baseline.ipcs)
    }

    /// Memory traffic normalized to baseline (Fig. 14).
    pub fn norm_bw(&self, mech: Mechanism) -> f64 {
        self.managed[&mech].mem_bytes as f64 / self.baseline.mem_bytes.max(1) as f64
    }

    /// Summed `STALLS_L2_PENDING` normalized to baseline (Fig. 15).
    pub fn norm_stalls(&self, mech: Mechanism) -> f64 {
        self.managed[&mech].stalls_l2 as f64 / self.baseline.stalls_l2.max(1) as f64
    }
}

/// The full evaluation state shared by all figures.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// One entry per workload, in the paper's plotting order.
    pub workloads: Vec<WorkloadEval>,
    /// Which mechanisms were run.
    pub mechanisms: Vec<Mechanism>,
}

impl Evaluation {
    /// Mean of `f` over the workloads of one category (the grey bars in
    /// the paper's figures).
    pub fn category_mean(&self, cat: Category, f: impl Fn(&WorkloadEval) -> f64) -> f64 {
        let vals: Vec<f64> =
            self.workloads.iter().filter(|w| w.mix.category == cat).map(f).collect();
        met::mean(&vals)
    }
}

/// Runs the evaluation: every mix under the baseline plus `mechanisms`.
/// `progress` (if true) prints one timestamped line per completed cell to
/// stderr.
///
/// The (mix × mechanism) matrix fans out across `cfg.jobs` threads; every
/// cell owns its `System`, and results are reassembled in mix-then-
/// mechanism order, so the returned `Evaluation` — and any table printed
/// from it — is bit-identical to a serial (`jobs = 1`) run.
///
/// Every cell runs panic-isolated under `cfg.attempts`; cells that exhaust
/// the budget surface in the `Err` list after **all** sibling cells have
/// completed (and, with a checkpoint, been persisted), so a partial sweep
/// is never lost. With `ckpt`, completed cells are spliced from the
/// `cmm-ckpt/1` sidecar and fresh results appended to it; the lossless
/// codecs make a resumed `Evaluation` bit-identical to a fresh one.
pub fn evaluate_resumable(
    mechanisms: &[Mechanism],
    cfg: &EvalConfig,
    progress: bool,
    ckpt: Option<&Checkpoint>,
) -> Result<Evaluation, Vec<CellFailure>> {
    let mut mixes = match &cfg.trace_mixes {
        Some(m) => m.clone(),
        None => build_mixes(cfg.seed, cfg.mixes_per_category),
    };
    // Multi-socket machines run the same mixes tiled round-robin across
    // every socket (the alone-IPC stage is untouched: duplicated slots
    // share one alone run). Single-socket configs are left alone so
    // historical runs stay byte-identical.
    let topo = cfg.exp.sys.topology;
    if !topo.is_single() {
        mixes = mixes.into_iter().map(|m| m.tiled(topo.total_cores())).collect();
    }
    let log = Progress::new(progress);

    // Stage 1: run-alone IPCs of the distinct slots (each is one
    // independent single-core simulation — the serial code memoised them
    // lazily; here the deduplicated set fans out up front).
    let mut distinct: Vec<&Slot> = Vec::new();
    for mix in &mixes {
        for s in &mix.slots {
            if !distinct.iter().any(|d| d.name() == s.name()) {
                distinct.push(s);
            }
        }
    }
    let alone_vals = run_cells(
        &distinct,
        cfg.jobs,
        cfg.attempts,
        ckpt,
        |_, s| format!("alone: {}", s.name()),
        |_, s| log.cell(&format!("alone: {}", s.name()), || run_alone_ipc(s, &cfg.exp)),
    )
    .into_results()?;
    let alone_cache: HashMap<&str, f64> =
        distinct.iter().zip(&alone_vals).map(|(s, &v)| (s.name(), v)).collect();

    // Stage 2: the (mix × mechanism) matrix, mix-major so the reassembly
    // below is simple index arithmetic.
    let mut cells: Vec<(usize, Mechanism)> =
        Vec::with_capacity(mixes.len() * (1 + mechanisms.len()));
    for mi in 0..mixes.len() {
        cells.push((mi, Mechanism::Baseline));
        for &m in mechanisms {
            cells.push((mi, m));
        }
    }
    // One warm-up pool for the whole matrix: warm-up is uncontrolled, so
    // the baseline and every mechanism trial of a mix restore from one
    // shared snapshot instead of each re-simulating the warm-up.
    let pool = WarmupPool::new();
    let mut results = run_cells(
        &cells,
        cfg.jobs,
        cfg.attempts,
        ckpt,
        |_, &(mi, m)| format!("{}: {}", mixes[mi].name, m.label()),
        |_, &(mi, m)| {
            let mix = &mixes[mi];
            log.cell(&format!("{}: {}", mix.name, m.label()), || {
                run_mix_pooled(&pool, mix, m, &cfg.exp)
            })
        },
    )
    .into_results()?;

    // Reassemble in mix order: baseline first, then `mechanisms` order —
    // exactly what the serial loop produced.
    let stride = 1 + mechanisms.len();
    let mut workloads = Vec::with_capacity(mixes.len());
    for (mi, mix) in mixes.iter().enumerate().rev() {
        let mut chunk = results.split_off(mi * stride);
        let baseline = chunk.remove(0);
        let managed: HashMap<Mechanism, MixResult> =
            mechanisms.iter().copied().zip(chunk).collect();
        let alone: Vec<f64> = mix.slots.iter().map(|s| alone_cache[s.name()]).collect();
        workloads.push(WorkloadEval { mix: mix.clone(), alone, baseline, managed });
    }
    workloads.reverse();
    Ok(Evaluation { workloads, mechanisms: mechanisms.to_vec() })
}

/// [`evaluate_resumable`] without checkpointing, panicking if any cell
/// exhausts its attempt budget — the convenience entry point for tests and
/// callers that have no failure-report path.
pub fn evaluate(mechanisms: &[Mechanism], cfg: &EvalConfig, progress: bool) -> Evaluation {
    evaluate_resumable(mechanisms, cfg, progress, None).unwrap_or_else(|failures| {
        let keys: Vec<&str> = failures.iter().map(|f| f.key.as_str()).collect();
        panic!("{} evaluation cell(s) failed: {}", failures.len(), keys.join(", "));
    })
}

/// A generic per-workload, per-mechanism series with category means —
/// the shape every Fig. 7–15 table shares.
#[derive(Debug, Clone)]
pub struct FigureSeries {
    /// Figure identifier, e.g. `"Fig. 7 (HS)"`.
    pub title: String,
    /// Mechanism labels, one per column.
    pub columns: Vec<String>,
    /// `(workload name, values per column)`.
    pub rows: Vec<(String, Vec<f64>)>,
    /// `(category label, mean per column)`.
    pub category_means: Vec<(String, Vec<f64>)>,
}

/// The categories present in an evaluation, in first-appearance order.
/// Synthetic evaluations yield the paper's four categories in plotting
/// order; trace-driven evaluations yield `[Category::Trace]`.
fn categories_of(eval: &Evaluation) -> Vec<Category> {
    let mut cats = Vec::new();
    for w in &eval.workloads {
        if !cats.contains(&w.mix.category) {
            cats.push(w.mix.category);
        }
    }
    cats
}

/// Builds a series by applying `f(workload, mechanism)` over the grid.
pub fn series(
    eval: &Evaluation,
    title: &str,
    mechanisms: &[Mechanism],
    f: impl Fn(&WorkloadEval, Mechanism) -> f64,
) -> FigureSeries {
    let rows = eval
        .workloads
        .iter()
        .map(|w| (w.mix.name.clone(), mechanisms.iter().map(|&m| f(w, m)).collect()))
        .collect();
    let category_means = categories_of(eval)
        .into_iter()
        .map(|c| {
            (
                c.label().to_string(),
                mechanisms.iter().map(|&m| eval.category_mean(c, |w| f(w, m))).collect(),
            )
        })
        .collect();
    FigureSeries {
        title: title.to_string(),
        columns: mechanisms.iter().map(|m| m.label().to_string()).collect(),
        rows,
        category_means,
    }
}

/// Fig. 7: PT's normalized HS and WS.
pub fn fig7(eval: &Evaluation) -> (FigureSeries, FigureSeries) {
    let m = [Mechanism::Pt];
    (
        series(eval, "Fig. 7 — PT: HS normalized to baseline", &m, |w, m| w.norm_hs(m)),
        series(eval, "Fig. 7 — PT: WS normalized to baseline", &m, |w, m| w.norm_ws(m)),
    )
}

/// Fig. 8: PT's lowest per-application normalized IPC per workload.
pub fn fig8(eval: &Evaluation) -> FigureSeries {
    series(eval, "Fig. 8 — PT: lowest normalized IPC", &[Mechanism::Pt], |w, m| w.worst_case(m))
}

/// The cache-partitioning mechanisms of Figs. 9–10.
pub const CP_MECHS: [Mechanism; 3] = [Mechanism::Dunn, Mechanism::PrefCp, Mechanism::PrefCp2];

/// Fig. 9: CP mechanisms' normalized HS and WS.
pub fn fig9(eval: &Evaluation) -> (FigureSeries, FigureSeries) {
    (
        series(eval, "Fig. 9 — CP: HS normalized to baseline", &CP_MECHS, |w, m| w.norm_hs(m)),
        series(eval, "Fig. 9 — CP: WS normalized to baseline", &CP_MECHS, |w, m| w.norm_ws(m)),
    )
}

/// Fig. 10: CP mechanisms' worst-case speedups.
pub fn fig10(eval: &Evaluation) -> FigureSeries {
    series(eval, "Fig. 10 — CP: lowest normalized IPC", &CP_MECHS, |w, m| w.worst_case(m))
}

/// The coordinated CMM variants of Figs. 11–12.
pub const CMM_MECHS: [Mechanism; 3] = [Mechanism::CmmA, Mechanism::CmmB, Mechanism::CmmC];

/// Fig. 11: CMM-a/b/c normalized HS and WS.
pub fn fig11(eval: &Evaluation) -> (FigureSeries, FigureSeries) {
    (
        series(eval, "Fig. 11 — CMM: HS normalized to baseline", &CMM_MECHS, |w, m| w.norm_hs(m)),
        series(eval, "Fig. 11 — CMM: WS normalized to baseline", &CMM_MECHS, |w, m| w.norm_ws(m)),
    )
}

/// Fig. 12: CMM-a/b/c worst-case speedups.
pub fn fig12(eval: &Evaluation) -> FigureSeries {
    series(eval, "Fig. 12 — CMM: lowest normalized IPC", &CMM_MECHS, |w, m| w.worst_case(m))
}

/// Fig. 13: all seven mechanisms' normalized HS.
pub fn fig13(eval: &Evaluation) -> FigureSeries {
    series(
        eval,
        "Fig. 13 — all mechanisms: HS normalized to baseline",
        &Mechanism::all_managed(),
        |w, m| w.norm_hs(m),
    )
}

/// Fig. 14: normalized memory traffic.
pub fn fig14(eval: &Evaluation) -> FigureSeries {
    series(
        eval,
        "Fig. 14 — normalized memory bandwidth consumption",
        &Mechanism::all_managed(),
        |w, m| w.norm_bw(m),
    )
}

/// Supplementary fairness table (not a paper figure): Gabor fairness
/// (min/max slowdown) of the baseline and each mechanism, computed from
/// the run-alone IPCs. The paper folds fairness into HS; this view makes
/// the isolation improvement explicit.
pub fn fairness(eval: &Evaluation) -> FigureSeries {
    let mechs = eval.mechanisms.clone();
    let rows = eval
        .workloads
        .iter()
        .map(|w| {
            let mut vals = vec![met::gabor_fairness(&w.alone, &w.baseline.ipcs)];
            vals.extend(mechs.iter().map(|m| met::gabor_fairness(&w.alone, &w.managed[m].ipcs)));
            (w.mix.name.clone(), vals)
        })
        .collect();
    let category_means = categories_of(eval)
        .into_iter()
        .map(|c| {
            let mut vals =
                vec![eval.category_mean(c, |w| met::gabor_fairness(&w.alone, &w.baseline.ipcs))];
            vals.extend(mechs.iter().map(|&m| {
                eval.category_mean(c, |w| met::gabor_fairness(&w.alone, &w.managed[&m].ipcs))
            }));
            (c.label().to_string(), vals)
        })
        .collect();
    let mut columns = vec!["Baseline".to_string()];
    columns.extend(mechs.iter().map(|m| m.label().to_string()));
    FigureSeries {
        title: "Supplementary — Gabor fairness (min/max slowdown)".into(),
        columns,
        rows,
        category_means,
    }
}

/// The `repro bandwidth` mechanism roster: the paper's best two-resource
/// mechanism, the bandwidth-only ablation, and the three-resource CBP
/// coordination, side by side.
pub const BANDWIDTH_MECHS: [Mechanism; 3] = [Mechanism::CmmA, Mechanism::Mba, Mechanism::Cbp];

/// The three-resource comparison for `repro bandwidth`: per-mechanism
/// harmonic-mean IPC and Gabor fairness per mix. Raw hm_ipc (not
/// baseline-normalized HS) so the CBP-vs-CMM-a ordering on
/// bandwidth-contended mixes reads straight off the table.
pub fn bandwidth(eval: &Evaluation) -> (FigureSeries, FigureSeries) {
    (
        series(
            eval,
            "Bandwidth partitioning — harmonic-mean IPC per mechanism",
            &BANDWIDTH_MECHS,
            |w, m| met::hm_ipc(&w.managed[&m].ipcs),
        ),
        series(
            eval,
            "Bandwidth partitioning — Gabor fairness (min/max slowdown)",
            &BANDWIDTH_MECHS,
            |w, m| met::gabor_fairness(&w.alone, &w.managed[&m].ipcs),
        ),
    )
}

/// Fig. 15: normalized summed `STALLS_L2_PENDING`.
pub fn fig15(eval: &Evaluation) -> FigureSeries {
    series(
        eval,
        "Fig. 15 — normalized L2-pending stall cycles",
        &Mechanism::all_managed(),
        |w, m| w.norm_stalls(m),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_eval(mechs: &[Mechanism]) -> Evaluation {
        let mut cfg = EvalConfig::quick();
        cfg.mixes_per_category = 1;
        evaluate(mechs, &cfg, false)
    }

    #[test]
    fn evaluation_covers_all_categories_in_order() {
        let eval = tiny_eval(&[Mechanism::Pt]);
        assert_eq!(eval.workloads.len(), 4);
        let cats: Vec<Category> = eval.workloads.iter().map(|w| w.mix.category).collect();
        assert_eq!(cats, Category::all().to_vec());
    }

    #[test]
    fn series_shape_matches_grid() {
        let eval = tiny_eval(&[Mechanism::Pt]);
        let (hs, ws) = fig7(&eval);
        assert_eq!(hs.rows.len(), 4);
        assert_eq!(hs.columns, vec!["PT"]);
        assert_eq!(hs.category_means.len(), 4);
        assert_eq!(ws.rows[0].1.len(), 1);
    }

    #[test]
    fn norm_metrics_are_positive_and_sane() {
        let eval = tiny_eval(&[Mechanism::Pt]);
        for w in &eval.workloads {
            let hs = w.norm_hs(Mechanism::Pt);
            let ws = w.norm_ws(Mechanism::Pt);
            let wc = w.worst_case(Mechanism::Pt);
            assert!(hs > 0.3 && hs < 3.0, "hs {hs}");
            assert!(ws > 0.3 && ws < 3.0, "ws {ws}");
            assert!(wc > 0.0 && wc <= 2.0, "wc {wc}");
            assert!(w.norm_bw(Mechanism::Pt) > 0.0);
            assert!(w.norm_stalls(Mechanism::Pt) > 0.0);
        }
    }

    #[test]
    fn bandwidth_tables_cover_the_three_resource_roster() {
        let eval = tiny_eval(&BANDWIDTH_MECHS);
        let (hm, fair) = bandwidth(&eval);
        assert_eq!(hm.columns, vec!["CMM-a", "MBA", "CBP"]);
        assert_eq!(fair.columns, hm.columns);
        assert_eq!(hm.rows.len(), 4);
        for (_, vals) in hm.rows.iter().chain(&fair.rows) {
            assert!(vals.iter().all(|v| *v > 0.0), "{vals:?}");
        }
    }

    #[test]
    fn category_mean_is_mean_of_members() {
        let eval = tiny_eval(&[Mechanism::Pt]);
        let f = |w: &WorkloadEval| w.norm_hs(Mechanism::Pt);
        let manual = f(&eval.workloads[0]);
        assert!((eval.category_mean(Category::PrefFri, f) - manual).abs() < 1e-12);
    }
}
