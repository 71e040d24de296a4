//! `repro bench-compare` — the perf regression gate.
//!
//! Diffs two `BENCH_sim.json` perf logs (see [`crate::perf`]) target by
//! target, in the spirit of rustc-perf's baseline comparisons: wall-clock
//! ratios with a configurable relative noise threshold, a human-readable
//! delta table, and a machine-checkable verdict ([`any_regression`]) the
//! CI gate turns into an exit code.
//!
//! Semantics:
//!
//! * a target regresses when `current_wall / baseline_wall` is strictly
//!   greater than `1 + noise` — a ratio *exactly at* the threshold passes;
//! * a target present in the baseline but missing from the current log is
//!   a regression (silently dropping coverage must trip the gate);
//! * a target only present in the current log is informational (`new`);
//! * the noise threshold is relative: `--noise 0.1` tolerates +10 %,
//!   `--noise 1.0` only fails on a >2× slowdown (the CI hard gate on
//!   shared runners).

use crate::json::{parse, Json};
use std::path::Path;

/// Expected perf-log schema identifier.
pub const BENCH_SCHEMA: &str = "cmm-bench-sim/1";

/// Default relative noise threshold (±10 %).
pub const DEFAULT_NOISE: f64 = 0.10;

/// Advisory noise threshold for per-target `sim_cycles_per_s` deltas.
/// Throughput drops beyond this are called out in the delta table but do
/// not trip [`any_regression`] — wall-clock is the binding gate; the hard
/// throughput floor lives in the CI `smoke_perf` step.
pub const SCPS_NOISE: f64 = 0.10;

/// One target's numbers from a perf log.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchTarget {
    /// Target name (`"table1"`, `"fig7"`, …).
    pub name: String,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Evaluation cells per second (throughput; informational).
    pub cells_per_s: f64,
    /// Simulated core-cycles per second (simulator hot-loop throughput;
    /// gated advisorily, see [`SCPS_NOISE`]).
    pub sim_cycles_per_s: f64,
}

/// A parsed `BENCH_sim.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Whether the run used `--quick` durations.
    pub quick: bool,
    /// Per-target stats, in document order.
    pub targets: Vec<BenchTarget>,
}

/// Parses a perf-log document, validating the schema identifier.
pub fn parse_doc(text: &str) -> Result<BenchDoc, String> {
    let root = parse(text)?;
    let schema = root.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != BENCH_SCHEMA {
        return Err(format!("unsupported schema '{schema}' (want {BENCH_SCHEMA})"));
    }
    let quick = root.get("quick").and_then(Json::as_bool).unwrap_or(false);
    let mut targets = Vec::new();
    for t in root.get("targets").and_then(Json::as_array).unwrap_or(&[]) {
        let name = t
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "target without a name".to_string())?
            .to_string();
        let wall_s = t
            .get("wall_s")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("target {name} without wall_s"))?;
        let cells_per_s = t.get("cells_per_s").and_then(Json::as_f64).unwrap_or(0.0);
        let sim_cycles_per_s = t.get("sim_cycles_per_s").and_then(Json::as_f64).unwrap_or(0.0);
        targets.push(BenchTarget { name, wall_s, cells_per_s, sim_cycles_per_s });
    }
    Ok(BenchDoc { quick, targets })
}

/// Loads and parses a perf log from disk.
pub fn load_doc(path: &Path) -> Result<BenchDoc, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_doc(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Verdict for one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the noise threshold.
    Within,
    /// Faster than the baseline by more than the noise threshold.
    Improved,
    /// Slower than the baseline by more than the noise threshold.
    Regressed,
    /// In the baseline but not in the current log — counts as a
    /// regression (coverage loss).
    Missing,
    /// Only in the current log — informational.
    New,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Missing => "MISSING",
            Verdict::New => "new",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Target name.
    pub name: String,
    /// Baseline wall-clock, when the target exists there.
    pub base_wall: Option<f64>,
    /// Current wall-clock, when the target exists there.
    pub cur_wall: Option<f64>,
    /// `cur/base` wall-clock ratio, when both sides exist and the
    /// baseline is positive.
    pub ratio: Option<f64>,
    /// The verdict under the configured noise threshold.
    pub verdict: Verdict,
    /// `cur/base` simulated-cycles-per-second ratio, when both sides
    /// report one.
    pub scps_ratio: Option<f64>,
    /// Advisory verdict on the throughput ratio under [`SCPS_NOISE`];
    /// never feeds [`any_regression`].
    pub scps_verdict: Option<Verdict>,
}

/// Compares `cur` against `base` under a relative `noise` threshold.
/// Rows come back in baseline order, then new targets in current order.
pub fn compare(base: &BenchDoc, cur: &BenchDoc, noise: f64) -> Vec<Delta> {
    assert!(noise >= 0.0, "noise threshold must be non-negative");
    let mut deltas = Vec::new();
    for b in &base.targets {
        let row = match cur.targets.iter().find(|c| c.name == b.name) {
            None => Delta {
                name: b.name.clone(),
                base_wall: Some(b.wall_s),
                cur_wall: None,
                ratio: None,
                verdict: Verdict::Missing,
                scps_ratio: None,
                scps_verdict: None,
            },
            Some(c) if b.wall_s > 0.0 => {
                let ratio = c.wall_s / b.wall_s;
                let verdict = if ratio > 1.0 + noise {
                    Verdict::Regressed
                } else if ratio < 1.0 - noise {
                    Verdict::Improved
                } else {
                    Verdict::Within
                };
                let (scps_ratio, scps_verdict) = scps_delta(b, c);
                Delta {
                    name: b.name.clone(),
                    base_wall: Some(b.wall_s),
                    cur_wall: Some(c.wall_s),
                    ratio: Some(ratio),
                    verdict,
                    scps_ratio,
                    scps_verdict,
                }
            }
            // Degenerate baseline (0s wall): nothing meaningful to gate on.
            Some(c) => Delta {
                name: b.name.clone(),
                base_wall: Some(b.wall_s),
                cur_wall: Some(c.wall_s),
                ratio: None,
                verdict: Verdict::Within,
                scps_ratio: None,
                scps_verdict: None,
            },
        };
        deltas.push(row);
    }
    for c in &cur.targets {
        if !base.targets.iter().any(|b| b.name == c.name) {
            deltas.push(Delta {
                name: c.name.clone(),
                base_wall: None,
                cur_wall: Some(c.wall_s),
                ratio: None,
                verdict: Verdict::New,
                scps_ratio: None,
                scps_verdict: None,
            });
        }
    }
    deltas
}

/// Simulator-throughput delta of one matched target pair: the
/// `cur/base` `sim_cycles_per_s` ratio and its advisory verdict under
/// [`SCPS_NOISE`]. Absent when either side predates the field (logs
/// written before throughput tracking report 0).
fn scps_delta(b: &BenchTarget, c: &BenchTarget) -> (Option<f64>, Option<Verdict>) {
    if b.sim_cycles_per_s <= 0.0 || c.sim_cycles_per_s <= 0.0 {
        return (None, None);
    }
    let ratio = c.sim_cycles_per_s / b.sim_cycles_per_s;
    // Throughput: higher is better, so the verdict thresholds invert
    // relative to wall-clock.
    let verdict = if ratio < 1.0 - SCPS_NOISE {
        Verdict::Regressed
    } else if ratio > 1.0 + SCPS_NOISE {
        Verdict::Improved
    } else {
        Verdict::Within
    };
    (Some(ratio), Some(verdict))
}

/// True when any row fails the gate (regressed or missing).
pub fn any_regression(deltas: &[Delta]) -> bool {
    deltas.iter().any(|d| matches!(d.verdict, Verdict::Regressed | Verdict::Missing))
}

/// Targets in `doc` whose `sim_cycles_per_s` sits below `floor` — the
/// hard throughput gate behind `bench-compare --scps-floor` and the CI
/// `smoke_perf` step. Unlike the relative advisory ([`SCPS_NOISE`]), the
/// floor is absolute and conservative, so it survives noisy runners while
/// still catching order-of-magnitude hot-loop regressions.
///
/// A target reporting no throughput at all (0, i.e. a log written before
/// the field existed) also fails: the gate is only ever pointed at fresh
/// logs, so a missing field means the instrumentation itself regressed.
pub fn below_scps_floor(doc: &BenchDoc, floor: f64) -> Vec<(String, f64)> {
    doc.targets
        .iter()
        .filter(|t| t.sim_cycles_per_s < floor)
        .map(|t| (t.name.clone(), t.sim_cycles_per_s))
        .collect()
}

/// Renders the human-readable delta table.
pub fn render(deltas: &[Delta], noise: f64) -> String {
    let fmt_s = |v: Option<f64>| v.map(|s| format!("{s:.3}s")).unwrap_or_else(|| "-".into());
    let rows: Vec<Vec<String>> = deltas
        .iter()
        .map(|d| {
            vec![
                d.name.clone(),
                fmt_s(d.base_wall),
                fmt_s(d.cur_wall),
                d.ratio
                    .map(|r| format!("{:+.1}%", (r - 1.0) * 100.0))
                    .unwrap_or_else(|| "-".into()),
                d.verdict.label().to_string(),
                d.scps_ratio
                    .map(|r| format!("{:+.1}%", (r - 1.0) * 100.0))
                    .unwrap_or_else(|| "-".into()),
                d.scps_verdict.map(|v| v.label().to_string()).unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    crate::report::table(
        &format!(
            "bench-compare — wall-clock vs baseline (noise ±{:.0}%; sim-cyc/s advisory ±{:.0}%)",
            noise * 100.0,
            SCPS_NOISE * 100.0
        ),
        &["target", "baseline", "current", "delta", "verdict", "sim-cyc/s", "advisory"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(targets: &[(&str, f64)]) -> BenchDoc {
        BenchDoc {
            quick: true,
            targets: targets
                .iter()
                .map(|&(name, wall_s)| BenchTarget {
                    name: name.into(),
                    wall_s,
                    cells_per_s: 1.0 / wall_s.max(1e-9),
                    sim_cycles_per_s: 1e6 / wall_s.max(1e-9),
                })
                .collect(),
        }
    }

    #[test]
    fn identical_docs_have_no_regression() {
        let d = doc(&[("table1", 10.0), ("fig7", 40.0)]);
        let deltas = compare(&d, &d, DEFAULT_NOISE);
        assert_eq!(deltas.len(), 2);
        assert!(deltas.iter().all(|x| x.verdict == Verdict::Within));
        assert!(!any_regression(&deltas));
    }

    #[test]
    fn exactly_at_threshold_passes() {
        // ratio == 1 + noise must NOT regress (strictly-greater rule).
        let base = doc(&[("t", 10.0)]);
        let cur = doc(&[("t", 11.0)]);
        let deltas = compare(&base, &cur, 0.10);
        assert_eq!(deltas[0].verdict, Verdict::Within, "{deltas:?}");
        // One ulp above the threshold regresses.
        let cur2 = doc(&[("t", 11.000001)]);
        assert_eq!(compare(&base, &cur2, 0.10)[0].verdict, Verdict::Regressed);
    }

    #[test]
    fn throughput_drop_is_advisory_only() {
        let base = doc(&[("t", 10.0)]);
        let mut cur = doc(&[("t", 10.0)]);
        cur.targets[0].sim_cycles_per_s = base.targets[0].sim_cycles_per_s * 0.5;
        let deltas = compare(&base, &cur, DEFAULT_NOISE);
        assert_eq!(deltas[0].verdict, Verdict::Within);
        assert_eq!(deltas[0].scps_verdict, Some(Verdict::Regressed));
        assert!(!any_regression(&deltas), "throughput advisory must not trip the gate");
    }

    #[test]
    fn throughput_gain_reported_as_improved() {
        let base = doc(&[("t", 10.0)]);
        let mut cur = doc(&[("t", 10.0)]);
        cur.targets[0].sim_cycles_per_s = base.targets[0].sim_cycles_per_s * 3.0;
        let deltas = compare(&base, &cur, DEFAULT_NOISE);
        assert_eq!(deltas[0].scps_verdict, Some(Verdict::Improved));
        assert!((deltas[0].scps_ratio.unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn missing_throughput_field_degrades_gracefully() {
        // Perf logs written before throughput tracking parse as 0.
        let base = doc(&[("t", 10.0)]);
        let mut cur = doc(&[("t", 10.0)]);
        cur.targets[0].sim_cycles_per_s = 0.0;
        let deltas = compare(&base, &cur, DEFAULT_NOISE);
        assert_eq!(deltas[0].scps_verdict, None);
        assert_eq!(deltas[0].scps_ratio, None);
        assert!(!any_regression(&deltas));
    }

    #[test]
    fn scps_floor_flags_slow_and_unreported_targets() {
        let d = doc(&[("t", 10.0), ("u", 1.0)]); // 1e5 and 1e6 cyc/s
        assert!(below_scps_floor(&d, 1e4).is_empty());
        let below = below_scps_floor(&d, 5e5);
        assert_eq!(below, vec![("t".to_string(), 1e5)]);
        // A fresh log that stopped reporting throughput fails the floor.
        let mut stale = doc(&[("t", 10.0)]);
        stale.targets[0].sim_cycles_per_s = 0.0;
        assert_eq!(below_scps_floor(&stale, 5e5).len(), 1);
    }

    #[test]
    fn two_x_slowdown_fails_even_the_hard_gate() {
        let base = doc(&[("t", 10.0)]);
        let cur = doc(&[("t", 20.1)]);
        let deltas = compare(&base, &cur, 1.0);
        assert!(any_regression(&deltas));
        // 1.9x passes the hard gate (noise 1.0 ⇒ fail only >2x)…
        let cur_ok = doc(&[("t", 19.0)]);
        assert!(!any_regression(&compare(&base, &cur_ok, 1.0)));
        // …but not the default gate.
        assert!(any_regression(&compare(&base, &cur_ok, DEFAULT_NOISE)));
    }

    #[test]
    fn missing_target_is_a_regression() {
        let base = doc(&[("t", 10.0), ("u", 5.0)]);
        let cur = doc(&[("t", 10.0)]);
        let deltas = compare(&base, &cur, DEFAULT_NOISE);
        assert_eq!(deltas[1].verdict, Verdict::Missing);
        assert!(any_regression(&deltas));
    }

    #[test]
    fn new_target_is_informational() {
        let base = doc(&[("t", 10.0)]);
        let cur = doc(&[("t", 10.0), ("v", 3.0)]);
        let deltas = compare(&base, &cur, DEFAULT_NOISE);
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[1].verdict, Verdict::New);
        assert!(!any_regression(&deltas));
    }

    #[test]
    fn improvement_is_reported_not_failed() {
        let base = doc(&[("t", 10.0)]);
        let cur = doc(&[("t", 5.0)]);
        let deltas = compare(&base, &cur, DEFAULT_NOISE);
        assert_eq!(deltas[0].verdict, Verdict::Improved);
        assert!(!any_regression(&deltas));
    }

    #[test]
    fn zero_wall_baseline_does_not_panic_or_fail() {
        let base = doc(&[("t", 0.0)]);
        let cur = doc(&[("t", 1.0)]);
        let deltas = compare(&base, &cur, DEFAULT_NOISE);
        assert_eq!(deltas[0].verdict, Verdict::Within);
        assert_eq!(deltas[0].ratio, None);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(parse_doc(r#"{"schema":"other/9","targets":[]}"#).is_err());
    }

    #[test]
    fn round_trips_the_perf_writer_schema() {
        // The document BenchLog writes must be readable by the gate.
        let mut log = crate::perf::BenchLog::new(2, true);
        log.measure("table1", 14, || ());
        log.measure("fig5", 1, || ());
        let doc = parse_doc(&log.to_json()).expect("perf log must parse");
        assert!(doc.quick);
        assert_eq!(doc.targets.len(), 2);
        assert_eq!(doc.targets[0].name, "table1");
        assert!(doc.targets[0].wall_s >= 0.0);
        assert!(doc.targets[0].cells_per_s > 0.0);
        // And comparing a log against itself is clean.
        assert!(!any_regression(&compare(&doc, &doc, 0.0)));
    }

    #[test]
    fn render_mentions_every_target_and_verdict() {
        let base = doc(&[("t", 10.0), ("gone", 1.0)]);
        let cur = doc(&[("t", 30.0), ("fresh", 2.0)]);
        let out = render(&compare(&base, &cur, DEFAULT_NOISE), DEFAULT_NOISE);
        for needle in ["t", "gone", "fresh", "REGRESSED", "MISSING", "new", "+200.0%"] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }
}
