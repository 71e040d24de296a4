//! Machine-readable harness performance log (`BENCH_sim.json`).
//!
//! The `repro` binary wraps every table/figure target in
//! [`BenchLog::measure`] and writes one JSON document at exit, so each
//! future change to the simulator or harness has a perf trajectory to
//! defend: wall-clock per target, evaluation cells per second, and
//! simulated core-cycles per second.
//!
//! The JSON is hand-rolled (the build environment has no serde); the
//! schema is intentionally flat:
//!
//! ```json
//! {
//!   "schema": "cmm-bench-sim/1",
//!   "jobs": 4,
//!   "quick": false,
//!   "total_wall_s": 123.4,
//!   "targets": [
//!     {
//!       "name": "fig7",
//!       "wall_s": 41.2,
//!       "cells": 88,
//!       "sim_cycles": 9856000000,
//!       "cells_per_s": 2.14,
//!       "sim_cycles_per_s": 239223300.9
//!     }
//!   ]
//! }
//! ```
//!
//! `cells` counts independent simulation runs (one `System` each);
//! `sim_cycles` counts the core-cycles (machine cycles × cores, warm-up
//! included) the target actually simulated, read off
//! [`cmm_sim::simulated_core_cycles`] around it, so `sim_cycles_per_s` is
//! comparable across targets with different machine widths. A warm-up
//! restored from a `WarmupPool` and a cell spliced from a `--resume`
//! checkpoint count 0: they simulate nothing. At `--jobs > 1` two cells
//! may race to warm the same mix, and both warm-ups count, so a pooled
//! target's count can vary with `--jobs`.

use std::path::Path;
use std::time::Instant;

use cmm_core::json::{escape, Fixed6};
use cmm_sim::simulated_core_cycles;

/// Timing and volume of one completed repro target.
#[derive(Debug, Clone)]
pub struct TargetStats {
    /// Target name as passed on the CLI (`"table1"`, `"fig7"`, …).
    pub name: String,
    /// Wall-clock seconds spent producing the target.
    pub wall_s: f64,
    /// Independent simulation runs executed.
    pub cells: u64,
    /// Core-cycles actually simulated while producing the target
    /// (including warm-up; a restored warm-up or spliced cell counts 0).
    pub sim_cycles: u64,
}

/// Collects [`TargetStats`] across one `repro` invocation.
#[derive(Debug)]
pub struct BenchLog {
    start: Instant,
    jobs: usize,
    quick: bool,
    targets: Vec<TargetStats>,
}

impl BenchLog {
    /// An empty log annotated with the run's parallelism and size mode.
    pub fn new(jobs: usize, quick: bool) -> Self {
        BenchLog { start: Instant::now(), jobs, quick, targets: Vec::new() }
    }

    /// Runs `work` and records it as target `name` of `cells` simulation
    /// runs, with the core-cycles it simulated. Returns `work`'s result.
    pub fn measure<R>(&mut self, name: &str, cells: u64, work: impl FnOnce() -> R) -> R {
        let (t0, c0) = (Instant::now(), simulated_core_cycles());
        let r = work();
        self.targets.push(TargetStats {
            name: name.to_string(),
            wall_s: t0.elapsed().as_secs_f64(),
            cells,
            sim_cycles: simulated_core_cycles() - c0,
        });
        r
    }

    /// Renders the log as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"schema\": \"cmm-bench-sim/1\",\n");
        s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!(
            "  \"total_wall_s\": {},\n",
            Fixed6(self.start.elapsed().as_secs_f64())
        ));
        s.push_str("  \"targets\": [");
        for (i, t) in self.targets.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\n");
            s.push_str(&format!("      \"name\": \"{}\",\n", escape(&t.name)));
            s.push_str(&format!("      \"wall_s\": {},\n", Fixed6(t.wall_s)));
            s.push_str(&format!("      \"cells\": {},\n", t.cells));
            s.push_str(&format!("      \"sim_cycles\": {},\n", t.sim_cycles));
            let wall = t.wall_s.max(1e-9);
            s.push_str(&format!("      \"cells_per_s\": {},\n", Fixed6(t.cells as f64 / wall)));
            s.push_str(&format!(
                "      \"sim_cycles_per_s\": {}\n",
                Fixed6(t.sim_cycles as f64 / wall)
            ));
            s.push_str("    }");
        }
        if !self.targets.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Writes the JSON to `path` atomically (temp-then-rename): a crash
    /// mid-write leaves the previous complete log, never a torn one.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        crate::atomic::write_atomic(path, self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_contains_measured_targets() {
        let mut log = BenchLog::new(4, true);
        let out = log.measure("table1", 14, || {
            let b = &cmm_workloads::spec::roster()[0];
            let mut sys = cmm_core::experiment::alone_system(
                &cmm_sim::SystemConfig::scaled(1),
                |llc, base, seed| Box::new(b.instantiate(llc, base, seed)),
            );
            sys.run(20_000);
            99u32
        });
        assert_eq!(out, 99);
        let j = log.to_json();
        assert!(j.contains("\"schema\": \"cmm-bench-sim/1\""));
        assert!(j.contains("\"jobs\": 4"));
        assert!(j.contains("\"quick\": true"));
        assert!(j.contains("\"name\": \"table1\""));
        assert!(j.contains("\"cells\": 14"));
        assert!(j.contains("\"cells_per_s\""));
        // Other tests of this binary simulate concurrently and count too,
        // so only a lower bound is exact here (the exact count is pinned
        // by the single-test `sim_cycles` integration binary).
        let doc = crate::json::parse(&j).expect("valid JSON");
        let targets = doc.get("targets").and_then(crate::json::Json::as_array).unwrap();
        let cycles = targets[0].get("sim_cycles").and_then(crate::json::Json::as_u64).unwrap();
        assert!(cycles >= 20_000, "the work's own 20000 core-cycles must count, got {cycles}");
    }

    #[test]
    fn empty_log_is_valid_shape() {
        let log = BenchLog::new(1, false);
        let j = log.to_json();
        assert!(j.contains("\"targets\": []"));
    }

    #[test]
    fn log_round_trips_through_the_json_reader() {
        // The written document must stay readable by crate::json — the
        // same path `repro bench-compare` takes.
        let mut log = BenchLog::new(2, true);
        log.measure("fig\"odd\"", 7, || ());
        let doc = crate::json::parse(&log.to_json()).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(crate::json::Json::as_str), Some("cmm-bench-sim/1"));
        assert_eq!(doc.get("jobs").and_then(crate::json::Json::as_u64), Some(2));
        let targets = doc.get("targets").and_then(crate::json::Json::as_array).unwrap();
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].get("name").and_then(crate::json::Json::as_str), Some("fig\"odd\""));
        assert_eq!(targets[0].get("cells").and_then(crate::json::Json::as_u64), Some(7));
        assert!(targets[0].get("wall_s").and_then(crate::json::Json::as_f64).unwrap() >= 0.0);
    }
}
