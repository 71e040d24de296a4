//! Child reports, their aggregation into each workload's metrics and
//! output checks, the result JSON, and `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cmm_bench::json::{self, Json};
use cmm_metrics::median;

/// The benchmark's declaration: metric names, units, directions, bounds.
pub const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics, measured with tracing off.
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mcycles_per_s", "M/s"),
    ("cell_p50_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("hm_ipc_gain", "ratio"),
];

/// Per-layer metrics of the traced child, named after the modules whose
/// public calls they time.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("sim.warmup.host_s", "s"),
    ("sim.warmup.core_cycles", "count"),
    ("sim.profile.host_s", "s"),
    ("sim.profile.core_cycles", "count"),
    ("sim.profile.calls", "count"),
    ("sim.exec.host_s", "s"),
    ("sim.exec.core_cycles", "count"),
    ("sim.host_ns_per_core_cycle", "ns"),
    ("sim.instructions", "count"),
    ("sim.host_ns_per_kinstr", "ns"),
    ("sim.llc_lookups", "count"),
    ("sim.host_ns_per_llc_lookup", "ns"),
    ("sim.l3_load_miss", "count"),
    ("sim.pf.requests", "count"),
    ("sim.pf.accuracy", "ratio"),
    ("sim.pf.dropped", "count"),
    ("mem.bytes", "bytes"),
    ("snapshot.captures", "count"),
    ("snapshot.restores", "count"),
    ("snapshot.capture.host_s", "s"),
    ("snapshot.restore.host_s", "s"),
    ("ctrl.epochs", "count"),
    ("ctrl.trials", "count"),
    ("ctrl.trials_per_epoch", "ratio"),
    ("ctrl.profile_share", "ratio"),
    ("ctrl.self.host_s", "s"),
    ("ctrl.winner_moved_ratio", "ratio"),
    ("ctrl.degraded_epochs", "count"),
    ("substrate.pmu_reads", "count"),
    ("substrate.pmu.host_s", "s"),
    ("substrate.msr_writes", "count"),
    ("substrate.msr_write_errors", "count"),
    ("substrate.msr.host_s", "s"),
    ("faults.retried", "count"),
    ("faults.gave_up", "count"),
    ("governor.rollbacks", "count"),
    ("governor.quarantines", "count"),
    ("governor.breaker_trips", "count"),
    ("journal.render.host_s", "s"),
    ("journal.bytes", "bytes"),
    ("setup.mixes.host_s", "s"),
    ("setup.instantiate.host_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.attributed_share", "ratio"),
];

/// One cell as a child reports it.
#[derive(Debug, Clone)]
pub struct CellReport {
    pub name: String,
    pub secs: f64,
    /// `None` when the cell panicked.
    pub digest: Option<String>,
}

/// What one child process measured: one rep of one workload.
#[derive(Debug, Clone)]
pub struct ChildReport {
    pub setup_s: f64,
    pub wall_s: f64,
    pub core_cycles: u64,
    pub peak_rss_mib: f64,
    pub gain: f64,
    pub cells: Vec<CellReport>,
    /// Per-layer values; empty for an untraced child.
    pub layers: Vec<(String, f64)>,
}

/// Lossless JSON number (shortest round-trip form).
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "a metric must be finite, got {v}");
    format!("{v}")
}

impl ChildReport {
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"setup_s\":{},\"wall_s\":{},\"core_cycles\":{},\"peak_rss_mib\":{},\"gain\":{},\"cells\":[",
            num(self.setup_s),
            num(self.wall_s),
            self.core_cycles,
            num(self.peak_rss_mib),
            num(self.gain)
        );
        for (i, c) in self.cells.iter().enumerate() {
            let digest = c.digest.as_ref().map_or("null".to_string(), |d| format!("\"{d}\""));
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                s,
                "{sep}{{\"name\":\"{}\",\"secs\":{},\"digest\":{digest}}}",
                c.name,
                num(c.secs)
            );
        }
        s.push_str("],\"layers\":{");
        for (i, (k, v)) in self.layers.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}\"{k}\":{}", num(*v));
        }
        s.push_str("}}");
        s
    }

    pub fn parse(line: &str) -> Result<ChildReport, String> {
        let j = json::parse(line)?;
        let f =
            |k: &str| j.get(k).and_then(Json::as_f64).ok_or(format!("child report lacks '{k}'"));
        let cells = j
            .get("cells")
            .and_then(Json::as_array)
            .ok_or("child report lacks 'cells'")?
            .iter()
            .map(|c| {
                Ok(CellReport {
                    name: c
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("cell lacks 'name'")?
                        .to_string(),
                    secs: c.get("secs").and_then(Json::as_f64).ok_or("cell lacks 'secs'")?,
                    digest: c.get("digest").and_then(Json::as_str).map(str::to_string),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let layers = match j.get("layers") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    Ok((k.clone(), v.as_f64().ok_or(format!("layer '{k}' is not a number"))?))
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("child report lacks 'layers'".into()),
        };
        Ok(ChildReport {
            setup_s: f("setup_s")?,
            wall_s: f("wall_s")?,
            core_cycles: j
                .get("core_cycles")
                .and_then(Json::as_u64)
                .ok_or("child report lacks 'core_cycles'")?,
            peak_rss_mib: f("peak_rss_mib")?,
            gain: f("gain")?,
            cells,
            layers,
        })
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method); needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut d = values.to_vec();
    if d.len() < 2 {
        return None;
    }
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Committed per-cell digests of one seed: `workload cell digest` lines.
pub type Golden = BTreeMap<(String, String), String>;

pub fn parse_golden(text: &str) -> Result<Golden, String> {
    let mut g = Golden::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 3 {
            return Err(format!("golden line {} is not 'workload cell digest'", n + 1));
        }
        g.insert((f[0].to_string(), f[1].to_string()), f[2].to_string());
    }
    Ok(g)
}

pub fn render_golden(g: &Golden) -> String {
    g.iter().map(|((w, c), d)| format!("{w} {c} {d}\n")).collect()
}

/// Everything measured for one workload in one invocation.
pub struct WorkloadRun {
    pub workload: String,
    /// Cell names of the workload's plan, in order.
    pub cells: Vec<String>,
    pub reps: Vec<Result<ChildReport, String>>,
    pub traced: Option<Result<ChildReport, String>>,
}

/// A workload's metrics and output-check verdicts.
pub struct Summary {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub rep_walls: Vec<f64>,
    /// Each cell's times over the untraced reps.
    pub cell_runs: Vec<(String, Vec<f64>)>,
    pub e2e: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// The digest every rep agreed on, per cell (first rep's on conflict).
    pub digests: Vec<(String, String)>,
}

impl WorkloadRun {
    /// Checks every child's cells against the golden digests (or, for a
    /// seed without goldens, against the first rep) and computes the
    /// metrics. A cell that panicked or whose digest differs is failed.
    pub fn summarize(&self, golden: &Golden) -> Summary {
        let mut s = Summary {
            workload: self.workload.clone(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            rep_walls: Vec::new(),
            cell_runs: Vec::new(),
            e2e: Vec::new(),
            per_layer: Vec::new(),
            digests: Vec::new(),
        };
        let first_ok = |cell: &str| {
            self.reps.iter().flatten().find_map(|r| {
                r.cells.iter().find(|c| c.name == cell).and_then(|c| c.digest.clone())
            })
        };
        let expected: Vec<Option<String>> = self
            .cells
            .iter()
            .map(|c| {
                golden.get(&(self.workload.clone(), c.clone())).cloned().or_else(|| first_ok(c))
            })
            .collect();
        for (cell, d) in self.cells.iter().zip(&expected) {
            if let Some(d) = d {
                s.digests.push((cell.clone(), d.clone()));
            }
        }
        let children =
            self.reps.iter().map(|r| (r, false)).chain(self.traced.iter().map(|r| (r, true)));
        for (child, traced) in children {
            let kind = if traced { "traced" } else { "untraced" };
            s.attempted += self.cells.len() as u64;
            let r = match child {
                Ok(r) => r,
                Err(e) => {
                    s.failed += self.cells.len() as u64;
                    s.problems.push(format!("{kind} child failed: {e}"));
                    continue;
                }
            };
            for (i, cell) in self.cells.iter().enumerate() {
                let got = r.cells.iter().find(|c| &c.name == cell).and_then(|c| c.digest.as_ref());
                if got.is_none() || got != expected[i].as_ref() {
                    s.failed += 1;
                    s.problems.push(format!(
                        "{kind} {cell}: digest {} != expected {}",
                        got.map_or("<none>", String::as_str),
                        expected[i].as_deref().unwrap_or("<none>")
                    ));
                }
            }
        }

        let reps: Vec<&ChildReport> = self.reps.iter().flatten().collect();
        if reps.is_empty() {
            s.problems.push("no untraced rep completed".into());
            return s;
        }
        s.rep_walls = reps.iter().map(|r| r.wall_s).collect();
        s.cell_runs = self
            .cells
            .iter()
            .map(|name| {
                let runs = reps.iter().filter_map(|r| r.cells.iter().find(|c| &c.name == name));
                (name.clone(), runs.map(|c| c.secs).collect())
            })
            .collect();
        // Every rep does identical work and host interference only ever
        // adds time, so each cell's fastest rep is its cost (README).
        let best: Vec<f64> = s
            .cell_runs
            .iter()
            .map(|(_, v)| v.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        let wall: f64 = best.iter().sum();
        let of_reps =
            |f: fn(&ChildReport) -> f64| median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>());
        s.e2e = vec![
            ("setup_s", of_reps(|r| r.setup_s)),
            ("wall_s", wall),
            ("sim_mcycles_per_s", reps[0].core_cycles as f64 / wall / 1e6),
            ("cell_p50_s", median(&best)),
            ("peak_rss_mib", of_reps(|r| r.peak_rss_mib)),
            ("hm_ipc_gain", reps[0].gain),
        ];
        if let Some(Ok(t)) = &self.traced {
            for (name, _) in PER_LAYER {
                let v = match (name, t.layers.iter().find(|(k, _)| k == name)) {
                    ("bench.trace_overhead_pct", _) => {
                        (t.wall_s / median(&s.rep_walls) - 1.0) * 100.0
                    }
                    (_, Some((_, v))) => *v,
                    (_, None) => {
                        s.problems.push(format!("traced child did not report {name}"));
                        continue;
                    }
                };
                s.per_layer.push((name, v));
            }
        }
        s
    }
}

impl Summary {
    /// `workload metric value unit` lines.
    pub fn print_lines(&self) {
        let w = &self.workload;
        for (name, v) in self.e2e.iter().chain(&self.per_layer) {
            println!("{w} {name} {v} {}", unit_of(name));
        }
        println!("{w} reps {} count", self.rep_walls.len());
        println!("{w} cells_per_rep {} count", self.cell_runs.len());
        println!("{w} cells_attempted {} count", self.attempted);
        println!("{w} cells_failed {} count", self.failed);
        for p in self.problems.iter().take(20) {
            eprintln!("[benchmark] {w}: {p}");
        }
    }

    /// This workload's entry of the result JSON.
    pub fn to_json(&self) -> String {
        let list = |v: &[f64]| v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(",");
        let cell_runs: Vec<String> =
            self.cell_runs.iter().map(|(c, v)| format!("\"{c}\":[{}]", list(v))).collect();
        let digests: Vec<String> =
            self.digests.iter().map(|(c, d)| format!("\"{c}\":\"{d}\"")).collect();
        format!(
            "{{\"attempted\":{},\"failed\":{},\"rep_wall_s\":[{}],\"cell_s\":{{{}}},\"metrics\":{},\"per_layer\":{},\"digests\":{{{}}}}}",
            self.attempted,
            self.failed,
            list(&self.rep_walls),
            cell_runs.join(","),
            metrics_json(&self.e2e),
            metrics_json(&self.per_layer),
            digests.join(",")
        )
    }

    /// The contract's last stdout line: the end-to-end metrics, or with
    /// `trace` the per-layer ones.
    pub fn result_line(&self, trace: bool) -> String {
        let correct = self.failed == 0 && self.problems.is_empty();
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.attempted.max(1),
            self.failed,
            metrics_json(if trace { &self.per_layer } else { &self.e2e })
        )
    }
}

/// `{"name":{"value":v,"unit":"u"},…}`
fn metrics_json(list: &[(&str, f64)]) -> String {
    let body: Vec<String> = list
        .iter()
        .map(|(n, v)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{}\"}}", num(*v), unit_of(n)))
        .collect();
    format!("{{{}}}", body.join(","))
}

pub fn unit_of(name: &str) -> &'static str {
    E2E.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

/// Writes the result JSON of one invocation.
pub fn result_json(seed: u64, summaries: &[Summary]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let body: Vec<String> =
        summaries.iter().map(|s| format!("\"{}\":{}", s.workload, s.to_json())).collect();
    format!(
        "{{\"schema\":\"cmm-benchmark/1\",\"seed\":{seed},\"host_nproc\":{nproc},\"workloads\":{{{}}}}}\n",
        body.join(",")
    )
}

/// An end-to-end metric's declared direction and bound.
pub struct Declared {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The end-to-end declarations of `BENCHMARK.json`.
pub fn declared_e2e() -> Vec<Declared> {
    let j = json::parse(DECLARATION).expect("BENCHMARK.json parses");
    j.get("end_to_end")
        .and_then(Json::as_array)
        .expect("BENCHMARK.json declares end_to_end")
        .iter()
        .map(|m| Declared {
            name: m.get("name").and_then(Json::as_str).expect("metric name").to_string(),
            lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
            bound: m.get("bound").and_then(Json::as_f64).expect("metric bound"),
        })
        .collect()
}

/// One result file, reduced to what `compare` reads.
struct ResultFile {
    seed: u64,
    /// workload → metric → value
    metrics: BTreeMap<String, BTreeMap<String, f64>>,
    /// workload → cell → digest
    digests: BTreeMap<String, BTreeMap<String, String>>,
}

fn load_result(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let seed = j.get("seed").and_then(Json::as_u64).ok_or(format!("{path}: no seed"))?;
    let mut r = ResultFile { seed, metrics: BTreeMap::new(), digests: BTreeMap::new() };
    let Some(Json::Obj(workloads)) = j.get("workloads") else {
        return Err(format!("{path}: no workloads"));
    };
    for (w, body) in workloads {
        if let Some(Json::Obj(ms)) = body.get("metrics") {
            let e = r.metrics.entry(w.clone()).or_default();
            for (name, m) in ms {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    e.insert(name.clone(), v);
                }
            }
        }
        if let Some(Json::Obj(ds)) = body.get("digests") {
            let e = r.digests.entry(w.clone()).or_default();
            for (cell, d) in ds {
                e.insert(cell.clone(), d.as_str().unwrap_or_default().to_string());
            }
        }
    }
    Ok(r)
}

/// `compare <A…> -- <B…>`: each side's median and quartiles per (workload,
/// end-to-end metric), and whether B stays within the declared bound of A.
/// Files of equal seed must agree on every cell digest (which also pins
/// `hm_ipc_gain`, computed from the digested IPCs). Returns the exit code:
/// 0 when everything holds, 1 otherwise, 2 on bad input.
pub fn compare(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: cmm-benchmark compare <A.json…> -- <B.json…>");
        return 2;
    };
    let load =
        |paths: &[String]| paths.iter().map(|p| load_result(p)).collect::<Result<Vec<_>, _>>();
    let (a, b) = match (load(&args[..split]), load(&args[split + 1..])) {
        (Ok(a), Ok(b)) if !a.is_empty() && !b.is_empty() => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
        _ => {
            eprintln!("compare: each side needs at least one result file");
            return 2;
        }
    };
    let mut failures = 0;
    let workloads: std::collections::BTreeSet<&String> =
        a.iter().flat_map(|r| r.metrics.keys()).collect();
    println!(
        "{:<9} {:<18} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound"
    );
    let declared = declared_e2e();
    for w in workloads {
        for d in &declared {
            let values = |side: &[ResultFile]| -> Vec<f64> {
                side.iter().filter_map(|r| r.metrics.get(w)?.get(&d.name).copied()).collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if d.lower_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
            let ok = worse <= d.bound;
            failures += !ok as usize;
            let show = |v: &[f64], m: f64| match quartiles(v) {
                Some((q1, _, q3)) => format!("{m:.6} [{q1:.6}, {q3:.6}]"),
                None => format!("{m:.6}"),
            };
            println!(
                "{w:<9} {:<18} {:>30} {:>30} {:>7.2}% {:>5.0}%  {}",
                d.name,
                show(&va, ma),
                show(&vb, mb),
                worse * 100.0,
                d.bound * 100.0,
                if ok { "within bound" } else { "PAST BOUND" }
            );
        }
    }
    // Every file of a seed must carry the same digests.
    let mut by_seed: BTreeMap<u64, Vec<&ResultFile>> = BTreeMap::new();
    for r in a.iter().chain(&b) {
        by_seed.entry(r.seed).or_default().push(r);
    }
    for (seed, files) in by_seed {
        for other in &files[1..] {
            for (w, ds) in &other.digests {
                for (cell, d) in ds {
                    if let Some(d0) = files[0].digests.get(w).and_then(|m| m.get(cell)) {
                        if d0 != d {
                            failures += 1;
                            println!("seed {seed} {w} {cell}: digest {d0} != {d}");
                        }
                    }
                }
            }
        }
    }
    println!("{failures} problem(s)");
    (failures > 0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(secs: &[f64], digests: &[&str]) -> ChildReport {
        ChildReport {
            setup_s: 1e-3,
            wall_s: secs.iter().sum(),
            core_cycles: 3_000_000,
            peak_rss_mib: 4.0,
            gain: 1.0,
            cells: secs
                .iter()
                .zip(digests)
                .enumerate()
                .map(|(i, (&secs, d))| CellReport {
                    name: format!("c{i}"),
                    secs,
                    digest: Some(d.to_string()),
                })
                .collect(),
            layers: Vec::new(),
        }
    }

    fn run(reps: Vec<ChildReport>) -> WorkloadRun {
        let cells = (0..reps[0].cells.len()).map(|i| format!("c{i}")).collect();
        WorkloadRun {
            workload: "w".into(),
            cells,
            reps: reps.into_iter().map(Ok).collect(),
            traced: None,
        }
    }

    #[test]
    fn wall_is_the_sum_of_each_cells_best_rep() {
        // Interference slowed a different cell in each rep.
        let r = run(vec![
            rep(&[3.0, 1.0, 2.0], &["a", "b", "c"]),
            rep(&[1.0, 2.5, 2.0], &["a", "b", "c"]),
        ]);
        let s = r.summarize(&Golden::new());
        assert!(s.problems.is_empty(), "{:?}", s.problems);
        let get = |n: &str| s.e2e.iter().find(|(k, _)| *k == n).map(|(_, v)| *v);
        assert_eq!(get("wall_s"), Some(4.0));
        assert_eq!(get("cell_p50_s"), Some(1.0));
        assert_eq!(get("sim_mcycles_per_s"), Some(0.75));
    }

    #[test]
    fn a_digest_off_the_golden_or_the_first_rep_fails_its_cell() {
        let r = run(vec![rep(&[1.0, 1.0], &["a", "b"]), rep(&[1.0, 1.0], &["a", "x"])]);
        let s = r.summarize(&Golden::new());
        assert_eq!((s.attempted, s.failed), (4, 1));
        let golden: Golden = [(("w".to_string(), "c0".to_string()), "z".to_string())].into();
        assert_eq!(r.summarize(&golden).failed, 3);
    }

    #[test]
    fn quartiles_match_pythons_statistics_module() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
    }
}
