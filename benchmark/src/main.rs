//! `cmm-benchmark`: the repository's end-to-end benchmark. README.md in
//! this directory describes the workloads, the metrics and the run-book.
//!
//! ```text
//! cmm-benchmark [--seed N] [--reps N] [--bless] [--out FILE]
//!     every workload, reps interleaved round-robin, one traced rep each
//! cmm-benchmark --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//!     one workload for about S seconds; the last stdout line is the
//!     result object (end-to-end metrics, or per-layer ones with --trace 1)
//! cmm-benchmark compare <A.json…> -- <B.json…>
//! ```
//!
//! Every rep runs in a child process of its own (`cmm-benchmark child …`),
//! single-threaded, so each rep's set-up time and peak RSS are its own.

mod cells;
mod probe;
mod report;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use cmm_core::experiment::WarmupPool;

use crate::cells::{digest, Plan, Tracer, WORKLOADS};
use crate::report::{CellReport, ChildReport, Golden, Summary, WorkloadRun};

const DEFAULT_SEED: u64 = 42;
const DEFAULT_REPS: usize = 5;
const DEFAULT_SECONDS: f64 = 25.0;
/// Fewest untraced reps a `--workload` run takes, however short
/// `--seconds` is: each cell's time is its best over the reps.
const MIN_REPS: usize = 3;
/// A `--workload` run starts no rep after this many seconds, whatever
/// `--seconds` says, so it ends well inside three minutes.
const MAX_SECONDS: f64 = 120.0;
const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        _ => run(&args),
    };
    std::process::exit(code);
}

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    reps: Option<usize>,
    bless: bool,
    out: Option<String>,
    spawned_at: Option<u128>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        reps: None,
        bless: false,
        out: None,
        spawned_at: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => o.seconds = Some(s),
                    _ => return Err(bad(v)),
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    v => return Err(bad(v)),
                }
            }
            "--reps" => {
                let v = value()?;
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => o.reps = Some(n),
                    _ => return Err(bad(v)),
                }
            }
            "--bless" => o.bless = true,
            "--out" => o.out = Some(value()?.clone()),
            "--spawned-at" => {
                o.spawned_at = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?)
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(o)
}

fn unix_ns() -> u128 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos())
}

/// Peak resident set (`VmHWM`) of this process.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One rep of one workload, in this (child) process; prints its report.
fn child(args: &[String]) -> i32 {
    let started = Instant::now();
    let o = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("child: {e}");
            return 2;
        }
    };
    let t = Instant::now();
    let Some(plan) = o.workload.as_deref().and_then(|w| Plan::new(w, o.seed)) else {
        eprintln!("child: unknown workload");
        return 2;
    };
    let mut tracer = Tracer::default();
    tracer.layers.mixes_ns = t.elapsed().as_nanos() as u64;
    let pool = WarmupPool::new();
    let setup_s = match o.spawned_at {
        Some(at) => unix_ns().saturating_sub(at) as f64 / 1e9,
        None => started.elapsed().as_secs_f64(),
    };

    let trace = o.trace.unwrap_or(false);
    let start = Instant::now();
    let mut cells = Vec::with_capacity(plan.cells.len());
    let mut hm: Vec<Option<f64>> = vec![None; plan.cells.len()];
    let mut core_cycles = 0;
    for (i, cell) in plan.cells.iter().enumerate() {
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            if trace {
                plan.run_traced(cell, &mut tracer)
            } else {
                plan.run(cell, &pool)
            }
        }));
        let secs = t.elapsed().as_secs_f64();
        let digest = out.ok().map(|out| {
            core_cycles += out.core_cycles;
            hm[i] = Some(cmm_metrics::hm_ipc(&out.ipcs));
            let t = Instant::now();
            let d = digest(&cell.name, &out, &mut tracer.layers.journal_bytes);
            tracer.layers.journal_ns += t.elapsed().as_nanos() as u64;
            format!("{d:016x}")
        });
        cells.push(CellReport { name: cell.name.clone(), secs, digest });
    }
    let wall_s = start.elapsed().as_secs_f64();

    let ratios: Vec<f64> = plan
        .cells
        .iter()
        .enumerate()
        .filter_map(|(i, c)| Some(hm[i]? / hm[c.reference?]?.max(f64::MIN_POSITIVE)))
        .collect();
    // `solo` has no managed cell: its gain is 1 by definition.
    let gain = if ratios.is_empty() { 1.0 } else { cmm_metrics::geomean(&ratios) };
    let layers = if trace {
        tracer.layers.values(wall_s).into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    } else {
        Vec::new()
    };
    let report = ChildReport {
        setup_s,
        wall_s,
        core_cycles,
        peak_rss_mib: peak_rss_mib(),
        gain,
        cells,
        layers,
    };
    println!("{}", report.to_json());
    0
}

/// Runs one rep in a child process and waits for it.
fn spawn(workload: &str, seed: u64, trace: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["child", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }, "--spawned-at", &unix_ns().to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    ChildReport::parse(stdout.lines().last().ok_or("child printed no report")?)
}

fn golden_path(seed: u64) -> String {
    format!("{GOLDEN_DIR}/seed-{seed}.txt")
}

fn load_golden(seed: u64) -> Result<Golden, String> {
    match std::fs::read_to_string(golden_path(seed)) {
        Ok(text) => report::parse_golden(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Golden::new()),
        Err(e) => Err(format!("{}: {e}", golden_path(seed))),
    }
}

/// Where a result file goes by default: beside the build, in the cargo
/// target directory.
fn default_out(label: &str, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target =
        exe.parent().and_then(|p| p.parent()).ok_or("executable has no target directory")?;
    let dir = target.join("benchmark-results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let name = format!("{label}-seed{seed}-{}-{}.json", unix_ns() / 1_000_000, std::process::id());
    Ok(dir.join(name).display().to_string())
}

fn run(args: &[String]) -> i32 {
    let o = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cmm-benchmark: {e}");
            return 2;
        }
    };
    let golden = match (o.bless, load_golden(o.seed)) {
        // Blessing checks determinism across reps only.
        (true, _) => Golden::new(),
        (false, Ok(g)) => g,
        (false, Err(e)) => {
            eprintln!("cmm-benchmark: {e}");
            return 2;
        }
    };
    let mode_error = match o.workload {
        Some(_) if o.reps.is_some() => {
            Some("--reps belongs to a suite run; --workload runs by --seconds")
        }
        None if o.seconds.is_some() || o.trace.is_some() => {
            Some("--seconds and --trace need --workload")
        }
        _ => None,
    };
    if let Some(e) = mode_error {
        eprintln!("cmm-benchmark: {e}");
        return 2;
    }
    let trace = o.trace.unwrap_or(false);
    let workloads: Vec<&str> = match o.workload.as_deref() {
        Some(w) if WORKLOADS.contains(&w) => vec![w],
        Some(w) => {
            eprintln!("cmm-benchmark: unknown workload '{w}' (known: {})", WORKLOADS.join(", "));
            return 2;
        }
        None => WORKLOADS.to_vec(),
    };
    let mut runs: Vec<WorkloadRun> = workloads
        .iter()
        .map(|w| WorkloadRun {
            workload: w.to_string(),
            cells: Plan::new(w, o.seed)
                .expect("known workload")
                .cells
                .into_iter()
                .map(|c| c.name)
                .collect(),
            reps: Vec::new(),
            traced: None,
        })
        .collect();

    if o.workload.is_some() {
        // Whole reps until about `--seconds` have passed.
        let run = &mut runs[0];
        let start = Instant::now();
        let mut children = 0;
        loop {
            let rep = spawn(&run.workload, o.seed, false);
            let failed = rep.is_err();
            run.reps.push(rep);
            children += 1;
            if trace && run.traced.is_none() {
                run.traced = Some(spawn(&run.workload, o.seed, true));
                children += 1;
            }
            let elapsed = start.elapsed().as_secs_f64();
            let next_ends = elapsed + elapsed / children as f64;
            let enough =
                run.reps.len() >= MIN_REPS && next_ends > o.seconds.unwrap_or(DEFAULT_SECONDS);
            if failed || enough || elapsed > MAX_SECONDS {
                break;
            }
        }
    } else {
        // Reps interleaved round-robin so host drift hits every workload
        // alike; the traced reps run after the first round.
        for rep in 0..o.reps.unwrap_or(DEFAULT_REPS) {
            for run in runs.iter_mut() {
                eprintln!("[benchmark] {} rep {}", run.workload, rep + 1);
                run.reps.push(spawn(&run.workload, o.seed, false));
            }
            if rep == 0 {
                for run in runs.iter_mut() {
                    eprintln!("[benchmark] {} traced", run.workload);
                    run.traced = Some(spawn(&run.workload, o.seed, true));
                }
            }
        }
    }

    let summaries: Vec<Summary> = runs.iter().map(|r| r.summarize(&golden)).collect();
    for s in &summaries {
        s.print_lines();
    }
    let label = o.workload.as_deref().unwrap_or("suite");
    let written = o.out.clone().map_or_else(|| default_out(label, o.seed), Ok).and_then(|path| {
        std::fs::write(&path, report::result_json(o.seed, &summaries))
            .map(|_| path.clone())
            .map_err(|e| format!("{path}: {e}"))
    });
    match written {
        Ok(path) => eprintln!("[benchmark] result written to {path}"),
        Err(e) => eprintln!("[benchmark] result not written: {e}"),
    }
    let ok = summaries.iter().all(|s| s.failed == 0 && s.problems.is_empty());
    if o.bless && ok {
        let mut g = load_golden(o.seed).unwrap_or_default();
        for s in &summaries {
            for (cell, d) in &s.digests {
                g.insert((s.workload.clone(), cell.clone()), d.clone());
            }
        }
        let blessed = std::fs::create_dir_all(GOLDEN_DIR)
            .and_then(|()| std::fs::write(golden_path(o.seed), report::render_golden(&g)));
        match blessed {
            Ok(()) => eprintln!("[benchmark] blessed {}", golden_path(o.seed)),
            Err(e) => {
                eprintln!("[benchmark] cannot bless {}: {e}", golden_path(o.seed));
                return 1;
            }
        }
    }
    if o.workload.is_some() {
        println!("{}", summaries[0].result_line(trace));
    }
    if ok {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::Layers;
    use crate::report::{unit_of, DECLARATION};
    use cmm_bench::json::{self, Json};

    fn declared(section: &str) -> Vec<(String, String)> {
        let j = json::parse(DECLARATION).expect("BENCHMARK.json parses");
        let field =
            |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
        j.get(section)
            .and_then(Json::as_array)
            .expect("section present")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn emitted_names_are_exactly_the_declared_ones() {
        let cells: Vec<String> = (0..16).map(|i| format!("c{i}")).collect();
        let rep = ChildReport {
            setup_s: 1e-3,
            wall_s: 1.0,
            core_cycles: 1_000_000,
            peak_rss_mib: 4.0,
            gain: 1.0,
            cells: cells
                .iter()
                .map(|c| CellReport { name: c.clone(), secs: 0.02, digest: Some("0".into()) })
                .collect(),
            layers: Vec::new(),
        };
        let layers =
            Layers::default().values(1.0).into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let traced = ChildReport { layers, ..rep.clone() };
        let run = WorkloadRun {
            workload: "mix8".into(),
            cells,
            reps: vec![Ok(rep)],
            traced: Some(Ok(traced)),
        };
        let s = run.summarize(&Golden::new());
        assert_eq!(s.problems, Vec::<String>::new());

        let emitted = |list: &[(&str, f64)]| -> Vec<(String, String)> {
            list.iter().map(|(n, _)| (n.to_string(), unit_of(n).to_string())).collect()
        };
        assert_eq!(emitted(&s.e2e), declared("end_to_end"));
        assert_eq!(emitted(&s.per_layer), declared("per_layer"));
        assert!(s.e2e.len() <= 16 && s.per_layer.len() <= 128);
        for (n, _) in s.e2e.iter().chain(&s.per_layer) {
            assert!(valid_name(n), "{n}");
        }
        let workloads: Vec<String> = json::parse(DECLARATION)
            .expect("BENCHMARK.json parses")
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads declared")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap_or_default().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
