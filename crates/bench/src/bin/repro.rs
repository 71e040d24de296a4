//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <target> [--quick] [--mixes N] [--seed S] [--jobs N] [--csv DIR]
//!       [--bench-json PATH] [--journal PATH] [--fault-seed S]
//!       [--resume PATH] [--attempts N] [--trace-dir DIR]
//!       [--topology SxM[@shared|@CYCLES]]
//!
//! targets:
//!   table1   Table I metrics for every benchmark (run alone)
//!   fig1     memory bandwidth with/without prefetching
//!   fig2     IPC speedup from prefetching
//!   fig3     IPC vs number of LLC ways (prefetchers on)
//!   fig5     Agg-set detector stages on a sample mix
//!   fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15
//!   fairness supplementary Gabor-fairness table
//!   overhead controller overhead accounting (paper: <0.1 %)
//!   ablate   partition-scale / epoch-ratio / QBS sensitivity studies
//!   extension  PT vs PT-fine (per-engine throttling beyond the paper)
//!   faults   fault-injection resilience sweep (hm_ipc vs fault rate;
//!            exit 1 if degradation cliffs below the smoothness floor);
//!            includes an MBA-register fault leg driving CBP -> CMM-a
//!   governor safety-governor dominance sweep: CBP bare vs CBP with the
//!            runtime governor (rollback, quarantine, circuit breakers)
//!            at increasing fault rates; exit 1 unless the governed run
//!            keeps at least the bare run's hm_ipc at every nonzero rate
//!   bandwidth  three-resource comparison: CMM-a vs bandwidth-only MBA vs
//!            CBP (prefetch × CAT × MBA), per-mix hm_ipc and fairness
//!   scale    topology sweep 1x8 -> 2x16 -> 4x32 (or one --topology):
//!            per-CAT-domain hm_ipc, one BENCH target per leg (scale_SxM)
//!   all      everything above (except ablate/extension/faults/scale)
//!
//! Trace subcommands (see DESIGN.md "Trace subsystem"):
//!   trace record <dir> [mix-name] [--ops N] [--seed S]
//!            record every core of a synthetic mix (default PrefAgg-00)
//!            into cmm-trace/1 binary files under <dir>
//!   trace convert <in> <out>
//!            transcode text <-> binary (input sniffed, output by extension)
//!   trace stat <file>...
//!            op counts, footprint and derived-MLP summary per file
//!
//! `--trace-dir DIR` on the fig7..fig15/fairness/overhead/ablate/all
//! targets replaces the synthetic mixes with the traces in DIR (grouped
//! 8 per mix, wrapping round-robin); the trace-set checksums join the
//! checkpoint config digest, so `--resume` refuses to splice cells from a
//! different trace set.
//!
//! CI subcommands (no simulation):
//!   bench-compare <baseline.json> <current.json> [--noise F] [--scps-floor N]
//!            diff two BENCH_sim.json perf logs; exit 1 on regression
//!   journal-summary <journal.jsonl> [--csv PATH]
//!            pretty-print a cmm-journal/1../5 run journal (multi-socket
//!            runs keyed per CAT domain: "mix: mech [d0]"); --csv also
//!            exports the per-epoch telemetry as a plottable CSV
//!   journal-diff <a.jsonl> <b.jsonl>
//!            compare two journals' per-epoch decision sequences;
//!            exit 1 on divergence, 2 on read/parse errors or when the
//!            two journals were recorded on different topologies or
//!            under different journal schemas
//!   soak     kill-and-resume chaos gate: clean run, transient-chaos run,
//!            persistent-chaos failure + resume, hard-kill + resume; exit 1
//!            unless every converged output is byte-identical
//! ```
//!
//! **Crash safety & resume.** Evaluation cells run panic-isolated with a
//! bounded retry budget (`--attempts`, default 3): a panicking cell never
//! aborts its siblings, and a cell that exhausts the budget surfaces in a
//! per-cell failure report (exit 1) after the rest of the sweep completed.
//! `--resume PATH` maintains a `cmm-ckpt/1` sidecar of completed cells:
//! an interrupted run re-invoked with the same `--resume` splices the
//! cached results and produces byte-identical stdout/journal output to an
//! uninterrupted run at any `--jobs`. The chaos flags (`--chaos-seed`,
//! `--chaos-rate`, `--chaos-mode`, `--chaos-kill`) inject seeded panics /
//! a hard process kill into the harness itself; `repro soak` drives them
//! end-to-end.
//!
//! `--quick` shrinks durations and the per-category workload count so the
//! whole suite finishes in minutes; the default matches the scaled
//! methodology of DESIGN.md.
//!
//! `--jobs N` fans independent simulations (the (mix × mechanism) matrix,
//! the characterisation roster, ablation points) across N threads; the
//! default is the host core count and `--jobs 1` is the serial fallback.
//! Table/figure output — and the run journal — is bit-identical for
//! every N.
//!
//! `--topology SxM` runs the evaluation targets (fig7..fig15, fairness,
//! overhead, bandwidth, scale and the evaluation half of all) on an
//! S-socket × M-core machine: per-socket LLC + CAT domain, per-socket
//! memory controllers by default (`@shared` / `@CYCLES` select one
//! controller homed on socket 0 with a cross-socket fill penalty), one
//! CMM controller instance per CAT domain, and mixes tiled onto the
//! larger machine by round-robin slot replication. `--topology 1x8` is a
//! complete no-op: digest, stdout and journal stay byte-identical to the
//! flagless run. The single-socket targets (faults, governor, learn,
//! extension, ablate, table1, fig1, fig2, fig3, fig5) refuse a
//! multi-socket `--topology` with exit 2.
//!
//! Every run writes a machine-readable perf log (wall-clock, cells/sec,
//! sim-cycles/sec per target) to `BENCH_sim.json` (see `--bench-json`)
//! and a `cmm-journal/2` JSONL decision journal (per profiling epoch:
//! metric cascade, Agg set, trialed configs with hm_ipc, applied winner,
//! observed substrate faults and degradations) to `JOURNAL_sim.jsonl`
//! (see `--journal`); multi-socket runs upgrade it to `cmm-journal/3`
//! (manifest `topology` key, per-epoch CAT `domain`), MBA-capable
//! targets (`bandwidth`, `faults`) to `cmm-journal/4` (per-epoch MBA
//! trial/applied delay levels), and the governed `governor` target to
//! `cmm-journal/5` (manifest `governor` flag, per-epoch governor events).
//! `--fault-seed` seeds the `faults`/`governor` targets' injected fault
//! schedule (and the governor's jitter stream).

use cmm_bench::ablate;
use cmm_bench::chaos::{self, ChaosMode};
use cmm_bench::characterize::{
    prefetch_impact, profile_alone, way_sweep, ways_needed, CharacterizeConfig,
};
use cmm_bench::checkpoint::Checkpoint;
use cmm_bench::figures::{self, EvalConfig, Evaluation};
use cmm_bench::perf::BenchLog;
use cmm_bench::runner::{default_jobs, parallel_map, CellFailure, Progress, DEFAULT_ATTEMPTS};
use cmm_bench::{compare, diff, faults, governor, journal, learn, report, soak};
use cmm_core::backend;
use cmm_core::experiment::{run_mix_pooled, ExperimentConfig, WarmupPool};
use cmm_core::frontend::{detect_agg, metrics, DetectorConfig};
use cmm_core::policy::{ControllerConfig, Mechanism};
use cmm_core::telemetry::EpochRecord;
use cmm_learn::{fnv1a, Model};
use cmm_metrics as met;
use cmm_sim::config::{SystemConfig, Topology};
use cmm_sim::System;
use cmm_workloads::spec::{self, thresholds, Benchmark};
use cmm_workloads::{build_mixes, Mix, TraceSet};

struct Args {
    target: String,
    /// Positional operands after the target (subcommand file paths).
    operands: Vec<String>,
    quick: bool,
    mixes: Option<usize>,
    seed: u64,
    fault_seed: u64,
    jobs: usize,
    csv: Option<std::path::PathBuf>,
    bench_json: std::path::PathBuf,
    journal: std::path::PathBuf,
    noise: f64,
    /// `bench-compare`: hard floor on each current target's
    /// `sim_cycles_per_s` (the CI `smoke_perf` gate).
    scps_floor: Option<f64>,
    resume: Option<std::path::PathBuf>,
    attempts: u32,
    trace_dir: Option<std::path::PathBuf>,
    /// `repro trace record`: ops captured per core.
    ops: usize,
    chaos_seed: u64,
    chaos_rate: f64,
    chaos_mode: ChaosMode,
    chaos_kill: Option<u64>,
    /// `--topology SxM[@shared|@cycles]`: sockets × cores/socket. `None`
    /// and single-socket values leave every output byte-identical to the
    /// historical single-socket runs.
    topology: Option<Topology>,
    /// `repro learn --model PATH`: load a `cmm-model/1` classifier instead
    /// of training one in-process (exit 2 on any format error).
    model: Option<std::path::PathBuf>,
    /// `repro learn train --out PATH`: where the fitted model is written.
    out: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut target: Option<String> = None;
    let mut operands = Vec::new();
    let mut quick = false;
    let mut mixes = None;
    let mut seed = 42;
    let mut fault_seed = 7;
    let mut jobs = default_jobs();
    let mut csv = None;
    let mut bench_json = std::path::PathBuf::from("BENCH_sim.json");
    let mut journal = std::path::PathBuf::from("JOURNAL_sim.jsonl");
    let mut noise = compare::DEFAULT_NOISE;
    let mut scps_floor = None;
    let mut resume = None;
    let mut attempts = DEFAULT_ATTEMPTS;
    let mut trace_dir = None;
    let mut ops = 50_000;
    let mut chaos_seed = soak::SOAK_CHAOS_SEED;
    let mut chaos_rate = 0.0;
    let mut chaos_mode = ChaosMode::Transient;
    let mut chaos_kill = None;
    let mut topology = None;
    let mut model = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--csv" => {
                csv = Some(std::path::PathBuf::from(it.next().expect("--csv needs a directory")))
            }
            "--bench-json" => {
                bench_json = std::path::PathBuf::from(it.next().expect("--bench-json needs a path"))
            }
            "--journal" => {
                journal = std::path::PathBuf::from(it.next().expect("--journal needs a path"))
            }
            "--noise" => {
                noise = it.next().and_then(|v| v.parse().ok()).expect("--noise needs a fraction")
            }
            "--scps-floor" => {
                scps_floor = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scps-floor needs sim-cycles/s"),
                )
            }
            "--mixes" => {
                mixes =
                    Some(it.next().and_then(|v| v.parse().ok()).expect("--mixes needs a number"))
            }
            "--seed" => {
                seed = it.next().and_then(|v| v.parse().ok()).expect("--seed needs a number")
            }
            "--fault-seed" => {
                fault_seed =
                    it.next().and_then(|v| v.parse().ok()).expect("--fault-seed needs a number")
            }
            "--jobs" => {
                jobs = it.next().and_then(|v| v.parse().ok()).expect("--jobs needs a number");
                if jobs == 0 {
                    jobs = default_jobs();
                }
            }
            "--resume" => {
                resume = Some(std::path::PathBuf::from(
                    it.next().expect("--resume needs a checkpoint path"),
                ))
            }
            "--attempts" => {
                attempts =
                    it.next().and_then(|v| v.parse().ok()).expect("--attempts needs a number");
                if attempts == 0 {
                    attempts = 1;
                }
            }
            "--trace-dir" => {
                trace_dir = Some(std::path::PathBuf::from(
                    it.next().expect("--trace-dir needs a directory"),
                ))
            }
            "--ops" => {
                ops = it.next().and_then(|v| v.parse().ok()).expect("--ops needs a number");
                if ops == 0 {
                    ops = 1;
                }
            }
            "--chaos-seed" => {
                chaos_seed =
                    it.next().and_then(|v| v.parse().ok()).expect("--chaos-seed needs a number")
            }
            "--chaos-rate" => {
                chaos_rate =
                    it.next().and_then(|v| v.parse().ok()).expect("--chaos-rate needs a fraction")
            }
            "--chaos-mode" => {
                chaos_mode = match it.next().as_deref() {
                    Some("transient") => ChaosMode::Transient,
                    Some("persistent") => ChaosMode::Persistent,
                    Some("hang") => ChaosMode::Hang,
                    other => {
                        eprintln!(
                            "--chaos-mode needs 'transient', 'persistent' or 'hang' (got {other:?})"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--chaos-kill" => {
                chaos_kill = Some(
                    it.next().and_then(|v| v.parse().ok()).expect("--chaos-kill needs a number"),
                )
            }
            "--model" => {
                model = Some(std::path::PathBuf::from(
                    it.next().expect("--model needs a cmm-model/1 path"),
                ))
            }
            "--out" => out = Some(std::path::PathBuf::from(it.next().expect("--out needs a path"))),
            "--topology" => {
                let spec = it.next().unwrap_or_default();
                topology = match spec.parse::<Topology>() {
                    Ok(t) => Some(t),
                    Err(e) => {
                        eprintln!("--topology: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro <table1|fig1|fig2|fig3|fig5|fig7..fig15|overhead|faults|\
                     governor|bandwidth|learn|all> \
                     [--quick] [--mixes N] [--seed S] [--fault-seed S] [--jobs N] [--csv DIR] \
                     [--bench-json PATH] [--journal PATH] [--resume CKPT] [--attempts N] \
                     [--topology SxM]\n       \
                     repro bandwidth … — three-resource comparison (CMM-a, MBA, CBP): \
                     per-mix hm_ipc and fairness, cmm-journal/4\n       \
                     repro governor [--quick] [--fault-seed S] … — CBP bare vs governed \
                     under injected faults (dominance gate), cmm-journal/5\n       \
                     repro learn [--quick] [--model PATH] … — learned controllers \
                     (ML-Sel, RL-CBP) vs CMM-a/CBP (floor + convergence gates), \
                     cmm-journal/6; trains in-process unless --model is given\n       \
                     repro learn train [--quick] [--out PATH] — fit the phase \
                     classifier and write it as cmm-model/1 (default mlsel.model)\n       \
                     repro scale [--quick] [--topology SxM] — topology sweep \
                     (default 1x8, 2x16, 4x32) with per-domain hm_ipc\n       \
                     repro <fig7..fig15|fairness|overhead|ablate|all> --trace-dir DIR …\n       \
                     repro trace record <dir> [mix-name] [--ops N] [--seed S]\n       \
                     repro trace convert <in> <out>\n       \
                     repro trace stat <file>...\n       \
                     repro soak [--jobs N]\n       \
                     repro bench-compare <baseline.json> <current.json> [--noise F] \
                     [--scps-floor N]\n       \
                     repro journal-summary <journal.jsonl> [--csv PATH]\n       \
                     repro journal-diff <a.jsonl> <b.jsonl>\n\n\
                     crash safety: --resume CKPT keeps a cmm-ckpt/1 sidecar of completed\n\
                     cells and splices them on re-run (byte-identical output); --attempts\n\
                     bounds per-cell retries after a panic. --chaos-seed/--chaos-rate/\n\
                     --chaos-mode/--chaos-kill inject harness faults (used by 'repro soak')."
                );
                std::process::exit(0);
            }
            t if !t.starts_with('-') => {
                if target.is_none() {
                    target = Some(t.to_string());
                } else {
                    operands.push(t.to_string());
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    Args {
        target: target.unwrap_or_else(|| "all".into()),
        operands,
        quick,
        mixes,
        seed,
        fault_seed,
        jobs,
        csv,
        bench_json,
        journal,
        noise,
        scps_floor,
        resume,
        attempts,
        trace_dir,
        ops,
        chaos_seed,
        chaos_rate,
        chaos_mode,
        chaos_kill,
        topology,
        model,
        out,
    }
}

/// `repro learn train`: fit the phase classifier from the roster corpus
/// and write it out as a `cmm-model/1` document. Exit 0 on success, 2 on
/// an unwritable output path.
fn run_learn_train(args: &Args) -> i32 {
    let out = args.out.clone().unwrap_or_else(|| std::path::PathBuf::from("mlsel.model"));
    let t = learn::train_model(args.quick);
    print!(
        "{}",
        report::table(
            "Phase-classifier training corpus — run-alone IPC per 0x1A4 image",
            &learn::TRAIN_HEADERS,
            &t.rows,
        )
    );
    println!(
        "trained cmm-model/1: {} samples, {} classes, training accuracy {:.3}",
        t.samples,
        t.model.labels.len(),
        t.accuracy
    );
    let text = t.model.to_text();
    if let Err(e) = cmm_bench::atomic::write_atomic(&out, text.as_bytes()) {
        eprintln!("[repro] learn train: cannot write {}: {e}", out.display());
        return 2;
    }
    println!("wrote {} ({} bytes, digest {})", out.display(), text.len(), fnv1a(text.as_bytes()));
    0
}

/// Resolves the `repro learn` classifier: loads `--model` (exit 2 on any
/// `cmm-model/1` format error) or trains one in-process, printing the
/// training table. Returns the model plus its content digest (folded into
/// the run's config digest so `--resume` refuses a different model).
fn resolve_learn_model(args: &Args, log: &Progress) -> (Model, String) {
    match &args.model {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("[repro] --model {}: {e}", path.display());
                    std::process::exit(2);
                }
            };
            match Model::from_text(&text) {
                Ok(m) => {
                    log.note(&format!(
                        "loaded cmm-model/1 from {} ({} classes, digest {})",
                        path.display(),
                        m.labels.len(),
                        fnv1a(text.as_bytes())
                    ));
                    (m, fnv1a(text.as_bytes()))
                }
                Err(e) => {
                    eprintln!("[repro] --model {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
        }
        None => {
            let t = learn::train_model(args.quick);
            print!(
                "{}",
                report::table(
                    "Phase-classifier training corpus — run-alone IPC per 0x1A4 image",
                    &learn::TRAIN_HEADERS,
                    &t.rows,
                )
            );
            log.note(&format!(
                "trained phase classifier in-process: {} samples, accuracy {:.3}",
                t.samples, t.accuracy
            ));
            let digest = fnv1a(t.model.to_text().as_bytes());
            (t.model, digest)
        }
    }
}

/// `repro bench-compare <baseline> <current>`: exit 0 when within noise,
/// 1 on any regression (or missing target), 2 on usage/parse errors.
fn run_bench_compare(args: &Args) -> i32 {
    let [base_path, cur_path] = match args.operands.as_slice() {
        [b, c] => [b, c],
        _ => {
            eprintln!(
                "usage: repro bench-compare <baseline.json> <current.json> \
                 [--noise F] [--scps-floor N]"
            );
            return 2;
        }
    };
    let load = |p: &str| compare::load_doc(std::path::Path::new(p));
    let (base, cur) = match (load(base_path), load(cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-compare: {e}");
            return 2;
        }
    };
    if base.quick != cur.quick {
        eprintln!(
            "bench-compare: warning: comparing quick={} against quick={}",
            base.quick, cur.quick
        );
    }
    let deltas = compare::compare(&base, &cur, args.noise);
    print!("{}", compare::render(&deltas, args.noise));
    let mut failed = false;
    if compare::any_regression(&deltas) {
        eprintln!("bench-compare: REGRESSION over {base_path}");
        failed = true;
    }
    // --scps-floor: absolute throughput gate on the *current* log, the CI
    // smoke_perf hard floor (the relative sim-cyc/s column stays advisory).
    if let Some(floor) = args.scps_floor {
        for (name, scps) in compare::below_scps_floor(&cur, floor) {
            eprintln!(
                "bench-compare: {name}: {:.1}M sim-cycles/s below the {:.1}M floor",
                scps / 1e6,
                floor / 1e6
            );
            failed = true;
        }
    }
    i32::from(failed)
}

/// `repro journal-summary <journal.jsonl> [--csv PATH]`: exit 0 on
/// success, 2 on read/parse errors. With `--csv`, also exports the
/// journal's per-epoch telemetry (epoch, mechanism, exec hm_ipc and delta,
/// fault count, degraded flag) as a plottable CSV.
fn run_journal_summary(args: &Args) -> i32 {
    let [path] = match args.operands.as_slice() {
        [p] => [p],
        _ => {
            eprintln!("usage: repro journal-summary <journal.jsonl> [--csv PATH]");
            return 2;
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("journal-summary: read {path}: {e}");
            return 2;
        }
    };
    let summary = match journal::summarize(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("journal-summary: {path}: {e}");
            return 2;
        }
    };
    print!("{summary}");
    if let Some(csv_path) = &args.csv {
        let csv = match journal::epochs_csv(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("journal-summary: {path}: {e}");
                return 2;
            }
        };
        if let Err(e) = cmm_bench::atomic::write_atomic(csv_path, csv.as_bytes()) {
            eprintln!("journal-summary: write {}: {e}", csv_path.display());
            return 2;
        }
        eprintln!("[repro] wrote {} ({} epoch rows)", csv_path.display(), csv.lines().count() - 1);
    }
    0
}

/// `repro journal-diff <a> <b>`: exit 0 when the decision sequences are
/// identical, 1 on divergence, 2 on read/parse errors.
fn run_journal_diff(args: &Args) -> i32 {
    let [a_path, b_path] = match args.operands.as_slice() {
        [a, b] => [a, b],
        _ => {
            eprintln!("usage: repro journal-diff <a.jsonl> <b.jsonl>");
            return 2;
        }
    };
    let load = |p: &str| -> Result<diff::Decisions, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        diff::parse_decisions(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("journal-diff: {e}");
            return 2;
        }
    };
    // Different machine shapes produce per-domain decision sequences that
    // cannot line up; refuse rather than report spurious divergences.
    if a.topology != b.topology {
        let show = |t: &Option<String>| t.clone().unwrap_or_else(|| "single-socket".into());
        eprintln!(
            "journal-diff: topology mismatch: {a_path} is {} but {b_path} is {}; \
             re-run both journals on the same --topology to compare decisions",
            show(&a.topology),
            show(&b.topology)
        );
        return 2;
    }
    // A /4 journal records a third resource (MBA delay levels) that
    // earlier schemas cannot express; a same-schema journal with different
    // decisions is a real divergence, but a cross-schema pair would only
    // report the schema gap dressed up as decision drift. Refuse outright,
    // like the topology gate above.
    if a.schema != b.schema {
        eprintln!(
            "journal-diff: schema mismatch: {a_path} is {} but {b_path} is {}; \
             re-record both journals under the same schema to compare decisions",
            a.schema, b.schema
        );
        return 2;
    }
    let rep = diff::diff(&a, &b);
    print!("{}", rep.render(a_path, b_path));
    if rep.identical() {
        0
    } else {
        1
    }
}

/// Prints a series and, when `--csv DIR` was given, also writes it there.
fn emit(series: &cmm_bench::figures::FigureSeries, csv: &Option<std::path::PathBuf>) {
    print!("{}", report::render(series));
    if let Some(dir) = csv {
        match cmm_bench::export::write_csv(dir, series) {
            Ok(path) => eprintln!("[repro] wrote {}", path.display()),
            Err(e) => eprintln!("[repro] csv export failed: {e}"),
        }
    }
}

fn char_cfg(quick: bool) -> (SystemConfig, CharacterizeConfig) {
    let sys = SystemConfig::scaled(1);
    let cfg = if quick { CharacterizeConfig::quick() } else { CharacterizeConfig::default() };
    (sys, cfg)
}

fn eval_cfg(args: &Args) -> EvalConfig {
    let mut cfg = if args.quick { EvalConfig::quick() } else { EvalConfig::default() };
    if let Some(m) = args.mixes {
        cfg.mixes_per_category = m;
    }
    cfg.seed = args.seed;
    cfg.jobs = args.jobs;
    cfg.attempts = args.attempts;
    // Multi-socket runs keep the per-socket geometry and replicate it;
    // mixes are tiled to the machine inside `evaluate_resumable`. A
    // single-socket --topology is a no-op, keeping output byte-identical.
    if let Some(t) = args.topology.filter(|t| !t.is_single()) {
        cfg.exp.sys.set_topology(t);
    }
    cfg
}

/// Simulated core-cycles of one characterisation run.
fn char_cycles(cfg: &CharacterizeConfig) -> u64 {
    cfg.warmup + cfg.measure
}

/// Topologies swept by `repro scale` when `--topology` doesn't narrow it
/// to one leg (the CI matrix does).
const SCALE_SWEEP: [&str; 3] = ["1x8", "2x16", "4x32"];

/// Per-cell durations for `repro scale`: the `--quick` eval durations are
/// sized for 8 cores, so the many-core legs (4x32 simulates 128 cores per
/// cell) get a further cut to stay inside the CI smoke budget.
fn scale_exp(quick: bool) -> ExperimentConfig {
    let mut cfg = if quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
    if quick {
        cfg.warmup_cycles = 300_000;
        cfg.total_cycles = 600_000;
    }
    cfg
}

/// `repro scale`: Baseline and CMM-a on tiled mixes across the topology
/// sweep, reporting per-CAT-domain hm_ipc. Each leg is its own
/// `scale_<label>` perf-log target, so `bench-compare` gates many-core
/// throughput (wall, sim-cycles/s) separately from the 8-core targets.
fn run_scale(args: &Args, bench: &mut BenchLog, log: &Progress) -> Vec<JournalCell> {
    let topos: Vec<Topology> = match args.topology {
        Some(t) => vec![t],
        None => SCALE_SWEEP.iter().map(|s| s.parse().expect("sweep labels parse")).collect(),
    };
    let mechs = [Mechanism::Baseline, Mechanism::CmmA];
    let mut cells: Vec<JournalCell> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for topo in topos {
        let mut cfg = scale_exp(args.quick);
        cfg.sys.set_topology(topo);
        let pairs: Vec<(Mix, Mechanism)> = build_mixes(args.seed, 1)
            .into_iter()
            .take(2)
            .map(|m| m.tiled(topo.total_cores()))
            .flat_map(|m| mechs.into_iter().map(move |mech| (m.clone(), mech)))
            .collect();
        let per_cell = (cfg.warmup_cycles + cfg.total_cycles) * topo.total_cores() as u64;
        let name = format!("scale_{}", topo.label());
        let results =
            bench.measure(&name, pairs.len() as u64, pairs.len() as u64 * per_cell, || {
                let pool = WarmupPool::new();
                parallel_map(&pairs, args.jobs, |_, (mix, mech)| {
                    log.cell(
                        &format!("scale {}: {} {}", topo.label(), mix.name, mech.label()),
                        || run_mix_pooled(&pool, mix, *mech, &cfg),
                    )
                })
            });
        let len = topo.cores_per_socket;
        for r in results {
            for d in 0..topo.sockets {
                rows.push(vec![
                    topo.label(),
                    r.mix_name.clone(),
                    r.mechanism.label().to_string(),
                    d.to_string(),
                    format!("{:.4}", met::hm_ipc(&r.ipcs[d * len..(d + 1) * len])),
                ]);
            }
            cells.push((
                format!("scale {}: {} {}", topo.label(), r.mix_name, r.mechanism.label()),
                r.epochs,
            ));
        }
    }
    print!(
        "{}",
        report::table(
            "Scale sweep — per-CAT-domain harmonic-mean IPC",
            &["topology", "mix", "mechanism", "domain", "hm_ipc"],
            &rows,
        )
    );
    cells
}

/// Work volume (cells, simulated core-cycles) of one full evaluation.
fn eval_volume(cfg: &EvalConfig, mechanisms: &[Mechanism]) -> (u64, u64) {
    let mixes = match &cfg.trace_mixes {
        Some(m) => m.clone(),
        None => build_mixes(cfg.seed, cfg.mixes_per_category),
    };
    let mut distinct: Vec<String> = Vec::new();
    for mix in &mixes {
        for s in &mix.slots {
            if !distinct.iter().any(|n| n == s.name()) {
                distinct.push(s.name().to_string());
            }
        }
    }
    let per_mix = (cfg.exp.warmup_cycles + cfg.exp.total_cycles) * cfg.exp.sys.num_cores as u64;
    let per_alone = cfg.exp.warmup_cycles + cfg.exp.alone_cycles;
    let mix_cells = (mixes.len() * (1 + mechanisms.len())) as u64;
    let cells = mix_cells + distinct.len() as u64;
    let cycles = mix_cells * per_mix + distinct.len() as u64 * per_alone;
    (cells, cycles)
}

/// One journal cell: a run label (`"table1: bwaves3d"`, `"PrefAgg-00:
/// CMM-a"`) and its recorded controller epochs.
type JournalCell = (String, Vec<EpochRecord>);

/// Table I. Besides printing the metric table, every benchmark's run ends
/// with one real PT profiling epoch on the still-warm machine, so the
/// target journals genuine controller decisions (cascade, Agg verdict,
/// throttle trials, applied winner) without changing the printed numbers.
fn table1(quick: bool, jobs: usize, log: &Progress) -> Vec<JournalCell> {
    let (sys, cfg) = char_cfg(quick);
    let ctrl = if quick { ControllerConfig::quick() } else { ControllerConfig::default() };
    let results: Vec<(Vec<String>, JournalCell)> =
        parallel_map(spec::roster(), jobs, |_, b: &Benchmark| {
            log.cell(&format!("table1: {}", b.name), || {
                let (r, epochs) = profile_alone(b, &sys, &cfg, &ctrl);
                let m = r.metrics;
                let row = vec![
                    b.name.to_string(),
                    format!("{:.3}", r.ipc),
                    format!("{}", m.l2_llc_traffic),
                    format!("{:.2}", m.l2_pf_miss_frac),
                    format!("{:.4}", m.l2_ptr),
                    format!("{:.2}", m.pga),
                    format!("{:.2}", m.l2_pmr),
                    format!("{:.2}", m.l2_ppm),
                    format!("{:.3}", m.llc_pt),
                ];
                (row, (format!("table1: {}", b.name), epochs))
            })
        });
    let (rows, cells): (Vec<Vec<String>>, Vec<JournalCell>) = results.into_iter().unzip();
    print!(
        "{}",
        report::table(
            "Table I — per-benchmark metrics (run alone, prefetchers on)",
            &[
                "benchmark",
                "IPC",
                "M-1 L2-LLC",
                "M-2 frac",
                "M-3 PTR",
                "M-4 PGA",
                "M-5 PMR",
                "M-6 PPM",
                "M-7 LLC-PT"
            ],
            &rows,
        )
    );
    cells
}

fn fig1(quick: bool, jobs: usize, log: &Progress) {
    let (sys, cfg) = char_cfg(quick);
    let rows: Vec<Vec<String>> = parallel_map(spec::roster(), jobs, |_, b: &Benchmark| {
        log.cell(&format!("fig1: {}", b.name), || {
            let imp = prefetch_impact(b, &sys, &cfg);
            let agg = imp.off.demand_bpc > thresholds::DEMAND_INTENSIVE_BPC
                && imp.bw_increase() > thresholds::AGGRESSIVE_BW_INCREASE;
            vec![
                b.name.to_string(),
                b.spec_alias.to_string(),
                format!("{:.3}", imp.off.total_bpc()),
                format!("{:.3}", imp.on.total_bpc()),
                format!("{:+.0}%", imp.bw_increase() * 100.0),
                format!("{}", if agg { "yes" } else { "no" }),
                format!("{}", if b.class.prefetch_aggressive { "yes" } else { "no" }),
            ]
        })
    });
    print!(
        "{}",
        report::table(
            "Fig. 1 — memory bandwidth (bytes/cycle) without/with prefetching",
            &[
                "benchmark",
                "SPEC analogue",
                "BW off",
                "BW on",
                "increase",
                "aggressive?",
                "intended"
            ],
            &rows,
        )
    );
}

fn fig2(quick: bool, jobs: usize, log: &Progress) {
    let (sys, cfg) = char_cfg(quick);
    let rows: Vec<Vec<String>> = parallel_map(spec::roster(), jobs, |_, b: &Benchmark| {
        log.cell(&format!("fig2: {}", b.name), || {
            let imp = prefetch_impact(b, &sys, &cfg);
            let friendly = imp.ipc_speedup() > thresholds::FRIENDLY_IPC_SPEEDUP;
            vec![
                b.name.to_string(),
                format!("{:.3}", imp.off.ipc),
                format!("{:.3}", imp.on.ipc),
                format!("{:+.0}%", imp.ipc_speedup() * 100.0),
                format!("{}", if friendly { "yes" } else { "no" }),
                format!("{}", if b.class.prefetch_friendly { "yes" } else { "no" }),
            ]
        })
    });
    print!(
        "{}",
        report::table(
            "Fig. 2 — IPC speedup from prefetching",
            &["benchmark", "IPC off", "IPC on", "speedup", "friendly?", "intended"],
            &rows,
        )
    );
}

fn fig3(quick: bool, jobs: usize, log: &Progress) {
    let (sys, cfg) = char_cfg(quick);
    let header_ways: Vec<String> = (1..=sys.llc.ways).map(|w| format!("{w}w")).collect();
    let mut headers: Vec<&str> = vec!["benchmark", "needs", "sensitive?"];
    headers.extend(header_ways.iter().map(|s| s.as_str()));
    let rows: Vec<Vec<String>> = parallel_map(spec::roster(), jobs, |_, b: &Benchmark| {
        log.cell(&format!("fig3: {}", b.name), || {
            // The roster is already fanned out across `jobs`; the sweep's
            // inner way loop stays serial to avoid oversubscription.
            let sweep = way_sweep(b, &sys, &cfg, 1);
            let needs = ways_needed(&sweep, thresholds::LLC_SENSITIVE_PERF);
            let mut row = vec![
                b.name.to_string(),
                format!("{needs}"),
                format!("{}", if needs >= thresholds::LLC_SENSITIVE_WAYS { "yes" } else { "no" }),
            ];
            let peak = sweep.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
            row.extend(sweep.iter().map(|&i| format!("{:.2}", i / peak)));
            row
        })
    });
    print!(
        "{}",
        report::table(
            "Fig. 3 — IPC (relative to peak) vs LLC way count, prefetchers on",
            &headers,
            &rows,
        )
    );
}

fn fig5(quick: bool) {
    // Demonstrates the detector cascade on one Pref Agg mix.
    let mix: Mix = build_mixes(42, 1)[1].clone();
    let mut sys_cfg = SystemConfig::scaled(8);
    sys_cfg.set_num_cores(mix.num_cores());
    let workloads = mix.instantiate(sys_cfg.llc.size_bytes);
    let mut sys = System::new(sys_cfg, workloads);
    sys.run(if quick { 300_000 } else { 600_000 });
    let deltas = backend::sample(&mut sys, if quick { 40_000 } else { 100_000 });
    let det_cfg = DetectorConfig::default();
    let agg = detect_agg(&deltas, &det_cfg);
    let rows: Vec<Vec<String>> = deltas
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let m = metrics(d);
            vec![
                format!("core {i}"),
                mix.slots[i].name().to_string(),
                format!("{:.2}", m.pga),
                format!("{:.2}", m.l2_pmr),
                format!("{:.4}", m.l2_ptr),
                format!("{}", if agg.contains(&i) { "AGG" } else { "-" }),
            ]
        })
        .collect();
    print!(
        "{}",
        report::table(
            &format!(
                "Fig. 5 — Agg-set detection on {} (PGA≥{}, PMR≥{}, PTR≥{})",
                mix.name, det_cfg.pga_floor, det_cfg.pmr_threshold, det_cfg.ptr_threshold
            ),
            &["core", "benchmark", "PGA", "PMR", "PTR", "verdict"],
            &rows,
        )
    );
    let _ = ControllerConfig::default();
}

fn needed_mechanisms(target: &str) -> Vec<Mechanism> {
    match target {
        "fig7" | "fig8" => vec![Mechanism::Pt],
        "fig9" | "fig10" => vec![Mechanism::Dunn, Mechanism::PrefCp, Mechanism::PrefCp2],
        "fig11" | "fig12" => vec![Mechanism::CmmA, Mechanism::CmmB, Mechanism::CmmC],
        _ => Mechanism::all_managed().to_vec(),
    }
}

fn print_eval_target(target: &str, eval: &Evaluation, csv: &Option<std::path::PathBuf>) {
    match target {
        "fig7" => {
            let (hs, ws) = figures::fig7(eval);
            emit(&hs, csv);
            emit(&ws, csv);
        }
        "fig8" => emit(&figures::fig8(eval), csv),
        "fig9" => {
            let (hs, ws) = figures::fig9(eval);
            emit(&hs, csv);
            emit(&ws, csv);
        }
        "fig10" => emit(&figures::fig10(eval), csv),
        "fig11" => {
            let (hs, ws) = figures::fig11(eval);
            emit(&hs, csv);
            emit(&ws, csv);
        }
        "fig12" => emit(&figures::fig12(eval), csv),
        "fig13" => emit(&figures::fig13(eval), csv),
        "fig14" => emit(&figures::fig14(eval), csv),
        "fig15" => emit(&figures::fig15(eval), csv),
        "fairness" => emit(&figures::fairness(eval), csv),
        "overhead" => {
            let mut rows = Vec::new();
            for w in &eval.workloads {
                for (&m, r) in &w.managed {
                    rows.push(vec![
                        w.mix.name.clone(),
                        m.label().to_string(),
                        format!("{:.4}%", r.overhead_ratio * 100.0),
                    ]);
                }
            }
            rows.sort();
            print!(
                "{}",
                report::table(
                    "Controller overhead (paper reports <0.1%)",
                    &["workload", "mechanism", "overhead"],
                    &rows,
                )
            );
        }
        other => unreachable!("unhandled eval target {other}"),
    }
}

fn run_ablations(args: &Args, trace_set: Option<&TraceSet>, log: &Progress) -> Vec<JournalCell> {
    let mut cfg = if args.quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
    if args.quick {
        cfg.total_cycles = 1_000_000;
    }
    let mixes = match trace_set {
        Some(set) => set.build_mixes(8),
        None => ablate::default_mixes(),
    };
    let mut cells: Vec<JournalCell> = Vec::new();
    let mut dump = |title: &str, sweep: &str, pts: Vec<ablate::AblationPoint>| {
        let rows: Vec<Vec<String>> = pts
            .iter()
            .map(|p| vec![p.setting.clone(), p.mix.clone(), format!("{:.3}", p.norm_hs)])
            .collect();
        print!("{}", report::table(title, &["setting", "workload", "CMM-a norm. HS"], &rows));
        // The journal records the CMM-a decision telemetry of every grid
        // point, labelled by sweep and setting.
        for p in pts {
            cells.push((format!("{sweep}[{}] {}: CMM-a", p.setting, p.mix), p.epochs));
        }
    };
    log.note("ablation: partition scale");
    dump(
        "Ablation — partition sizing factor (paper: 1.5×)",
        "partition-scale",
        ablate::ablate_partition_scale(&cfg, &mixes, args.jobs),
    );
    log.note("ablation: epoch ratio");
    dump(
        "Ablation — execution-epoch : sampling-interval ratio (paper: 50:1)",
        "epoch-ratio",
        ablate::ablate_epoch_ratio(&cfg, &mixes, args.jobs),
    );
    log.note("ablation: QBS");
    dump(
        "Ablation — inclusive-LLC QBS victim selection",
        "qbs",
        ablate::ablate_qbs(&cfg, &mixes, args.jobs),
    );
    cells
}

fn run_extension(args: &Args, log: &Progress) -> Vec<JournalCell> {
    use cmm_core::experiment::{run_alone_ipcs, run_mix_pooled, WarmupPool};
    let cfg = if args.quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
    let mixes: Vec<Mix> = build_mixes(args.seed, 2)
        .into_iter()
        .filter(|m| {
            matches!(
                m.category,
                cmm_workloads::Category::PrefUnfri | cmm_workloads::Category::PrefAgg
            )
        })
        .collect();
    let results: Vec<(Vec<String>, Vec<JournalCell>)> =
        parallel_map(&mixes, args.jobs, |_, mix| {
            log.cell(&format!("extension: {}", mix.name), || {
                let pool = WarmupPool::new();
                let alone = run_alone_ipcs(mix, &cfg);
                let base = run_mix_pooled(&pool, mix, Mechanism::Baseline, &cfg);
                let hs_base = cmm_metrics::harmonic_speedup(&alone, &base.ipcs);
                let mut row = vec![mix.name.clone()];
                let mut cells =
                    vec![(format!("{}: {}", mix.name, Mechanism::Baseline.label()), base.epochs)];
                for mech in [Mechanism::Pt, Mechanism::PtFine] {
                    let r = run_mix_pooled(&pool, mix, mech, &cfg);
                    let hs = cmm_metrics::harmonic_speedup(&alone, &r.ipcs) / hs_base;
                    let wc = cmm_metrics::worst_case_speedup(&r.ipcs, &base.ipcs);
                    row.push(format!("{hs:.3}"));
                    row.push(format!("{wc:.3}"));
                    cells.push((format!("{}: {}", mix.name, mech.label()), r.epochs));
                }
                (row, cells)
            })
        });
    let mut rows = Vec::with_capacity(results.len());
    let mut cells = Vec::new();
    for (row, mix_cells) in results {
        rows.push(row);
        cells.extend(mix_cells);
    }
    print!(
        "{}",
        report::table(
            "Extension — binary PT vs per-engine PT-fine (norm. HS / worst case)",
            &["workload", "PT HS", "PT wc", "PT-fine HS", "PT-fine wc"],
            &rows,
        )
    );
    cells
}

/// Reports cells that exhausted their attempt budget; the run continues to
/// write its perf log and (manifest-only) journal before exiting 1. With a
/// checkpoint, each failure is also recorded in the sidecar so a later
/// `--resume` can list what went wrong post-mortem.
fn report_cell_failures(target: &str, failures: &[CellFailure], ckpt: Option<&Checkpoint>) {
    eprintln!("[repro] {target}: {} cell(s) exhausted the retry budget:", failures.len());
    for f in failures {
        eprintln!(
            "[repro]   cell '{}' failed after {} attempt(s): {}",
            f.key, f.attempts, f.panic_msg
        );
        if let Some(ck) = ckpt {
            ck.record_failure(&f.key, f.attempts, &f.panic_msg);
        }
    }
    eprintln!(
        "[repro] every sibling cell completed; re-run with --resume to retry only the \
         failed cells"
    );
}

/// Targets that build their machines without [`eval_cfg`] and so always
/// run single-socket: a multi-socket `--topology` on them is refused
/// rather than journaled as if it had run.
const SINGLE_SOCKET_TARGETS: [&str; 10] = [
    "faults",
    "governor",
    "learn",
    "extension",
    "ablate",
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig5",
];

fn main() {
    let args = parse_args();
    if let Some(t) = args.topology.filter(|t| !t.is_single()) {
        if SINGLE_SOCKET_TARGETS.contains(&args.target.as_str()) {
            eprintln!(
                "repro {}: --topology {} refused: this target runs single-socket only",
                args.target,
                t.label()
            );
            std::process::exit(2);
        }
    }
    // CI subcommands: pure file processing, no simulation, no perf log.
    // `soak` re-invokes this binary against a scratch dir and gates on
    // byte identity of the converged artifacts.
    match args.target.as_str() {
        "bench-compare" => std::process::exit(run_bench_compare(&args)),
        "journal-summary" => std::process::exit(run_journal_summary(&args)),
        "journal-diff" => std::process::exit(run_journal_diff(&args)),
        "trace" => {
            std::process::exit(cmm_bench::tracecmd::run(&args.operands, args.seed, args.ops))
        }
        "learn" if args.operands.first().map(String::as_str) == Some("train") => {
            std::process::exit(run_learn_train(&args))
        }
        "soak" => std::process::exit(soak::run(args.jobs)),
        _ => {}
    }
    // Trace-driven runs: the trace set replaces the synthetic mixes and
    // its checksums join the config digest below, so `--resume` refuses
    // to splice cells recorded against a different trace set.
    let trace_set: Option<TraceSet> =
        args.trace_dir.as_ref().map(|dir| match TraceSet::load_dir(dir) {
            Ok(set) => {
                eprintln!(
                    "[repro] trace-dir {}: {} trace(s) -> {} mix(es)",
                    dir.display(),
                    set.files.len(),
                    set.build_mixes(8).len()
                );
                set
            }
            Err(e) => {
                eprintln!("[repro] --trace-dir: {e}");
                std::process::exit(2);
            }
        });
    if args.chaos_rate > 0.0 || args.chaos_kill.is_some() {
        chaos::arm(chaos::ChaosConfig {
            seed: args.chaos_seed,
            rate: args.chaos_rate,
            mode: args.chaos_mode,
            kill_after: args.chaos_kill,
        });
        eprintln!(
            "[repro] chaos armed: seed={} rate={} mode={:?} kill_after={:?}",
            args.chaos_seed, args.chaos_rate, args.chaos_mode, args.chaos_kill
        );
    }
    let log = Progress::new(true);
    let mut bench = BenchLog::new(args.jobs, args.quick);
    let roster_n = spec::roster().len() as u64;
    let (_, ccfg) = char_cfg(args.quick);
    let c1 = char_cycles(&ccfg);
    // Run identity, shared by the journal manifest and the resume
    // checkpoint. Deliberately excludes --jobs, --attempts and the chaos
    // flags: none of them can change a deterministic run's results, so an
    // interrupted run may legitimately resume at a different parallelism.
    let mut config_debug = format!(
        "target={};quick={};seed={};fault_seed={};mixes={:?};exp={:?};char={:?};ctrl={:?}",
        args.target,
        args.quick,
        args.seed,
        args.fault_seed,
        args.mixes,
        if args.quick { ExperimentConfig::quick() } else { ExperimentConfig::default() },
        ccfg,
        if args.quick { ControllerConfig::quick() } else { ControllerConfig::default() },
    );
    // Appended only for --trace-dir runs, so synthetic runs keep their
    // historical digests (old checkpoints stay resumable).
    if let Some(set) = &trace_set {
        config_debug.push_str(&format!(";traces={}", set.digest()));
    }
    // Topology joins the digest only when it changes the run: multi-socket
    // anywhere, or any explicit --topology on the `scale` sweep (which it
    // restricts to one leg). Plain single-socket runs keep their
    // historical digests and cmm-journal/2 manifests.
    let topo_label = match args.topology {
        Some(t) if args.target == "scale" || !t.is_single() => Some(t.label()),
        _ => None,
    };
    if let Some(label) = &topo_label {
        config_debug.push_str(&format!(";topology={label}"));
    }
    // The learned target resolves its classifier up front (load --model or
    // train in-process) and folds the model digest into the run identity,
    // so `--resume` refuses to splice cells evaluated under a different
    // model. Legacy targets keep their historical digests untouched.
    let learn_model: Option<Model> = (args.target == "learn").then(|| {
        let (model, digest) = resolve_learn_model(&args, &log);
        config_debug.push_str(&format!(";model={digest}"));
        model
    });
    let manifest_topology =
        topo_label.or_else(|| (args.target == "scale").then(|| SCALE_SWEEP.join("+")));
    let meta = journal::JournalMeta {
        target: args.target.clone(),
        quick: args.quick,
        seed: args.seed,
        config_debug,
        topology: manifest_topology,
        // MBA-capable targets journal per-epoch delay levels (/4). Every
        // other target keeps its historical schema byte-for-byte.
        mba: matches!(args.target.as_str(), "bandwidth" | "faults" | "governor" | "learn"),
        // The governed target journals per-epoch governor events (/5).
        governor: args.target == "governor",
        // The learned target journals per-epoch features and actions (/6).
        learn: args.target == "learn",
    };
    let digest = cmm_core::telemetry::config_digest(&meta.config_debug);
    let ckpt: Option<Checkpoint> = match &args.resume {
        None => None,
        Some(path) => match Checkpoint::open(path, &args.target, &digest) {
            Ok((ck, info)) => {
                if info.fresh {
                    eprintln!("[repro] checkpointing to {} (new sidecar)", path.display());
                } else {
                    eprintln!(
                        "[repro] resuming from {}: {} completed cell(s){}",
                        path.display(),
                        info.cached,
                        if info.dropped > 0 {
                            format!(", dropped {} torn line(s)", info.dropped)
                        } else {
                            String::new()
                        }
                    );
                }
                // Post-mortem: failures a previous run recorded for cells
                // that still have no result (satisfied or superseded
                // failures are filtered out by the checkpoint reader).
                for f in ck.prior_failures() {
                    eprintln!(
                        "[repro] prior failure: cell '{}' exhausted {} attempt(s): {}",
                        f.key, f.attempts, f.panic_msg
                    );
                }
                Some(ck)
            }
            Err(e) => {
                eprintln!("[repro] --resume: {e}");
                std::process::exit(2);
            }
        },
    };
    // Controller decision telemetry, per (run × mechanism) cell; becomes
    // the JSONL run journal after the target finishes.
    let mut cells: Vec<JournalCell> = Vec::new();
    // Deferred failure (the faults smoothness gate, cells that exhausted
    // their retry budget): the perf log and journal are still written
    // before the non-zero exit.
    let mut exit_code = 0;
    let eval_targets = [
        "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fairness",
        "overhead",
    ];
    match args.target.as_str() {
        "ablate" => {
            // 18 grid points, each ≈ one mix of alone runs + 2 mix runs.
            let e =
                if args.quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
            let per_point =
                8 * (e.warmup_cycles + e.alone_cycles) + 2 * (e.warmup_cycles + e.total_cycles) * 8;
            cells = bench.measure("ablate", 18 * 10, 18 * per_point, || {
                run_ablations(&args, trace_set.as_ref(), &log)
            });
        }
        "extension" => {
            let e =
                if args.quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
            let per_mix =
                8 * (e.warmup_cycles + e.alone_cycles) + 3 * (e.warmup_cycles + e.total_cycles) * 8;
            cells = bench.measure("extension", 4 * 11, 4 * per_mix, || run_extension(&args, &log));
        }
        "faults" => {
            let e =
                if args.quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
            let n = faults::RATES.len() as u64;
            let per_rate = (e.warmup_cycles + e.total_cycles) * 8;
            let sweep = bench.measure("faults", n, n * per_rate, || {
                faults::sweep_resumable(
                    args.quick,
                    args.seed,
                    args.fault_seed,
                    args.jobs,
                    args.attempts,
                    &log,
                    ckpt.as_ref(),
                )
            });
            match sweep {
                Ok(sweep) => {
                    print!(
                        "{}",
                        report::table(
                            &format!(
                                "Fault-injection sweep — CMM-a, hm_ipc vs injected fault rate \
                                 (floor {:.2}× fault-free)",
                                faults::SMOOTHNESS_FLOOR
                            ),
                            &["rate", "hm_ipc", "rel", "faults", "degraded epochs", "verdict"],
                            &faults::rows(&sweep),
                        )
                    );
                    if !faults::passes(&sweep) {
                        eprintln!("[repro] faults: hm_ipc cliffed below the smoothness floor");
                        exit_code = 1;
                    }
                    cells = faults::journal_cells(sweep);
                }
                Err(failures) => {
                    report_cell_failures("faults", &failures, ckpt.as_ref());
                    exit_code = 1;
                }
            }
            // The MBA-register leg: CBP under faults confined to the MBA
            // throttle MSR, exercising the CBP -> CMM-a degradation rung.
            let mba_sweep = bench.measure("faults_mba", n, n * per_rate, || {
                faults::sweep_mba_resumable(
                    args.quick,
                    args.seed,
                    args.fault_seed,
                    args.jobs,
                    args.attempts,
                    &log,
                    ckpt.as_ref(),
                )
            });
            match mba_sweep {
                Ok(sweep) => {
                    print!(
                        "{}",
                        report::table(
                            &format!(
                                "MBA-fault sweep — CBP, hm_ipc vs MBA-register fault rate \
                                 (floor {:.2}× fault-free)",
                                faults::SMOOTHNESS_FLOOR
                            ),
                            &["rate", "hm_ipc", "rel", "faults", "degraded epochs", "verdict"],
                            &faults::rows(&sweep),
                        )
                    );
                    if !faults::passes(&sweep) {
                        eprintln!("[repro] faults: MBA leg cliffed below the smoothness floor");
                        exit_code = 1;
                    }
                    cells.extend(faults::mba_journal_cells(sweep));
                }
                Err(failures) => {
                    report_cell_failures("faults (mba leg)", &failures, ckpt.as_ref());
                    exit_code = 1;
                }
            }
        }
        "governor" => {
            let e =
                if args.quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
            // Two legs (bare, governed) per swept rate.
            let n = 2 * governor::RATES.len() as u64;
            let per_cell = (e.warmup_cycles + e.total_cycles) * 8;
            let sweep = bench.measure("governor", n, n * per_cell, || {
                governor::sweep_resumable(
                    args.quick,
                    args.seed,
                    args.fault_seed,
                    args.jobs,
                    args.attempts,
                    &log,
                    ckpt.as_ref(),
                )
            });
            match sweep {
                Ok(sweep) => {
                    print!(
                        "{}",
                        report::table(
                            "Safety-governor sweep — CBP bare vs governed, hm_ipc vs fault \
                             rate (gate: governed >= bare at every nonzero rate)",
                            &[
                                "rate",
                                "hm bare",
                                "hm gov",
                                "delta",
                                "faults",
                                "rollbacks",
                                "quarantines",
                                "breaker trips",
                                "verdict"
                            ],
                            &governor::rows(&sweep),
                        )
                    );
                    if !governor::passes(&sweep) {
                        eprintln!(
                            "[repro] governor: governed CBP lost to bare CBP at a nonzero \
                             fault rate"
                        );
                        exit_code = 1;
                    }
                    cells = governor::journal_cells(sweep);
                }
                Err(failures) => {
                    report_cell_failures("governor", &failures, ckpt.as_ref());
                    exit_code = 1;
                }
            }
        }
        "learn" => {
            let e =
                if args.quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
            let model = learn_model.as_ref().expect("learn target resolved a model above");
            // 4 standard mixes × 5 mechanisms (baseline, CMM-a, CBP and
            // the two learned controllers).
            let n = 4 * learn::MECHS.len() as u64;
            let per_cell = (e.warmup_cycles + e.total_cycles) * 8;
            let eval = bench.measure("learn", n, n * per_cell, || {
                learn::evaluate_resumable(
                    args.quick,
                    args.seed,
                    args.jobs,
                    args.attempts,
                    &log,
                    ckpt.as_ref(),
                    model,
                )
            });
            match eval {
                Ok(results) => {
                    print!(
                        "{}",
                        report::table(
                            "Learned controllers — per-mix hm_ipc, fairness and decision \
                             churn vs CMM-a/CBP",
                            &learn::EVAL_HEADERS,
                            &learn::rows(&results),
                        )
                    );
                    print!(
                        "{}",
                        report::table(
                            "ML-Sel vs CMM-a decision diff — per-epoch 0x1A4 agreement",
                            &learn::AGREEMENT_HEADERS,
                            &learn::agreement_rows(&results),
                        )
                    );
                    let vrows: Vec<Vec<String>> = learn::verdicts(&results)
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
                    print!(
                        "{}",
                        report::table(
                            &format!(
                                "Gate — ML-Sel >= {floor:.2}x CMM-a on every mix; RL-CBP \
                                 converges to >= CMM-a (tail or whole-run)",
                                floor = learn::MLSEL_FLOOR_RATIO
                            ),
                            &["mix", "mlsel/cmm", "rl tail/cmm", "rl run/cmm", "verdict"],
                            &vrows,
                        )
                    );
                    if !learn::passes(&results) {
                        eprintln!(
                            "[repro] learn: a learned controller missed its gate (ML-Sel \
                             floor or RL-CBP convergence)"
                        );
                        exit_code = 1;
                    }
                    cells = learn::journal_cells(results);
                }
                Err(failures) => {
                    report_cell_failures("learn", &failures, ckpt.as_ref());
                    exit_code = 1;
                }
            }
        }
        "scale" => {
            cells = run_scale(&args, &mut bench, &log);
        }
        "bandwidth" => {
            // Three-resource comparison: the paper's best two-resource
            // mechanism (CMM-a), the bandwidth-only MBA ablation, and the
            // CBP coordination of all three knobs, over the standard mixes
            // (tiled when --topology is multi-socket).
            let mut cfg = eval_cfg(&args);
            if let Some(set) = &trace_set {
                cfg.trace_mixes = Some(set.build_mixes(8));
            }
            let mechs = figures::BANDWIDTH_MECHS.to_vec();
            let (n_cells, cycles) = eval_volume(&cfg, &mechs);
            let eval = bench.measure("bandwidth", n_cells, cycles, || {
                figures::evaluate_resumable(&mechs, &cfg, true, ckpt.as_ref())
            });
            match eval {
                Ok(eval) => {
                    let (hm, fair) = figures::bandwidth(&eval);
                    emit(&hm, &args.csv);
                    emit(&fair, &args.csv);
                    cells = journal::eval_cells(&eval);
                }
                Err(failures) => {
                    report_cell_failures("bandwidth", &failures, ckpt.as_ref());
                    exit_code = 1;
                }
            }
        }
        "table1" => {
            cells = bench
                .measure("table1", roster_n, roster_n * c1, || table1(args.quick, args.jobs, &log));
        }
        "fig1" => {
            bench.measure("fig1", 2 * roster_n, 2 * roster_n * c1, || {
                fig1(args.quick, args.jobs, &log)
            });
        }
        "fig2" => {
            bench.measure("fig2", 2 * roster_n, 2 * roster_n * c1, || {
                fig2(args.quick, args.jobs, &log)
            });
        }
        "fig3" => {
            let ways = SystemConfig::scaled(1).llc.ways as u64;
            bench.measure("fig3", ways * roster_n, ways * roster_n * c1, || {
                fig3(args.quick, args.jobs, &log)
            });
        }
        "fig5" => {
            let cycles = if args.quick { 340_000u64 } else { 700_000 } * 8;
            bench.measure("fig5", 1, cycles, || fig5(args.quick));
        }
        t if eval_targets.contains(&t) => {
            let mut cfg = eval_cfg(&args);
            if let Some(set) = &trace_set {
                cfg.trace_mixes = Some(set.build_mixes(8));
            }
            let mechs = needed_mechanisms(t);
            let (n_cells, cycles) = eval_volume(&cfg, &mechs);
            let eval = bench.measure(t, n_cells, cycles, || {
                figures::evaluate_resumable(&mechs, &cfg, true, ckpt.as_ref())
            });
            match eval {
                Ok(eval) => {
                    print_eval_target(t, &eval, &args.csv);
                    cells = journal::eval_cells(&eval);
                }
                Err(failures) => {
                    report_cell_failures(t, &failures, ckpt.as_ref());
                    exit_code = 1;
                }
            }
        }
        "all" => {
            cells = bench
                .measure("table1", roster_n, roster_n * c1, || table1(args.quick, args.jobs, &log));
            bench.measure("fig1", 2 * roster_n, 2 * roster_n * c1, || {
                fig1(args.quick, args.jobs, &log)
            });
            bench.measure("fig2", 2 * roster_n, 2 * roster_n * c1, || {
                fig2(args.quick, args.jobs, &log)
            });
            let ways = SystemConfig::scaled(1).llc.ways as u64;
            bench.measure("fig3", ways * roster_n, ways * roster_n * c1, || {
                fig3(args.quick, args.jobs, &log)
            });
            let f5_cycles = if args.quick { 340_000u64 } else { 700_000 } * 8;
            bench.measure("fig5", 1, f5_cycles, || fig5(args.quick));
            let mut cfg = eval_cfg(&args);
            if let Some(set) = &trace_set {
                cfg.trace_mixes = Some(set.build_mixes(8));
            }
            let mechs = Mechanism::all_managed().to_vec();
            let (n_cells, cycles) = eval_volume(&cfg, &mechs);
            let eval = bench.measure("evaluate", n_cells, cycles, || {
                figures::evaluate_resumable(&mechs, &cfg, true, ckpt.as_ref())
            });
            match eval {
                Ok(eval) => {
                    for t in eval_targets {
                        print_eval_target(t, &eval, &args.csv);
                    }
                    cells.extend(journal::eval_cells(&eval));
                }
                Err(failures) => {
                    report_cell_failures("all", &failures, ckpt.as_ref());
                    exit_code = 1;
                }
            }
        }
        other => {
            eprintln!("unknown target {other}; try --help");
            std::process::exit(2);
        }
    }
    match bench.write(&args.bench_json) {
        Ok(()) => eprintln!("[repro] wrote {}", args.bench_json.display()),
        Err(e) => eprintln!("[repro] bench log failed: {e}"),
    }
    // The run journal: manifest + every recorded controller epoch. Targets
    // without a control loop (fig1–fig5, ablate, extension) still get the
    // manifest line, so downstream tooling can always read the file.
    match journal::write(&args.journal, &journal::manifest(&meta), &cells) {
        Ok(n) => eprintln!("[repro] wrote {} ({n} epochs)", args.journal.display()),
        Err(e) => eprintln!("[repro] journal failed: {e}"),
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}
