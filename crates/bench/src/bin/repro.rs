//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <target> [--quick] [--mixes N] [--seed S] [--jobs N] [--csv DIR]
//!       [--bench-json PATH] [--journal PATH] [--fault-seed S]
//!       [--resume PATH] [--attempts N] [--trace-dir DIR]
//!       [--topology SxM[@shared|@CYCLES]] [--model PATH]
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
//!   bandwidth  three-resource comparison: CMM-a vs bandwidth-only MBA vs
//!            CBP (prefetch × CAT × MBA), per-mix hm_ipc and fairness
//!   ablate   partition-scale / epoch-ratio / QBS sensitivity studies
//!   extension  PT vs PT-fine (per-engine throttling beyond the paper)
//!   faults   fault-injection resilience sweep (hm_ipc vs fault rate;
//!            exit 1 if degradation cliffs below the smoothness floor);
//!            includes an MBA-register fault leg driving CBP -> CMM-a
//!   governor safety-governor dominance sweep: CBP bare vs CBP with the
//!            runtime governor (rollback, quarantine, circuit breakers)
//!            at increasing fault rates; exit 1 unless the governed run
//!            keeps at least the bare run's hm_ipc at every nonzero rate
//!   learn    learned controllers (ML-Sel, RL-CBP) vs CMM-a/CBP; exit 1
//!            unless ML-Sel keeps its floor and RL-CBP converges
//!            (`learn train` fits the classifier to a cmm-model/1 file)
//!   scale    topology sweep 1x8 -> 2x16 -> 4x32 (or one --topology):
//!            per-CAT-domain hm_ipc, one BENCH target per leg (scale_SxM)
//!   all      table1, fig1-fig5 and fig7..fig15/fairness/overhead
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
//! CI subcommands (no simulation):
//!   bench-compare <baseline.json> <current.json> [--noise F] [--scps-floor N]
//!            diff two BENCH_sim.json perf logs; exit 1 on regression
//!   journal-summary <journal.jsonl> [--csv PATH]
//!            pretty-print a cmm-journal/1../6 run journal (multi-socket
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
//! **One target table.** Every target is one entry of [`TARGETS`]: its
//! name, its runner, and its capabilities — which optional flags it
//! honours (a multi-socket `--topology`, `--resume`, `--trace-dir`,
//! `--csv`, `--model`) and which journal schema extensions it writes. A
//! flag a target does not honour is refused with exit 2 and a one-line
//! reason before anything is loaded, simulated or written; `--help` lists
//! each target's flags from the same table. Every leg of every target
//! ends in one common tail ([`Run::finish`]): print, gate (exit 1), cell
//! failure report, journal cells.
//!
//! **Crash safety & resume.** Evaluation cells run panic-isolated with a
//! bounded retry budget (`--attempts`, default 3): a panicking cell never
//! aborts its siblings, and a cell that exhausts the budget surfaces in a
//! per-cell failure report (exit 1) after the rest of the sweep completed.
//! `--resume PATH` (faults, governor, learn, bandwidth, fig7..fig15,
//! fairness, overhead, all) maintains a `cmm-ckpt/1` sidecar of completed
//! cells: an interrupted run re-invoked with the same `--resume` splices
//! the cached results and produces byte-identical stdout/journal output to
//! an uninterrupted run at any `--jobs`. The chaos flags (`--chaos-seed`,
//! `--chaos-rate`, `--chaos-mode`, `--chaos-kill`) inject seeded panics /
//! a hard process kill into the harness itself; `repro soak` drives them
//! end-to-end.
//!
//! `--trace-dir DIR` on the fig7..fig15/fairness/overhead/bandwidth/
//! ablate/all targets replaces the synthetic mixes with the traces in DIR
//! (grouped 8 per mix, wrapping round-robin); the trace-set checksums join
//! the checkpoint config digest, so `--resume` refuses to splice cells
//! from a different trace set.
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
//! overhead, bandwidth, scale) on an S-socket × M-core machine:
//! per-socket LLC + CAT domain, per-socket memory controllers by default
//! (`@shared` / `@CYCLES` select one controller homed on socket 0 with a
//! cross-socket fill penalty), one CMM controller instance per CAT
//! domain, and mixes tiled onto the larger machine by round-robin slot
//! replication. `--topology 1x8` is a complete no-op: digest, stdout and
//! journal stay byte-identical to the flagless run. Every other target —
//! `all` included, whose table1/fig1–fig5 legs are single-socket —
//! refuses a multi-socket `--topology` with exit 2.
//!
//! Every run writes a machine-readable perf log (wall-clock, cells/sec,
//! sim-cycles/sec per target) to `BENCH_sim.json` (see `--bench-json`)
//! and a `cmm-journal/2` JSONL decision journal (per profiling epoch:
//! metric cascade, Agg set, trialed configs with hm_ipc, applied winner,
//! observed substrate faults and degradations) to `JOURNAL_sim.jsonl`
//! (see `--journal`); multi-socket runs upgrade it to `cmm-journal/3`
//! (manifest `topology` key, per-epoch CAT `domain`), MBA-capable
//! targets (`bandwidth`, `faults`) to `cmm-journal/4` (per-epoch MBA
//! trial/applied delay levels), the governed `governor` target to
//! `cmm-journal/5` (manifest `governor` flag, per-epoch governor events)
//! and `learn` to `cmm-journal/6` (per-epoch features and actions).
//! `--fault-seed` seeds the `faults`/`governor` targets' injected fault
//! schedule (and the governor's jitter stream).

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use cmm_bench::ablate;
use cmm_bench::chaos::{self, ChaosMode};
use cmm_bench::characterize::{
    prefetch_impact, profile_alone, way_sweep, ways_needed, CharacterizeConfig,
};
use cmm_bench::checkpoint::Checkpoint;
use cmm_bench::figures::{self, EvalConfig, Evaluation, FigureSeries};
use cmm_bench::perf::BenchLog;
use cmm_bench::runner::{default_jobs, parallel_map, CellFailure, Progress, DEFAULT_ATTEMPTS};
use cmm_bench::{compare, diff, faults, governor, journal, learn, report, soak};
use cmm_core::backend;
use cmm_core::experiment::{
    run_alone_ipcs, run_mix_pooled, warm_mix, ExperimentConfig, WarmupPool,
};
use cmm_core::frontend::{detect_agg, metrics, DetectorConfig};
use cmm_core::policy::{ControllerConfig, Mechanism};
use cmm_core::telemetry::EpochRecord;
use cmm_learn::{fnv1a, Model};
use cmm_metrics as met;
use cmm_sim::config::{SystemConfig, Topology};
use cmm_workloads::spec::{self, thresholds, Benchmark};
use cmm_workloads::{build_mixes, Category, Mix, TraceSet};
use Runner::{Eval, Own};

struct Args {
    /// The target or subcommand; `None` runs the default target.
    target: Option<String>,
    /// Positional operands after the target (subcommand file paths).
    operands: Vec<String>,
    quick: bool,
    mixes: Option<usize>,
    seed: u64,
    fault_seed: u64,
    jobs: usize,
    csv: Option<PathBuf>,
    bench_json: PathBuf,
    journal: PathBuf,
    noise: f64,
    /// `bench-compare`: hard floor on each current target's
    /// `sim_cycles_per_s` (the CI `smoke_perf` gate).
    scps_floor: Option<f64>,
    resume: Option<PathBuf>,
    attempts: u32,
    trace_dir: Option<PathBuf>,
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
    model: Option<PathBuf>,
    /// `repro learn train --out PATH`: where the fitted model is written.
    out: Option<PathBuf>,
}

/// Refuses the command line: one line on stderr, exit 2.
fn refuse(reason: &str) -> ! {
    eprintln!("{reason}");
    std::process::exit(2)
}

/// The value after a flag, parsed; a missing or malformed one is refused
/// with `what`, which names the flag.
fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, what: &str) -> T {
    match it.next() {
        Some(v) => v.parse().unwrap_or_else(|_| refuse(&format!("{what} (got {v:?})"))),
        None => refuse(what),
    }
}

fn parse_args() -> Args {
    let mut a = Args {
        target: None,
        operands: Vec::new(),
        quick: false,
        mixes: None,
        seed: 42,
        fault_seed: 7,
        jobs: default_jobs(),
        csv: None,
        bench_json: PathBuf::from("BENCH_sim.json"),
        journal: PathBuf::from("JOURNAL_sim.jsonl"),
        noise: compare::DEFAULT_NOISE,
        scps_floor: None,
        resume: None,
        attempts: DEFAULT_ATTEMPTS,
        trace_dir: None,
        ops: 50_000,
        chaos_seed: soak::SOAK_CHAOS_SEED,
        chaos_rate: 0.0,
        chaos_mode: ChaosMode::Transient,
        chaos_kill: None,
        topology: None,
        model: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--quick" => a.quick = true,
            "--csv" => a.csv = Some(value(it, "--csv needs a directory")),
            "--bench-json" => a.bench_json = value(it, "--bench-json needs a path"),
            "--journal" => a.journal = value(it, "--journal needs a path"),
            "--noise" => {
                a.noise = value(it, "--noise needs a fraction");
                if !a.noise.is_finite() || a.noise < 0.0 {
                    refuse(&format!("--noise needs a non-negative fraction (got {})", a.noise));
                }
            }
            "--scps-floor" => a.scps_floor = Some(value(it, "--scps-floor needs sim-cycles/s")),
            "--mixes" => a.mixes = Some(value(it, "--mixes needs a number")),
            "--seed" => a.seed = value(it, "--seed needs a number"),
            "--fault-seed" => a.fault_seed = value(it, "--fault-seed needs a number"),
            "--jobs" => {
                a.jobs = match value(it, "--jobs needs a number") {
                    0 => default_jobs(),
                    n => n,
                }
            }
            "--resume" => a.resume = Some(value(it, "--resume needs a checkpoint path")),
            "--attempts" => a.attempts = value::<u32>(it, "--attempts needs a number").max(1),
            "--trace-dir" => a.trace_dir = Some(value(it, "--trace-dir needs a directory")),
            "--ops" => a.ops = value::<usize>(it, "--ops needs a number").max(1),
            "--chaos-seed" => a.chaos_seed = value(it, "--chaos-seed needs a number"),
            "--chaos-rate" => a.chaos_rate = value(it, "--chaos-rate needs a fraction"),
            "--chaos-mode" => {
                a.chaos_mode = match it.next().as_deref() {
                    Some("transient") => ChaosMode::Transient,
                    Some("persistent") => ChaosMode::Persistent,
                    Some("hang") => ChaosMode::Hang,
                    other => refuse(&format!(
                        "--chaos-mode needs 'transient', 'persistent' or 'hang' (got {other:?})"
                    )),
                }
            }
            "--chaos-kill" => a.chaos_kill = Some(value(it, "--chaos-kill needs a number")),
            "--model" => a.model = Some(value(it, "--model needs a cmm-model/1 path")),
            "--out" => a.out = Some(value(it, "--out needs a path")),
            "--topology" => match it.next().unwrap_or_default().parse::<Topology>() {
                Ok(t) => a.topology = Some(t),
                Err(e) => refuse(&format!("--topology: {e}")),
            },
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            t if !t.starts_with('-') => match a.target {
                None => a.target = Some(t.to_string()),
                Some(_) => a.operands.push(t.to_string()),
            },
            other => refuse(&format!("unknown flag {other}")),
        }
    }
    a
}

/// `repro learn train`: fit the phase classifier from the roster corpus
/// and write it out as a `cmm-model/1` document. Exit 0 on success, 2 on
/// an unwritable output path.
fn run_learn_train(args: &Args) -> i32 {
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("mlsel.model"));
    let t = train_model(args.quick);
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

/// Fits the phase classifier, printing its training-corpus table.
fn train_model(quick: bool) -> learn::TrainReport {
    let t = learn::train_model(quick);
    print!(
        "{}",
        report::table(
            "Phase-classifier training corpus — run-alone IPC per 0x1A4 image",
            &learn::TRAIN_HEADERS,
            &t.rows,
        )
    );
    t
}

/// Resolves the `repro learn` classifier: loads `--model` (exit 2 on any
/// `cmm-model/1` format error) or trains one in-process, printing the
/// training table. Returns the model plus its content digest (folded into
/// the run's config digest so `--resume` refuses a different model).
fn resolve_learn_model(args: &Args, log: &Progress) -> (Model, String) {
    let Some(path) = &args.model else {
        let t = train_model(args.quick);
        log.note(&format!(
            "trained phase classifier in-process: {} samples, accuracy {:.3}",
            t.samples, t.accuracy
        ));
        let digest = fnv1a(t.model.to_text().as_bytes());
        return (t.model, digest);
    };
    let loaded = std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|text| {
        Model::from_text(&text).map(|m| (m, fnv1a(text.as_bytes()))).map_err(|e| e.to_string())
    });
    match loaded {
        Ok((m, digest)) => {
            log.note(&format!(
                "loaded cmm-model/1 from {} ({} classes, digest {digest})",
                path.display(),
                m.labels.len(),
            ));
            (m, digest)
        }
        Err(e) => {
            eprintln!("[repro] --model {}: {e}", path.display());
            std::process::exit(2);
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

fn exp_cfg(quick: bool) -> ExperimentConfig {
    if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    }
}

fn char_cfg(quick: bool) -> (SystemConfig, CharacterizeConfig) {
    let sys = SystemConfig::scaled(1);
    let cfg = if quick { CharacterizeConfig::quick() } else { CharacterizeConfig::default() };
    (sys, cfg)
}

/// The shared evaluation's configuration: `--quick`, `--mixes`, `--seed`,
/// `--jobs`, `--attempts`, a multi-socket `--topology` (mixes are tiled
/// to the machine inside `evaluate_resumable`; a single-socket one is a
/// no-op, keeping output byte-identical) and the `--trace-dir` mixes.
fn eval_cfg(args: &Args, traces: Option<&TraceSet>) -> EvalConfig {
    let mut cfg = if args.quick { EvalConfig::quick() } else { EvalConfig::default() };
    if let Some(m) = args.mixes {
        cfg.mixes_per_category = m;
    }
    cfg.seed = args.seed;
    cfg.jobs = args.jobs;
    cfg.attempts = args.attempts;
    if let Some(t) = args.topology.filter(|t| !t.is_single()) {
        cfg.exp.sys.set_topology(t);
    }
    cfg.trace_mixes = traces.map(|set| set.build_mixes(8));
    cfg
}

/// Cells of one full evaluation: every (mix, mechanism) run, the
/// baseline included, plus one alone run per distinct workload.
fn eval_cell_count(cfg: &EvalConfig, mechanisms: &[Mechanism]) -> u64 {
    let mixes = match &cfg.trace_mixes {
        Some(m) => m.clone(),
        None => build_mixes(cfg.seed, cfg.mixes_per_category),
    };
    let distinct: HashSet<&str> =
        mixes.iter().flat_map(|m| m.slots.iter().map(|s| s.name())).collect();
    (mixes.len() * (1 + mechanisms.len()) + distinct.len()) as u64
}

/// Renders figure series for stdout and, under `--csv DIR`, also writes
/// each one there.
fn emit<const N: usize>(csv: Option<&Path>, series: impl Into<[FigureSeries; N]>) -> String {
    let mut out = String::new();
    for s in series.into() {
        out.push_str(&report::render(&s));
        if let Some(dir) = csv {
            match cmm_bench::export::write_csv(dir, &s) {
                Ok(path) => eprintln!("[repro] wrote {}", path.display()),
                Err(e) => eprintln!("[repro] csv export failed: {e}"),
            }
        }
    }
    out
}

/// One journal cell: a run label (`"table1: bwaves3d"`, `"PrefAgg-00:
/// CMM-a"`) and its recorded controller epochs.
type JournalCell = (String, Vec<EpochRecord>);

/// One finished leg of a target, as the common tail takes it.
#[derive(Default)]
struct Leg {
    /// Tables for stdout.
    out: String,
    /// Why the leg's gate failed (exit 1), if it did.
    gate_failure: Option<&'static str>,
    /// Controller telemetry for the run journal.
    cells: Vec<JournalCell>,
}

/// A target's run: the flags, the inputs `main` resolved from them, the
/// perf log, and what the common tail has collected so far.
struct Run<'a> {
    args: &'a Args,
    log: &'a Progress,
    traces: Option<&'a TraceSet>,
    ckpt: Option<&'a Checkpoint>,
    model: Option<&'a Model>,
    bench: BenchLog,
    cells: Vec<JournalCell>,
    exit_code: i32,
}

impl Run<'_> {
    /// The common tail of every leg: print its tables, fail the run on a
    /// failed gate, report the cells that exhausted their retry budget,
    /// and keep its journal cells. A failed leg still lets the run write
    /// its perf log and journal before exiting 1.
    fn finish(&mut self, what: &str, leg: Result<Leg, Vec<CellFailure>>) {
        match leg {
            Ok(leg) => {
                print!("{}", leg.out);
                if let Some(why) = leg.gate_failure {
                    eprintln!("[repro] {why}");
                    self.exit_code = 1;
                }
                self.cells.extend(leg.cells);
            }
            Err(failures) => {
                report_cell_failures(what, &failures, self.ckpt);
                self.exit_code = 1;
            }
        }
    }
}

/// A roster target: one cell per benchmark, `runs` characterisation runs
/// each, rendered as one table. `cell` returns the benchmark's row and,
/// for a target that journals, its controller epochs.
fn run_roster(
    r: &mut Run,
    name: &str,
    runs: u64,
    title: &str,
    headers: &[&str],
    cell: impl Fn(
            &Benchmark,
            &SystemConfig,
            &CharacterizeConfig,
        ) -> (Vec<String>, Option<Vec<EpochRecord>>)
        + Sync,
) {
    let n = spec::roster().len() as u64;
    let (quick, jobs, log) = (r.args.quick, r.args.jobs, r.log);
    let leg = r.bench.measure(name, runs * n, || {
        let (sys, cfg) = char_cfg(quick);
        let results = parallel_map(spec::roster(), jobs, |_, b| {
            let label = format!("{name}: {}", b.name);
            let (row, epochs) = log.cell(&label, || cell(b, &sys, &cfg));
            (row, epochs.map(|e| (label, e)))
        });
        let (rows, cells): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        let out = report::table(title, headers, &rows);
        Leg { out, cells: cells.into_iter().flatten().collect(), ..Leg::default() }
    });
    r.finish(name, Ok(leg));
}

fn yes(b: bool) -> String {
    if b { "yes" } else { "no" }.to_string()
}

/// Table I. Besides printing the metric table, every benchmark's run ends
/// with one real PT profiling epoch on the still-warm machine, so the
/// target journals genuine controller decisions (cascade, Agg verdict,
/// throttle trials, applied winner) without changing the printed numbers.
fn run_table1(r: &mut Run, name: &'static str) {
    let ctrl = if r.args.quick { ControllerConfig::quick() } else { ControllerConfig::default() };
    run_roster(
        r,
        name,
        1,
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
            "M-7 LLC-PT",
        ],
        |b, sys, cfg| {
            let (r, epochs) = profile_alone(b, sys, cfg, &ctrl);
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
            (row, Some(epochs))
        },
    );
}

fn run_fig1(r: &mut Run, name: &'static str) {
    run_roster(
        r,
        name,
        2,
        "Fig. 1 — memory bandwidth (bytes/cycle) without/with prefetching",
        &["benchmark", "SPEC analogue", "BW off", "BW on", "increase", "aggressive?", "intended"],
        |b, sys, cfg| {
            let imp = prefetch_impact(b, sys, cfg);
            let agg = imp.off.demand_bpc > thresholds::DEMAND_INTENSIVE_BPC
                && imp.bw_increase() > thresholds::AGGRESSIVE_BW_INCREASE;
            let row = vec![
                b.name.to_string(),
                b.spec_alias.to_string(),
                format!("{:.3}", imp.off.total_bpc()),
                format!("{:.3}", imp.on.total_bpc()),
                format!("{:+.0}%", imp.bw_increase() * 100.0),
                yes(agg),
                yes(b.class.prefetch_aggressive),
            ];
            (row, None)
        },
    );
}

fn run_fig2(r: &mut Run, name: &'static str) {
    run_roster(
        r,
        name,
        2,
        "Fig. 2 — IPC speedup from prefetching",
        &["benchmark", "IPC off", "IPC on", "speedup", "friendly?", "intended"],
        |b, sys, cfg| {
            let imp = prefetch_impact(b, sys, cfg);
            let row = vec![
                b.name.to_string(),
                format!("{:.3}", imp.off.ipc),
                format!("{:.3}", imp.on.ipc),
                format!("{:+.0}%", imp.ipc_speedup() * 100.0),
                yes(imp.ipc_speedup() > thresholds::FRIENDLY_IPC_SPEEDUP),
                yes(b.class.prefetch_friendly),
            ];
            (row, None)
        },
    );
}

fn run_fig3(r: &mut Run, name: &'static str) {
    let ways = SystemConfig::scaled(1).llc.ways;
    let header_ways: Vec<String> = (1..=ways).map(|w| format!("{w}w")).collect();
    let mut headers: Vec<&str> = vec!["benchmark", "needs", "sensitive?"];
    headers.extend(header_ways.iter().map(|s| s.as_str()));
    run_roster(
        r,
        name,
        ways as u64,
        "Fig. 3 — IPC (relative to peak) vs LLC way count, prefetchers on",
        &headers,
        |b, sys, cfg| {
            // The roster is already fanned out across `jobs`; the sweep's
            // inner way loop stays serial to avoid oversubscription.
            let sweep = way_sweep(b, sys, cfg, 1);
            let needs = ways_needed(&sweep, thresholds::LLC_SENSITIVE_PERF);
            let mut row = vec![
                b.name.to_string(),
                format!("{needs}"),
                yes(needs >= thresholds::LLC_SENSITIVE_WAYS),
            ];
            let peak = sweep.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
            row.extend(sweep.iter().map(|&i| format!("{:.2}", i / peak)));
            (row, None)
        },
    );
}

/// Fig. 5: the detector cascade on one Pref Agg mix.
fn run_fig5(r: &mut Run, name: &'static str) {
    let quick = r.args.quick;
    let mut cfg = exp_cfg(quick);
    cfg.warmup_cycles = if quick { 300_000 } else { 600_000 };
    let out = r.bench.measure(name, 1, || {
        let mix: Mix = build_mixes(42, 1)[1].clone();
        let mut sys = warm_mix(None, &mix, &cfg);
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
        report::table(
            &format!(
                "Fig. 5 — Agg-set detection on {} (PGA≥{}, PMR≥{}, PTR≥{})",
                mix.name, det_cfg.pga_floor, det_cfg.pmr_threshold, det_cfg.ptr_threshold
            ),
            &["core", "benchmark", "PGA", "PMR", "PTR", "verdict"],
            &rows,
        )
    });
    r.finish(name, Ok(Leg { out, ..Leg::default() }));
}

/// Runs the shared (mix × mechanism) evaluation under `mechs` as perf-log
/// target `name` and renders it through `views`.
fn run_eval(r: &mut Run, name: &str, what: &str, mechs: &[Mechanism], views: &[View]) {
    let cfg = eval_cfg(r.args, r.traces);
    let n_cells = eval_cell_count(&cfg, mechs);
    let ckpt = r.ckpt;
    let eval =
        r.bench.measure(name, n_cells, || figures::evaluate_resumable(mechs, &cfg, true, ckpt));
    let csv = r.args.csv.as_deref();
    let leg = eval.map(|eval| Leg {
        out: views.iter().map(|view| view(&eval, csv)).collect(),
        cells: journal::eval_cells(&eval),
        ..Leg::default()
    });
    r.finish(what, leg);
}

/// The `all` target: every `IN_ALL` entry of [`TARGETS`]. The roster
/// targets run in table order; the evaluation views share one evaluation
/// of every managed mechanism (the union of what they need).
fn run_all(r: &mut Run, name: &'static str) {
    let members = || TARGETS.iter().filter(|t| t.has(IN_ALL));
    for t in members() {
        if let Own(run) = t.runner {
            run(r, t.name);
        }
    }
    let views: Vec<View> = members()
        .filter_map(|t| match t.runner {
            Eval(_, view) => Some(view),
            _ => None,
        })
        .collect();
    run_eval(r, "evaluate", name, &Mechanism::all_managed(), &views);
}

/// The `overhead` view: per-cell controller overhead (it has no figure
/// series to export).
fn overhead(eval: &Evaluation, _csv: Option<&Path>) -> String {
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
    report::table(
        "Controller overhead (paper reports <0.1%)",
        &["workload", "mechanism", "overhead"],
        &rows,
    )
}

fn run_ablate(r: &mut Run, name: &'static str) {
    let mut cfg = exp_cfg(r.args.quick);
    if r.args.quick {
        cfg.total_cycles = 1_000_000;
    }
    let mixes = match r.traces {
        Some(set) => set.build_mixes(8),
        None => ablate::default_mixes(),
    };
    let (jobs, log) = (r.args.jobs, r.log);
    // 18 grid points, each one mix of alone runs plus 2 mix runs.
    let leg = r.bench.measure(name, 18 * 10, || {
        let mut leg = Leg::default();
        type Sweep = fn(&ExperimentConfig, &[Mix], usize) -> Vec<ablate::AblationPoint>;
        let sweeps: [(&str, &str, &str, Sweep); 3] = [
            (
                "partition scale",
                "partition-scale",
                "Ablation — partition sizing factor (paper: 1.5×)",
                ablate::ablate_partition_scale,
            ),
            (
                "epoch ratio",
                "epoch-ratio",
                "Ablation — execution-epoch : sampling-interval ratio (paper: 50:1)",
                ablate::ablate_epoch_ratio,
            ),
            ("QBS", "qbs", "Ablation — inclusive-LLC QBS victim selection", ablate::ablate_qbs),
        ];
        for (note, label, title, sweep) in sweeps {
            log.note(&format!("ablation: {note}"));
            let pts = sweep(&cfg, &mixes, jobs);
            let rows: Vec<Vec<String>> = pts
                .iter()
                .map(|p| vec![p.setting.clone(), p.mix.clone(), format!("{:.3}", p.norm_hs)])
                .collect();
            leg.out.push_str(&report::table(
                title,
                &["setting", "workload", "CMM-a norm. HS"],
                &rows,
            ));
            // The journal records the CMM-a decision telemetry of every
            // grid point, labelled by sweep and setting.
            for p in pts {
                leg.cells.push((format!("{label}[{}] {}: CMM-a", p.setting, p.mix), p.epochs));
            }
        }
        leg
    });
    r.finish(name, Ok(leg));
}

fn run_extension(r: &mut Run, name: &'static str) {
    let cfg = exp_cfg(r.args.quick);
    let mixes: Vec<Mix> = build_mixes(r.args.seed, 2)
        .into_iter()
        .filter(|m| matches!(m.category, Category::PrefUnfri | Category::PrefAgg))
        .collect();
    let (jobs, log) = (r.args.jobs, r.log);
    let leg = r.bench.measure(name, 4 * 11, || {
        let results: Vec<(Vec<String>, Vec<JournalCell>)> = parallel_map(&mixes, jobs, |_, mix| {
            log.cell(&format!("{name}: {}", mix.name), || {
                let pool = WarmupPool::new();
                let alone = run_alone_ipcs(mix, &cfg);
                let base = run_mix_pooled(&pool, mix, Mechanism::Baseline, &cfg);
                let hs_base = met::harmonic_speedup(&alone, &base.ipcs);
                let mut row = vec![mix.name.clone()];
                let mut cells =
                    vec![(format!("{}: {}", mix.name, Mechanism::Baseline.label()), base.epochs)];
                for mech in [Mechanism::Pt, Mechanism::PtFine] {
                    let r = run_mix_pooled(&pool, mix, mech, &cfg);
                    let hs = met::harmonic_speedup(&alone, &r.ipcs) / hs_base;
                    let wc = met::worst_case_speedup(&r.ipcs, &base.ipcs);
                    row.push(format!("{hs:.3}"));
                    row.push(format!("{wc:.3}"));
                    cells.push((format!("{}: {}", mix.name, mech.label()), r.epochs));
                }
                (row, cells)
            })
        });
        let (rows, cells): (Vec<Vec<String>>, Vec<Vec<JournalCell>>) = results.into_iter().unzip();
        let out = report::table(
            "Extension — binary PT vs per-engine PT-fine (norm. HS / worst case)",
            &["workload", "PT HS", "PT wc", "PT-fine HS", "PT-fine wc"],
            &rows,
        );
        Leg { out, cells: cells.concat(), ..Leg::default() }
    });
    r.finish(name, Ok(leg));
}

/// Fault-injection sweep: CMM-a under uniform faults, then CBP under
/// MBA-register faults (the CBP -> CMM-a degradation rung). Each leg is
/// its own perf-log target, named by the leg.
fn run_faults(r: &mut Run, _: &'static str) {
    let n = faults::RATES.len() as u64;
    let (a, log, ckpt) = (r.args, r.log, r.ckpt);
    for leg in [&faults::UNIFORM, &faults::MBA] {
        let sweep = r.bench.measure(leg.name, n, || {
            faults::sweep_resumable(
                leg,
                a.quick,
                a.seed,
                a.fault_seed,
                a.jobs,
                a.attempts,
                log,
                ckpt,
            )
        });
        let done = sweep.map(|s| Leg {
            out: faults::table(leg, &s),
            gate_failure: (!faults::passes(&s)).then_some(leg.cliff),
            cells: faults::journal_cells(leg, s),
        });
        r.finish(leg.name, done);
    }
}

fn run_governor(r: &mut Run, name: &'static str) {
    // Two legs (bare, governed) per swept rate.
    let n = 2 * governor::RATES.len() as u64;
    let (a, log, ckpt) = (r.args, r.log, r.ckpt);
    let sweep = r.bench.measure(name, n, || {
        governor::sweep_resumable(a.quick, a.seed, a.fault_seed, a.jobs, a.attempts, log, ckpt)
    });
    let done = sweep.map(|s| Leg {
        out: governor::table(&s),
        gate_failure: (!governor::passes(&s)).then_some(governor::GATE_FAILURE),
        cells: governor::journal_cells(s),
    });
    r.finish(name, done);
}

fn run_learn(r: &mut Run, name: &'static str) {
    let e = exp_cfg(r.args.quick);
    let model = r.model.expect("--model targets resolve their model before running");
    // 4 standard mixes × 5 mechanisms (baseline, CMM-a, CBP and the two
    // learned controllers).
    let n = 4 * learn::MECHS.len() as u64;
    let (a, log, ckpt) = (r.args, r.log, r.ckpt);
    let eval = r.bench.measure(name, n, || {
        learn::evaluate_resumable(&e, a.seed, a.jobs, a.attempts, log, ckpt, model)
    });
    let done = eval.map(|results| Leg {
        out: learn::tables(&results),
        gate_failure: (!learn::passes(&results)).then_some(learn::GATE_FAILURE),
        cells: learn::journal_cells(results),
    });
    r.finish(name, done);
}

/// Topologies swept by `repro scale` when `--topology` doesn't narrow it
/// to one leg (the CI matrix does).
const SCALE_SWEEP: [&str; 3] = ["1x8", "2x16", "4x32"];

/// `repro scale`: Baseline and CMM-a on tiled mixes across the topology
/// sweep, reporting per-CAT-domain hm_ipc. Each leg is its own
/// `scale_<label>` perf-log target, so `bench-compare` gates many-core
/// throughput (wall, sim-cycles/s) separately from the 8-core targets.
fn run_scale(r: &mut Run, name: &'static str) {
    let topos: Vec<Topology> = match r.args.topology {
        Some(t) => vec![t],
        None => SCALE_SWEEP.iter().map(|s| s.parse().expect("sweep labels parse")).collect(),
    };
    let mechs = [Mechanism::Baseline, Mechanism::CmmA];
    let (jobs, log) = (r.args.jobs, r.log);
    let mut leg = Leg::default();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for topo in topos {
        // The `--quick` eval durations are sized for 8 cores, so the
        // many-core legs (4x32 simulates 128 cores per cell) get a
        // further cut to stay inside the CI smoke budget.
        let mut cfg = exp_cfg(r.args.quick);
        if r.args.quick {
            cfg.warmup_cycles = 300_000;
            cfg.total_cycles = 600_000;
        }
        cfg.sys.set_topology(topo);
        let pairs: Vec<(Mix, Mechanism)> = build_mixes(r.args.seed, 1)
            .into_iter()
            .take(2)
            .map(|m| m.tiled(topo.total_cores()))
            .flat_map(|m| mechs.into_iter().map(move |mech| (m.clone(), mech)))
            .collect();
        let n = pairs.len() as u64;
        let results = r.bench.measure(&format!("{name}_{}", topo.label()), n, || {
            let pool = WarmupPool::new();
            parallel_map(&pairs, jobs, |_, (mix, mech)| {
                log.cell(&format!("{name} {}: {} {}", topo.label(), mix.name, mech.label()), || {
                    run_mix_pooled(&pool, mix, *mech, &cfg)
                })
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
            leg.cells.push((
                format!("{name} {}: {} {}", topo.label(), r.mix_name, r.mechanism.label()),
                r.epochs,
            ));
        }
    }
    leg.out = report::table(
        "Scale sweep — per-CAT-domain harmonic-mean IPC",
        &["topology", "mix", "mechanism", "domain", "hm_ipc"],
        &rows,
    );
    r.finish(name, Ok(leg));
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

/// Renders an evaluation for stdout, writing its figure series under
/// `--csv DIR` when given.
type View = fn(&Evaluation, Option<&Path>) -> String;

/// How a target runs.
enum Runner {
    /// Its own function, which hands every leg to [`Run::finish`].
    Own(fn(&mut Run, &'static str)),
    /// One view of the shared (mix × mechanism) evaluation: the managed
    /// mechanisms it needs, and how it renders them.
    Eval(&'static [Mechanism], View),
}

// A target's capabilities: the optional flags it honours (`main` refuses
// each one a target lacks with exit 2, before loading traces, resolving a
// model or opening a checkpoint), how it reads `--topology`, the journal
// schema extensions its epochs carry, and whether `all` runs it.
/// A multi-socket `--topology` (`1x8` is a no-op everywhere).
const TOPOLOGY: u16 = 1;
/// `--topology` of any shape picks the legs of a topology sweep, so even
/// `1x8` joins the run identity.
const SWEEP: u16 = 1 << 1;
/// `--resume`: the target's cells are checkpointed.
const RESUME: u16 = 1 << 2;
/// `--trace-dir`: the target's mixes can come from recorded traces.
const TRACE_DIR: u16 = 1 << 3;
/// `--csv`: the target exports figure series.
const CSV: u16 = 1 << 4;
/// `--model`: the target runs the learned classifier (and has `train`).
const MODEL: u16 = 1 << 5;
/// Journal schema `/4`: epochs may carry MBA levels.
const MBA: u16 = 1 << 6;
/// Journal schema `/5`: epochs carry governor events.
const GOVERNOR: u16 = 1 << 7;
/// Journal schema `/6`: epochs carry learned features and actions.
const LEARN: u16 = 1 << 8;
/// `repro all` runs this target.
const IN_ALL: u16 = 1 << 9;
/// What every view of the shared evaluation honours.
const EVAL: u16 = TOPOLOGY | RESUME | TRACE_DIR | CSV;

/// An optional flag a target may honour.
struct Flag {
    /// The capability that accepts it.
    cap: u16,
    /// Its name, as `--help` lists it.
    help: &'static str,
    /// The flag as given on the command line, if it was.
    given: fn(&Args) -> Option<String>,
    /// Why a target without `cap` refuses it.
    why: &'static str,
}

const FLAGS: [Flag; 5] = [
    Flag {
        cap: TOPOLOGY,
        help: "--topology",
        given: |a| {
            a.topology.filter(|t| !t.is_single()).map(|t| format!("--topology {}", t.label()))
        },
        why: "this target (or a leg of it) runs single-socket only",
    },
    Flag {
        cap: RESUME,
        help: "--resume",
        given: |a| a.resume.as_ref().map(|_| "--resume".into()),
        why: "this target has no checkpointed cells",
    },
    Flag {
        cap: TRACE_DIR,
        help: "--trace-dir",
        given: |a| a.trace_dir.as_ref().map(|_| "--trace-dir".into()),
        why: "this target runs no trace-driven mixes",
    },
    Flag {
        cap: CSV,
        help: "--csv",
        given: |a| a.csv.as_ref().map(|_| "--csv".into()),
        why: "this target exports no figure series",
    },
    Flag {
        cap: MODEL,
        help: "--model",
        given: |a| a.model.as_ref().map(|_| "--model".into()),
        why: "this target runs no learned classifier",
    },
];

/// One `repro` target: its name, its capabilities and how it runs.
struct Target {
    name: &'static str,
    caps: u16,
    runner: Runner,
}

const fn own(name: &'static str, caps: u16, run: fn(&mut Run, &'static str)) -> Target {
    Target { name, caps, runner: Own(run) }
}

/// A figure view of the shared evaluation, run by `all` too.
const fn view(name: &'static str, mechs: &'static [Mechanism], view: View) -> Target {
    Target { name, caps: EVAL | IN_ALL, runner: Eval(mechs, view) }
}

/// Every `repro` target, in `--help` and `all` order (the module docs
/// describe each). The last, `all`, runs when no target is given.
const TARGETS: &[Target] = &[
    own("table1", IN_ALL, run_table1),
    own("fig1", IN_ALL, run_fig1),
    own("fig2", IN_ALL, run_fig2),
    own("fig3", IN_ALL, run_fig3),
    own("fig5", IN_ALL, run_fig5),
    view("fig7", &[Mechanism::Pt], |e, csv| emit(csv, figures::fig7(e))),
    view("fig8", &[Mechanism::Pt], |e, csv| emit(csv, [figures::fig8(e)])),
    view("fig9", &figures::CP_MECHS, |e, csv| emit(csv, figures::fig9(e))),
    view("fig10", &figures::CP_MECHS, |e, csv| emit(csv, [figures::fig10(e)])),
    view("fig11", &figures::CMM_MECHS, |e, csv| emit(csv, figures::fig11(e))),
    view("fig12", &figures::CMM_MECHS, |e, csv| emit(csv, [figures::fig12(e)])),
    view("fig13", &Mechanism::all_managed(), |e, csv| emit(csv, [figures::fig13(e)])),
    view("fig14", &Mechanism::all_managed(), |e, csv| emit(csv, [figures::fig14(e)])),
    view("fig15", &Mechanism::all_managed(), |e, csv| emit(csv, [figures::fig15(e)])),
    view("fairness", &Mechanism::all_managed(), |e, csv| emit(csv, [figures::fairness(e)])),
    view("overhead", &Mechanism::all_managed(), overhead),
    Target {
        name: "bandwidth",
        caps: EVAL | MBA,
        runner: Eval(&figures::BANDWIDTH_MECHS, |e, csv| emit(csv, figures::bandwidth(e))),
    },
    own("ablate", TRACE_DIR, run_ablate),
    own("extension", 0, run_extension),
    own("faults", RESUME | MBA, run_faults),
    own("governor", RESUME | MBA | GOVERNOR, run_governor),
    own("learn", RESUME | MODEL | MBA | LEARN, run_learn),
    own("scale", TOPOLOGY | SWEEP, run_scale),
    own("all", RESUME | TRACE_DIR | CSV, run_all),
];

impl Target {
    fn has(&self, cap: u16) -> bool {
        self.caps & cap != 0
    }

    /// The first optional flag given that this target does not honour, as
    /// a one-line reason.
    fn refusal(&self, args: &Args) -> Option<String> {
        FLAGS
            .iter()
            .filter(|f| !self.has(f.cap))
            .find_map(|f| Some(format!("{} refused: {}", (f.given)(args)?, f.why)))
    }

    fn run(&self, r: &mut Run) {
        match self.runner {
            Own(run) => run(r, self.name),
            Eval(mechs, view) => run_eval(r, self.name, self.name, mechs, &[view]),
        }
    }
}

/// `--help`: the shared flags, then every target with the optional flags
/// it honours, then the subcommands.
fn usage() -> String {
    let mut s = String::from(
        "usage: repro <target> [--quick] [--mixes N] [--seed S] [--fault-seed S] [--jobs N]\n       \
         [--bench-json PATH] [--journal PATH] [--attempts N] [--topology SxM[@shared|@CYCLES]]\n       \
         [--resume CKPT] [--trace-dir DIR] [--csv DIR] [--model PATH]\n\n\
         targets, with the optional flags each honours (any other is refused, exit 2):\n",
    );
    for t in TARGETS {
        let flags: Vec<&str> = FLAGS.iter().filter(|f| t.has(f.cap)).map(|f| f.help).collect();
        s.push_str(format!("  {:<10} {}", t.name, flags.join(" ")).trim_end());
        s.push('\n');
    }
    s.push_str(
        "\n       \
         repro learn train [--quick] [--out PATH] — fit the phase classifier and write it as \
         cmm-model/1 (default mlsel.model)\n       \
         repro trace record <dir> [mix-name] [--ops N] [--seed S]\n       \
         repro trace convert <in> <out>\n       \
         repro trace stat <file>...\n       \
         repro soak [--jobs N]\n       \
         repro bench-compare <baseline.json> <current.json> [--noise F] [--scps-floor N]\n       \
         repro journal-summary <journal.jsonl> [--csv PATH]\n       \
         repro journal-diff <a.jsonl> <b.jsonl>\n\n\
         crash safety: --resume CKPT keeps a cmm-ckpt/1 sidecar of completed\n\
         cells and splices them on re-run (byte-identical output); --attempts\n\
         bounds per-cell retries after a panic. --chaos-seed/--chaos-rate/\n\
         --chaos-mode/--chaos-kill inject harness faults (used by 'repro soak').",
    );
    s
}

fn main() {
    let args = parse_args();
    // CI subcommands: pure file processing, no simulation, no perf log.
    // `soak` re-invokes this binary against a scratch dir and gates on
    // byte identity of the converged artifacts.
    match args.target.as_deref() {
        Some("bench-compare") => std::process::exit(run_bench_compare(&args)),
        Some("journal-summary") => std::process::exit(run_journal_summary(&args)),
        Some("journal-diff") => std::process::exit(run_journal_diff(&args)),
        Some("trace") => {
            std::process::exit(cmm_bench::tracecmd::run(&args.operands, args.seed, args.ops))
        }
        Some("soak") => std::process::exit(soak::run(args.jobs)),
        _ => {}
    }
    // Without a target, the last entry of the table runs: `all`.
    let found = match &args.target {
        None => TARGETS.last(),
        Some(name) => TARGETS.iter().find(|t| t.name == name),
    };
    let Some(target) = found else {
        let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
        let name = args.target.as_deref().unwrap_or_default();
        eprintln!("unknown target {name}; targets: {}", names.join(" "));
        std::process::exit(2);
    };
    if let Some(why) = target.refusal(&args) {
        eprintln!("repro {}: {why}", target.name);
        std::process::exit(2);
    }
    let log = Progress::new(true);
    let bench = BenchLog::new(args.jobs, args.quick);
    // A `--model` target fits its classifier with `train`, or resolves it
    // up front (load --model or train in-process); the model digest joins
    // the run identity below, so `--resume` refuses to splice cells
    // evaluated under a different model.
    let model: Option<(Model, String)> = target.has(MODEL).then(|| {
        if args.operands.first().map(String::as_str) == Some("train") {
            std::process::exit(run_learn_train(&args));
        }
        resolve_learn_model(&args, &log)
    });
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
    // Run identity, shared by the journal manifest and the resume
    // checkpoint. Deliberately excludes --jobs, --attempts and the chaos
    // flags: none of them can change a deterministic run's results, so an
    // interrupted run may legitimately resume at a different parallelism.
    let mut config_debug = format!(
        "target={};quick={};seed={};fault_seed={};mixes={:?};exp={:?};char={:?};ctrl={:?}",
        target.name,
        args.quick,
        args.seed,
        args.fault_seed,
        args.mixes,
        exp_cfg(args.quick),
        char_cfg(args.quick).1,
        if args.quick { ControllerConfig::quick() } else { ControllerConfig::default() },
    );
    // Each suffix below is appended only when its input changes the run,
    // so plain runs keep their historical digests (old checkpoints stay
    // resumable) and cmm-journal/2 manifests: the trace set, a topology
    // (multi-socket, or any one on a sweep, which it restricts to one
    // leg), and the model.
    if let Some(set) = &trace_set {
        config_debug.push_str(&format!(";traces={}", set.digest()));
    }
    let topo_label = match args.topology {
        Some(t) if target.has(SWEEP) || !t.is_single() => Some(t.label()),
        _ => None,
    };
    if let Some(label) = &topo_label {
        config_debug.push_str(&format!(";topology={label}"));
    }
    if let Some((_, digest)) = &model {
        config_debug.push_str(&format!(";model={digest}"));
    }
    let meta = journal::JournalMeta {
        target: target.name.to_string(),
        quick: args.quick,
        seed: args.seed,
        config_debug,
        topology: topo_label.or_else(|| target.has(SWEEP).then(|| SCALE_SWEEP.join("+"))),
        mba: target.has(MBA),
        governor: target.has(GOVERNOR),
        learn: target.has(LEARN),
    };
    let digest = cmm_core::telemetry::config_digest(&meta.config_debug);
    let ckpt: Option<Checkpoint> = args.resume.as_ref().map(|path| {
        match Checkpoint::open(path, target.name, &digest) {
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
                ck
            }
            Err(e) => {
                eprintln!("[repro] --resume: {e}");
                std::process::exit(2);
            }
        }
    });
    let mut run = Run {
        args: &args,
        log: &log,
        traces: trace_set.as_ref(),
        ckpt: ckpt.as_ref(),
        model: model.as_ref().map(|(m, _)| m),
        bench,
        cells: Vec::new(),
        exit_code: 0,
    };
    target.run(&mut run);
    if let Some(n) = ckpt.as_ref().map(Checkpoint::spliced).filter(|&n| n > 0) {
        log.note(&format!("resume: spliced {n} cached cell(s) from the checkpoint"));
    }
    match run.bench.write(&args.bench_json) {
        Ok(()) => eprintln!("[repro] wrote {}", args.bench_json.display()),
        Err(e) => eprintln!("[repro] bench log failed: {e}"),
    }
    // The run journal: manifest + every recorded controller epoch. Targets
    // without a control loop (fig1–fig5, ablate, extension) still get the
    // manifest line, so downstream tooling can always read the file.
    match journal::write(&args.journal, &journal::manifest(&meta), &run.cells) {
        Ok(n) => eprintln!("[repro] wrote {} ({n} epochs)", args.journal.display()),
        Err(e) => eprintln!("[repro] journal failed: {e}"),
    }
    if run.exit_code != 0 {
        std::process::exit(run.exit_code);
    }
}
