//! Assembles the `cmm-journal/2` (single-socket) / `cmm-journal/3`
//! (multi-socket) / `cmm-journal/4` (MBA-capable) / `cmm-journal/5`
//! (governed) / `cmm-journal/6` (learned) run journal (see
//! [`cmm_core::telemetry`]) and reads it back. [`load`] is the one
//! reader: it accepts `cmm-journal/1` through `/6` — each schema only
//! adds keys (`/3`: a manifest `topology` and per-record `domain`; `/4`:
//! per-trial and applied `mba` levels; `/5`: a manifest `governor` flag
//! and per-record `governor` event arrays; `/6`: a manifest `learn` flag
//! and per-record `features` vectors and `action` labels) — and decodes
//! every epoch line into a typed [`EpochRecord`] with [`decode_epoch`],
//! the exact inverse of [`EpochRecord::to_json_line`] that checkpoint
//! payloads decode through too. `repro journal-summary` ([`summarize`],
//! [`epochs_csv`]) and `repro journal-diff` ([`crate::diff`]) read
//! through it, and [`Tally`] counts a run for them and for the sweep
//! tables.
//!
//! The journal is JSONL: one manifest line (schema, target, seed, git SHA,
//! host, config digest) followed by one line per controller profiling
//! epoch. Rendering delegates to [`cmm_core::telemetry`]; this module adds
//! the run-level context (git SHA discovery, host info) and the
//! deterministic cell ordering for `evaluate` results.

use std::path::{Path, PathBuf};

use cmm_core::telemetry::{
    config_digest, CoreSample, EpochRecord, FaultRecord, GovernorEvent, Manifest, Trial,
};
use cmm_sim::system::CoreControl;

use crate::atomic::{salvage_jsonl, write_atomic};
use crate::figures::Evaluation;
use crate::json::{parse, Json};

/// What a harness knows about the run it is journaling.
#[derive(Debug, Clone)]
pub struct JournalMeta {
    /// Repro target (`"table1"`, `"fig7"`, `"all"`, …).
    pub target: String,
    /// Whether the `--quick` durations were used.
    pub quick: bool,
    /// Mix-construction seed.
    pub seed: u64,
    /// Canonical (Debug) rendering of the run's configuration; only its
    /// digest lands in the journal.
    pub config_debug: String,
    /// Topology label (`"2x16"`) on multi-socket runs; `None` keeps the
    /// journal at schema `/2`, byte-identical to pre-topology output.
    pub topology: Option<String>,
    /// Whether the run's mechanisms may program the MBA bandwidth knob;
    /// `true` declares schema `/4`. Legacy targets pass `false` and keep
    /// their /2 (or /3) journals byte-identical.
    pub mba: bool,
    /// Whether the run's driver carries the safety governor; `true`
    /// declares schema `/5`. Ungoverned targets pass `false` and keep
    /// their journals byte-identical.
    pub governor: bool,
    /// Whether the run's driver carries a learned controller; `true`
    /// declares schema `/6`. Unlearned targets pass `false` and keep
    /// their journals byte-identical.
    pub learn: bool,
}

/// Builds the manifest line's data from the meta plus the environment.
pub fn manifest(meta: &JournalMeta) -> Manifest {
    Manifest {
        target: meta.target.clone(),
        quick: meta.quick,
        seed: meta.seed,
        git_sha: git_sha().unwrap_or_else(|| "unknown".into()),
        host_os: std::env::consts::OS.to_string(),
        host_arch: std::env::consts::ARCH.to_string(),
        host_cpus: std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        config_digest: config_digest(&meta.config_debug),
        topology: meta.topology.clone(),
        mba: meta.mba,
        governor: meta.governor,
        learn: meta.learn,
    }
}

/// The commit SHA of the working tree, read straight from `.git` (no git
/// binary dependency): follows `HEAD` through one level of symref, falling
/// back to `packed-refs`. `None` when not in a git checkout.
pub fn git_sha() -> Option<String> {
    let mut dir: PathBuf = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git/HEAD");
        if head.is_file() {
            return resolve_head(&dir.join(".git"), &head);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn resolve_head(git_dir: &Path, head: &Path) -> Option<String> {
    let content = std::fs::read_to_string(head).ok()?;
    let content = content.trim();
    if let Some(refname) = content.strip_prefix("ref: ") {
        if let Ok(sha) = std::fs::read_to_string(git_dir.join(refname)) {
            return Some(sha.trim().to_string());
        }
        // Ref not loose — look it up in packed-refs.
        let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some(sha) = line.strip_suffix(refname) {
                return Some(sha.trim().to_string());
            }
        }
        None
    } else {
        // Detached HEAD: the SHA itself.
        Some(content.to_string())
    }
}

/// Renders a complete journal: manifest first, then every cell's epochs in
/// the order given. Each `(run, epochs)` cell labels its records with the
/// run string (e.g. `"PrefAgg-00: CMM-a"`).
pub fn render(man: &Manifest, cells: &[(String, Vec<EpochRecord>)]) -> String {
    let mut out = String::new();
    out.push_str(&man.to_json_line());
    out.push('\n');
    for (run, epochs) in cells {
        for r in epochs {
            out.push_str(&r.to_json_line(run));
            out.push('\n');
        }
    }
    out
}

/// Writes the journal to `path` atomically (temp-then-rename, so a crash
/// mid-write can never leave a torn journal). Returns the epoch-line count.
pub fn write(
    path: &Path,
    man: &Manifest,
    cells: &[(String, Vec<EpochRecord>)],
) -> std::io::Result<usize> {
    write_atomic(path, render(man, cells).as_bytes())?;
    Ok(cells.iter().map(|(_, e)| e.len()).sum())
}

/// A loaded journal: the parsed manifest plus every epoch line decoded
/// into a typed [`EpochRecord`], with the torn-tail salvage accounting
/// every reader shares.
#[derive(Debug)]
pub struct JournalDoc {
    /// The manifest line, parsed.
    pub manifest: Json,
    /// Every `kind == "epoch"` record with its run label, in file order.
    pub epochs: Vec<(String, EpochRecord)>,
    /// Trailing partial lines dropped by torn-tail salvage (0 or 1).
    pub dropped: usize,
}

impl JournalDoc {
    /// The manifest's string value at `key`, if present.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.manifest.get(key).and_then(Json::as_str)
    }

    /// The epochs grouped by [`run_key`], runs in first-appearance order.
    pub fn runs(&self) -> Vec<(String, Vec<&EpochRecord>)> {
        let mut runs: Vec<(String, Vec<&EpochRecord>)> = Vec::new();
        for (run, rec) in &self.epochs {
            let key = run_key(run, rec);
            match runs.iter_mut().find(|(k, _)| *k == key) {
                Some((_, recs)) => recs.push(rec),
                None => runs.push((key, vec![rec])),
            }
        }
        runs
    }
}

/// The journal reader every consumer shares (`journal-summary`, its
/// `--csv`, `journal-diff`). Accepts `cmm-journal/1` through `/6` and
/// decodes each epoch line with [`decode_epoch`], so a line missing a key
/// the writer always emits is an error naming the line. A final line torn
/// by a crash mid-write is dropped (and counted in [`JournalDoc::dropped`])
/// instead of failing the whole file; mid-file garbage is still an error —
/// that is corruption, not an interrupted append.
pub fn load(text: &str) -> Result<JournalDoc, String> {
    let salvage = salvage_jsonl(text);
    let mut lines = salvage.lines.iter();
    let first = lines.next().ok_or("empty journal")?;
    let manifest = parse(first).map_err(|e| format!("line 1: {e}"))?;
    let schema = manifest.get("schema").and_then(Json::as_str).unwrap_or("");
    if !matches!(
        schema,
        "cmm-journal/1"
            | "cmm-journal/2"
            | "cmm-journal/3"
            | "cmm-journal/4"
            | "cmm-journal/5"
            | "cmm-journal/6"
    ) {
        return Err(format!("unsupported schema '{schema}' (want cmm-journal/1 through /6)"));
    }
    let mut epochs = Vec::new();
    for (i, line) in lines.enumerate() {
        let at = |e: String| format!("line {}: {e}", i + 2);
        let rec = parse(line).map_err(at)?;
        if rec.get("kind").and_then(Json::as_str) == Some("epoch") {
            let run = rec.field("run", Json::as_str).map_err(at)?.to_string();
            epochs.push((run, decode_epoch(&rec).map_err(at)?));
        }
    }
    Ok(JournalDoc { manifest, epochs, dropped: salvage.dropped })
}

/// A run's grouping key: the run label, plus `" [dN]"` on a multi-socket
/// journal, where each CAT domain of a run is its own decision sequence.
pub fn run_key(run: &str, rec: &EpochRecord) -> String {
    match rec.domain {
        Some(d) => format!("{run} [d{d}]"),
        None => run.to_string(),
    }
}

/// What one run's epochs add up to — the one counter behind the
/// `journal-summary` rows and resilience footer and the `faults`,
/// `governor` and `learn` tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Epoch records.
    pub epochs: u64,
    /// Epochs that detected a non-empty Agg set.
    pub agg_epochs: u64,
    /// Agg cores summed over those epochs.
    pub agg_cores: u64,
    /// Trials searched.
    pub trials: u64,
    /// Epochs whose search picked a winner.
    pub winners: u64,
    /// Substrate faults the controller observed.
    pub faults: u64,
    /// Epochs that retreated to a fallback mechanism.
    pub degraded: u64,
    /// Epochs whose applied machine state (CLOS, mask, 0x1A4 and MBA
    /// images) differs from the previous epoch's.
    pub churn: u64,
    /// Governor rollbacks (kept-last-good epochs).
    pub rollbacks: u64,
    /// Governor core quarantines.
    pub quarantines: u64,
    /// Governor circuit-breaker trips.
    pub breaker_trips: u64,
}

impl Tally {
    /// Counts a run's epochs, in run order.
    pub fn of<'a>(epochs: impl IntoIterator<Item = &'a EpochRecord>) -> Tally {
        let mut t = Tally::default();
        let mut prev: Option<&[CoreControl]> = None;
        for e in epochs {
            t.epochs += 1;
            if !e.agg.is_empty() {
                t.agg_epochs += 1;
                t.agg_cores += e.agg.len() as u64;
            }
            t.trials += e.trials.len() as u64;
            t.winners += u64::from(e.winner.is_some());
            t.faults += e.faults.len() as u64;
            t.degraded += u64::from(e.degraded.is_some());
            t.churn += u64::from(prev.is_some_and(|p| p != e.applied));
            prev = Some(&e.applied);
            for ev in &e.governor {
                match ev.action {
                    "rollback" => t.rollbacks += 1,
                    "quarantine" => t.quarantines += 1,
                    "breaker_open" => t.breaker_trips += 1,
                    _ => {}
                }
            }
        }
        t
    }

    /// The resilience counts, as the summary footer prints them.
    fn resilience(&self) -> String {
        format!(
            "faults={} degraded-epochs={} rollbacks={} quarantines={} breaker-trips={}",
            self.faults, self.degraded, self.rollbacks, self.quarantines, self.breaker_trips
        )
    }
}

/// Extracts the journal cells from an [`Evaluation`], in the harness's
/// canonical order: per mix, the baseline first, then the evaluation's
/// mechanism order — the same order `evaluate` ran (and prints) them, and
/// independent of `--jobs`.
pub fn eval_cells(eval: &Evaluation) -> Vec<(String, Vec<EpochRecord>)> {
    let mut cells = Vec::new();
    for w in &eval.workloads {
        cells.push((
            format!("{}: {}", w.mix.name, w.baseline.mechanism.label()),
            w.baseline.epochs.clone(),
        ));
        for m in &eval.mechanisms {
            cells.push((format!("{}: {}", w.mix.name, m.label()), w.managed[m].epochs.clone()));
        }
    }
    cells
}

/// Renders the human-readable summary: manifest context plus one row per
/// run (one per CAT domain on `/3` journals) — epoch count, how often
/// aggressors were detected, trials searched, final applied state — and a
/// resilience footer on runs that absorbed faults or governor actions.
pub fn summarize(doc: &JournalDoc) -> String {
    let man = &doc.manifest;
    let meta = |k: &str| doc.meta(k).unwrap_or("?");
    let host = |k: &str| man.get("host").and_then(|h| h.get(k));
    let topology = doc.meta("topology").map(|t| format!(" topology={t}")).unwrap_or_default();
    let mut out = format!(
        "journal: target={} quick={} seed={}{topology} git={} host={}/{} cpus={} {}\n",
        meta("target"),
        man.get("quick").and_then(Json::as_bool).unwrap_or(false),
        man.get("seed").and_then(Json::as_u64).unwrap_or(0),
        meta("git_sha"),
        host("os").and_then(Json::as_str).unwrap_or("?"),
        host("arch").and_then(Json::as_str).unwrap_or("?"),
        host("cpus").and_then(Json::as_u64).unwrap_or(0),
        meta("config_digest"),
    );
    if doc.dropped > 0 {
        out.push_str(&format!(
            "note: torn tail — dropped {} partial line(s), salvaged {} epoch record(s)\n",
            doc.dropped,
            doc.epochs.len()
        ));
    }
    let runs: Vec<(String, Vec<&EpochRecord>, Tally)> = doc
        .runs()
        .into_iter()
        .map(|(key, recs)| {
            let t = Tally::of(recs.iter().copied());
            (key, recs, t)
        })
        .collect();
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(key, recs, t)| {
            let mean_agg = if t.agg_epochs > 0 {
                format!("{:.1}", t.agg_cores as f64 / t.agg_epochs as f64)
            } else {
                "-".into()
            };
            // The final applied state; "partitioned" means not every core
            // shares one identical mask.
            let last = &recs[recs.len() - 1].applied;
            let partitioned = last.iter().any(|c| c.way_mask != last[0].way_mask);
            vec![
                key.clone(),
                recs[0].mechanism.to_string(),
                t.epochs.to_string(),
                format!("{}/{}", t.agg_epochs, t.epochs),
                mean_agg,
                t.trials.to_string(),
                t.winners.to_string(),
                t.faults.to_string(),
                t.degraded.to_string(),
                t.churn.to_string(),
                last.iter().filter(|c| !c.prefetching()).count().to_string(),
                if partitioned { "yes" } else { "no" }.into(),
            ]
        })
        .collect();
    out.push_str(&crate::report::table(
        &format!("journal-summary — {} runs, {} epochs", runs.len(), doc.epochs.len()),
        &[
            "run",
            "mechanism",
            "epochs",
            "agg-epochs",
            "mean|Agg|",
            "trials",
            "winners",
            "faults",
            "degraded",
            "churn",
            "throttled",
            "partitioned",
        ],
        &rows,
    ));
    // Resilience footer: only on runs where the harness actually absorbed
    // something, so clean-run summaries stay byte-identical.
    let eventful: Vec<_> = runs
        .iter()
        .filter(|(_, _, t)| {
            t.faults + t.degraded + t.rollbacks + t.quarantines + t.breaker_trips > 0
        })
        .collect();
    if !eventful.is_empty() {
        let total = Tally::of(eventful.iter().flat_map(|(_, recs, _)| recs.iter().copied()));
        out.push_str(&format!("resilience: {}\n", total.resilience()));
        for (key, _, t) in eventful {
            out.push_str(&format!("  {key}: {}\n", t.resilience()));
        }
    }
    out
}

/// Renders the journal's per-epoch telemetry as a plottable CSV
/// (`journal-summary --csv`): one row per epoch record, with the
/// execution-epoch outcome fields the control loop is judged by. Empty
/// cells mean "not available this epoch" (e.g. `exec_hm_ipc` before the
/// first execution epoch completes).
pub fn epochs_csv(doc: &JournalDoc) -> String {
    // The domain column only appears on multi-socket (/3) journals, so
    // single-socket CSV output stays byte-identical to the /2 reader's.
    let with_domain = doc.epochs.iter().any(|(_, r)| r.domain.is_some());
    let mut out = String::from(if with_domain {
        "run,domain,epoch,mechanism,exec_hm_ipc,exec_ipc_delta,faults,degraded\n"
    } else {
        "run,epoch,mechanism,exec_hm_ipc,exec_ipc_delta,faults,degraded\n"
    });
    let fixed = |v: Option<f64>| v.map(|v| format!("{v:.6}")).unwrap_or_default();
    for (run, r) in &doc.epochs {
        let domain = match r.domain {
            Some(d) => format!("{d},"),
            None if with_domain => ",".into(),
            None => String::new(),
        };
        out.push_str(&format!(
            "{},{domain}{},{},{},{},{},{}\n",
            csv_field(run),
            r.epoch,
            csv_field(r.mechanism),
            fixed(r.exec_hm_ipc),
            fixed(r.exec_ipc_delta),
            r.faults.len(),
            csv_field(r.degraded.unwrap_or(""))
        ));
    }
    out
}

/// Quotes a CSV field when it contains a delimiter, quote or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

// ---------------------------------------------------------------------------
// The epoch decoder: journal lines and checkpoint payloads alike.

/// The array at `key`, each element decoded by `decode`.
pub(crate) fn records<T>(
    j: &Json,
    key: &str,
    decode: fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    j.field(key, Json::as_array)?.iter().map(decode).collect()
}

/// The array at `key`, keeping the elements `item` converts.
pub(crate) fn nums<T>(j: &Json, key: &str, item: fn(&Json) -> Option<T>) -> Result<Vec<T>, String> {
    Ok(j.field(key, Json::as_array)?.iter().filter_map(item).collect())
}

/// [`nums`] for a key that joined in a later schema: `absent` when the
/// key is missing.
fn later_nums<T>(
    j: &Json,
    key: &str,
    item: fn(&Json) -> Option<T>,
    absent: Vec<T>,
) -> Result<Vec<T>, String> {
    if j.get(key).is_some() {
        nums(j, key, item)
    } else {
        Ok(absent)
    }
}

fn as_usize(j: &Json) -> Option<usize> {
    j.as_u64().map(|v| v as usize)
}

/// Interns a string against a closed vocabulary of `&'static str` the
/// telemetry structs use; unknown values (from a newer writer) leak once —
/// acceptable for a short-lived CLI reading its own small sidecars.
fn intern(s: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        // Mechanism labels.
        "Baseline",
        "PT",
        "Dunn",
        "Pref-CP",
        "Pref-CP2",
        "CMM-a",
        "CMM-b",
        "CMM-c",
        "PT-fine",
        "MBA",
        "CBP",
        "ML-Sel",
        "RL-CBP",
        // Degradation fallbacks.
        "no-op",
        "throttle-only",
        // Fault kinds.
        "msr_rejected",
        "clos_exhausted",
        "msr_error",
        "pmu_anomaly",
        "degraded",
        // Fault actions.
        "retry_ok",
        "gave_up",
        "reread",
        "zeroed_sample",
        "fallback_cmm_a",
        "fallback_dunn",
        "fallback_noop",
        "fallback_throttle",
        "kept_last_good",
        // Governor actions (journal /5).
        "rollback",
        "quarantine",
        "breaker_open",
        "breaker_close",
        // Governor register classes.
        "prefetch",
        "cat",
        "mba",
    ];
    KNOWN
        .iter()
        .find(|k| **k == s)
        .copied()
        .unwrap_or_else(|| Box::leak(s.to_string().into_boxed_str()))
}

fn decode_fault(j: &Json) -> Result<FaultRecord, String> {
    Ok(FaultRecord {
        cycle: j.field("cycle", Json::as_u64)?,
        kind: intern(j.field("kind", Json::as_str)?),
        core: j.get("core").and_then(as_usize),
        msr: j.get("msr").and_then(Json::as_u64).map(|m| m as u32),
        action: intern(j.field("action", Json::as_str)?),
    })
}

fn decode_governor_event(j: &Json) -> Result<GovernorEvent, String> {
    Ok(GovernorEvent {
        cycle: j.field("cycle", Json::as_u64)?,
        action: intern(j.field("action", Json::as_str)?),
        core: j.get("core").and_then(as_usize),
        class: j.get("class").and_then(Json::as_str).map(intern),
    })
}

fn decode_core_sample(j: &Json) -> Result<CoreSample, String> {
    Ok(CoreSample {
        ipc: j.field("ipc", Json::as_f64)?,
        metrics: cmm_core::frontend::Metrics {
            l2_llc_traffic: j.field("m1_l2_llc", Json::as_u64)?,
            l2_pf_miss_frac: j.field("m2_pf_frac", Json::as_f64)?,
            l2_ptr: j.field("m3_ptr", Json::as_f64)?,
            pga: j.field("m4_pga", Json::as_f64)?,
            l2_pmr: j.field("m5_pmr", Json::as_f64)?,
            l2_ppm: j.field("m6_ppm", Json::as_f64)?,
            llc_pt: j.field("m7_llc_pt", Json::as_f64)?,
        },
    })
}

fn decode_trial(j: &Json) -> Result<Trial, String> {
    Ok(Trial {
        msr_1a4: nums(j, "msr_1a4", Json::as_u64)?,
        // The mba key joined in /4; absent on older journals.
        mba: later_nums(j, "mba", Json::as_u64, Vec::new())?,
        hm_ipc: j.field("hm_ipc", Json::as_f64)?,
    })
}

/// The elements of the optional array at `key` (absent: none), each
/// decoded by `decode`.
fn optional_records<T>(
    j: &Json,
    key: &str,
    decode: fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    j.get(key).and_then(Json::as_array).unwrap_or(&[]).iter().map(decode).collect()
}

/// Decodes one epoch record from its journal/checkpoint JSON rendering —
/// the exact inverse of [`EpochRecord::to_json_line`].
pub fn decode_epoch(j: &Json) -> Result<EpochRecord, String> {
    let applied = j.field("applied", Some)?;
    let clos = nums(applied, "clos", as_usize)?;
    let way_mask = nums(applied, "way_mask", Json::as_u64)?;
    let msr_1a4 = nums(applied, "msr_1a4", Json::as_u64)?;
    // The mba key joined in /4 and is elided when every level is 0.
    let mba = later_nums(applied, "mba", Json::as_u64, vec![0; clos.len()])?;
    if clos.len() != way_mask.len() || clos.len() != msr_1a4.len() || clos.len() != mba.len() {
        return Err("applied arrays disagree on core count".into());
    }
    let applied = clos
        .into_iter()
        .zip(way_mask)
        .zip(msr_1a4)
        .zip(mba)
        .map(|(((clos, way_mask), msr_1a4), mba_level)| CoreControl {
            clos,
            way_mask,
            msr_1a4,
            mba_level,
        })
        .collect();
    Ok(EpochRecord {
        epoch: j.field("epoch", Json::as_u64)?,
        cycle: j.field("cycle", Json::as_u64)?,
        mechanism: intern(j.field("mechanism", Json::as_str)?),
        domain: j.get("domain").and_then(as_usize),
        cores: records(j, "cores", decode_core_sample)?,
        agg: nums(j, "agg", as_usize)?,
        friendly: nums(j, "friendly", as_usize)?,
        unfriendly: nums(j, "unfriendly", as_usize)?,
        trials: records(j, "trials", decode_trial)?,
        winner: j.get("winner").and_then(as_usize),
        exec_hm_ipc: j.get("exec_hm_ipc").and_then(Json::as_f64),
        exec_ipc_delta: j.get("exec_ipc_delta").and_then(Json::as_f64),
        faults: optional_records(j, "faults", decode_fault)?,
        degraded: j.get("degraded").and_then(Json::as_str).map(intern),
        // The governor key joined in /5 and is elided when no events fired.
        governor: optional_records(j, "governor", decode_governor_event)?,
        // The features/action keys joined in /6 and are elided when a
        // mechanism records neither.
        features: later_nums(j, "features", Json::as_f64, Vec::new())?,
        action: j.get("action").and_then(Json::as_str).map(str::to_string),
        applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_core::frontend::Metrics;
    use cmm_core::telemetry::{CoreSample, Trial};
    use cmm_sim::system::CoreControl;

    fn record(epoch: u64, trials: usize) -> EpochRecord {
        EpochRecord {
            epoch,
            cycle: epoch * 100_000,
            mechanism: "CMM-a",
            domain: None,
            cores: vec![CoreSample {
                ipc: 1.0,
                metrics: Metrics {
                    l2_llc_traffic: 10,
                    l2_pf_miss_frac: 0.5,
                    l2_ptr: 0.01,
                    pga: 2.0,
                    l2_pmr: 0.7,
                    l2_ppm: 3.0,
                    llc_pt: 1.0,
                },
            }],
            agg: vec![0],
            friendly: vec![],
            unfriendly: vec![0],
            trials: (0..trials)
                .map(|i| Trial {
                    msr_1a4: vec![0xF * (i as u64 % 2)],
                    mba: vec![],
                    hm_ipc: 1.0 + i as f64,
                })
                .collect(),
            winner: if trials > 0 { Some(trials - 1) } else { None },
            exec_hm_ipc: if epoch > 1 { Some(1.0) } else { None },
            exec_ipc_delta: None,
            faults: Vec::new(),
            degraded: None,
            features: Vec::new(),
            action: None,
            governor: Vec::new(),
            applied: vec![
                CoreControl { clos: 1, way_mask: 0b11, msr_1a4: 0xF, mba_level: 0 },
                CoreControl { clos: 0, way_mask: 0xFFFFF, msr_1a4: 0x0, mba_level: 0 },
            ],
        }
    }

    fn meta() -> JournalMeta {
        JournalMeta {
            target: "test".into(),
            quick: true,
            seed: 3,
            config_debug: "cfg".into(),
            topology: None,
            mba: false,
            governor: false,
            learn: false,
        }
    }

    #[test]
    fn mba_journal_declares_schema_4_and_summarizes() {
        let man = manifest(&JournalMeta { mba: true, ..meta() });
        let mut r = record(1, 1);
        r.mechanism = "CBP";
        r.trials[0].mba = vec![40, 0];
        r.applied[0].mba_level = 40;
        let text = render(&man, &[("Mix-00: CBP".to_string(), vec![r])]);
        assert!(text.starts_with("{\"schema\":\"cmm-journal/4\""), "{text}");
        assert!(text.contains("\"mba\":[40,0]"), "{text}");
        let summary = summarize(&load(&text).expect("load"));
        assert!(summary.contains("Mix-00: CBP"), "{summary}");
    }

    #[test]
    fn governed_journal_declares_schema_5_and_reports_resilience() {
        use cmm_core::telemetry::GovernorEvent;
        let man = manifest(&JournalMeta { mba: true, governor: true, ..meta() });
        let mut r = record(2, 1);
        r.mechanism = "CBP+gov";
        r.governor = vec![
            GovernorEvent { cycle: 200_000, action: "rollback", core: None, class: None },
            GovernorEvent { cycle: 200_000, action: "quarantine", core: Some(3), class: None },
            GovernorEvent {
                cycle: 200_000,
                action: "breaker_open",
                core: None,
                class: Some("mba"),
            },
            GovernorEvent {
                cycle: 200_000,
                action: "breaker_close",
                core: None,
                class: Some("mba"),
            },
        ];
        let text = render(&man, &[("Mix-00: CBP+gov".to_string(), vec![r])]);
        assert!(text.starts_with("{\"schema\":\"cmm-journal/5\""), "{text}");
        assert!(text.contains("\"governor\":true"), "{text}");
        assert!(text.contains("\"action\":\"rollback\""), "{text}");
        let summary = summarize(&load(&text).expect("load"));
        assert!(
            summary.contains(
                "resilience: faults=0 degraded-epochs=0 rollbacks=1 quarantines=1 \
                 breaker-trips=1"
            ),
            "{summary}"
        );
        assert!(summary.contains("  Mix-00: CBP+gov: faults=0"), "{summary}");
        // The CSV header is pinned: governor events must not widen it.
        let csv = epochs_csv(&load(&text).expect("load"));
        assert!(
            csv.starts_with("run,epoch,mechanism,exec_hm_ipc,exec_ipc_delta,faults,degraded\n"),
            "{csv}"
        );
    }

    #[test]
    fn learned_journal_declares_schema_6_and_counts_churn() {
        let man = manifest(&JournalMeta { mba: true, learn: true, ..meta() });
        let mut r1 = record(1, 0);
        r1.features = vec![1.25, 0.5];
        r1.action = Some("pf=0xf,cat=cmm,mba=0,stretch=1".into());
        let mut r2 = record(2, 0);
        r2.applied[0].way_mask = 0b1100; // re-planned differently: churn
        let mut r3 = record(3, 0);
        r3.applied[0].way_mask = 0b1100; // held steady: no churn
        for r in [&mut r1, &mut r2, &mut r3] {
            r.mechanism = "RL-CBP";
        }
        let text = render(&man, &[("Mix-00: RL-CBP".to_string(), vec![r1, r2, r3])]);
        assert!(text.starts_with("{\"schema\":\"cmm-journal/6\""), "{text}");
        assert!(text.contains("\"learn\":true"), "{text}");
        assert!(text.contains("\"features\":[1.250000,0.500000]"), "{text}");
        assert!(text.contains("\"action\":\"pf=0xf,cat=cmm,mba=0,stretch=1\""), "{text}");
        let summary = summarize(&load(&text).expect("load"));
        let row = summary.lines().find(|l| l.contains("Mix-00: RL-CBP")).expect("run row");
        let cols: Vec<&str> = row.split_whitespace().collect();
        // Trailing columns: …, degraded, churn, throttled, partitioned.
        assert_eq!(cols[cols.len() - 3], "1", "one applied-state change in three epochs: {row}");
        // The CSV header is pinned: /6 keys must not widen it.
        let csv = epochs_csv(&load(&text).expect("load"));
        assert!(
            csv.starts_with("run,epoch,mechanism,exec_hm_ipc,exec_ipc_delta,faults,degraded\n"),
            "{csv}"
        );
    }

    #[test]
    fn clean_summaries_have_no_resilience_footer() {
        let man = manifest(&meta());
        let text = render(&man, &[("Mix-00: CMM-a".to_string(), vec![record(1, 1)])]);
        let summary = summarize(&load(&text).expect("load"));
        assert!(!summary.contains("resilience:"), "{summary}");
    }

    #[test]
    fn multi_socket_journal_groups_by_domain() {
        let man = manifest(&JournalMeta { topology: Some("2x2".into()), ..meta() });
        let mut d0 = record(1, 1);
        d0.domain = Some(0);
        let mut d1 = record(1, 2);
        d1.domain = Some(1);
        let text = render(&man, &[("Mix-00: CMM-a".to_string(), vec![d0, d1])]);
        assert!(text.starts_with("{\"schema\":\"cmm-journal/3\""), "{text}");
        let summary = summarize(&load(&text).expect("load"));
        // One row per domain, plus the topology in the header.
        assert!(summary.contains("topology=2x2"), "{summary}");
        assert!(summary.contains("Mix-00: CMM-a [d0]"), "{summary}");
        assert!(summary.contains("Mix-00: CMM-a [d1]"), "{summary}");
        assert!(summary.contains("2 runs, 2 epochs"), "{summary}");
        let csv = epochs_csv(&load(&text).expect("load"));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "run,domain,epoch,mechanism,exec_hm_ipc,exec_ipc_delta,faults,degraded"
        );
        assert!(lines[1].starts_with("Mix-00: CMM-a,0,1,"), "{csv}");
        assert!(lines[2].starts_with("Mix-00: CMM-a,1,1,"), "{csv}");
    }

    #[test]
    fn rendered_journal_round_trips_through_summarize() {
        let man = manifest(&meta());
        let cells = vec![
            ("Mix-00: Baseline".to_string(), vec![record(1, 0)]),
            ("Mix-00: CMM-a".to_string(), vec![record(1, 2), record(2, 3)]),
        ];
        let text = render(&man, &cells);
        assert_eq!(text.lines().count(), 4);
        let summary = summarize(&load(&text).expect("load"));
        assert!(summary.contains("target=test"), "{summary}");
        assert!(summary.contains("Mix-00: CMM-a"), "{summary}");
        assert!(summary.contains("2 runs, 3 epochs"), "{summary}");
        // CMM row: 2 epochs, 5 trials, 2 winners, 1 throttled core,
        // partitioned.
        assert!(summary.contains('5'), "{summary}");
        assert!(summary.contains("yes"), "{summary}");
    }

    #[test]
    fn every_journal_line_is_valid_json() {
        let man = manifest(&meta());
        let text = render(&man, &[("r".to_string(), vec![record(1, 1)])]);
        for line in text.lines() {
            assert!(parse(line).is_ok(), "invalid journal line: {line}");
        }
    }

    #[test]
    fn load_recovers_a_torn_tail() {
        let man = manifest(&meta());
        let text = render(&man, &[("r".to_string(), vec![record(1, 1), record(2, 2)])]);
        // Tear the final epoch line as a crash mid-write would.
        let torn = &text[..text.len() - 25];
        let doc = load(torn).expect("torn tail must salvage, not error");
        assert_eq!(doc.dropped, 1);
        assert_eq!(doc.epochs.len(), 1, "only the intact epoch survives");
        let summary = summarize(&doc);
        assert!(summary.contains("torn tail"), "{summary}");
        assert!(summary.contains("1 runs, 1 epochs"), "{summary}");
    }

    #[test]
    fn load_still_rejects_mid_file_corruption() {
        let man = manifest(&meta());
        let text = render(&man, &[("r".to_string(), vec![record(1, 1), record(2, 2)])]);
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{definitely not json";
        let corrupted = format!("{}\n", lines.join("\n"));
        let err = load(&corrupted).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // Valid JSON that lacks a key the writer always emits is refused
        // too, naming the line and the key, instead of summarizing as a
        // zero row.
        lines[1] = "{\"kind\":\"epoch\",\"run\":\"x\",\"epoch\":1}";
        let incomplete = format!("{}\n", lines.join("\n"));
        let err = load(&incomplete).unwrap_err();
        assert_eq!(err, "line 2: missing 'applied'");
    }

    #[test]
    fn torn_manifest_is_an_error_not_a_panic() {
        // A journal whose only line is a torn manifest salvages to empty.
        let err = load("{\"schema\":\"cmm-jour").unwrap_err();
        assert!(err.contains("empty journal"), "{err}");
    }

    #[test]
    fn epochs_csv_exports_one_row_per_epoch() {
        let man = manifest(&meta());
        let cells = vec![
            ("Mix-00: Baseline".to_string(), vec![record(1, 0)]),
            ("Mix-00: CMM-a".to_string(), vec![record(1, 2), record(2, 3)]),
        ];
        let csv = epochs_csv(&load(&render(&man, &cells)).expect("load"));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "run,epoch,mechanism,exec_hm_ipc,exec_ipc_delta,faults,degraded");
        assert_eq!(lines.len(), 4, "{csv}");
        assert!(lines[1].starts_with("Mix-00: Baseline,1,CMM-a,"), "{csv}");
        // Epoch 1 has no completed execution epoch: empty exec fields.
        assert!(lines[2].ends_with(",,,0,"), "{csv}");
        // Epoch 2 reports exec_hm_ipc at journal precision.
        assert!(lines[3].contains(",1.000000,"), "{csv}");
    }

    #[test]
    fn csv_fields_with_delimiters_are_quoted() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn manifest_reflects_environment() {
        let man = manifest(&meta());
        assert_eq!(man.host_os, std::env::consts::OS);
        assert!(man.host_cpus >= 1);
        assert!(man.config_digest.starts_with("fnv1a:"));
        // Running inside the repo's checkout, the SHA must resolve.
        assert_ne!(man.git_sha, "");
    }

    #[test]
    fn git_sha_resolves_in_this_checkout() {
        let sha = git_sha().expect("repo checkout");
        assert!(sha.len() >= 7, "sha {sha}");
        assert!(sha.chars().all(|c| c.is_ascii_hexdigit()), "sha {sha}");
    }

    #[test]
    fn summarize_rejects_garbage() {
        assert!(load("").is_err());
        assert!(load("{\"schema\":\"other\"}").is_err());
        assert!(load("not json").is_err());
    }

    #[test]
    fn write_reports_epoch_count() {
        let dir = std::env::temp_dir().join("cmm_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let man = manifest(&meta());
        let n = write(&path, &man, &[("r".to_string(), vec![record(1, 0), record(2, 1)])])
            .expect("write");
        assert_eq!(n, 2);
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back.lines().count(), 3);
        std::fs::remove_file(&path).ok();
    }
}
