//! `cmm-ckpt/1` — the checkpoint/resume sidecar behind `repro --resume`.
//!
//! A resumable run appends one JSONL record per completed evaluation cell
//! to a sidecar manifest. The first line binds the sidecar to a run
//! configuration (schema, target, FNV-1a config digest); every further
//! line caches one cell's *complete result*:
//!
//! ```text
//! {"schema":"cmm-ckpt/1","kind":"manifest","target":"fig7","config_digest":"fnv1a:…"}
//! {"kind":"cell","key":"alone: lbm","payload":{"ipc":1.2345}}
//! {"kind":"cell","key":"PrefAgg-00: CMM-a","payload":{…full MixResult…}}
//! ```
//!
//! On `--resume`, cells whose key is present are spliced from the cached
//! payload instead of re-running, and the run appends the cells it still
//! computes — so an interrupted sweep converges over any number of
//! kill/resume cycles. The payload codecs are **lossless** (floats render
//! in shortest round-trip form), which is what makes a resumed run's
//! stdout, journal, and figure output byte-identical to an uninterrupted
//! one: a spliced `MixResult` is indistinguishable from a recomputed one.
//!
//! Writes go through [`crate::atomic`]: appends flush+fsync per record, so
//! a crash tears at most the final line, and [`Checkpoint::open`] salvages
//! such a tail (dropping the partial record, keeping the rest). A digest
//! mismatch — resuming against a different configuration — is refused
//! rather than silently mixing incompatible results.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use cmm_core::experiment::MixResult;
use cmm_core::json::{escape, push_array, Lossless};
use cmm_core::policy::Mechanism;
use cmm_core::telemetry::EpochRecord;
use cmm_sim::pmu::Pmu;

use crate::atomic::{salvage_jsonl, write_atomic, JsonlAppender};
use crate::journal::{decode_epoch, nums, records};
use crate::json::{parse, Json};

/// Sidecar schema identifier.
pub const SCHEMA: &str = "cmm-ckpt/1";

/// What [`Checkpoint::open`] found on disk.
#[derive(Debug, Clone, Default)]
pub struct ResumeInfo {
    /// Completed cells loaded from the sidecar.
    pub cached: usize,
    /// Torn-tail lines dropped during salvage.
    pub dropped: usize,
    /// True when the sidecar did not exist (fresh run).
    pub fresh: bool,
}

/// A cell failure recorded by a previous attempt (post-mortem context for
/// `--resume`; failure records are never spliced as results).
#[derive(Debug, Clone)]
pub struct PriorFailure {
    /// The failed cell's stable key.
    pub key: String,
    /// Attempts the previous run burned on it.
    pub attempts: u64,
    /// The final panic message, stringified.
    pub panic_msg: String,
}

/// An open checkpoint: cached cells from a previous attempt plus an
/// append handle for the cells this attempt completes.
#[derive(Debug)]
pub struct Checkpoint {
    cached: HashMap<String, Json>,
    failures: Vec<PriorFailure>,
    appender: JsonlAppender,
    spliced: AtomicUsize,
}

/// A cell result that can live in a `cmm-ckpt/1` sidecar: the payload
/// codec [`crate::runner::run_cells`] splices and records cells with.
/// Encoding must be lossless (floats in [`Lossless`] form), so a spliced
/// cell is indistinguishable from a recomputed one.
pub trait CellCodec: Sized {
    /// Renders the cell as its JSON payload.
    fn encode(&self) -> String;
    /// Parses a payload written by [`CellCodec::encode`].
    fn decode(j: &Json) -> Result<Self, String>;
}

impl Checkpoint {
    /// Opens (or creates) the sidecar at `path`, validating that it
    /// belongs to this run's `target` and `config_digest`. A torn tail is
    /// salvaged and the file compacted before appending resumes.
    pub fn open(
        path: &Path,
        target: &str,
        config_digest: &str,
    ) -> Result<(Checkpoint, ResumeInfo), String> {
        let mut info = ResumeInfo::default();
        let mut cached = HashMap::new();
        let mut failures: Vec<PriorFailure> = Vec::new();
        let manifest_line = format!(
            "{{\"schema\":\"{SCHEMA}\",\"kind\":\"manifest\",\"target\":\"{}\",\
             \"config_digest\":\"{}\"}}",
            escape(target),
            escape(config_digest)
        );
        let existing = match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        match existing {
            Some(text) if !salvage_jsonl(&text).lines.is_empty() => {
                let salvage = salvage_jsonl(&text);
                info.dropped = salvage.dropped;
                let man = parse(&salvage.lines[0])
                    .map_err(|e| format!("{}: manifest: {e}", path.display()))?;
                let schema = man.get("schema").and_then(Json::as_str).unwrap_or("");
                if schema != SCHEMA {
                    return Err(format!(
                        "{}: unsupported checkpoint schema '{schema}' (want {SCHEMA})",
                        path.display()
                    ));
                }
                let got_target = man.get("target").and_then(Json::as_str).unwrap_or("");
                let got_digest = man.get("config_digest").and_then(Json::as_str).unwrap_or("");
                if got_target != target || got_digest != config_digest {
                    return Err(format!(
                        "{}: checkpoint was recorded for target '{got_target}' digest \
                         {got_digest}, but this run is target '{target}' digest \
                         {config_digest}; refusing to splice incompatible results",
                        path.display()
                    ));
                }
                for (i, line) in salvage.lines.iter().enumerate().skip(1) {
                    let rec = parse(line)
                        .map_err(|e| format!("{}: line {}: {e}", path.display(), i + 1))?;
                    if rec.get("kind").and_then(Json::as_str) == Some("failure") {
                        if let Some(key) = rec.get("key").and_then(Json::as_str) {
                            // Latest record per key wins: a cell can fail
                            // on several runs before finally completing.
                            failures.retain(|f| f.key != key);
                            failures.push(PriorFailure {
                                key: key.to_string(),
                                attempts: rec.get("attempts").and_then(Json::as_u64).unwrap_or(0),
                                panic_msg: rec
                                    .get("panic_msg")
                                    .and_then(Json::as_str)
                                    .unwrap_or("")
                                    .to_string(),
                            });
                        }
                        continue;
                    }
                    if rec.get("kind").and_then(Json::as_str) != Some("cell") {
                        continue;
                    }
                    let key = rec
                        .get("key")
                        .and_then(Json::as_str)
                        .ok_or_else(|| {
                            format!("{}: line {}: cell without key", path.display(), i + 1)
                        })?
                        .to_string();
                    let payload = rec.get("payload").cloned().ok_or_else(|| {
                        format!("{}: line {}: cell without payload", path.display(), i + 1)
                    })?;
                    cached.insert(key, payload);
                }
                info.cached = cached.len();
                if salvage.dropped > 0 {
                    // Compact away the torn tail so appends start clean.
                    let mut compacted = salvage.lines.join("\n");
                    compacted.push('\n');
                    write_atomic(path, compacted.as_bytes())
                        .map_err(|e| format!("compact {}: {e}", path.display()))?;
                }
            }
            _ => {
                // Absent (or empty/unsalvageable) sidecar: start fresh.
                info.fresh = true;
                let mut line = manifest_line.clone();
                line.push('\n');
                write_atomic(path, line.as_bytes())
                    .map_err(|e| format!("create {}: {e}", path.display()))?;
            }
        }
        let appender =
            JsonlAppender::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        // A failure superseded by a completed cell is history, not news.
        failures.retain(|f| !cached.contains_key(&f.key));
        Ok((Checkpoint { cached, failures, appender, spliced: AtomicUsize::new(0) }, info))
    }

    /// The cached result for `key`, decoded, if a previous attempt
    /// completed it. An undecodable payload counts as a miss, with a
    /// warning: the cell re-runs and its fresh result is recorded again
    /// (the latest record of a key wins on the next open).
    pub fn splice<R: CellCodec>(&self, key: &str) -> Option<R> {
        match R::decode(self.cached.get(key)?) {
            Ok(r) => {
                self.spliced.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            Err(e) => {
                eprintln!("[repro] checkpoint entry '{key}' is undecodable ({e}); re-running cell");
                None
            }
        }
    }

    /// Cells [`Checkpoint::splice`] has answered so far.
    pub fn spliced(&self) -> usize {
        self.spliced.load(Ordering::Relaxed)
    }

    /// Durably appends one completed cell. Checkpoint loss is not fatal to
    /// the run (only to future resumes), so IO errors degrade to a warning.
    pub fn record(&self, key: &str, payload: &str) {
        let line =
            format!("{{\"kind\":\"cell\",\"key\":\"{}\",\"payload\":{payload}}}", escape(key));
        if let Err(e) = self.appender.append(&line) {
            eprintln!("[repro] checkpoint append failed ({}): {e}", self.appender.path().display());
        }
    }

    /// Durably appends one exhausted cell failure, so a later `--resume`
    /// can report what went wrong before this process exited. The readers
    /// skip non-`cell` kinds, so pre-existing tooling is unaffected.
    pub fn record_failure(&self, key: &str, attempts: u32, panic_msg: &str) {
        let line = format!(
            "{{\"kind\":\"failure\",\"key\":\"{}\",\"attempts\":{attempts},\"panic_msg\":\"{}\"}}",
            escape(key),
            escape(panic_msg)
        );
        if let Err(e) = self.appender.append(&line) {
            eprintln!("[repro] checkpoint append failed ({}): {e}", self.appender.path().display());
        }
    }

    /// Failures recorded by previous attempts whose cells have still not
    /// completed (latest record per key), for post-mortem reporting on
    /// `--resume`.
    pub fn prior_failures(&self) -> &[PriorFailure] {
        &self.failures
    }
}

// ---------------------------------------------------------------------------
// Payload codecs. Encoding is lossless: floats use Rust's shortest
// round-trip `Display`, so decode(encode(x)) == x bit-for-bit and spliced
// results format identically to freshly computed ones.

/// The run-alone IPC cell of the evaluation.
impl CellCodec for f64 {
    fn encode(&self) -> String {
        format!("{{\"ipc\":{}}}", Lossless(*self))
    }

    fn decode(j: &Json) -> Result<f64, String> {
        j.field("ipc", Json::as_f64)
    }
}

/// Pmu counters in struct declaration order (see [`Pmu`]).
fn pmu_to_list(p: &Pmu) -> [u64; 18] {
    [
        p.cycles,
        p.instructions,
        p.l1d_accesses,
        p.l1d_misses,
        p.l2_dm_req,
        p.l2_dm_miss,
        p.l2_pf_req,
        p.l2_pf_miss,
        p.l3_load_miss,
        p.llc_pf_to_mem,
        p.stalls_l2_pending,
        p.stall_cycles,
        p.l1_pf_req,
        p.mem_demand_bytes,
        p.mem_prefetch_bytes,
        p.mem_writeback_bytes,
        p.pf_used,
        p.pf_wasted,
    ]
}

fn pmu_from_list(vals: &[u64]) -> Result<Pmu, String> {
    if vals.len() != 18 {
        return Err(format!("pmu list has {} counters, want 18", vals.len()));
    }
    Ok(Pmu {
        cycles: vals[0],
        instructions: vals[1],
        l1d_accesses: vals[2],
        l1d_misses: vals[3],
        l2_dm_req: vals[4],
        l2_dm_miss: vals[5],
        l2_pf_req: vals[6],
        l2_pf_miss: vals[7],
        l3_load_miss: vals[8],
        llc_pf_to_mem: vals[9],
        stalls_l2_pending: vals[10],
        stall_cycles: vals[11],
        l1_pf_req: vals[12],
        mem_demand_bytes: vals[13],
        mem_prefetch_bytes: vals[14],
        mem_writeback_bytes: vals[15],
        pf_used: vals[16],
        pf_wasted: vals[17],
    })
}

/// Appends `epochs` to `s` as a JSON array of their journal renderings
/// (the embedded "run" label is unused) — every payload's `epochs` key.
pub fn push_epochs(s: &mut String, epochs: &[EpochRecord]) {
    push_array(s, epochs.iter().map(|e| e.to_json_line("")));
}

/// Decodes the `epochs` key written by [`push_epochs`].
pub fn decode_epochs(j: &Json) -> Result<Vec<EpochRecord>, String> {
    records(j, "epochs", decode_epoch)
}

/// A full mix-run cell of the evaluation and `learn` grids.
impl CellCodec for MixResult {
    fn encode(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!("{{\"mechanism\":\"{}\"", escape(self.mechanism.label())));
        s.push_str(&format!(",\"mix_name\":\"{}\"", escape(&self.mix_name)));
        s.push_str(",\"benchmarks\":");
        push_array(&mut s, self.benchmarks.iter().map(|b| format!("\"{}\"", escape(b))));
        s.push_str(",\"ipcs\":");
        push_array(&mut s, self.ipcs.iter().map(|&v| Lossless(v)));
        s.push_str(",\"pmu\":");
        push_array(
            &mut s,
            self.pmu.iter().map(|p| {
                let mut list = String::new();
                push_array(&mut list, pmu_to_list(p));
                list
            }),
        );
        s.push_str(&format!(",\"mem_bytes\":{}", self.mem_bytes));
        s.push_str(&format!(",\"stalls_l2\":{}", self.stalls_l2));
        s.push_str(&format!(",\"overhead_ratio\":{}", Lossless(self.overhead_ratio)));
        s.push_str(",\"epochs\":");
        push_epochs(&mut s, &self.epochs);
        s.push('}');
        s
    }

    fn decode(j: &Json) -> Result<MixResult, String> {
        let label = j.field("mechanism", Json::as_str)?;
        Ok(MixResult {
            mechanism: Mechanism::from_label(label)
                .ok_or_else(|| format!("unknown mechanism '{label}'"))?,
            mix_name: j.field("mix_name", Json::as_str)?.to_string(),
            benchmarks: nums(j, "benchmarks", |b| b.as_str().map(str::to_string))?,
            ipcs: nums(j, "ipcs", Json::as_f64)?,
            pmu: records(j, "pmu", |p| {
                pmu_from_list(
                    &p.as_array()
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(Json::as_u64)
                        .collect::<Vec<_>>(),
                )
            })?,
            mem_bytes: j.field("mem_bytes", Json::as_u64)?,
            stalls_l2: j.field("stalls_l2", Json::as_u64)?,
            overhead_ratio: j.field("overhead_ratio", Json::as_f64)?,
            epochs: decode_epochs(j)?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cmm_core::frontend::Metrics;
    use cmm_core::telemetry::{CoreSample, FaultRecord, GovernorEvent, Trial};
    use cmm_sim::system::CoreControl;

    /// An epoch exercising every decoded key: one fault, a degraded
    /// retreat, one rollback, one breaker trip and one quarantine.
    pub(crate) fn sample_epoch() -> EpochRecord {
        EpochRecord {
            epoch: 2,
            cycle: 200_000,
            mechanism: "CMM-a",
            domain: None,
            cores: vec![CoreSample {
                ipc: 1.2345678901234,
                metrics: Metrics {
                    l2_llc_traffic: 42,
                    l2_pf_miss_frac: 0.5,
                    l2_ptr: 0.0125,
                    pga: 2.25,
                    l2_pmr: 0.75,
                    l2_ppm: 3.5,
                    llc_pt: 1.125,
                },
            }],
            agg: vec![0, 3],
            friendly: vec![0],
            unfriendly: vec![3],
            trials: vec![
                Trial { msr_1a4: vec![0xF, 0x0], mba: vec![], hm_ipc: 1.5 },
                Trial { msr_1a4: vec![0xF, 0x0], mba: vec![0, 40], hm_ipc: 1.75 },
            ],
            winner: Some(0),
            exec_hm_ipc: Some(1.25),
            exec_ipc_delta: Some(-0.125),
            faults: vec![FaultRecord {
                cycle: 123,
                kind: "msr_rejected",
                core: Some(1),
                msr: Some(0x1A4),
                action: "retry_ok",
            }],
            degraded: Some("Dunn"),
            features: vec![],
            action: None,
            governor: vec![
                GovernorEvent { cycle: 200_000, action: "rollback", core: None, class: None },
                GovernorEvent {
                    cycle: 200_000,
                    action: "breaker_open",
                    core: None,
                    class: Some("cat"),
                },
                GovernorEvent { cycle: 200_000, action: "quarantine", core: Some(1), class: None },
            ],
            applied: vec![
                CoreControl { clos: 1, way_mask: 0b11, msr_1a4: 0xF, mba_level: 90 },
                CoreControl { clos: 0, way_mask: 0xFFFFF, msr_1a4: 0x0, mba_level: 0 },
            ],
        }
    }

    fn sample_result() -> MixResult {
        MixResult {
            mechanism: Mechanism::CmmA,
            mix_name: "PrefAgg-00".into(),
            benchmarks: vec!["lbm".into(), "mcf".into()],
            ipcs: vec![1.087227344, 0.4432191],
            pmu: vec![
                Pmu { cycles: 1000, instructions: 1087, ..Pmu::default() },
                Pmu { pf_wasted: 7, mem_writeback_bytes: 640, ..Pmu::default() },
            ],
            mem_bytes: 123_456,
            stalls_l2: 789,
            overhead_ratio: 0.000123456789,
            epochs: vec![sample_epoch()],
        }
    }

    #[test]
    fn mix_result_round_trips_losslessly() {
        let r = sample_result();
        let j = parse(&r.encode()).expect("valid payload JSON");
        let back = MixResult::decode(&j).expect("decodes");
        assert_eq!(back.mechanism, r.mechanism);
        assert_eq!(back.mix_name, r.mix_name);
        assert_eq!(back.benchmarks, r.benchmarks);
        assert_eq!(back.ipcs, r.ipcs, "ipcs must be bit-identical");
        assert_eq!(back.pmu, r.pmu);
        assert_eq!(back.mem_bytes, r.mem_bytes);
        assert_eq!(back.stalls_l2, r.stalls_l2);
        assert_eq!(back.overhead_ratio, r.overhead_ratio);
        // Epoch floats are journal-precision; the journal rendering — the
        // byte-identity surface — must match exactly.
        assert_eq!(back.epochs.len(), 1);
        assert_eq!(back.epochs[0].to_json_line("x"), {
            let j2 = parse(&r.encode()).unwrap();
            MixResult::decode(&j2).unwrap().epochs[0].to_json_line("x")
        });
        assert_eq!(back.epochs[0].faults, r.epochs[0].faults);
        assert_eq!(back.epochs[0].degraded, r.epochs[0].degraded);
        assert_eq!(back.epochs[0].applied, r.epochs[0].applied);
    }

    #[test]
    fn epoch_journal_rendering_is_stable_across_one_round_trip() {
        // decode(to_json_line) re-rendered must be byte-identical: the
        // journal is written from decoded epochs after a resume.
        let e = sample_epoch();
        let line = e.to_json_line("run");
        let decoded = decode_epoch(&parse(&line).unwrap()).unwrap();
        assert_eq!(decoded.to_json_line("run"), line);
    }

    #[test]
    fn epochs_without_mba_keys_decode_to_unthrottled_state() {
        // Pre-/4 journals have no mba keys anywhere; decoding must fill in
        // the power-on defaults (empty trial vec, level 0 per core).
        let mut e = sample_epoch();
        e.trials.truncate(1);
        for c in &mut e.applied {
            c.mba_level = 0;
        }
        let line = e.to_json_line("run");
        assert!(!line.contains("\"mba\""), "all-zero MBA state must elide the key");
        let decoded = decode_epoch(&parse(&line).unwrap()).unwrap();
        assert!(decoded.trials[0].mba.is_empty());
        assert!(decoded.applied.iter().all(|c| c.mba_level == 0));
        assert_eq!(decoded.to_json_line("run"), line);
    }

    #[test]
    fn alone_round_trips() {
        let j = parse(&1.234567890123456f64.encode()).unwrap();
        assert_eq!(f64::decode(&j).unwrap(), 1.234567890123456);
    }

    #[test]
    fn checkpoint_open_record_reopen() {
        let dir = std::env::temp_dir().join("cmm_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("ck-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();

        let (ck, info) = Checkpoint::open(&path, "fig7", "fnv1a:abc").unwrap();
        assert!(info.fresh);
        assert_eq!(info.cached, 0);
        ck.record("alone: lbm", &1.5f64.encode());
        ck.record("PrefAgg-00: CMM-a", &sample_result().encode());
        drop(ck);

        let (ck, info) = Checkpoint::open(&path, "fig7", "fnv1a:abc").unwrap();
        assert!(!info.fresh);
        assert_eq!(info.cached, 2);
        assert_eq!(info.dropped, 0);
        assert_eq!(ck.splice::<f64>("alone: lbm"), Some(1.5));
        let mix: MixResult = ck.splice("PrefAgg-00: CMM-a").unwrap();
        assert_eq!(mix.ipcs, sample_result().ipcs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_salvaged_and_compacted() {
        let dir = std::env::temp_dir().join("cmm_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("torn-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();

        let (ck, _) = Checkpoint::open(&path, "fig7", "fnv1a:abc").unwrap();
        ck.record("a", &1.0f64.encode());
        ck.record("b", &2.0f64.encode());
        drop(ck);
        // Tear the final record mid-line, as a crash mid-append would.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 10]).unwrap();

        let (ck, info) = Checkpoint::open(&path, "fig7", "fnv1a:abc").unwrap();
        assert_eq!(info.dropped, 1);
        assert_eq!(info.cached, 1, "only the intact record survives");
        assert_eq!(ck.splice::<f64>("a"), Some(1.0));
        assert_eq!(ck.splice::<f64>("b"), None);
        // The compacted file is clean again: append and re-open.
        ck.record("b", &2.0f64.encode());
        drop(ck);
        let (ck, info) = Checkpoint::open(&path, "fig7", "fnv1a:abc").unwrap();
        assert_eq!((info.cached, info.dropped), (2, 0));
        assert_eq!(ck.splice::<f64>("b"), Some(2.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn governed_epochs_round_trip_and_ungoverned_lines_elide_the_key() {
        let e = sample_epoch();
        let line = e.to_json_line("run");
        assert!(line.contains("\"governor\":["), "{line}");
        let decoded = decode_epoch(&parse(&line).unwrap()).unwrap();
        assert_eq!(decoded.governor, e.governor);
        assert_eq!(decoded.to_json_line("run"), line);

        let mut quiet = sample_epoch();
        quiet.governor.clear();
        let line = quiet.to_json_line("run");
        assert!(!line.contains("\"governor\""), "event-free epochs must elide the key");
        assert!(decode_epoch(&parse(&line).unwrap()).unwrap().governor.is_empty());
    }

    #[test]
    fn learned_epochs_round_trip_and_quiet_lines_elide_the_keys() {
        // A /6 epoch carries the feature vector and the learned-action
        // label; both must survive the checkpoint round trip byte-for-byte.
        let mut e = sample_epoch();
        e.features = vec![1.25, 0.5, 0.0, 0.015625, 2.0, 0.875, 0.25, 0.03125];
        e.action = Some("pf=0xf,cat=cmm,mba=0,stretch=1".into());
        let line = e.to_json_line("run");
        assert!(line.contains("\"features\":[1.250000,"), "{line}");
        assert!(line.contains("\"action\":\"pf=0xf,cat=cmm,mba=0,stretch=1\""), "{line}");
        let decoded = decode_epoch(&parse(&line).unwrap()).unwrap();
        assert_eq!(decoded.action, e.action);
        assert_eq!(decoded.features, e.features);
        assert_eq!(decoded.to_json_line("run"), line);

        // Pre-/6 epochs have neither key; decoding fills the defaults.
        let quiet = sample_epoch();
        let line = quiet.to_json_line("run");
        assert!(!line.contains("\"features\""), "{line}");
        let decoded = decode_epoch(&parse(&line).unwrap()).unwrap();
        assert!(decoded.features.is_empty());
        assert_eq!(decoded.action, None);
        assert_eq!(decoded.to_json_line("run"), line);
    }

    #[test]
    fn failure_records_survive_resume_until_the_cell_completes() {
        let dir = std::env::temp_dir().join("cmm_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("fail-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();

        let (ck, _) = Checkpoint::open(&path, "fig7", "fnv1a:abc").unwrap();
        ck.record("ok-cell", &1.0f64.encode());
        ck.record_failure("bad-cell", 3, "chaos: injected panic in 'bad-cell' (attempt 3)");
        drop(ck);

        // Resume: the unresolved failure is reported, the completed cell
        // is not.
        let (ck, info) = Checkpoint::open(&path, "fig7", "fnv1a:abc").unwrap();
        assert_eq!(info.cached, 1);
        let prior = ck.prior_failures();
        assert_eq!(prior.len(), 1);
        assert_eq!(prior[0].key, "bad-cell");
        assert_eq!(prior[0].attempts, 3);
        assert!(prior[0].panic_msg.contains("injected panic"), "{}", prior[0].panic_msg);
        // The cell completes this time: the failure is history.
        ck.record("bad-cell", &2.0f64.encode());
        drop(ck);
        let (ck, info) = Checkpoint::open(&path, "fig7", "fnv1a:abc").unwrap();
        assert_eq!(info.cached, 2);
        assert!(ck.prior_failures().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn digest_or_target_mismatch_is_refused() {
        let dir = std::env::temp_dir().join("cmm_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("mismatch-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let (_, _) = Checkpoint::open(&path, "fig7", "fnv1a:abc").unwrap();
        assert!(Checkpoint::open(&path, "fig7", "fnv1a:OTHER").is_err());
        assert!(Checkpoint::open(&path, "fig9", "fnv1a:abc").is_err());
        std::fs::remove_file(&path).ok();
    }
}
