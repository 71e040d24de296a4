//! `repro journal-diff` — structural comparison of two run journals.
//!
//! A `cmm-journal/*` file is a pure function of (workload, seed,
//! configuration), so two journals of the same run must agree on every
//! *decision*: which cores each epoch put in the Agg set, which trial won,
//! and which way masks / throttle MSRs were applied afterwards. This
//! module reduces each journal to that per-run decision sequence and
//! reports the first divergence per run — a far more useful answer than
//! `cmp`'s byte offset when a refactor changes controller behaviour.
//!
//! Cosmetic fields (metric values, IPCs, fault timestamps) are ignored:
//! the diff asks "did the controller *decide* differently?", not "did the
//! floats format identically?".

use cmm_core::telemetry::EpochRecord;
use cmm_sim::system::CoreControl;

use crate::journal;

/// The decision content of one profiling epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// 1-based epoch index within the run.
    pub epoch: u64,
    /// Detected Agg set, as journaled.
    pub agg: Vec<usize>,
    /// Winning trial index, if a search ran.
    pub winner: Option<usize>,
    /// Per-core applied CAT way masks.
    pub way_mask: Vec<u64>,
    /// Per-core applied prefetch-throttle MSR images.
    pub msr_1a4: Vec<u64>,
    /// Per-core applied MBA delay levels (`/4` journals; empty when the
    /// epoch left every core unthrottled — the key is elided then).
    pub mba: Vec<u64>,
    /// Fallback mechanism the epoch degraded to, if any (`/2` journals).
    pub degraded: Option<&'static str>,
}

impl Decision {
    /// The decision content of a decoded epoch record.
    pub fn of(r: &EpochRecord) -> Decision {
        let applied = |f: fn(&CoreControl) -> u64| r.applied.iter().map(f).collect();
        let mba: Vec<u64> = applied(|c| c.mba_level);
        Decision {
            epoch: r.epoch,
            agg: r.agg.clone(),
            winner: r.winner,
            way_mask: applied(|c| c.way_mask),
            msr_1a4: applied(|c| c.msr_1a4),
            mba: if mba.iter().all(|&l| l == 0) { Vec::new() } else { mba },
            degraded: r.degraded,
        }
    }
}

/// One journal reduced to its decision sequences.
#[derive(Debug, Clone)]
pub struct Decisions {
    /// Manifest `schema` line (`cmm-journal/1`..`/6`). A `/4` journal
    /// records a third resource (MBA levels) that earlier schemas cannot
    /// express, so callers refuse cross-schema diffs the same way they
    /// refuse cross-topology ones.
    pub schema: String,
    /// Manifest `config_digest` (used for a mismatch *note*, not a
    /// divergence: comparing different configs is legitimate).
    pub config_digest: String,
    /// Manifest `topology` (`/3` journals). Comparing journals from
    /// different machine shapes is meaningless — per-domain decision
    /// sequences don't line up — so callers refuse the diff outright.
    pub topology: Option<String>,
    /// Per-run decision sequences, in first-appearance order. Multi-socket
    /// epochs key as `"<run> [d<domain>]"` ([`journal::run_key`]), one
    /// sequence per CAT domain.
    pub runs: Vec<(String, Vec<Decision>)>,
}

/// Reads a journal through [`journal::load`] — the same schema check,
/// torn-tail salvage and typed epoch decoding `journal-summary` uses — and
/// reduces it to its [`Decisions`].
pub fn parse_decisions(text: &str) -> Result<Decisions, String> {
    let doc = journal::load(text)?;
    let meta = |k: &str| doc.meta(k).map(str::to_string);
    Ok(Decisions {
        schema: meta("schema").unwrap_or_default(),
        config_digest: meta("config_digest").unwrap_or_default(),
        topology: meta("topology"),
        runs: doc
            .runs()
            .into_iter()
            .map(|(run, recs)| (run, recs.into_iter().map(Decision::of).collect()))
            .collect(),
    })
}

/// Outcome of comparing two journals' decision sequences.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Context that does not count as divergence (config-digest mismatch).
    pub notes: Vec<String>,
    /// Human-readable divergences; empty means the decisions are
    /// identical.
    pub divergences: Vec<String>,
}

impl DiffReport {
    /// True when no decision diverged.
    pub fn identical(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Renders the report for the terminal.
    pub fn render(&self, a_name: &str, b_name: &str) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        if self.identical() {
            out.push_str(&format!("journal-diff: decisions identical ({a_name} vs {b_name})\n"));
        } else {
            for d in &self.divergences {
                out.push_str(&format!("diverged: {d}\n"));
            }
            out.push_str(&format!(
                "journal-diff: {} divergence(s) ({a_name} vs {b_name})\n",
                self.divergences.len()
            ));
        }
        out
    }
}

fn describe(d: &Decision) -> String {
    format!(
        "agg={:?} winner={:?} way_mask={:?} msr_1a4={:?} mba={:?} degraded={:?}",
        d.agg, d.winner, d.way_mask, d.msr_1a4, d.mba, d.degraded
    )
}

/// Compares two decision sets run by run, reporting runs missing from one
/// side, epoch-count mismatches, and the first differing epoch per run.
pub fn diff(a: &Decisions, b: &Decisions) -> DiffReport {
    let mut rep = DiffReport::default();
    if a.config_digest != b.config_digest {
        rep.notes.push(format!(
            "config digests differ ({} vs {}); comparing decisions anyway",
            a.config_digest, b.config_digest
        ));
    }
    for (run, seq_a) in &a.runs {
        let Some((_, seq_b)) = b.runs.iter().find(|(name, _)| name == run) else {
            rep.divergences.push(format!("run '{run}' missing from second journal"));
            continue;
        };
        if let Some((da, db)) = seq_a.iter().zip(seq_b).find(|(da, db)| da != db) {
            rep.divergences.push(format!(
                "run '{run}' epoch {}: {} != {}",
                da.epoch,
                describe(da),
                describe(db)
            ));
            continue;
        }
        if seq_a.len() != seq_b.len() {
            rep.divergences.push(format!("run '{run}': {} epochs vs {}", seq_a.len(), seq_b.len()));
        }
    }
    for (run, _) in &b.runs {
        if !a.runs.iter().any(|(name, _)| name == run) {
            rep.divergences.push(format!("run '{run}' missing from first journal"));
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = "{\"schema\":\"cmm-journal/2\",\"kind\":\"manifest\",\
        \"target\":\"table1\",\"quick\":true,\"seed\":42,\"git_sha\":\"x\",\
        \"host\":{\"os\":\"linux\",\"arch\":\"x86_64\",\"cpus\":8},\
        \"config_digest\":\"fnv1a:1\"}";

    fn epoch_line(run: &str, epoch: u64, winner: &str, mask: u64) -> String {
        format!(
            "{{\"kind\":\"epoch\",\"run\":\"{run}\",\"mechanism\":\"CMM-a\",\
             \"epoch\":{epoch},\"cycle\":100,\"cores\":[],\"agg\":[0,2],\
             \"friendly\":[0],\"unfriendly\":[2],\"trials\":[],\
             \"winner\":{winner},\"exec_hm_ipc\":null,\"exec_ipc_delta\":null,\
             \"faults\":[],\"degraded\":null,\
             \"applied\":{{\"clos\":[0],\"way_mask\":[{mask}],\"msr_1a4\":[0],\
             \"prefetch\":[true]}}}}"
        )
    }

    fn journal(lines: &[String]) -> String {
        let mut s = String::from(MANIFEST);
        for l in lines {
            s.push('\n');
            s.push_str(l);
        }
        s.push('\n');
        s
    }

    #[test]
    fn identical_journals_have_no_divergence() {
        let j = journal(&[epoch_line("A: CMM-a", 1, "0", 3), epoch_line("A: CMM-a", 2, "1", 7)]);
        let a = parse_decisions(&j).unwrap();
        let b = parse_decisions(&j).unwrap();
        let rep = diff(&a, &b);
        assert!(rep.identical(), "{:?}", rep.divergences);
        assert!(rep.notes.is_empty());
        assert!(rep.render("a", "b").contains("identical"));
    }

    #[test]
    fn changed_decision_is_first_divergence() {
        let a = parse_decisions(&journal(&[
            epoch_line("A: CMM-a", 1, "0", 3),
            epoch_line("A: CMM-a", 2, "1", 7),
        ]))
        .unwrap();
        let b = parse_decisions(&journal(&[
            epoch_line("A: CMM-a", 1, "0", 3),
            epoch_line("A: CMM-a", 2, "null", 7),
        ]))
        .unwrap();
        let rep = diff(&a, &b);
        assert_eq!(rep.divergences.len(), 1);
        assert!(rep.divergences[0].contains("epoch 2"), "{}", rep.divergences[0]);
    }

    #[test]
    fn missing_runs_and_length_mismatch_diverge() {
        let a = parse_decisions(&journal(&[
            epoch_line("A: CMM-a", 1, "0", 3),
            epoch_line("A: CMM-a", 2, "0", 3),
            epoch_line("B: PT", 1, "0", 3),
        ]))
        .unwrap();
        let b = parse_decisions(&journal(&[
            epoch_line("A: CMM-a", 1, "0", 3),
            epoch_line("C: Dunn", 1, "0", 3),
        ]))
        .unwrap();
        let rep = diff(&a, &b);
        let text = rep.render("x", "y");
        assert!(text.contains("'A: CMM-a': 2 epochs vs 1"), "{text}");
        assert!(text.contains("'B: PT' missing from second"), "{text}");
        assert!(text.contains("'C: Dunn' missing from first"), "{text}");
    }

    #[test]
    fn config_digest_mismatch_is_a_note_not_a_divergence() {
        let a = parse_decisions(&journal(&[epoch_line("A: CMM-a", 1, "0", 3)])).unwrap();
        let mut b = a.clone();
        b.config_digest = "fnv1a:2".into();
        let rep = diff(&a, &b);
        assert!(rep.identical());
        assert_eq!(rep.notes.len(), 1);
    }

    #[test]
    fn torn_tail_is_salvaged_before_diffing() {
        let full = journal(&[epoch_line("A: CMM-a", 1, "0", 3), epoch_line("A: CMM-a", 2, "1", 7)]);
        let torn = &full[..full.len() - 20];
        let a = parse_decisions(torn).expect("torn tail salvages");
        assert_eq!(a.runs[0].1.len(), 1, "the torn epoch is dropped");
        let b = parse_decisions(&full).unwrap();
        let rep = diff(&a, &b);
        assert!(rep.render("torn", "full").contains("1 epochs vs 2"));
    }

    #[test]
    fn multi_socket_domains_key_separately_and_topology_parses() {
        let m3 = MANIFEST
            .replace("cmm-journal/2", "cmm-journal/3")
            .replace("\"seed\":42", "\"seed\":42,\"topology\":\"2x2\"");
        let line = |d: u64| {
            epoch_line("A: CMM-a", 1, "0", 3).replace(
                "\"mechanism\":\"CMM-a\"",
                &format!("\"mechanism\":\"CMM-a\",\"domain\":{d}"),
            )
        };
        let j = format!("{m3}\n{}\n{}\n", line(0), line(1));
        let d = parse_decisions(&j).unwrap();
        assert_eq!(d.topology.as_deref(), Some("2x2"));
        let names: Vec<&str> = d.runs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["A: CMM-a [d0]", "A: CMM-a [d1]"]);
        // Single-socket journals stay topology-less (the refusal gate in
        // `repro journal-diff` keys off this being `None`).
        let plain = parse_decisions(&journal(&[epoch_line("A: CMM-a", 1, "0", 3)])).unwrap();
        assert_eq!(plain.topology, None);
    }

    #[test]
    fn schema_is_captured_and_applied_mba_counts_as_a_decision() {
        let plain = parse_decisions(&journal(&[epoch_line("A: CMM-a", 1, "0", 3)])).unwrap();
        assert_eq!(plain.schema, "cmm-journal/2");
        let m4 = MANIFEST.replace("cmm-journal/2", "cmm-journal/4");
        let throttled = epoch_line("A: CBP", 1, "0", 3)
            .replace("\"prefetch\":[true]", "\"prefetch\":[true],\"mba\":[40]");
        let a = parse_decisions(&format!("{m4}\n{throttled}\n")).unwrap();
        assert_eq!(a.schema, "cmm-journal/4");
        assert_eq!(a.runs[0].1[0].mba, vec![40]);
        // Same epoch without the throttle: a real divergence, not cosmetic.
        let b = parse_decisions(&format!("{m4}\n{}\n", epoch_line("A: CBP", 1, "0", 3))).unwrap();
        let rep = diff(&a, &b);
        assert_eq!(rep.divergences.len(), 1);
        assert!(rep.divergences[0].contains("mba=[40]"), "{}", rep.divergences[0]);
    }

    #[test]
    fn rejects_non_journal_input() {
        assert!(parse_decisions("").is_err());
        assert!(parse_decisions("{\"schema\":\"other/1\"}").is_err());
        assert!(parse_decisions("not json").is_err());
        // A schema this reader does not know is refused, as
        // `journal-summary` refuses it, even when the lines would parse.
        let v7 = MANIFEST.replace("cmm-journal/2", "cmm-journal/7");
        let err =
            parse_decisions(&format!("{v7}\n{}\n", epoch_line("A: PT", 1, "0", 3))).unwrap_err();
        assert!(err.contains("unsupported schema 'cmm-journal/7'"), "{err}");
        // A /1 journal (no degraded/faults keys) still parses.
        let v1 = MANIFEST.replace("cmm-journal/2", "cmm-journal/1");
        let line = epoch_line("A: PT", 1, "0", 3)
            .replace(",\"faults\":[],\"degraded\":null", "")
            .replace(",\"exec_hm_ipc\":null,\"exec_ipc_delta\":null", "");
        let d = parse_decisions(&format!("{v1}\n{line}\n")).unwrap();
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].1[0].degraded, None);
    }
}
