//! The run journal must be a pure function of (workload, seed, config):
//! byte-identical across `--jobs` values and across repeated runs. This is
//! what lets CI diff journals and commit them as fixtures.

use cmm_bench::figures::{evaluate, EvalConfig};
use cmm_bench::journal::{self, JournalMeta};
use cmm_core::policy::Mechanism;

fn tiny_cfg(jobs: usize) -> EvalConfig {
    let mut cfg = EvalConfig::quick();
    cfg.mixes_per_category = 1;
    cfg.exp.total_cycles = 1_200_000;
    cfg.jobs = jobs;
    cfg
}

fn journal_text(jobs: usize) -> String {
    let eval = evaluate(&[Mechanism::CmmA], &tiny_cfg(jobs), false);
    let meta = JournalMeta {
        target: "test".into(),
        quick: true,
        seed: 42,
        config_debug: "determinism-test".into(),
        topology: None,
        mba: false,
        governor: false,
        learn: false,
    };
    journal::render(&journal::manifest(&meta), &journal::eval_cells(&eval))
}

#[test]
fn journal_is_byte_identical_across_job_counts() {
    let serial = journal_text(1);
    let threaded = journal_text(4);
    assert_eq!(serial, threaded, "journal must not depend on --jobs");
    // And it is substantive: a manifest plus real epoch records with
    // decisions in them.
    assert!(serial.lines().count() > 8, "{} lines", serial.lines().count());
    assert!(serial.starts_with("{\"schema\":\"cmm-journal/2\",\"kind\":\"manifest\""));
    assert!(serial.contains("\"mechanism\":\"CMM-a\""));
    assert!(serial.contains("\"hm_ipc\":"), "CMM runs must journal throttle trials");
}

#[test]
fn journal_summary_reads_a_real_journal() {
    let text = journal_text(2);
    let doc = journal::load(&text).expect("real journal must load");
    let summary = journal::summarize(&doc);
    assert!(summary.contains("target=test"), "{summary}");
    assert!(summary.contains("CMM-a"), "{summary}");
    assert!(summary.contains("Baseline"), "{summary}");
    // The typed reader loses nothing: every epoch line re-renders
    // byte-identically from its decoded record.
    let lines: Vec<&str> = text.lines().skip(1).collect();
    assert_eq!(doc.epochs.len(), lines.len());
    for ((run, rec), line) in doc.epochs.iter().zip(lines) {
        assert_eq!(rec.to_json_line(run), line);
    }
}
