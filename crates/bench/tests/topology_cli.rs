//! `repro` refuses every flag a target does not honour: a multi-socket
//! `--topology` on a target that runs (part of its work) single-socket,
//! and `--resume`, `--trace-dir`, `--csv` or `--model` on a target that
//! would silently ignore them. A flag value that is missing or malformed
//! is refused the same way. Each refusal exits 2 with a one-line reason
//! before loading, simulating or writing anything.

use std::process::Command;

/// `(target arguments, the refused flag and its value)`.
const REFUSALS: &[(&[&str], &[&str])] = &[
    (&["faults"], &["--topology", "2x16"]),
    (&["governor"], &["--topology", "2x16"]),
    (&["learn"], &["--topology", "2x16"]),
    (&["learn", "train"], &["--topology", "2x16"]),
    (&["extension"], &["--topology", "2x16"]),
    (&["ablate"], &["--topology", "2x16"]),
    (&["table1"], &["--topology", "2x16"]),
    (&["fig1"], &["--topology", "2x16"]),
    (&["fig2"], &["--topology", "2x16"]),
    (&["fig3"], &["--topology", "2x16"]),
    (&["fig5"], &["--topology", "2x16"]),
    (&["all"], &["--topology", "2x16"]),
    (&["fig5"], &["--resume", "refused.ckpt"]),
    (&["scale"], &["--resume", "refused.ckpt"]),
    (&["scale", "--topology", "1x8"], &["--resume", "refused.ckpt"]),
    (&["fig5"], &["--trace-dir", "traces"]),
    (&["faults"], &["--trace-dir", "traces"]),
    (&["fig7"], &["--model", "no-such.model"]),
    (&["table1"], &["--csv", "csv-out"]),
    (&["learn"], &["--csv", "csv-out"]),
];

#[test]
fn targets_refuse_the_flags_they_do_not_honour() {
    let dir = std::env::temp_dir().join(format!("cmm-refusal-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A loadable trace set, so a `--trace-dir` refusal is the target's
    // and not the trace loader's.
    std::fs::create_dir_all(dir.join("traces")).unwrap();
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../benchmarks/fixtures/trace_sample.trc");
    std::fs::copy(fixture, dir.join("traces/sample.trc")).unwrap();
    let journal = dir.join("journal.jsonl");
    for &(target, flag) in REFUSALS {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(target)
            .args(flag)
            .args(["--quick", "--journal"])
            .arg(&journal)
            .arg("--bench-json")
            .arg(dir.join("bench.json"))
            .current_dir(&dir)
            .output()
            .expect("repro binary runs");
        let case = format!("{target:?} {flag:?}");
        assert_eq!(out.status.code(), Some(2), "{case} must be refused");
        assert!(out.stdout.is_empty(), "{case} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{case}: one-line reason, got {stderr}");
        assert!(stderr.contains(flag[0]), "{case}: the reason names the flag: {stderr}");
        if flag[0] == "--topology" {
            assert!(stderr.contains(flag[1]), "{case}: {stderr}");
        }
        assert!(!journal.exists(), "{case} wrote a journal");
        assert!(!dir.join("refused.ckpt").exists(), "{case} wrote a checkpoint sidecar");
        assert!(!dir.join("csv-out").exists(), "{case} wrote CSV output");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `(command line, the flag whose value is refused)`.
const BAD_VALUES: &[(&[&str], &str)] = &[
    (&["table1", "--jobs", "abc"], "--jobs"),
    (&["table1", "--seed"], "--seed"),
    (&["fig7", "--mixes", "-1"], "--mixes"),
    (&["faults", "--fault-seed", "1.5"], "--fault-seed"),
    (&["bench-compare", "a.json", "b.json", "--noise", "-1"], "--noise"),
    (&["bench-compare", "a.json", "b.json", "--noise", "NaN"], "--noise"),
    (&["bench-compare", "a.json", "b.json", "--noise", "inf"], "--noise"),
];

#[test]
fn malformed_flag_values_are_refused_not_panicked_on() {
    let dir = std::env::temp_dir().join(format!("cmm-bad-value-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for &(args, flag) in BAD_VALUES {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("repro binary runs");
        let case = format!("{args:?}");
        assert_eq!(out.status.code(), Some(2), "{case} must be refused");
        assert!(out.stdout.is_empty(), "{case} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{case}: one-line reason, got {stderr}");
        assert!(stderr.contains(flag), "{case}: the reason names the flag: {stderr}");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "a refused run wrote a file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_targets_are_refused_with_the_target_list() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_repro")).arg("fig6").output().expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for name in ["table1", "fairness", "ablate", "extension", "scale", "learn", "all"] {
        assert!(stderr.contains(name), "the error lists {name}: {stderr}");
    }
}
