//! `repro` must not journal a topology it did not run: every target that
//! builds its machine without the topology-aware evaluation config
//! refuses a multi-socket `--topology` before simulating anything.

use std::process::Command;

#[test]
fn single_socket_targets_refuse_a_multi_socket_topology() {
    let dir = std::env::temp_dir().join(format!("cmm-topology-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");
    let targets: [&[&str]; 11] = [
        &["faults"],
        &["governor"],
        &["learn"],
        &["learn", "train"],
        &["extension"],
        &["ablate"],
        &["table1"],
        &["fig1"],
        &["fig2"],
        &["fig3"],
        &["fig5"],
    ];
    for target in targets {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(target)
            .args(["--quick", "--topology", "2x16", "--journal"])
            .arg(&journal)
            .arg("--bench-json")
            .arg(dir.join("bench.json"))
            .current_dir(&dir)
            .output()
            .expect("repro binary runs");
        assert_eq!(out.status.code(), Some(2), "{target:?} must refuse --topology 2x16");
        assert!(out.stdout.is_empty(), "{target:?} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{target:?}: one-line reason, got {stderr}");
        assert!(stderr.contains("2x16"), "{target:?}: {stderr}");
        assert!(!journal.exists(), "{target:?} wrote a journal");
    }
    std::fs::remove_dir_all(&dir).ok();
}
