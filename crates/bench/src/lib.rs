//! # cmm-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation from the
//! simulator (see DESIGN.md §4 for the experiment index):
//!
//! * [`characterize`] — single-benchmark characterisation: Fig. 1
//!   (memory bandwidth ± prefetching), Fig. 2 (IPC speedup from
//!   prefetching), Fig. 3 (IPC vs LLC ways), Table I / Fig. 5 (detector
//!   metrics).
//! * [`figures`] — the multiprogrammed evaluation: Figs. 7–15 over the
//!   four 10-workload categories.
//! * [`report`] — small fixed-width table printer shared by the `repro`
//!   binary.
//!
//! * [`ablate`] — sensitivity studies of the 1.5× partition rule, the
//!   epoch:sampling ratio and the substrate's QBS policy.
//! * [`faults`] — the fault-injection resilience sweep behind
//!   `repro faults` (hm_ipc vs injected substrate fault rate).
//! * [`governor`] — the safety-governor dominance sweep behind
//!   `repro governor` (bare vs governed CBP under injected faults).
//! * [`journal`] — assembles the `cmm-journal/2`..`/6` JSONL run journal
//!   from the controller's per-epoch telemetry, and reads it back: one
//!   typed reader (`load`), the `journal-summary` views and the `Tally`
//!   that counts a run.
//! * [`tracecmd`] — the `repro trace record/convert/stat` subcommands over
//!   `cmm-trace/1` trace files (recorded mixes feed `--trace-dir` runs).
//! * [`diff`] — `journal-diff`: structural comparison of two journals'
//!   per-epoch decision sequences, read through `journal::load`.
//! * [`compare`] — the `bench-compare` perf regression gate over
//!   `BENCH_sim.json` logs.
//! * [`json`] — minimal JSON reader for the harness's own artifacts (the
//!   build environment has no serde).
//!
//! The harness itself is fault tolerant (DESIGN.md §"Crash safety"):
//!
//! * [`runner`] — panic-isolated cell execution with a bounded retry
//!   budget; a panicking cell never aborts its siblings.
//! * [`atomic`] — crash-safe artifact IO (write-temp-then-rename for whole
//!   documents, fsync-per-record JSONL appends, torn-tail salvage).
//! * [`checkpoint`] — the `cmm-ckpt/1` resume sidecar behind
//!   `repro … --resume`: completed cells are spliced from cache so a
//!   resumed run's output is byte-identical to an uninterrupted one.
//! * [`chaos`] — seeded panic/kill injection for `repro soak` and CI.
//! * [`soak`] — the kill-and-resume chaos gate (`repro soak`).
//!
//! The `repro` binary exposes one subcommand per table/figure plus the CI
//! entry points: `repro fig7`, `repro table1`, `repro faults`,
//! `repro all --quick`, `repro soak`,
//! `repro bench-compare base.json cur.json`,
//! `repro journal-summary …`, `repro journal-diff a.jsonl b.jsonl`

pub mod ablate;
pub mod atomic;
pub mod chaos;
pub mod characterize;
pub mod checkpoint;
pub mod compare;
pub mod diff;
pub mod export;
pub mod faults;
pub mod figures;
pub mod governor;
pub mod journal;
pub mod json;
pub mod learn;
pub mod perf;
pub mod report;
pub mod runner;
pub mod soak;
pub mod tracecmd;
