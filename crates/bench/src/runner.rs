//! Ordered, panic-isolated parallel execution of experiment work-lists.
//!
//! The evaluation matrix (mix × mechanism) is embarrassingly parallel:
//! every cell owns its `System`, so cells only share read-only inputs.
//! [`run_cells`] fans a work-list across `jobs` scoped threads pulling
//! indices from a shared atomic counter and returns results **in input
//! order**, so callers produce output bit-identical to a serial run no
//! matter how the cells were scheduled. With `jobs <= 1` the closure runs
//! inline on the caller's thread — the serial fallback, with no thread
//! overhead at all.
//!
//! Every cell executes under `catch_unwind`: a panicking cell is retried
//! up to a bounded attempt budget and, if it keeps failing, becomes an
//! explicit [`CellOutcome::Failed`] with its panic payload captured —
//! sibling cells always run to completion and the caller decides how to
//! report the loss, instead of one bad cell aborting a multi-hour run.
//! [`run_cells`] additionally supports checkpoint splicing: cells whose
//! key is found in a resume sidecar are answered from cache without
//! running (or re-panicking) at all.
//!
//! Each attempt also runs under a **hang watchdog**: a monitor thread
//! raises a `[runner] watchdog:` alarm when a cell exceeds its deadline
//! ([`HANG_DEADLINE_MS`] under `--chaos-mode hang`, a generous stall
//! threshold otherwise), so a wedged cell is flagged instead of silently
//! stalling the whole run.
//!
//! [`Progress`] is the matching thread-safe `[repro]` logger: each cell
//! emits exactly one timestamped line (elapsed since start, plus the
//! cell's own wall-clock) built as a single `String` and written with one
//! locked stderr write, so concurrent cells can never interleave halves of
//! a line.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::chaos;
use crate::checkpoint::{CellCodec, Checkpoint};

/// Default per-cell attempt budget: one run plus two retries.
pub const DEFAULT_ATTEMPTS: u32 = 3;

/// Watchdog deadline for a cell attempt under `--chaos-mode hang`: the
/// injected stall sleeps past this, so the watchdog observably fires in
/// the soak's hang leg before the stall converts into a retryable panic.
pub const HANG_DEADLINE_MS: u64 = 750;

/// Watchdog deadline outside hang-chaos runs: generous enough that no
/// legitimate cell trips it, so a warning really means a stuck cell.
const STALL_WARN_MS: u64 = 300_000;

/// Degree of parallelism to use when the user does not pass `--jobs`:
/// every available host core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A cell that exhausted its attempt budget.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Input-order index of the cell.
    pub index: usize,
    /// The cell's stable key (run label).
    pub key: String,
    /// Attempts consumed (== the budget).
    pub attempts: u32,
    /// Payload of the final panic, stringified.
    pub panic_msg: String,
}

/// Per-cell result of an isolated run.
#[derive(Debug)]
pub enum CellOutcome<R> {
    /// The cell completed (possibly after retries, possibly from cache).
    Ok(R),
    /// The cell panicked on every attempt.
    Failed(CellFailure),
}

/// Outcome of a [`run_cells`] sweep.
#[derive(Debug)]
pub struct CellRun<R> {
    /// One outcome per input item, in input order.
    pub outcomes: Vec<CellOutcome<R>>,
}

impl<R> CellRun<R> {
    /// Splits into results (all cells ok) or the failure list.
    pub fn into_results(self) -> Result<Vec<R>, Vec<CellFailure>> {
        let mut results = Vec::with_capacity(self.outcomes.len());
        let mut failures = Vec::new();
        for o in self.outcomes {
            match o {
                CellOutcome::Ok(r) => results.push(r),
                CellOutcome::Failed(f) => failures.push(f),
            }
        }
        if failures.is_empty() {
            Ok(results)
        } else {
            Err(failures)
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `work` under `catch_unwind` with a watchdog thread alongside: if
/// the attempt is still running when `deadline_ms` elapses, the watchdog
/// raises one `[runner] watchdog:` alarm on stderr. Cancellation is
/// cooperative — the watchdog cannot preempt arbitrary Rust code, so the
/// alarm flags the hang and the chaos stall's own deadline panic (or the
/// operator) converts it into a failed attempt.
fn run_attempt_watched<R>(
    key: &str,
    attempt: u32,
    deadline_ms: u64,
    work: impl FnOnce() -> R,
) -> Result<R, Box<dyn std::any::Any + Send>> {
    let done = Mutex::new(false);
    let cv = Condvar::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut flag = done.lock().expect("watchdog flag poisoned");
            let mut alarmed = false;
            while !*flag {
                let (f, timeout) = cv
                    .wait_timeout(flag, Duration::from_millis(deadline_ms))
                    .expect("watchdog flag poisoned");
                flag = f;
                if timeout.timed_out() && !*flag && !alarmed {
                    alarmed = true;
                    eprintln!(
                        "[runner] watchdog: cell '{key}' still running after \
                         {deadline_ms} ms (attempt {attempt})"
                    );
                }
            }
        });
        let r = catch_unwind(AssertUnwindSafe(work));
        *done.lock().expect("watchdog flag poisoned") = true;
        cv.notify_all();
        r
    })
}

/// Runs one cell under the attempt budget, consulting the chaos schedule
/// inside the unwind scope so injected panics exercise the real path.
fn run_one<T, R>(
    index: usize,
    item: &T,
    key: &str,
    attempts: u32,
    f: &(impl Fn(usize, &T) -> R + Sync),
) -> CellOutcome<R> {
    let budget = attempts.max(1);
    let deadline_ms = if chaos::hang_mode() { HANG_DEADLINE_MS } else { STALL_WARN_MS };
    let mut last_msg = String::new();
    for attempt in 1..=budget {
        match run_attempt_watched(key, attempt, deadline_ms, || {
            chaos::maybe_panic(key, attempt);
            chaos::maybe_hang(key, attempt, HANG_DEADLINE_MS);
            f(index, item)
        }) {
            Ok(r) => return CellOutcome::Ok(r),
            Err(payload) => {
                last_msg = panic_message(payload);
                eprintln!(
                    "[runner] cell '{key}' panicked (attempt {attempt}/{budget}): {last_msg}"
                );
            }
        }
    }
    CellOutcome::Failed(CellFailure {
        index,
        key: key.to_string(),
        attempts: budget,
        panic_msg: last_msg,
    })
}

/// Maps `f` over `items` with `jobs` worker threads, panic-isolated and
/// resume-aware, returning per-cell outcomes in input order.
///
/// * `key` names each cell stably (the journal run label); keys drive
///   checkpoint lookups and the seeded chaos schedule, so they must be
///   independent of scheduling.
/// * With `ckpt`, a cell whose key the sidecar holds is spliced from its
///   cached payload without running `f`, and an undecodable payload
///   re-runs the cell ([`Checkpoint::splice`]). Every freshly computed
///   result is recorded before the cell counts as complete, so a kill
///   directly after it resumes without losing the cell.
///
/// Work is distributed dynamically (an atomic next-index counter), so a
/// slow cell does not stall the queue behind it. `jobs <= 1` — or a
/// single-item list — runs serially inline.
pub fn run_cells<T, R>(
    items: &[T],
    jobs: usize,
    attempts: u32,
    ckpt: Option<&Checkpoint>,
    key: impl Fn(usize, &T) -> String + Sync,
    f: impl Fn(usize, &T) -> R + Sync,
) -> CellRun<R>
where
    T: Sync,
    R: CellCodec + Send,
{
    run_isolated(
        items,
        jobs,
        attempts,
        key,
        |k| ckpt?.splice(k),
        |k, r: &R| {
            if let Some(ck) = ckpt {
                ck.record(k, &r.encode());
            }
        },
        f,
    )
}

/// [`run_cells`] with the cache as plain closures: `cached` answers a
/// cell without running it, `record` persists a fresh result.
fn run_isolated<T, R>(
    items: &[T],
    jobs: usize,
    attempts: u32,
    key: impl Fn(usize, &T) -> String + Sync,
    cached: impl Fn(&str) -> Option<R> + Sync,
    record: impl Fn(&str, &R) + Sync,
    f: impl Fn(usize, &T) -> R + Sync,
) -> CellRun<R>
where
    T: Sync,
    R: Send,
{
    let cell = |i: usize| -> CellOutcome<R> {
        let k = key(i, &items[i]);
        if let Some(r) = cached(&k) {
            return CellOutcome::Ok(r);
        }
        let outcome = run_one(i, &items[i], &k, attempts, &f);
        if let CellOutcome::Ok(r) = &outcome {
            record(&k, r);
            chaos::on_cell_complete();
        }
        outcome
    };

    if jobs <= 1 || items.len() <= 1 {
        let outcomes = (0..items.len()).map(cell).collect();
        return CellRun { outcomes };
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CellOutcome<R>>>> =
        Mutex::new((0..items.len()).map(|_| None).collect());
    let workers = jobs.min(items.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let outcome = cell(i);
                slots.lock().expect("runner slots poisoned")[i] = Some(outcome);
            });
        }
    });
    let outcomes = slots
        .into_inner()
        .expect("runner slots poisoned")
        .into_iter()
        .map(|o| o.expect("every index was processed"))
        .collect();
    CellRun { outcomes }
}

/// Panic-isolated map without checkpointing: every cell runs (or fails)
/// under the attempt budget, keyed `cell-<index>`.
pub fn try_parallel_map<T, R, F>(
    items: &[T],
    jobs: usize,
    attempts: u32,
    f: F,
) -> Vec<CellOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_isolated(items, jobs, attempts, |i, _| format!("cell-{i}"), |_| None, |_, _| (), f).outcomes
}

/// Maps `f` over `items` with `jobs` worker threads, returning results in
/// input order. `f` receives `(index, &item)`.
///
/// Cells are panic-isolated: a panicking cell no longer aborts its
/// siblings mid-flight — every cell runs to completion and the collected
/// failures surface as one panic afterwards. Callers that want to survive
/// failures use [`try_parallel_map`] or [`run_cells`] and handle
/// [`CellOutcome::Failed`] instead.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut results = Vec::with_capacity(items.len());
    let mut failed = Vec::new();
    for o in try_parallel_map(items, jobs, 1, f) {
        match o {
            CellOutcome::Ok(r) => results.push(r),
            CellOutcome::Failed(fail) => {
                failed.push(format!("#{}: {}", fail.index, fail.panic_msg))
            }
        }
    }
    assert!(failed.is_empty(), "{} cell(s) panicked: {}", failed.len(), failed.join("; "));
    results
}

/// Thread-safe timestamped `[repro]` progress logger.
///
/// Cloneable by shared reference: cells call [`Progress::cell`] around
/// their work and one line per cell reaches stderr on completion, e.g.
///
/// ```text
/// [repro +12.4s] PrefAgg-00: CMM-a (3.21s)
/// ```
#[derive(Debug)]
pub struct Progress {
    enabled: bool,
    start: Instant,
}

impl Progress {
    /// A logger; when `enabled` is false every call is a no-op.
    pub fn new(enabled: bool) -> Self {
        Progress { enabled, start: Instant::now() }
    }

    /// Runs `work`, then logs `label` with the elapsed-since-start stamp
    /// and the cell's own wall-clock. Returns `work`'s result.
    pub fn cell<R>(&self, label: &str, work: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return work();
        }
        let t0 = Instant::now();
        let r = work();
        let line = format!(
            "[repro +{:.1}s] {} ({:.2}s)",
            self.start.elapsed().as_secs_f64(),
            label,
            t0.elapsed().as_secs_f64()
        );
        // One write per line: eprintln! takes the stderr lock once, so
        // parallel cells cannot interleave within a line.
        eprintln!("{line}");
        r
    }

    /// Logs a bare annotation line (no per-cell timing).
    pub fn note(&self, msg: &str) {
        if self.enabled {
            eprintln!("[repro +{:.1}s] {}", self.start.elapsed().as_secs_f64(), msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = parallel_map(&items, 1, |i, &x| (i, x * x));
        let parallel = parallel_map(&items, 8, |i, &x| (i, x * x));
        assert_eq!(serial, parallel);
        assert_eq!(serial[17], (17, 17 * 17));
    }

    #[test]
    fn empty_and_single_items() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn jobs_exceeding_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(parallel_map(&items, 64, |_, &x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn progress_disabled_is_silent_passthrough() {
        let p = Progress::new(false);
        assert_eq!(p.cell("x", || 41 + 1), 42);
        p.note("nothing");
    }

    #[test]
    fn work_observes_every_index_once() {
        let hits = Mutex::new(vec![0u32; 50]);
        let items: Vec<usize> = (0..50).collect();
        parallel_map(&items, 6, |i, _| {
            hits.lock().unwrap()[i] += 1;
        });
        assert!(hits.into_inner().unwrap().iter().all(|&h| h == 1));
    }

    #[test]
    fn panicking_cell_never_aborts_siblings() {
        let items: Vec<u32> = (0..20).collect();
        let outcomes = try_parallel_map(&items, 4, 2, |_, &x| {
            assert!(x != 7, "cell 7 exploded");
            x * 2
        });
        let (mut ok, mut failed) = (0, 0);
        for (i, o) in outcomes.iter().enumerate() {
            match o {
                CellOutcome::Ok(v) => {
                    ok += 1;
                    assert_eq!(*v, items[i] * 2);
                }
                CellOutcome::Failed(f) => {
                    failed += 1;
                    assert_eq!(f.index, 7);
                    assert_eq!(f.attempts, 2);
                    assert!(f.panic_msg.contains("cell 7 exploded"), "{}", f.panic_msg);
                }
            }
        }
        assert_eq!((ok, failed), (19, 1));
    }

    #[test]
    fn transient_panic_heals_within_the_attempt_budget() {
        let tries = Mutex::new(vec![0u32; 8]);
        let items: Vec<usize> = (0..8).collect();
        let run = run_isolated(
            &items,
            3,
            3,
            |i, _| format!("k{i}"),
            |_| None,
            |_, _| (),
            |i, _| {
                let mut t = tries.lock().unwrap();
                t[i] += 1;
                let attempt = t[i];
                drop(t);
                assert!(i != 5 || attempt >= 3, "transient failure in cell 5");
                i * 10
            },
        );
        let results = run.into_results().expect("budget heals transient panics");
        assert_eq!(results[5], 50);
        assert_eq!(tries.into_inner().unwrap()[5], 3);
    }

    #[test]
    fn retry_budget_exhaustion_reports_the_failure() {
        let run = run_isolated(
            &[1u32],
            1,
            4,
            |_, _| "doomed".to_string(),
            |_| None,
            |_, _| (),
            |_, _| -> u32 { panic!("always fails") },
        );
        let failures = run.into_results().unwrap_err();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].attempts, 4);
        assert_eq!(failures[0].key, "doomed");
        assert!(failures[0].panic_msg.contains("always fails"));
    }

    #[test]
    fn cached_cells_are_spliced_without_running() {
        let ran = Mutex::new(Vec::new());
        let recorded = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..6).collect();
        let run = run_isolated(
            &items,
            2,
            1,
            |i, _| format!("k{i}"),
            |k| if k == "k2" || k == "k4" { Some(999usize) } else { None },
            |k, r: &usize| recorded.lock().unwrap().push((k.to_string(), *r)),
            |i, _| {
                ran.lock().unwrap().push(i);
                i
            },
        );
        let results = run.into_results().unwrap();
        assert_eq!(results, vec![0, 1, 999, 3, 999, 5]);
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 1, 3, 5], "cached cells must not run");
        let mut rec = recorded.into_inner().unwrap();
        rec.sort();
        // Only freshly computed cells are re-recorded.
        assert_eq!(
            rec.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["k0", "k1", "k3", "k5"]
        );
    }

    #[test]
    fn undecodable_cached_payload_is_rerun_and_rerecorded() {
        let dir = std::env::temp_dir().join("cmm_runner_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("corrupt-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let (ck, _) = Checkpoint::open(&path, "fig7", "fnv1a:test").unwrap();
        ck.record("k0", &10.0f64.encode());
        ck.record("k1", "{\"bogus\":1}");
        drop(ck);

        let (ck, _) = Checkpoint::open(&path, "fig7", "fnv1a:test").unwrap();
        let ran = Mutex::new(Vec::new());
        let items = [0usize, 1, 2];
        let run = run_cells(
            &items,
            1,
            1,
            Some(&ck),
            |i, _| format!("k{i}"),
            |i, _| {
                ran.lock().unwrap().push(i);
                i as f64 + 0.5
            },
        );
        assert_eq!(ck.spliced(), 1, "only the valid payload splices");
        assert_eq!(run.into_results().unwrap(), vec![10.0, 1.5, 2.5]);
        assert_eq!(ran.into_inner().unwrap(), vec![1, 2], "the corrupt cell re-runs");
        drop(ck);

        // The fresh result supersedes the corrupt record on the next open.
        let (ck, info) = Checkpoint::open(&path, "fig7", "fnv1a:test").unwrap();
        assert_eq!(info.cached, 3);
        assert_eq!(ck.splice::<f64>("k1"), Some(1.5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn watchdog_alarm_does_not_kill_a_slow_cell() {
        // The watchdog is warn-only: a cell that outlives the deadline
        // still completes and returns its result.
        let r = run_attempt_watched("slow", 1, 20, || {
            std::thread::sleep(Duration::from_millis(80));
            7u32
        });
        assert_eq!(r.unwrap(), 7);
    }

    #[test]
    fn watchdog_propagates_attempt_panics() {
        let r = run_attempt_watched("bad", 1, 1_000, || -> u32 { panic!("inner failure") });
        assert!(panic_message(r.unwrap_err()).contains("inner failure"));
    }

    #[test]
    #[should_panic(expected = "cell(s) panicked")]
    fn parallel_map_still_fails_loudly_after_isolation() {
        parallel_map(&[1u32, 2, 3], 2, |_, &x| {
            assert!(x != 2, "boom");
            x
        });
    }
}
