#!/usr/bin/env bash
# Full CI gate: formatting, lints, release build, tests, and smoke runs of
# the repro harness's three CI surfaces — tables, the run journal, and the
# bench-compare regression gate. Prints a per-step timing summary at exit.
set -euo pipefail
cd "$(dirname "$0")/.."

# Per-step timing: step NAME cmd... runs the command, records its wall
# time, and the EXIT trap prints the summary even on failure.
STEP_NAMES=()
STEP_SECS=()
step() {
    local name="$1"
    shift
    echo "== $name"
    local t0 t1
    t0=$(date +%s)
    "$@"
    t1=$(date +%s)
    STEP_NAMES+=("$name")
    STEP_SECS+=($((t1 - t0)))
}
summary() {
    echo "-- step timing --"
    local i
    for i in "${!STEP_NAMES[@]}"; do
        printf '%6ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
    done
}

tmp="$(mktemp -d)"
trap 'summary; rm -rf "$tmp"' EXIT

# Single-CPU runners (small CI boxes) still exercise the parallel paths,
# but with a matching job count so the smoke stays fast.
CPUS="$(nproc 2>/dev/null || echo 1)"
if [ "$CPUS" -ge 2 ]; then
    SMOKE_JOBS=2
else
    SMOKE_JOBS=1
    echo "note: single-CPU host, degrading smoke runs to --jobs 1"
fi

step "cargo fmt --check" cargo fmt --check
step "cargo clippy (all targets, warnings are errors)" \
    cargo clippy --workspace --all-targets -- -D warnings
step "cargo build --release" cargo build --release --workspace
step "cargo test" cargo test -q
# The root package (`cmm`) ran in the step above; every other crate runs
# here, so each test runs exactly once.
step "cargo test --workspace (other crates)" cargo test -q --workspace --exclude cmm

smoke_repro() {
    # Determinism gate: tables AND journals must be byte-identical across
    # job counts.
    ./target/release/repro table1 --quick --jobs "$SMOKE_JOBS" \
        --bench-json "$tmp/BENCH_sim.json" \
        --journal "$tmp/journal.jobsN.jsonl" > "$tmp/table1.jobsN.txt"
    ./target/release/repro table1 --quick --jobs 1 \
        --bench-json "$tmp/BENCH_sim.1.json" \
        --journal "$tmp/journal.jobs1.jsonl" > "$tmp/table1.jobs1.txt"
    cmp "$tmp/table1.jobs1.txt" "$tmp/table1.jobsN.txt"
    cmp "$tmp/journal.jobs1.jsonl" "$tmp/journal.jobsN.jsonl"
    grep -q '"schema": "cmm-bench-sim/1"' "$tmp/BENCH_sim.json"
    grep -q '"cells_per_s"' "$tmp/BENCH_sim.json"
    # sim_cycles counts what was actually simulated; table1 pools no
    # warm-up, so its count is the same at any job count.
    local c1 cN
    c1=$(grep -o '"sim_cycles": [0-9]*' "$tmp/BENCH_sim.1.json")
    cN=$(grep -o '"sim_cycles": [0-9]*' "$tmp/BENCH_sim.json")
    [ -n "$c1" ] && [ "$c1" = "$cN" ] || {
        echo "table1 sim_cycles differ across job counts: $c1 vs $cN" >&2
        return 1
    }
    # The journal carries real controller decisions.
    head -1 "$tmp/journal.jobs1.jsonl" | grep -q '"schema":"cmm-journal/2"'
    grep -q '"kind":"epoch"' "$tmp/journal.jobs1.jsonl"
    grep -q '"hm_ipc"' "$tmp/journal.jobs1.jsonl"
    grep -q '"winner"' "$tmp/journal.jobs1.jsonl"
}
step "repro smoke (table1, $SMOKE_JOBS jobs, journal determinism)" smoke_repro

smoke_journal_summary() {
    ./target/release/repro journal-summary "$tmp/journal.jobs1.jsonl" \
        > "$tmp/journal-summary.txt"
    grep -q 'journal-summary' "$tmp/journal-summary.txt"
    grep -q 'table1: ' "$tmp/journal-summary.txt"
}
step "repro journal-summary smoke" smoke_journal_summary

# Hard absolute floor on simulator hot-loop throughput, in simulated
# core-cycles per second. The committed value is deliberately far below a
# healthy run (~55M on a 1-CPU dev box, ~45M pre-event-core) so shared-
# runner noise cannot trip it, while an accidental O(n^2) scan, debug-path
# fallback, or similar order-of-magnitude hot-loop regression still fails
# CI. Raise it when the simulator gets faster; never chase noise with it.
SCPS_FLOOR=20000000

smoke_perf() {
    # The jobs-1 table1 log from smoke_repro is the stable measurement.
    ./target/release/repro bench-compare \
        benchmarks/BENCH_sim.baseline.json "$tmp/BENCH_sim.1.json" \
        --noise 1.0 --scps-floor "$SCPS_FLOOR" > /dev/null
    # And the floor really gates: an unreachable floor must fail.
    if ./target/release/repro bench-compare \
        benchmarks/BENCH_sim.baseline.json "$tmp/BENCH_sim.1.json" \
        --noise 1.0 --scps-floor 10000000000 > /dev/null 2>&1; then
        echo "--scps-floor failed to flag sub-floor throughput" >&2
        return 1
    fi
}
step "repro smoke_perf (sim-throughput floor at $SCPS_FLOOR cyc/s)" smoke_perf

smoke_bench_compare() {
    # Identical inputs: clean pass.
    ./target/release/repro bench-compare \
        "$tmp/BENCH_sim.json" "$tmp/BENCH_sim.json" > /dev/null
    # Committed 2x-slowdown fixture: the gate must fail (exit 1), even at
    # the lenient noise threshold the noisy-runner gate uses.
    if ./target/release/repro bench-compare \
        benchmarks/fixtures/compare_base.json \
        benchmarks/fixtures/compare_slow.json --noise 0.5 > /dev/null; then
        echo "bench-compare failed to flag a 2x slowdown" >&2
        return 1
    fi
}
step "repro bench-compare smoke (pass + injected 2x regression)" smoke_bench_compare

smoke_faults() {
    # Fault-injection smoke: fixed seeds, nonzero fault rate. The sweep
    # must exit cleanly (the smoothness gate holds) and its stdout AND
    # journal must be byte-identical across job counts — injected fault
    # schedules are part of the deterministic surface.
    ./target/release/repro faults --quick --seed 42 --fault-seed 7 \
        --jobs "$SMOKE_JOBS" --bench-json "$tmp/BENCH_faults.json" \
        --journal "$tmp/faults.jobsN.jsonl" > "$tmp/faults.jobsN.txt"
    ./target/release/repro faults --quick --seed 42 --fault-seed 7 \
        --jobs 1 --bench-json "$tmp/BENCH_faults.1.json" \
        --journal "$tmp/faults.jobs1.jsonl" > "$tmp/faults.jobs1.txt"
    cmp "$tmp/faults.jobs1.txt" "$tmp/faults.jobsN.txt"
    cmp "$tmp/faults.jobs1.jsonl" "$tmp/faults.jobsN.jsonl"
    # faults journals MBA trial levels now, so it carries the /4 schema.
    head -1 "$tmp/faults.jobs1.jsonl" | grep -q '"schema":"cmm-journal/4"'
    # Nonzero rates really injected and journaled faults, on both the
    # legacy CAT/prefetch leg and the MBA-register leg.
    grep -q '"faults":\[{' "$tmp/faults.jobs1.jsonl"
    grep -q '"mba":\[' "$tmp/faults.jobs1.jsonl"
}
step "repro faults smoke (determinism + journaled faults)" smoke_faults

smoke_journal_diff() {
    # Identical decision sequences: exit 0.
    ./target/release/repro journal-diff \
        "$tmp/faults.jobs1.jsonl" "$tmp/faults.jobsN.jsonl" > /dev/null
    # Different schemas (table1 is /2, faults is /4): the diff must refuse
    # the comparison (exit 2) rather than mis-diff across schemas.
    if ./target/release/repro journal-diff \
        "$tmp/journal.jobs1.jsonl" "$tmp/faults.jobs1.jsonl" \
        > /dev/null 2> "$tmp/schema-diff.err"; then
        echo "journal-diff compared journals with different schemas" >&2
        return 1
    fi
    grep -q 'schema mismatch' "$tmp/schema-diff.err"
}
step "repro journal-diff smoke (identical pass + schema refusal)" smoke_journal_diff

smoke_bandwidth() {
    # Three-resource comparison (CMM-a vs MBA vs CBP): the determinism
    # contract holds across job counts, the journal carries the /4 schema
    # with per-epoch MBA delay levels, and the wall clock gates against
    # the committed baseline at the same >2x bar as the other targets.
    ./target/release/repro bandwidth --quick --jobs "$SMOKE_JOBS" \
        --bench-json "$tmp/BENCH_bw.json" \
        --journal "$tmp/bw.jobsN.jsonl" > "$tmp/bw.jobsN.txt"
    ./target/release/repro bandwidth --quick --jobs 1 \
        --bench-json "$tmp/BENCH_bw.1.json" \
        --journal "$tmp/bw.jobs1.jsonl" > "$tmp/bw.jobs1.txt"
    cmp "$tmp/bw.jobs1.txt" "$tmp/bw.jobsN.txt"
    cmp "$tmp/bw.jobs1.jsonl" "$tmp/bw.jobsN.jsonl"
    head -1 "$tmp/bw.jobs1.jsonl" | grep -q '"schema":"cmm-journal/4"'
    grep -q '"mba":\[' "$tmp/bw.jobs1.jsonl"
    grep -q '"mechanism":"CBP"' "$tmp/bw.jobs1.jsonl"
    grep -q '"name": "bandwidth"' "$tmp/BENCH_bw.1.json"
    ./target/release/repro bench-compare \
        benchmarks/BENCH_bandwidth.baseline.json "$tmp/BENCH_bw.1.json" \
        --noise 1.0 --scps-floor "$SCPS_FLOOR" > /dev/null
}
step "repro bandwidth smoke (determinism, /4 journal, bench gate)" smoke_bandwidth

smoke_extension() {
    # The PT-fine level search end to end: the extension target's stdout
    # AND journal are byte-identical across job counts, and the journal
    # carries PT-fine epochs that trialed the middle MSR 0x1A4 level (3:
    # only the two L2 engines off).
    ./target/release/repro extension --quick --jobs "$SMOKE_JOBS" \
        --bench-json "$tmp/BENCH_ext.json" \
        --journal "$tmp/ext.jobsN.jsonl" > "$tmp/ext.jobsN.txt"
    ./target/release/repro extension --quick --jobs 1 \
        --bench-json "$tmp/BENCH_ext.1.json" \
        --journal "$tmp/ext.jobs1.jsonl" > "$tmp/ext.jobs1.txt"
    cmp "$tmp/ext.jobs1.txt" "$tmp/ext.jobsN.txt"
    cmp "$tmp/ext.jobs1.jsonl" "$tmp/ext.jobsN.jsonl"
    grep '"mechanism":"PT-fine"' "$tmp/ext.jobs1.jsonl" > "$tmp/ext.ptfine.jsonl"
    grep -Eq '\{"msr_1a4":\[([0-9]+,)*3[],]' "$tmp/ext.ptfine.jsonl"
}
step "repro extension smoke (PT-fine level search, determinism)" smoke_extension

smoke_governor() {
    # Safety-governor gate: the fault sweep must pass its dominance gate
    # (governed CBP >= bare CBP at every nonzero rate — the run exits 1
    # otherwise), hold the determinism contract across job counts, journal
    # governor events under the /5 schema, and gate wall clock against the
    # committed baseline.
    ./target/release/repro governor --quick --jobs "$SMOKE_JOBS" \
        --bench-json "$tmp/BENCH_gov.json" \
        --journal "$tmp/gov.jobsN.jsonl" > "$tmp/gov.jobsN.txt"
    ./target/release/repro governor --quick --jobs 1 \
        --bench-json "$tmp/BENCH_gov.1.json" \
        --journal "$tmp/gov.jobs1.jsonl" > "$tmp/gov.jobs1.txt"
    cmp "$tmp/gov.jobs1.txt" "$tmp/gov.jobsN.txt"
    cmp "$tmp/gov.jobs1.jsonl" "$tmp/gov.jobsN.jsonl"
    head -1 "$tmp/gov.jobs1.jsonl" | grep -q '"schema":"cmm-journal/5"'
    # Hard-regime legs really exercised the defenses and journaled them.
    grep -q '"governor":\[' "$tmp/gov.jobs1.jsonl"
    grep -q '"action":"breaker_open"' "$tmp/gov.jobs1.jsonl"
    grep -q '"name": "governor"' "$tmp/BENCH_gov.1.json"
    ./target/release/repro bench-compare \
        benchmarks/BENCH_governor.baseline.json "$tmp/BENCH_gov.1.json" \
        --noise 1.0 --scps-floor "$SCPS_FLOOR" > /dev/null
}
step "repro governor smoke (dominance gate, determinism, /5 journal)" smoke_governor

smoke_learn() {
    # Learned-controllers gate: `repro learn` must pass its own floors
    # (ML-Sel >= 0.95x CMM-a on every mix, RL-CBP convergence — the run
    # exits 1 otherwise), hold the determinism contract across job counts,
    # journal per-epoch features/actions under the /6 schema, and gate
    # wall clock against the committed baseline. The committed cmm-model/1
    # fixture keeps the model (and thus the run identity) stable.
    ./target/release/repro learn --quick --jobs "$SMOKE_JOBS" \
        --model benchmarks/fixtures/mlsel.model \
        --bench-json "$tmp/BENCH_learn.json" \
        --journal "$tmp/learn.jobsN.jsonl" > "$tmp/learn.jobsN.txt"
    ./target/release/repro learn --quick --jobs 1 \
        --model benchmarks/fixtures/mlsel.model \
        --bench-json "$tmp/BENCH_learn.1.json" \
        --journal "$tmp/learn.jobs1.jsonl" > "$tmp/learn.jobs1.txt"
    cmp "$tmp/learn.jobs1.txt" "$tmp/learn.jobsN.txt"
    cmp "$tmp/learn.jobs1.jsonl" "$tmp/learn.jobsN.jsonl"
    head -1 "$tmp/learn.jobs1.jsonl" | grep -q '"schema":"cmm-journal/6"'
    head -1 "$tmp/learn.jobs1.jsonl" | grep -q '"learn":true'
    # Learned epochs really journaled their feature vectors and actions.
    grep -q '"features":\[' "$tmp/learn.jobs1.jsonl"
    grep -q '"action":"pf=\[' "$tmp/learn.jobs1.jsonl"
    grep -q '"mechanism":"RL-CBP"' "$tmp/learn.jobs1.jsonl"
    # journal-summary reports per-run decision churn.
    ./target/release/repro journal-summary "$tmp/learn.jobs1.jsonl" \
        | grep -q 'churn'
    # A corrupt model is a usage error (exit 2), before any simulation.
    sed 's/^w 0 /w 0 9/' benchmarks/fixtures/mlsel.model > "$tmp/corrupt.model"
    if ./target/release/repro learn --quick --model "$tmp/corrupt.model" \
        > /dev/null 2> "$tmp/learn-model.err"; then
        echo "repro learn accepted a corrupt model" >&2
        return 1
    fi
    grep -q 'checksum' "$tmp/learn-model.err"
    grep -q '"name": "learn"' "$tmp/BENCH_learn.1.json"
    ./target/release/repro bench-compare \
        benchmarks/BENCH_learn.baseline.json "$tmp/BENCH_learn.1.json" \
        --noise 1.0 --scps-floor "$SCPS_FLOOR" > /dev/null
}
step "repro learn smoke (controller gates, determinism, /6 journal)" smoke_learn

smoke_journal_csv() {
    # --csv exports one row per journal epoch, with the summary untouched.
    ./target/release/repro journal-summary "$tmp/journal.jobs1.jsonl" \
        --csv "$tmp/epochs.csv" > "$tmp/journal-summary-csv.txt"
    cmp "$tmp/journal-summary.txt" "$tmp/journal-summary-csv.txt"
    head -1 "$tmp/epochs.csv" \
        | grep -q '^run,epoch,mechanism,exec_hm_ipc,exec_ipc_delta,faults,degraded$'
    # Row count matches the journal's epoch-record count.
    rows=$(($(wc -l < "$tmp/epochs.csv") - 1))
    epochs=$(grep -c '"kind":"epoch"' "$tmp/journal.jobs1.jsonl")
    if [ "$rows" -ne "$epochs" ]; then
        echo "epochs.csv has $rows rows but the journal has $epochs epochs" >&2
        return 1
    fi
}
step "repro journal-summary --csv smoke" smoke_journal_csv

smoke_scale() {
    # --topology 1x8 must be the identity: stdout AND journal
    # byte-identical to the flagless single-socket run (the golden-diff
    # gate for the multi-socket refactor).
    ./target/release/repro table1 --quick --jobs 1 --topology 1x8 \
        --bench-json "$tmp/BENCH_t1x8.json" \
        --journal "$tmp/journal.t1x8.jsonl" > "$tmp/table1.t1x8.txt"
    cmp "$tmp/table1.jobs1.txt" "$tmp/table1.t1x8.txt"
    cmp "$tmp/journal.jobs1.jsonl" "$tmp/journal.t1x8.jsonl"
    # A multi-socket leg holds the determinism contract across --jobs and
    # journals per-CAT-domain records under the /3 schema.
    ./target/release/repro scale --quick --topology 2x16 --jobs "$SMOKE_JOBS" \
        --bench-json "$tmp/BENCH_scale.json" \
        --journal "$tmp/scale.jobsN.jsonl" > "$tmp/scale.jobsN.txt"
    ./target/release/repro scale --quick --topology 2x16 --jobs 1 \
        --bench-json "$tmp/BENCH_scale.1.json" \
        --journal "$tmp/scale.jobs1.jsonl" > "$tmp/scale.jobs1.txt"
    cmp "$tmp/scale.jobs1.txt" "$tmp/scale.jobsN.txt"
    cmp "$tmp/scale.jobs1.jsonl" "$tmp/scale.jobsN.jsonl"
    head -1 "$tmp/scale.jobs1.jsonl" | grep -q '"schema":"cmm-journal/3"'
    head -1 "$tmp/scale.jobs1.jsonl" | grep -q '"topology":"2x16"'
    grep -q '"domain":' "$tmp/scale.jobs1.jsonl"
    grep -q '"name": "scale_2x16"' "$tmp/BENCH_scale.1.json"
    # journal-summary groups the domains; journals from different machine
    # shapes are refused (exit 2), not mis-diffed.
    ./target/release/repro journal-summary "$tmp/scale.jobs1.jsonl" \
        | grep -q '\[d1\]'
    if ./target/release/repro journal-diff \
        "$tmp/journal.jobs1.jsonl" "$tmp/scale.jobs1.jsonl" \
        > /dev/null 2> "$tmp/scale-diff.err"; then
        echo "journal-diff compared journals from different topologies" >&2
        return 1
    fi
    grep -q 'topology mismatch' "$tmp/scale-diff.err"
    # Targets that run (part of their work) single-socket refuse a
    # multi-socket --topology (exit 2, nothing on stdout) instead of
    # journaling a topology they never ran.
    local t code
    for t in governor learn all; do
        code=0
        ./target/release/repro "$t" --quick --topology 2x16 \
            --bench-json "$tmp/BENCH_refused.json" \
            --journal "$tmp/refused.$t.jsonl" > "$tmp/refused.$t.txt" 2> /dev/null || code=$?
        [ "$code" -eq 2 ] || {
            echo "repro $t --topology 2x16 exited $code, want 2" >&2
            return 1
        }
        [ ! -s "$tmp/refused.$t.txt" ] || {
            echo "repro $t --topology 2x16 printed to stdout" >&2
            return 1
        }
    done
    # A flag the target does not honour is refused too: scale keeps no
    # checkpoint, so --resume must exit 2 without creating the sidecar.
    code=0
    ./target/release/repro scale --quick --resume "$tmp/refused.ckpt" \
        --bench-json "$tmp/BENCH_refused.json" \
        --journal "$tmp/refused.scale.jsonl" > "$tmp/refused.scale.txt" 2> /dev/null || code=$?
    [ "$code" -eq 2 ] || {
        echo "repro scale --resume exited $code, want 2" >&2
        return 1
    }
    [ ! -s "$tmp/refused.scale.txt" ] || {
        echo "repro scale --resume printed to stdout" >&2
        return 1
    }
    [ ! -e "$tmp/refused.ckpt" ] || {
        echo "repro scale --resume wrote a checkpoint sidecar" >&2
        return 1
    }
}
step "repro smoke_scale (1x8 golden diff, 2x16 determinism, /3 journal, refusals)" smoke_scale

smoke_kill_resume() {
    # Crash-safety gate: a run hard-killed mid-sweep must resume from its
    # cmm-ckpt/1 sidecar and converge to byte-identical stdout + journal.
    local t="fig7" common=(--quick --mixes 1 --jobs "$SMOKE_JOBS")
    ./target/release/repro "$t" "${common[@]}" \
        --bench-json "$tmp/BENCH_clean.json" --journal "$tmp/clean.jsonl" \
        > "$tmp/clean.txt"
    # Kill after 2 completed cells: the harness exits 137 by design.
    if ./target/release/repro "$t" "${common[@]}" --chaos-kill 2 \
        --resume "$tmp/kill.ckpt" \
        --bench-json "$tmp/BENCH_killed.json" --journal "$tmp/killed.jsonl" \
        > "$tmp/killed.txt" 2> "$tmp/killed.err"; then
        echo "chaos-kill run unexpectedly survived" >&2
        return 1
    fi
    grep -q '"kind":"cell"' "$tmp/kill.ckpt" || {
        echo "checkpoint recorded no cells before the kill" >&2
        return 1
    }
    ./target/release/repro "$t" "${common[@]}" --resume "$tmp/kill.ckpt" \
        --bench-json "$tmp/BENCH_resumed.json" --journal "$tmp/resumed.jsonl" \
        > "$tmp/resumed.txt" 2> "$tmp/resumed.err"
    grep -q 'resuming from' "$tmp/resumed.err" || {
        echo "resume run did not splice the checkpoint" >&2
        return 1
    }
    cmp "$tmp/clean.txt" "$tmp/resumed.txt"
    cmp "$tmp/clean.jsonl" "$tmp/resumed.jsonl"
}
step "repro kill-and-resume smoke (byte-identical convergence)" smoke_kill_resume

smoke_trace() {
    # Trace pipeline gate: record -> convert (binary -> text -> binary,
    # byte-identical) -> trace-driven eval whose stdout AND journal are
    # byte-identical across job counts -> resume refusal on a different
    # trace set.
    ./target/release/repro trace record "$tmp/traces" --ops 20000 --seed 42 \
        > "$tmp/trace-record.txt"
    grep -q 'Recorded PrefAgg-00' "$tmp/trace-record.txt"
    [ "$(ls "$tmp/traces"/*.trc | wc -l)" -eq 8 ]
    first="$(ls "$tmp/traces"/*.trc | head -1)"
    ./target/release/repro trace convert "$first" "$tmp/roundtrip.txt" 2> /dev/null
    ./target/release/repro trace convert "$tmp/roundtrip.txt" "$tmp/roundtrip.trc" 2> /dev/null
    cmp "$first" "$tmp/roundtrip.trc"
    ./target/release/repro trace stat "$tmp/traces"/*.trc > "$tmp/trace-stat.txt"
    grep -q 'est MLP' "$tmp/trace-stat.txt"
    # Trace-driven evaluation: the determinism contract holds for traces.
    ./target/release/repro fig7 --quick --trace-dir "$tmp/traces" \
        --jobs "$SMOKE_JOBS" --bench-json "$tmp/BENCH_trace.json" \
        --journal "$tmp/trace.jobsN.jsonl" > "$tmp/trace.jobsN.txt"
    ./target/release/repro fig7 --quick --trace-dir "$tmp/traces" \
        --jobs 1 --bench-json "$tmp/BENCH_trace.1.json" \
        --journal "$tmp/trace.jobs1.jsonl" > "$tmp/trace.jobs1.txt"
    cmp "$tmp/trace.jobs1.txt" "$tmp/trace.jobsN.txt"
    cmp "$tmp/trace.jobs1.jsonl" "$tmp/trace.jobsN.jsonl"
    grep -q '"run":"Trace-00' "$tmp/trace.jobs1.jsonl"
    # The trace set is part of the run identity: resuming against a
    # different set must be refused (exit 2), not silently spliced.
    ./target/release/repro fig7 --quick --trace-dir "$tmp/traces" \
        --jobs "$SMOKE_JOBS" --resume "$tmp/trace.ckpt" \
        --bench-json "$tmp/BENCH_trace_a.json" --journal "$tmp/trace_a.jsonl" \
        > /dev/null 2>&1
    ./target/release/repro trace record "$tmp/traces2" --ops 20000 --seed 99 \
        > /dev/null
    if ./target/release/repro fig7 --quick --trace-dir "$tmp/traces2" \
        --jobs "$SMOKE_JOBS" --resume "$tmp/trace.ckpt" \
        --bench-json "$tmp/BENCH_trace_b.json" --journal "$tmp/trace_b.jsonl" \
        > /dev/null 2> "$tmp/trace-refuse.err"; then
        echo "resume accepted a checkpoint from a different trace set" >&2
        return 1
    fi
    grep -q -- '--resume:' "$tmp/trace-refuse.err"
}
step "repro trace smoke (record/convert/stat, trace-dir determinism, resume refusal)" smoke_trace

smoke_journal_readers() {
    # Every journal the smokes above wrote, schemas /2 through /6 and the
    # multi-socket /3, must load through the one strict reader: both
    # journal-summary (with its --csv export) and a self-diff exit 0.
    local j
    for j in journal faults bw ext gov learn scale trace; do
        ./target/release/repro journal-summary "$tmp/$j.jobs1.jsonl" \
            --csv "$tmp/$j.readers.csv" > /dev/null 2>&1 || {
            echo "journal-summary refused $j.jobs1.jsonl" >&2
            return 1
        }
        ./target/release/repro journal-diff \
            "$tmp/$j.jobs1.jsonl" "$tmp/$j.jobs1.jsonl" > /dev/null || {
            echo "journal-diff refused $j.jobs1.jsonl against itself" >&2
            return 1
        }
    done
    ./target/release/repro journal-summary "$tmp/resumed.jsonl" \
        --csv "$tmp/resumed.readers.csv" > /dev/null 2>&1
    ./target/release/repro journal-diff "$tmp/resumed.jsonl" "$tmp/resumed.jsonl" > /dev/null
}
step "repro journal readers smoke (summary, --csv and self-diff on every smoke journal)" \
    smoke_journal_readers

step "repro soak (chaos: panic retry, failure isolation, kill + resume)" \
    ./target/release/repro soak --jobs "$SMOKE_JOBS"

echo "CI OK"
