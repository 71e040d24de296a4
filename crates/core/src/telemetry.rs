//! Per-epoch controller telemetry — the `cmm-journal/2` run journal.
//!
//! CMM's value is its control loop: every profiling epoch the front-end
//! computes the metric cascade (M-1..M-7, Fig. 5), detects the `Agg` set,
//! and the back-end trials candidate configurations ranked by `hm_ipc`.
//! Before this module the only window into those decisions was scraping
//! `println!` output. Now the [`crate::driver::Driver`] records one
//! [`EpochRecord`] per profiling epoch — the cascade values per core, the
//! detected sets, every trialed configuration with its `hm_ipc`, the
//! winner, and the CAT/throttle state actually applied (read back from the
//! machine, not inferred) — and harnesses serialize them as a JSONL
//! journal:
//!
//! ```text
//! {"schema":"cmm-journal/2","kind":"manifest","target":"table1",...}
//! {"kind":"epoch","run":"PrefAgg-00: CMM-a","epoch":1,"cycle":...,...}
//! ```
//!
//! Schema `/2` extends `/1` with the fault/degradation story: per-epoch
//! `faults` (every substrate fault the controller observed and what it did
//! about it — see [`FaultRecord`]), `degraded` (the fallback mechanism the
//! epoch retreated to, if any), and `exec_hm_ipc` / `exec_ipc_delta`
//! (harmonic-mean IPC over the preceding execution epoch and its change
//! versus the one before — "did the applied winner actually help?").
//! Readers that accept `/1` journals can read `/2` journals by ignoring
//! the new keys; nothing was removed or reordered. Schema `/3` adds the
//! multi-socket story (`topology` in the manifest, `domain` per epoch) and
//! `/4` the bandwidth knob (`mba` levels in trials and the `applied`
//! block) — both purely additive in the same way.
//!
//! One JSON object per line; the first line is the run manifest (git SHA,
//! host info, config digest), every further line one epoch. The rendering
//! is hand-rolled (the build environment has no serde) and deliberately
//! timestamp-free: a journal is a pure function of (workload, seed,
//! configuration), so the same run produces a byte-identical journal at
//! any `--jobs` — which is exactly what makes it usable as a regression
//! fixture.

use crate::frontend::Metrics;
use crate::json::{escape, push_array, Fixed6};
use cmm_sim::system::CoreControl;

/// One substrate fault the controller observed, and what it did about it.
///
/// `kind` names the fault class, `action` the controller's response:
///
/// | kind             | meaning                                   | actions                     |
/// |------------------|-------------------------------------------|-----------------------------|
/// | `msr_rejected`   | transient WRMSR rejection                 | `retry_ok`, `gave_up`       |
/// | `clos_exhausted` | CAT write to a CLOS the part doesn't have | `gave_up`                   |
/// | `msr_error`      | any other WRMSR failure                   | `retry_ok`, `gave_up`       |
/// | `pmu_anomaly`    | unstable / implausible PMU snapshot       | `reread`, `zeroed_sample`   |
/// | `degraded`       | epoch-level fallback decision             | `fallback_dunn`, `fallback_noop`, `fallback_throttle`, `kept_last_good` |
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Machine clock when the fault was observed.
    pub cycle: u64,
    /// Fault class (see table above).
    pub kind: &'static str,
    /// Core the operation targeted, when core-specific.
    pub core: Option<usize>,
    /// MSR address involved, for MSR-class faults.
    pub msr: Option<u32>,
    /// What the controller did in response (see table above).
    pub action: &'static str,
}

impl FaultRecord {
    fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str(&format!("{{\"cycle\":{},\"kind\":\"{}\"", self.cycle, escape(self.kind)));
        match self.core {
            Some(c) => s.push_str(&format!(",\"core\":{c}")),
            None => s.push_str(",\"core\":null"),
        }
        match self.msr {
            Some(m) => s.push_str(&format!(",\"msr\":{m}")),
            None => s.push_str(",\"msr\":null"),
        }
        s.push_str(&format!(",\"action\":\"{}\"}}", escape(self.action)));
        s
    }
}

/// One safety-governor intervention (schema `cmm-journal/5`).
///
/// `action` names what the governor did:
///
/// | action          | meaning                                              |
/// |-----------------|------------------------------------------------------|
/// | `rollback`      | exec hm_ipc regressed past the bound; previous state restored |
/// | `quarantine`    | a core's PMU stream went implausible; core excluded for a cooldown |
/// | `breaker_open`  | K consecutive hard MSR failures on `class`; retries suspended |
/// | `breaker_close` | the breaker's cooldown expired; the class is probed again |
///
/// `core` is set for core-scoped actions (`quarantine`), `class` for
/// register-class-scoped ones (`breaker_open`/`breaker_close`:
/// `"prefetch"`, `"cat"` or `"mba"`).
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorEvent {
    /// Machine clock when the governor intervened.
    pub cycle: u64,
    /// What the governor did (see table above).
    pub action: &'static str,
    /// Core the action targeted, for core-scoped actions.
    pub core: Option<usize>,
    /// Register class the action targeted, for breaker actions.
    pub class: Option<&'static str>,
}

impl GovernorEvent {
    fn to_json(&self) -> String {
        let mut s = String::with_capacity(80);
        s.push_str(&format!("{{\"cycle\":{},\"action\":\"{}\"", self.cycle, escape(self.action)));
        match self.core {
            Some(c) => s.push_str(&format!(",\"core\":{c}")),
            None => s.push_str(",\"core\":null"),
        }
        match self.class {
            Some(c) => s.push_str(&format!(",\"class\":\"{}\"}}", escape(c))),
            None => s.push_str(",\"class\":null}"),
        }
        s
    }
}

/// One trialed back-end configuration and its rank.
///
/// The configuration is the per-core `MSR 0x1A4` image the trial ran with
/// (`0x0` = all engines on, `0xF` = all off, `0x3` = the two L2 engines
/// off) — binary throttling and the PT-fine levels share this encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Per-core prefetcher MSR image during the trial interval.
    pub msr_1a4: Vec<u64>,
    /// Per-core MBA throttle levels during the trial interval. Empty for
    /// mechanisms that never program the bandwidth knob — and serialized
    /// only when non-empty, so /1–/3 journals stay byte-identical.
    pub mba: Vec<u64>,
    /// Harmonic-mean IPC observed over the trial interval (the paper's
    /// ranking criterion).
    pub hm_ipc: f64,
}

/// One core's sampled metrics over the detection interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreSample {
    /// IPC over the interval.
    pub ipc: f64,
    /// The Table I metric cascade (M-1..M-7).
    pub metrics: Metrics,
}

/// Everything one profiling epoch decided and applied.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// 1-based profiling-epoch index within the run.
    pub epoch: u64,
    /// Machine clock when the profiling epoch began.
    pub cycle: u64,
    /// Mechanism label (`"PT"`, `"CMM-a"`, …).
    pub mechanism: &'static str,
    /// CAT domain (socket) this record describes on a multi-socket
    /// machine; `None` on single-socket runs. When set, `cores`, the
    /// detected sets, trials, and `applied` all describe that domain's
    /// cores in socket-local order, and each profiling epoch emits one
    /// record per domain (schema `cmm-journal/3`).
    pub domain: Option<usize>,
    /// Per-core cascade samples from the detection interval. Empty when
    /// the mechanism does not profile (the baseline).
    pub cores: Vec<CoreSample>,
    /// Detected prefetch-aggressive cores, ascending.
    pub agg: Vec<usize>,
    /// Prefetch-friendly subset of `agg`.
    pub friendly: Vec<usize>,
    /// Prefetch-unfriendly subset of `agg`.
    pub unfriendly: Vec<usize>,
    /// Back-end trials in the order they ran. Empty for mechanisms that
    /// never search (CP variants, Dunn, baseline).
    pub trials: Vec<Trial>,
    /// Index into `trials` of the applied winner; `None` when no search
    /// ran.
    pub winner: Option<usize>,
    /// Harmonic-mean IPC over the execution epoch that preceded this
    /// profiling epoch. `None` for the first epoch (no execution epoch has
    /// completed yet).
    pub exec_hm_ipc: Option<f64>,
    /// Change in `exec_hm_ipc` versus the previous execution epoch — the
    /// journal's direct answer to "did the applied winner actually help?".
    /// `None` until two execution epochs have completed.
    pub exec_ipc_delta: Option<f64>,
    /// Every substrate fault observed during this epoch and the
    /// controller's response, in observation order.
    pub faults: Vec<FaultRecord>,
    /// Fallback mechanism this epoch retreated to when its own allocator
    /// could not be applied (`"Dunn"`, `"no-op"` or `"throttle-only"`);
    /// `None` when the epoch's own decision was applied.
    pub degraded: Option<&'static str>,
    /// Safety-governor interventions during this epoch, in order (schema
    /// `cmm-journal/5`). Empty — and unserialized — for ungoverned runs,
    /// so /1–/4 journals stay byte-identical.
    pub governor: Vec<GovernorEvent>,
    /// Mix-level mean feature vector the learned controller classified on
    /// (schema `cmm-journal/6`, `cmm_learn::FEATURE_NAMES` order). Empty —
    /// and unserialized — for unlearned mechanisms, so /1–/5 journals stay
    /// byte-identical.
    pub features: Vec<f64>,
    /// The learned controller's chosen action label for this epoch (e.g.
    /// `"pf=0xf,cat=cmm,mba=0,stretch=1"` for RL-CBP or `"pf=0x0"` for
    /// ML-Sel). `None` — and unserialized — for unlearned mechanisms
    /// (schema `cmm-journal/6`).
    pub action: Option<String>,
    /// CAT/throttle state in force after the epoch's decision was applied,
    /// read back from the machine.
    pub applied: Vec<CoreControl>,
}

impl EpochRecord {
    /// Renders the record as one JSONL line (no trailing newline).
    /// `run` labels which (mix × mechanism) cell the epoch belongs to.
    pub fn to_json_line(&self, run: &str) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\"kind\":\"epoch\"");
        s.push_str(&format!(",\"run\":\"{}\"", escape(run)));
        s.push_str(&format!(",\"mechanism\":\"{}\"", escape(self.mechanism)));
        // Only multi-socket journals (schema /3) carry the domain key;
        // single-socket output must stay byte-identical to /2.
        if let Some(d) = self.domain {
            s.push_str(&format!(",\"domain\":{d}"));
        }
        s.push_str(&format!(",\"epoch\":{}", self.epoch));
        s.push_str(&format!(",\"cycle\":{}", self.cycle));
        s.push_str(",\"cores\":");
        push_array(
            &mut s,
            self.cores.iter().map(|c| {
                let m = &c.metrics;
                format!(
                    "{{\"ipc\":{},\"m1_l2_llc\":{},\"m2_pf_frac\":{},\"m3_ptr\":{},\
                     \"m4_pga\":{},\"m5_pmr\":{},\"m6_ppm\":{},\"m7_llc_pt\":{}}}",
                    Fixed6(c.ipc),
                    m.l2_llc_traffic,
                    Fixed6(m.l2_pf_miss_frac),
                    Fixed6(m.l2_ptr),
                    Fixed6(m.pga),
                    Fixed6(m.l2_pmr),
                    Fixed6(m.l2_ppm),
                    Fixed6(m.llc_pt),
                )
            }),
        );
        s.push_str(",\"agg\":");
        push_array(&mut s, &self.agg);
        s.push_str(",\"friendly\":");
        push_array(&mut s, &self.friendly);
        s.push_str(",\"unfriendly\":");
        push_array(&mut s, &self.unfriendly);
        s.push_str(",\"trials\":");
        push_array(
            &mut s,
            self.trials.iter().map(|t| {
                let mut o = String::from("{\"msr_1a4\":");
                push_array(&mut o, &t.msr_1a4);
                if !t.mba.is_empty() {
                    o.push_str(",\"mba\":");
                    push_array(&mut o, &t.mba);
                }
                o.push_str(&format!(",\"hm_ipc\":{}}}", Fixed6(t.hm_ipc)));
                o
            }),
        );
        match self.winner {
            Some(w) => s.push_str(&format!(",\"winner\":{w}")),
            None => s.push_str(",\"winner\":null"),
        }
        match self.exec_hm_ipc {
            Some(v) => s.push_str(&format!(",\"exec_hm_ipc\":{}", Fixed6(v))),
            None => s.push_str(",\"exec_hm_ipc\":null"),
        }
        match self.exec_ipc_delta {
            Some(v) => s.push_str(&format!(",\"exec_ipc_delta\":{}", Fixed6(v))),
            None => s.push_str(",\"exec_ipc_delta\":null"),
        }
        s.push_str(",\"faults\":");
        push_array(&mut s, self.faults.iter().map(FaultRecord::to_json));
        match self.degraded {
            Some(d) => s.push_str(&format!(",\"degraded\":\"{}\"", escape(d))),
            None => s.push_str(",\"degraded\":null"),
        }
        // The governor key joined in schema /5; epochs the governor never
        // touched omit it so ungoverned journals stay byte-identical.
        if !self.governor.is_empty() {
            s.push_str(",\"governor\":");
            push_array(&mut s, self.governor.iter().map(GovernorEvent::to_json));
        }
        // The learned-controller keys joined in schema /6; epochs from
        // unlearned mechanisms omit both so /1–/5 journals stay
        // byte-identical.
        if !self.features.is_empty() {
            s.push_str(",\"features\":");
            push_array(&mut s, self.features.iter().map(|&v| Fixed6(v)));
        }
        if let Some(a) = &self.action {
            s.push_str(&format!(",\"action\":\"{}\"", escape(a)));
        }
        s.push_str(",\"applied\":{\"clos\":");
        push_array(&mut s, self.applied.iter().map(|a| a.clos));
        s.push_str(",\"way_mask\":");
        push_array(&mut s, self.applied.iter().map(|a| a.way_mask));
        s.push_str(",\"msr_1a4\":");
        push_array(&mut s, self.applied.iter().map(|a| a.msr_1a4));
        s.push_str(",\"prefetch\":");
        push_array(&mut s, self.applied.iter().map(|a| a.prefetching()));
        // The bandwidth knob joined in schema /4; epochs that never engage
        // it (every level still 0) omit the key so /1–/3 journals are
        // byte-identical to the pre-MBA renderer.
        if self.applied.iter().any(|a| a.mba_level != 0) {
            s.push_str(",\"mba\":");
            push_array(&mut s, self.applied.iter().map(|a| a.mba_level));
        }
        s.push_str("}}");
        s
    }
}

/// Run-level context for the journal's manifest line.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// The repro target this journal belongs to (`"table1"`, `"fig7"`, …).
    pub target: String,
    /// Whether the run used the `--quick` durations.
    pub quick: bool,
    /// Mix-construction seed.
    pub seed: u64,
    /// Git commit of the tree that produced the journal (or `"unknown"`).
    pub git_sha: String,
    /// Host operating system (`std::env::consts::OS`).
    pub host_os: String,
    /// Host architecture (`std::env::consts::ARCH`).
    pub host_arch: String,
    /// Host logical CPU count.
    pub host_cpus: usize,
    /// FNV-1a digest of the run's configuration (see [`config_digest`]).
    pub config_digest: String,
    /// Machine topology label (`"2x16"`) on multi-socket runs; `None` on
    /// single-socket runs, which keep the `/2` manifest byte-identical.
    pub topology: Option<String>,
    /// Whether the run's mechanisms may program the MBA bandwidth knob.
    /// `true` bumps the declared schema to `cmm-journal/4`; legacy targets
    /// keep emitting /2 (or /3 with a topology) unchanged.
    pub mba: bool,
    /// Whether the run wraps the controller in the safety governor.
    /// `true` bumps the declared schema to `cmm-journal/5` and adds a
    /// `governor` manifest key; ungoverned targets are unchanged.
    pub governor: bool,
    /// Whether the run uses learned mechanisms (ML-Sel / RL-CBP) whose
    /// epochs carry `features`/`action` keys. `true` bumps the declared
    /// schema to `cmm-journal/6` and adds a `learn` manifest key; every
    /// legacy target is unchanged.
    pub learn: bool,
}

impl Manifest {
    /// Renders the manifest as the journal's first JSONL line (no trailing
    /// newline). Deliberately excludes `--jobs` and wall-clock time: the
    /// journal must be byte-identical across thread counts and runs.
    /// Multi-socket runs declare schema `cmm-journal/3` and add the
    /// `topology` key; single-socket output is unchanged `/2`. Runs whose
    /// mechanisms may program the MBA knob declare `cmm-journal/4`
    /// (keeping the `topology` key when multi-socket).
    pub fn to_json_line(&self) -> String {
        let mut topology = match &self.topology {
            Some(t) => format!(",\"topology\":\"{}\"", escape(t)),
            None => String::new(),
        };
        if self.governor {
            topology.push_str(",\"governor\":true");
        }
        if self.learn {
            topology.push_str(",\"learn\":true");
        }
        let schema = if self.learn {
            "cmm-journal/6"
        } else if self.governor {
            "cmm-journal/5"
        } else if self.mba {
            "cmm-journal/4"
        } else if self.topology.is_some() {
            "cmm-journal/3"
        } else {
            "cmm-journal/2"
        };
        format!(
            "{{\"schema\":\"{}\",\"kind\":\"manifest\",\"target\":\"{}\",\
             \"quick\":{},\"seed\":{}{},\"git_sha\":\"{}\",\
             \"host\":{{\"os\":\"{}\",\"arch\":\"{}\",\"cpus\":{}}},\
             \"config_digest\":\"{}\"}}",
            schema,
            escape(&self.target),
            self.quick,
            self.seed,
            topology,
            escape(&self.git_sha),
            escape(&self.host_os),
            escape(&self.host_arch),
            self.host_cpus,
            escape(&self.config_digest),
        )
    }
}

/// FNV-1a digest of a configuration's canonical (Debug) rendering —
/// enough to tell "same config?" apart across journal files without a
/// hash dependency.
pub fn config_digest(canonical: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a:{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> EpochRecord {
        EpochRecord {
            epoch: 3,
            cycle: 1_200_000,
            mechanism: "CMM-a",
            domain: None,
            cores: vec![CoreSample {
                ipc: 1.25,
                metrics: Metrics {
                    l2_llc_traffic: 1000,
                    l2_pf_miss_frac: 0.9,
                    l2_ptr: 0.01,
                    pga: 2.5,
                    l2_pmr: 0.8,
                    l2_ppm: 4.0,
                    llc_pt: 1.5,
                },
            }],
            agg: vec![0],
            friendly: vec![0],
            unfriendly: vec![],
            trials: vec![
                Trial { msr_1a4: vec![0x0], mba: vec![], hm_ipc: 1.2 },
                Trial { msr_1a4: vec![0xF], mba: vec![], hm_ipc: 0.9 },
            ],
            winner: Some(0),
            exec_hm_ipc: Some(1.1),
            exec_ipc_delta: Some(-0.05),
            faults: vec![FaultRecord {
                cycle: 1_200_100,
                kind: "msr_rejected",
                core: Some(0),
                msr: Some(0x1A4),
                action: "retry_ok",
            }],
            degraded: None,
            governor: vec![],
            features: vec![],
            action: None,
            applied: vec![CoreControl { clos: 1, way_mask: 0b11, msr_1a4: 0x0, mba_level: 0 }],
        }
    }

    #[test]
    fn epoch_line_contains_all_sections() {
        let line = sample_record().to_json_line("PrefAgg-00: CMM-a");
        assert!(line.starts_with("{\"kind\":\"epoch\""));
        assert!(line.ends_with("}"));
        assert!(!line.contains('\n'));
        for key in [
            "\"run\":\"PrefAgg-00: CMM-a\"",
            "\"mechanism\":\"CMM-a\"",
            "\"epoch\":3",
            "\"cycle\":1200000",
            "\"m4_pga\":2.500000",
            "\"agg\":[0]",
            "\"friendly\":[0]",
            "\"unfriendly\":[]",
            "\"msr_1a4\":[0]",
            "\"hm_ipc\":1.200000",
            "\"winner\":0",
            "\"exec_hm_ipc\":1.100000",
            "\"exec_ipc_delta\":-0.050000",
            "\"faults\":[{\"cycle\":1200100,\"kind\":\"msr_rejected\",\"core\":0,\"msr\":420,\"action\":\"retry_ok\"}]",
            "\"degraded\":null",
            "\"way_mask\":[3]",
            "\"prefetch\":[true]",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }

    #[test]
    fn no_winner_serializes_as_null() {
        let mut r = sample_record();
        r.trials.clear();
        r.winner = None;
        r.exec_hm_ipc = None;
        r.exec_ipc_delta = None;
        r.faults.clear();
        assert!(r.to_json_line("x").contains("\"winner\":null"));
        assert!(r.to_json_line("x").contains("\"trials\":[]"));
        assert!(r.to_json_line("x").contains("\"exec_hm_ipc\":null"));
        assert!(r.to_json_line("x").contains("\"exec_ipc_delta\":null"));
        assert!(r.to_json_line("x").contains("\"faults\":[]"));
    }

    #[test]
    fn degradation_serializes_with_its_faults() {
        let mut r = sample_record();
        r.degraded = Some("no-op");
        r.faults.push(FaultRecord {
            cycle: 1_200_200,
            kind: "degraded",
            core: None,
            msr: None,
            action: "fallback_noop",
        });
        let line = r.to_json_line("x");
        assert!(line.contains("\"degraded\":\"no-op\""));
        assert!(line.contains(
            "{\"cycle\":1200200,\"kind\":\"degraded\",\"core\":null,\"msr\":null,\
             \"action\":\"fallback_noop\"}"
        ));
    }

    #[test]
    fn manifest_line_shape() {
        let m = Manifest {
            target: "table1".into(),
            quick: true,
            seed: 42,
            git_sha: "abc123".into(),
            host_os: "linux".into(),
            host_arch: "x86_64".into(),
            host_cpus: 8,
            config_digest: config_digest("cfg"),
            topology: None,
            mba: false,
            governor: false,
            learn: false,
        };
        let line = m.to_json_line();
        assert!(line.starts_with("{\"schema\":\"cmm-journal/2\",\"kind\":\"manifest\""));
        assert!(line.contains("\"target\":\"table1\""));
        assert!(line.contains("\"cpus\":8"));
        assert!(line.contains("\"config_digest\":\"fnv1a:"));
        // Single-socket manifests carry no topology key at all.
        assert!(!line.contains("topology"));
        // No --jobs and no wall-clock: journals must not depend on either.
        assert!(!line.contains("jobs"));
    }

    #[test]
    fn multi_socket_manifest_declares_schema_3() {
        let m = Manifest {
            target: "scale".into(),
            quick: true,
            seed: 42,
            git_sha: "abc123".into(),
            host_os: "linux".into(),
            host_arch: "x86_64".into(),
            host_cpus: 8,
            config_digest: config_digest("cfg"),
            topology: Some("2x16".into()),
            mba: false,
            governor: false,
            learn: false,
        };
        let line = m.to_json_line();
        assert!(line.starts_with("{\"schema\":\"cmm-journal/3\",\"kind\":\"manifest\""));
        assert!(line.contains("\"topology\":\"2x16\""));
    }

    #[test]
    fn mba_manifest_declares_schema_4() {
        let mut m = Manifest {
            target: "bandwidth".into(),
            quick: true,
            seed: 42,
            git_sha: "abc123".into(),
            host_os: "linux".into(),
            host_arch: "x86_64".into(),
            host_cpus: 8,
            config_digest: config_digest("cfg"),
            topology: None,
            mba: true,
            governor: false,
            learn: false,
        };
        let line = m.to_json_line();
        assert!(line.starts_with("{\"schema\":\"cmm-journal/4\",\"kind\":\"manifest\""));
        assert!(!line.contains("topology"));
        // Multi-socket MBA runs keep the topology key under the /4 schema.
        m.topology = Some("2x16".into());
        let line = m.to_json_line();
        assert!(line.starts_with("{\"schema\":\"cmm-journal/4\",\"kind\":\"manifest\""));
        assert!(line.contains("\"topology\":\"2x16\""));
    }

    #[test]
    fn mba_keys_emitted_only_when_engaged() {
        // A record that never touches the bandwidth knob renders exactly as
        // it did before the knob existed.
        let quiet = sample_record().to_json_line("x");
        assert!(!quiet.contains("\"mba\""));
        let mut r = sample_record();
        r.trials[0].mba = vec![0, 40];
        r.applied[0].mba_level = 80;
        let line = r.to_json_line("x");
        assert!(line.contains("{\"msr_1a4\":[0],\"mba\":[0,40],\"hm_ipc\":1.200000}"));
        assert!(line.contains("\"prefetch\":[true],\"mba\":[80]}"));
    }

    #[test]
    fn governor_manifest_declares_schema_5() {
        let mut m = Manifest {
            target: "governor".into(),
            quick: true,
            seed: 42,
            git_sha: "abc123".into(),
            host_os: "linux".into(),
            host_arch: "x86_64".into(),
            host_cpus: 8,
            config_digest: config_digest("cfg"),
            topology: None,
            mba: true,
            governor: true,
            learn: false,
        };
        let line = m.to_json_line();
        assert!(line.starts_with("{\"schema\":\"cmm-journal/5\",\"kind\":\"manifest\""));
        assert!(line.contains("\"governor\":true"));
        // The governor flag outranks mba and topology in schema selection.
        m.topology = Some("2x16".into());
        let line = m.to_json_line();
        assert!(line.starts_with("{\"schema\":\"cmm-journal/5\""));
        assert!(line.contains("\"topology\":\"2x16\",\"governor\":true"));
    }

    #[test]
    fn governor_key_emitted_only_when_events_exist() {
        // An epoch the governor never touched renders exactly as before
        // the governor existed.
        let quiet = sample_record().to_json_line("x");
        assert!(!quiet.contains("\"governor\""));
        let mut r = sample_record();
        r.governor = vec![
            GovernorEvent { cycle: 7, action: "rollback", core: None, class: None },
            GovernorEvent { cycle: 9, action: "quarantine", core: Some(2), class: None },
            GovernorEvent { cycle: 11, action: "breaker_open", core: None, class: Some("mba") },
        ];
        let line = r.to_json_line("x");
        assert!(line.contains(
            "\"degraded\":null,\"governor\":[\
             {\"cycle\":7,\"action\":\"rollback\",\"core\":null,\"class\":null},\
             {\"cycle\":9,\"action\":\"quarantine\",\"core\":2,\"class\":null},\
             {\"cycle\":11,\"action\":\"breaker_open\",\"core\":null,\"class\":\"mba\"}],\
             \"applied\":"
        ));
    }

    #[test]
    fn learn_manifest_declares_schema_6() {
        let mut m = Manifest {
            target: "learn".into(),
            quick: true,
            seed: 42,
            git_sha: "abc123".into(),
            host_os: "linux".into(),
            host_arch: "x86_64".into(),
            host_cpus: 8,
            config_digest: config_digest("cfg"),
            topology: None,
            mba: true,
            governor: false,
            learn: true,
        };
        let line = m.to_json_line();
        assert!(line.starts_with("{\"schema\":\"cmm-journal/6\",\"kind\":\"manifest\""));
        assert!(line.contains("\"learn\":true"));
        // The learn flag outranks governor, mba and topology in schema
        // selection, and the manifest keys stack in ladder order.
        m.governor = true;
        m.topology = Some("2x16".into());
        let line = m.to_json_line();
        assert!(line.starts_with("{\"schema\":\"cmm-journal/6\""));
        assert!(line.contains("\"topology\":\"2x16\",\"governor\":true,\"learn\":true"));
    }

    #[test]
    fn learn_keys_emitted_only_when_present() {
        // An epoch from an unlearned mechanism renders exactly as before
        // the learned controllers existed.
        let quiet = sample_record().to_json_line("x");
        assert!(!quiet.contains("\"features\""));
        // Nothing between degraded and applied (fault records legitimately
        // carry their own "action" key).
        assert!(quiet.contains("\"degraded\":null,\"applied\":"));
        let mut r = sample_record();
        r.features = vec![1.25, 0.5, 0.0];
        r.action = Some("pf=0xf,cat=cmm,mba=0,stretch=1".into());
        let line = r.to_json_line("x");
        assert!(line.contains(
            "\"degraded\":null,\"features\":[1.250000,0.500000,0.000000],\
             \"action\":\"pf=0xf,cat=cmm,mba=0,stretch=1\",\"applied\":"
        ));
    }

    #[test]
    fn domain_key_only_on_multi_socket_records() {
        let single = sample_record().to_json_line("x");
        assert!(!single.contains("\"domain\""));
        let mut r = sample_record();
        r.domain = Some(1);
        let multi = r.to_json_line("x");
        assert!(multi.contains("\"mechanism\":\"CMM-a\",\"domain\":1,\"epoch\":3"));
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(config_digest("a"), config_digest("a"));
        assert_ne!(config_digest("a"), config_digest("b"));
        assert_eq!(config_digest(""), "fnv1a:cbf29ce484222325");
    }
}
