//! # cmm-core — the CMM controller (the paper's contribution)
//!
//! Implements *Coordinated Multi-resource Management* from Sun, Shen &
//! Veidenbaum, IPDPS 2019: a software controller that treats the hardware
//! prefetchers and the shared LLC as two separately allocatable resources
//! and manages them per execution epoch.
//!
//! The design mirrors the paper's decoupled structure:
//!
//! * [`frontend`] — computes the Table I metrics from PMU deltas and
//!   detects the **prefetch-aggressive (`Agg`) core set** with the Fig. 5
//!   cascade (PGA above average → L2 PMR locality filter → L2 PTR
//!   pressure).
//! * [`backend`] — the resource allocators:
//!   [`backend::pt`] (prefetch throttling with exhaustive or k-means
//!   group-level search), [`backend::cp`] (Pref-CP / Pref-CP2
//!   partitioning), [`backend::dunn`] (the Selfa et al. PACT'17 baseline)
//!   and [`backend::cmm`] (the coordinated CMM-a/b/c policies of Fig. 6).
//! * [`driver`] — the epoch/sampling scheduler of Fig. 4: each execution
//!   epoch is followed by a profiling epoch of short sampling intervals in
//!   which candidate configurations are trialled and ranked by `hm_ipc`.
//! * [`experiment`] — harness utilities that run a workload mix under a
//!   [`policy::Mechanism`] and produce the per-core IPC / bandwidth /
//!   stall numbers behind every figure of the evaluation.
//! * [`governor`] — the runtime safety governor: apply-then-verify with
//!   rollback, PMU anomaly quarantine, and per-register-class circuit
//!   breakers wrapping any mechanism the driver runs.
//! * [`json`] — the JSON writer helpers (string escaping, float
//!   renderings, arrays) shared by the run journal, the checkpoint
//!   payloads and the perf log.
//!
//! The controller talks to the machine exclusively through the
//! [`substrate::Substrate`] trait — PMU reads, MSR 0x1A4 throttle writes,
//! CAT mask/CLOS programming, cycle advance; exactly the interface the
//! paper's kernel module has on real hardware. [`cmm_sim::System`] is the
//! canonical implementation and [`fault::FaultySubstrate`] decorates any
//! substrate with a deterministic fault schedule, so the algorithms here
//! would port to an actual MSR/resctrl backend unchanged — and are tested
//! against the error surface that backend would throw.

pub mod backend;
pub mod driver;
pub mod experiment;
pub mod fault;
pub mod frontend;
pub mod governor;
pub mod json;
pub mod learned;
pub mod policy;
pub mod resctrl;
pub mod substrate;
pub mod telemetry;

/// The types most users need.
pub mod prelude {
    pub use crate::backend::{partition_ways, PartitionPlan};
    pub use crate::driver::Driver;
    pub use crate::experiment::{
        run_alone_ipc, run_mix, run_mix_cell, run_mix_governed, run_mix_learned, run_mix_pooled,
        ExperimentConfig, MixOptions, MixResult, WarmupPool,
    };
    pub use crate::fault::{FaultConfig, FaultySubstrate};
    pub use crate::frontend::{detect_agg, metrics, DetectorConfig, Metrics};
    pub use crate::governor::{Governor, GovernorConfig, RegClass};
    pub use crate::learned::{Learner, RlPolicy};
    pub use crate::policy::{ControllerConfig, Mechanism};
    pub use crate::substrate::Substrate;
    pub use crate::telemetry::{
        CoreSample, EpochRecord, FaultRecord, GovernorEvent, Manifest, Trial,
    };
}
