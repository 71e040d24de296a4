//! # cmm-sim — a multicore cache/prefetcher/memory simulator with PMU, MSR and CAT emulation
//!
//! This crate is the *machine substrate* for the CMM reproduction
//! (Sun, Shen, Veidenbaum, *Combining Prefetch Control and Cache
//! Partitioning to Improve Multicore Performance*, IPDPS 2019).
//!
//! The paper's controller runs on a real Intel Broadwell-EP Xeon and only
//! interacts with the machine through three narrow interfaces:
//!
//! 1. **PMU counters** (read): `L2_PF_REQ`, `L2_PF_MISS`, `L2_DM_REQ`,
//!    `L2_DM_MISS`, `L3_LOAD_MISS`, `CYCLE_ACTIVITY.STALLS_L2_PENDING`,
//!    cycles and instructions — see [`pmu`].
//! 2. **Prefetcher enable bits** (write): MSR `0x1A4`
//!    (`MSR_MISC_FEATURE_CONTROL`) — see [`msr`].
//! 3. **Cache Allocation Technology** (write): `IA32_L3_QOS_MASK_n` and
//!    `IA32_PQR_ASSOC` way-mask partitioning of the shared LLC — see
//!    [`msr`] and [`cache`].
//!
//! `cmm-sim` provides a machine exposing exactly those interfaces:
//!
//! * per-core private L1D and L2 set-associative caches and a shared,
//!   inclusive, way-partitionable LLC ([`cache`]);
//! * the four per-core hardware data prefetchers of an Intel server core —
//!   L1 next-line (DCU), L1 IP-stride, L2 streamer, L2 adjacent-line
//!   ([`prefetch`]);
//! * a bandwidth-limited memory controller with utilisation-dependent
//!   queueing ([`memory`]);
//! * a simple out-of-order-approximating core model with bounded
//!   memory-level parallelism ([`core_model`]);
//! * the glue that steps all of it in loosely synchronised quanta
//!   ([`system`]).
//!
//! The simulator is *cycle-approximate*, not cycle-accurate: it is built so
//! that the **relative** behaviour the paper's mechanisms depend on —
//! prefetch-generated LLC/memory pressure, way-sensitivity of working sets,
//! inclusive-LLC back-invalidation, bandwidth contention — is faithfully
//! present, while absolute IPC numbers are not calibrated to any silicon.
//!
//! ## Quick example
//!
//! ```
//! use cmm_sim::prelude::*;
//!
//! /// A workload that streams sequentially through 1 MiB.
//! struct Stream { pos: u64 }
//! impl Workload for Stream {
//!     fn next(&mut self) -> Op {
//!         self.pos = (self.pos + 8) % (1 << 20);
//!         Op::Load { addr: self.pos, pc: 0x400000 }
//!     }
//!     fn mlp(&self) -> u32 { 4 }
//!     fn reset(&mut self) { self.pos = 0; }
//!     fn name(&self) -> &str { "stream" }
//! }
//!
//! let cfg = SystemConfig::scaled(2);
//! let mut sys = System::new(cfg, vec![Box::new(Stream { pos: 0 }), Box::new(Stream { pos: 0 })]);
//! sys.run(100_000);
//! let pmu = sys.pmu(0);
//! assert!(pmu.instructions > 0);
//! ```

pub mod addr;
pub mod cache;
pub mod config;
pub mod core_model;
pub mod memory;
pub mod msr;
pub mod pmu;
pub mod prefetch;
pub mod presence;
pub mod system;
pub mod trace;
pub mod workload;

/// Convenient glob-import of the types most users need.
pub mod prelude {
    pub use crate::addr::{line_of, CACHE_LINE_BYTES, LINE_SHIFT};
    pub use crate::config::{CacheGeometry, CoreConfig, MemoryConfig, SystemConfig};
    pub use crate::msr::{Msr, IA32_L3_QOS_MASK_BASE, IA32_PQR_ASSOC, MSR_MISC_FEATURE_CONTROL};
    pub use crate::pmu::{Pmu, PmuDelta};
    pub use crate::prefetch::PrefetcherKind;
    pub use crate::system::{CoreControl, System};
    pub use crate::workload::{Op, Workload};
}

pub use config::SystemConfig;
pub use system::{simulated_core_cycles, System, SystemSnapshot};
pub use workload::{Op, Workload};
