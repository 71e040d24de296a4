//! Machine geometry and timing configuration.
//!
//! Two presets are provided:
//!
//! * [`SystemConfig::paper`] — the Intel Xeon E5-2620 v4 of the paper:
//!   8 cores, 32 KiB/8-way L1D, 256 KiB/8-way L2, 20 MiB/20-way shared LLC,
//!   DDR4-2400 with 68.3 GB/s peak (≈32 bytes/cycle at the 2.1 GHz base
//!   clock).
//! * [`SystemConfig::scaled`] — the same topology with the LLC scaled down
//!   to 2.5 MiB (still 20 ways, so CAT masks behave identically) for fast
//!   simulation; workload footprints in `cmm-workloads` scale with it.

use crate::addr::CACHE_LINE_BYTES;

/// Physical layout of the machine: N sockets × M cores.
///
/// Each socket owns one LLC, one CAT domain (its own CLOS mask/assoc
/// register file) and — with [`Topology::mem_per_socket`] — one memory
/// controller. Core ids are global and socket-major: core `i` lives on
/// socket `i / cores_per_socket` with socket-local id
/// `i % cores_per_socket`. The single-socket default reproduces the
/// paper's one-socket machine exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of sockets (CAT domains).
    pub sockets: usize,
    /// Cores per socket (≤ 64: a socket's L2-holder masks are at most 64 bits).
    pub cores_per_socket: usize,
    /// `true`: one NUMA-local memory controller per socket (no
    /// cross-socket traffic). `false`: a single shared controller homed on
    /// socket 0.
    pub mem_per_socket: bool,
    /// Extra cycles added to every demand/prefetch fill issued by a core
    /// whose socket is not the shared controller's home (socket 0).
    /// Ignored when `mem_per_socket` is set — all traffic is local then.
    pub cross_socket_penalty: u64,
}

/// Default remote-access penalty (cycles) for shared-controller
/// topologies parsed with an `@shared` suffix, roughly the extra QPI/UPI
/// hop cost on a two-socket Xeon.
pub const DEFAULT_CROSS_SOCKET_PENALTY: u64 = 100;

impl Topology {
    /// One socket holding all `num_cores` cores — the classic layout every
    /// pre-topology configuration maps to.
    pub fn single(num_cores: usize) -> Self {
        Topology {
            sockets: 1,
            cores_per_socket: num_cores,
            mem_per_socket: false,
            cross_socket_penalty: 0,
        }
    }

    /// `sockets × cores_per_socket` with per-socket (NUMA-local) memory
    /// controllers — the realistic multi-socket default.
    pub fn grid(sockets: usize, cores_per_socket: usize) -> Self {
        Topology { sockets, cores_per_socket, mem_per_socket: sockets > 1, cross_socket_penalty: 0 }
    }

    /// Total cores across all sockets.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Socket of a global core id.
    pub fn socket_of(&self, core: usize) -> usize {
        core / self.cores_per_socket
    }

    /// Socket-local id of a global core id.
    pub fn local_id(&self, core: usize) -> usize {
        core % self.cores_per_socket
    }

    /// First global core id on `socket`.
    pub fn base_of(&self, socket: usize) -> usize {
        socket * self.cores_per_socket
    }

    /// True for one-socket layouts — the compatibility surface: journal
    /// schema, config digests and CLI output stay byte-identical to the
    /// pre-topology code for these.
    pub fn is_single(&self) -> bool {
        self.sockets == 1
    }

    /// Canonical `SxM` label (`"2x16"`).
    pub fn label(&self) -> String {
        format!("{}x{}", self.sockets, self.cores_per_socket)
    }

    /// Panics on an unbuildable layout.
    pub fn validate(&self) {
        assert!(self.sockets > 0, "topology needs at least one socket");
        assert!(self.cores_per_socket > 0, "topology needs at least one core per socket");
        assert!(
            self.cores_per_socket <= 64,
            "L2-holder masks are at most 64 bits: cores_per_socket must be <= 64"
        );
        assert!(self.total_cores() <= 1024, "more than 1024 cores is not supported");
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

impl std::str::FromStr for Topology {
    type Err = String;

    /// Parses `"SxM"` (per-socket memory controllers) or `"SxM@shared"` /
    /// `"SxM@<cycles>"` (one shared controller; remote sockets pay the
    /// given — or default — cross-socket penalty per fill).
    fn from_str(s: &str) -> Result<Self, String> {
        let (grid, mem) = match s.split_once('@') {
            None => (s, None),
            Some((g, m)) => (g, Some(m)),
        };
        let (sk, cp) =
            grid.split_once('x').ok_or_else(|| format!("topology '{s}' is not of the form SxM"))?;
        let sockets: usize =
            sk.parse().map_err(|_| format!("topology '{s}': bad socket count '{sk}'"))?;
        let cores_per_socket: usize =
            cp.parse().map_err(|_| format!("topology '{s}': bad cores/socket '{cp}'"))?;
        let mut topo = Topology::grid(sockets, cores_per_socket);
        match mem {
            None => {}
            Some("shared") => {
                topo.mem_per_socket = false;
                topo.cross_socket_penalty = DEFAULT_CROSS_SOCKET_PENALTY;
            }
            Some(p) => {
                topo.mem_per_socket = false;
                topo.cross_socket_penalty =
                    p.parse().map_err(|_| format!("topology '{s}': bad penalty '{p}' (cycles)"))?;
            }
        }
        if topo.sockets == 0 || topo.cores_per_socket == 0 {
            return Err(format!("topology '{s}' has an empty dimension"));
        }
        if topo.cores_per_socket > 64 {
            return Err(format!("topology '{s}': cores/socket is capped at 64"));
        }
        Ok(topo)
    }
}

/// Geometry of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes. Must be `ways * sets * 64` with `sets` a
    /// power of two.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Load-to-use latency of a hit in this cache, in core cycles.
    pub hit_latency: u64,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / CACHE_LINE_BYTES / self.ways as u64
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / CACHE_LINE_BYTES
    }

    /// Panics if the geometry is internally inconsistent.
    pub fn validate(&self) {
        assert!(self.ways > 0, "cache must have at least one way");
        assert_eq!(
            self.size_bytes % (CACHE_LINE_BYTES * self.ways as u64),
            0,
            "capacity must be a whole number of sets"
        );
        let sets = self.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two, got {sets}");
    }
}

/// Core pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Maximum demand misses a core can keep in flight before it stalls.
    /// This is the *machine* limit; a workload's exploitable MLP
    /// ([`crate::workload::Workload::mlp`]) may be lower.
    pub max_mlp: u32,
    /// Capacity of the per-core MSHR file tracking in-flight fills
    /// (demand + prefetch).
    pub mshr_entries: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig { max_mlp: 10, mshr_entries: 32 }
    }
}

/// Memory-controller timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Unloaded round-trip latency of a memory access, in core cycles.
    pub base_latency: u64,
    /// Peak sustainable bandwidth in bytes per core cycle, shared by all
    /// cores, achieved by row-hit traffic. 68.3 GB/s at 2.1 GHz ≈
    /// 32.5 B/cycle.
    pub bytes_per_cycle: f64,
    /// Channel occupancy of a row-buffer *miss*, in cycles per 64-byte
    /// line. Random-access traffic lands on closed rows and sustains only
    /// `64/row_miss_service` bytes/cycle — the DDR4 random-access
    /// efficiency cliff that makes useless prefetch floods expensive.
    pub row_miss_service: u64,
    /// Number of interleaved DRAM banks (power of two); concurrent streams
    /// in different banks keep their rows open independently.
    pub banks: usize,
    /// Outstanding-prefetch cap: prefetch requests are dropped (as real
    /// memory controllers drop or deprioritise them) once the queue is this
    /// many requests deep. Demand requests always queue.
    pub prefetch_drop_depth: usize,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            base_latency: 180,
            bytes_per_cycle: 32.0,
            // A row miss occupies the (aggregated 4-channel) controller
            // for 4 cycles per line: random traffic sustains ~16 B/cycle,
            // roughly DDR4-2400's measured random-access efficiency.
            row_miss_service: 4,
            banks: 16,
            // High enough that speculative traffic is only shed when the
            // controller is severely backlogged: Broadwell-era controllers
            // let prefetch floods through, which is precisely the
            // interference the paper manages in software.
            prefetch_drop_depth: 512,
        }
    }
}

/// Full machine configuration.
#[derive(Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of physical cores (the paper uses 8, hyperthreading off).
    /// Always equals `topology.total_cores()` — change it through
    /// [`SystemConfig::set_num_cores`] so the two stay consistent.
    pub num_cores: usize,
    /// Socket layout. Single-socket by default; [`SystemConfig::l1`],
    /// `l2` are per-core and [`SystemConfig::llc`] is **per socket**.
    pub topology: Topology,
    pub l1: CacheGeometry,
    pub l2: CacheGeometry,
    /// The shared, inclusive, CAT-partitionable LLC (one per socket).
    pub llc: CacheGeometry,
    pub core: CoreConfig,
    pub memory: MemoryConfig,
    /// Length of one loosely-synchronised simulation quantum, in cycles.
    pub quantum: u64,
    /// Number of CAT classes of service per socket (Broadwell-EP
    /// exposes 16).
    pub num_clos: usize,
    /// Query-Based Selection in the inclusive LLC (Broadwell's
    /// inclusion-victim mitigation). Disable only for ablation studies.
    pub qbs: bool,
}

/// Hand-rolled so single-socket configurations render exactly like the
/// pre-topology derive did: the rendering feeds the FNV-1a config digest
/// in journal manifests and resume checkpoints, so the `topology` field
/// may only appear when it actually changes the machine (multi-socket).
impl std::fmt::Debug for SystemConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("SystemConfig");
        d.field("num_cores", &self.num_cores);
        if !self.topology.is_single() {
            d.field("topology", &self.topology);
        }
        d.field("l1", &self.l1)
            .field("l2", &self.l2)
            .field("llc", &self.llc)
            .field("core", &self.core)
            .field("memory", &self.memory)
            .field("quantum", &self.quantum)
            .field("num_clos", &self.num_clos)
            .field("qbs", &self.qbs)
            .finish()
    }
}

impl SystemConfig {
    /// Paper-faithful geometry: the Intel Xeon E5-2620 v4.
    pub fn paper() -> Self {
        SystemConfig {
            num_cores: 8,
            topology: Topology::single(8),
            l1: CacheGeometry { size_bytes: 32 << 10, ways: 8, hit_latency: 4 },
            l2: CacheGeometry { size_bytes: 256 << 10, ways: 8, hit_latency: 12 },
            llc: CacheGeometry { size_bytes: 20 * (1 << 20), ways: 20, hit_latency: 40 },
            core: CoreConfig::default(),
            memory: MemoryConfig::default(),
            quantum: 1000,
            num_clos: 16,
            qbs: true,
        }
    }

    /// Scaled geometry for fast simulation: identical topology and way
    /// counts, LLC shrunk to 2.5 MiB (20 ways × 2048 sets).
    ///
    /// `num_cores` is configurable so unit tests can run tiny systems.
    pub fn scaled(num_cores: usize) -> Self {
        SystemConfig {
            num_cores,
            topology: Topology::single(num_cores),
            l1: CacheGeometry { size_bytes: 32 << 10, ways: 8, hit_latency: 4 },
            l2: CacheGeometry { size_bytes: 256 << 10, ways: 8, hit_latency: 12 },
            llc: CacheGeometry { size_bytes: 2560 << 10, ways: 20, hit_latency: 40 },
            core: CoreConfig::default(),
            memory: MemoryConfig::default(),
            quantum: 1000,
            num_clos: 16,
            qbs: true,
        }
    }

    /// A deliberately tiny machine for unit tests: 2-way 4 KiB L1,
    /// 8 KiB L2, 4-way 32 KiB LLC.
    pub fn tiny(num_cores: usize) -> Self {
        SystemConfig {
            num_cores,
            topology: Topology::single(num_cores),
            l1: CacheGeometry { size_bytes: 4 << 10, ways: 2, hit_latency: 4 },
            l2: CacheGeometry { size_bytes: 8 << 10, ways: 4, hit_latency: 12 },
            llc: CacheGeometry { size_bytes: 32 << 10, ways: 4, hit_latency: 40 },
            core: CoreConfig::default(),
            memory: MemoryConfig::default(),
            quantum: 200,
            num_clos: 4,
            qbs: true,
        }
    }

    /// Changes the core count, keeping the topology consistent: a layout
    /// already totalling `n` cores is preserved, anything else collapses
    /// to the single-socket default (the behaviour every pre-topology
    /// `cfg.num_cores = n` assignment had).
    pub fn set_num_cores(&mut self, n: usize) {
        if self.topology.total_cores() != n {
            self.topology = Topology::single(n);
        }
        self.num_cores = n;
    }

    /// Installs a topology, updating `num_cores` to match.
    pub fn set_topology(&mut self, topo: Topology) {
        self.topology = topo;
        self.num_cores = topo.total_cores();
    }

    /// Panics if any component geometry is inconsistent.
    pub fn validate(&self) {
        assert!(self.num_cores > 0);
        self.topology.validate();
        assert_eq!(
            self.topology.total_cores(),
            self.num_cores,
            "topology ({}) and num_cores disagree — use set_num_cores/set_topology",
            self.topology
        );
        assert!(self.num_clos >= 1 && self.num_clos <= 64);
        assert!(self.quantum > 0);
        self.l1.validate();
        self.l2.validate();
        self.llc.validate();
        assert!(self.llc.ways <= 64, "CAT masks are u64 way bitmaps");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_e5_2620_v4() {
        let cfg = SystemConfig::paper();
        cfg.validate();
        assert_eq!(cfg.num_cores, 8);
        assert_eq!(cfg.l1.sets(), 64);
        assert_eq!(cfg.l2.sets(), 512);
        assert_eq!(cfg.llc.ways, 20);
        assert_eq!(cfg.llc.sets(), 16384);
        assert_eq!(cfg.llc.size_bytes, 20 * 1024 * 1024);
    }

    #[test]
    fn scaled_keeps_llc_way_count() {
        let cfg = SystemConfig::scaled(8);
        cfg.validate();
        assert_eq!(cfg.llc.ways, SystemConfig::paper().llc.ways);
        assert_eq!(cfg.llc.sets(), 2048);
    }

    #[test]
    fn tiny_is_valid() {
        SystemConfig::tiny(2).validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_set_count_panics() {
        CacheGeometry { size_bytes: 3 * 64 * 8, ways: 8, hit_latency: 1 }.validate();
    }

    #[test]
    fn topology_addressing_is_socket_major() {
        let t = Topology::grid(4, 32);
        t.validate();
        assert_eq!(t.total_cores(), 128);
        assert_eq!(t.socket_of(0), 0);
        assert_eq!(t.socket_of(31), 0);
        assert_eq!(t.socket_of(32), 1);
        assert_eq!(t.local_id(32), 0);
        assert_eq!(t.socket_of(127), 3);
        assert_eq!(t.local_id(127), 31);
        assert_eq!(t.base_of(2), 64);
        assert!(t.mem_per_socket, "multi-socket grids default to NUMA-local controllers");
    }

    #[test]
    fn topology_parses_and_round_trips() {
        let t: Topology = "2x16".parse().unwrap();
        assert_eq!(t, Topology::grid(2, 16));
        assert_eq!(t.to_string(), "2x16");
        let s: Topology = "2x16@shared".parse().unwrap();
        assert!(!s.mem_per_socket);
        assert_eq!(s.cross_socket_penalty, DEFAULT_CROSS_SOCKET_PENALTY);
        let p: Topology = "2x4@250".parse().unwrap();
        assert_eq!(p.cross_socket_penalty, 250);
        let one: Topology = "1x8".parse().unwrap();
        assert!(one.is_single());
        assert_eq!(one, Topology::single(8));
        for bad in ["", "8", "x8", "2x", "0x4", "4x0", "2x65", "axb", "2x16@fast"] {
            assert!(bad.parse::<Topology>().is_err(), "'{bad}' must not parse");
        }
    }

    #[test]
    fn single_socket_debug_matches_pre_topology_rendering() {
        // The Debug rendering feeds journal/checkpoint config digests:
        // default layouts must not mention the topology field at all.
        let dbg = format!("{:?}", SystemConfig::scaled(8));
        assert!(!dbg.contains("topology"), "{dbg}");
        assert!(dbg.starts_with("SystemConfig { num_cores: 8, l1: CacheGeometry"), "{dbg}");
        let mut multi = SystemConfig::scaled(8);
        multi.set_topology(Topology::grid(2, 16));
        let dbg = format!("{multi:?}");
        assert!(dbg.contains("topology: Topology { sockets: 2, cores_per_socket: 16"), "{dbg}");
    }

    #[test]
    fn set_num_cores_keeps_matching_topology() {
        let mut cfg = SystemConfig::scaled(8);
        cfg.set_topology(Topology::grid(2, 16));
        cfg.set_num_cores(32); // matches 2x16: layout preserved
        assert_eq!(cfg.topology, Topology::grid(2, 16));
        cfg.set_num_cores(8); // mismatch: collapses to single-socket
        assert_eq!(cfg.topology, Topology::single(8));
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn inconsistent_topology_fails_validation() {
        let mut cfg = SystemConfig::scaled(8);
        cfg.topology = Topology::grid(2, 16);
        cfg.validate();
    }
}
