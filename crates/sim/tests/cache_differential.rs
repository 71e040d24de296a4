//! Differential test of the compact tag store: [`cmm_sim::cache::Cache`]
//! against the layout it replaced, which kept a cache-wide `u64` LRU tick,
//! a `u64` stamp and a flag byte per way, and chose QBS victims through a
//! `protected` closure. Both caches run the same random operation
//! sequences, on an L1-like, a tiny and a 20-way LLC geometry, and must
//! agree on every return value, every counter and every line's residency
//! after every operation.
//!
//! On the tiny and LLC geometries the compact cache carries a holder
//! column. A reference holder map (line → mask, for resident lines) feeds
//! the oracle's closure, and the compact cache's QBS fill, which reads the
//! column instead, must pick the same victims; every resident line's
//! column entry must equal the map's.

use cmm_sim::cache::{Cache, Eviction};
use cmm_sim::config::{CacheGeometry, SystemConfig};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::HashMap;
use std::fmt::Debug;

/// The previous `Cache`, kept as the oracle. Its results gain the fields
/// the compact cache's results grew (a hit's way, a victim's holders),
/// which it fills from the same row-major layout and with 0.
mod oracle {
    use cmm_sim::cache::{CacheStats, Eviction, HitInfo};
    use cmm_sim::config::CacheGeometry;

    const INVALID_TAG: u64 = u64::MAX;

    const FLAG_PREFETCHED: u8 = 0b01;
    const FLAG_DIRTY: u8 = 0b10;

    /// A set-associative, write-back, LRU cache.
    #[derive(Clone)]
    pub struct Cache {
        sets: u64,
        ways: usize,
        set_mask: u64,
        /// `sets * ways` tags (line numbers), row-major by set.
        tags: Vec<u64>,
        /// LRU stamps parallel to `tags`; larger = more recently used.
        stamps: Vec<u64>,
        /// Per-line flag bits parallel to `tags`.
        flags: Vec<u8>,
        tick: u64,
        /// Counters; public for tests and diagnostics.
        pub stats: CacheStats,
    }

    impl Cache {
        /// Builds an empty cache with the given geometry.
        pub fn new(geom: CacheGeometry) -> Self {
            geom.validate();
            let sets = geom.sets();
            let ways = geom.ways as usize;
            let n = (sets as usize) * ways;
            Cache {
                sets,
                ways,
                set_mask: sets - 1,
                tags: vec![INVALID_TAG; n],
                stamps: vec![0; n],
                flags: vec![0; n],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        /// Associativity.
        pub fn ways(&self) -> usize {
            self.ways
        }

        /// Number of sets.
        pub fn sets(&self) -> u64 {
            self.sets
        }

        #[inline(always)]
        fn set_base(&self, line: u64) -> usize {
            ((line & self.set_mask) as usize) * self.ways
        }

        #[inline(always)]
        fn find(&self, line: u64) -> Option<usize> {
            let base = self.set_base(line);
            // One slice reborrow, one pass: the compiler hoists the bounds
            // check and vectorises the tag compare.
            let tags = &self.tags[base..base + self.ways];
            for (w, &t) in tags.iter().enumerate() {
                if t == line {
                    return Some(base + w);
                }
            }
            None
        }

        /// True if the line is resident. Does not disturb LRU or statistics.
        pub fn contains(&self, line: u64) -> bool {
            self.find(line).is_some()
        }

        /// Demand access. On a hit, updates LRU, clears the prefetched bit and
        /// reports whether this was the first use of a prefetched line.
        pub fn access(&mut self, line: u64) -> Option<HitInfo> {
            self.tick += 1;
            match self.find(line) {
                Some(idx) => {
                    self.stamps[idx] = self.tick;
                    let first_use = self.flags[idx] & FLAG_PREFETCHED != 0;
                    if first_use {
                        self.flags[idx] &= !FLAG_PREFETCHED;
                        self.stats.prefetch_used += 1;
                    }
                    self.stats.hits += 1;
                    Some(HitInfo { first_use_of_prefetch: first_use, way: idx })
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        /// Prefetch probe: like [`Cache::access`] but does **not** clear the
        /// prefetched bit (a prefetcher re-touching its own line is not a use)
        /// and does not update LRU (Intel prefetch probes do not promote).
        pub fn probe_for_prefetch(&mut self, line: u64) -> bool {
            let hit = self.find(line).is_some();
            if hit {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
            hit
        }

        /// Marks a resident line dirty (no-op if absent).
        pub fn mark_dirty(&mut self, line: u64) {
            if let Some(idx) = self.find(line) {
                self.flags[idx] |= FLAG_DIRTY;
            }
        }

        /// Removes a line (inclusive back-invalidation). Returns the removed
        /// line's state if it was resident, so callers can write back dirty
        /// data.
        pub fn invalidate_line(&mut self, line: u64) -> Option<Eviction> {
            if let Some(idx) = self.find(line) {
                let unused_prefetch = self.flags[idx] & FLAG_PREFETCHED != 0;
                if unused_prefetch {
                    self.stats.prefetch_wasted += 1;
                }
                let dirty = self.flags[idx] & FLAG_DIRTY != 0;
                self.tags[idx] = INVALID_TAG;
                self.flags[idx] = 0;
                self.stamps[idx] = 0;
                Some(Eviction { line, dirty, unused_prefetch, holders: 0 })
            } else {
                None
            }
        }

        /// Inserts `line`, selecting the victim only among ways set in
        /// `alloc_mask` (CAT). If the line is already resident this refreshes
        /// LRU instead (fill races are benign). Returns the eviction, if any.
        ///
        /// `alloc_mask` must intersect `[0, ways)`; callers pass
        /// `u64::MAX` when partitioning is off.
        pub fn insert(&mut self, line: u64, prefetched: bool, alloc_mask: u64) -> Option<Eviction> {
            self.insert_qbs(line, prefetched, alloc_mask, &|_| false)
        }

        /// [`Cache::insert`] with Query-Based Selection: ways whose line is
        /// `protected` (resident in some private cache, per the inclusive-LLC
        /// QBS of Broadwell) are victimised only if every usable way is
        /// protected.
        pub fn insert_qbs(
            &mut self,
            line: u64,
            prefetched: bool,
            alloc_mask: u64,
            protected: &dyn Fn(u64) -> bool,
        ) -> Option<Eviction> {
            self.tick += 1;
            let base = self.set_base(line);
            let usable = alloc_mask & Self::low_ways_mask(self.ways);
            debug_assert!(usable != 0, "allocation mask selects no way");

            // Single packed pass over the set: detect a hit on `line`, note the
            // first usable invalid way, and track the LRU (min-stamp) usable
            // way all in one sweep over the contiguous tag/stamp rows, instead
            // of a `find` pass followed by a victim-selection pass.
            let mut invalid_way: Option<usize> = None;
            let mut lru_way = usize::MAX;
            let mut lru_stamp = u64::MAX;
            let tags = &self.tags[base..base + self.ways];
            let stamps = &self.stamps[base..base + self.ways];
            for (w, &t) in tags.iter().enumerate() {
                if t == line {
                    // Already present (e.g. demand fill racing a prefetch
                    // fill): refresh recency; never *set* the prefetched bit on
                    // a line that a demand already claimed.
                    let idx = base + w;
                    self.stamps[idx] = self.tick;
                    if !prefetched {
                        self.flags[idx] &= !FLAG_PREFETCHED;
                    }
                    return None;
                }
                if usable & (1 << w) != 0 {
                    if t == INVALID_TAG && invalid_way.is_none() {
                        invalid_way = Some(w);
                    }
                    let s = stamps[w];
                    if s < lru_stamp {
                        lru_stamp = s;
                        lru_way = w;
                    }
                }
            }

            // Prefer an invalid way inside the mask, else the LRU way among
            // unprotected lines, else (all usable ways protected) the plain LRU
            // way. Candidates are probed in LRU order so `protected` — a
            // presence-table lookup — runs once for the common case of an
            // unprotected LRU victim rather than once per way.
            let idx = if let Some(w) = invalid_way {
                base + w
            } else {
                assert!(lru_way != usize::MAX, "allocation mask selects no way");
                if !protected(self.tags[base + lru_way]) {
                    base + lru_way
                } else {
                    // Rare: the LRU victim is held by a private cache. Probe the
                    // remaining candidates in LRU order; if every usable way is
                    // protected, fall back to the plain LRU way.
                    let mut tried: u64 = 1 << lru_way;
                    let victim = loop {
                        let mut best: Option<usize> = None;
                        let mut best_stamp = u64::MAX;
                        for w in 0..self.ways {
                            if usable & (1 << w) == 0 || tried & (1 << w) != 0 {
                                continue;
                            }
                            let s = self.stamps[base + w];
                            if s < best_stamp {
                                best_stamp = s;
                                best = Some(w);
                            }
                        }
                        match best {
                            None => break lru_way,
                            Some(w) if !protected(self.tags[base + w]) => break w,
                            Some(w) => tried |= 1 << w,
                        }
                    };
                    base + victim
                }
            };

            let evicted = if self.tags[idx] != INVALID_TAG {
                let unused_prefetch = self.flags[idx] & FLAG_PREFETCHED != 0;
                if unused_prefetch {
                    self.stats.prefetch_wasted += 1;
                }
                self.stats.evictions += 1;
                Some(Eviction {
                    line: self.tags[idx],
                    dirty: self.flags[idx] & FLAG_DIRTY != 0,
                    unused_prefetch,
                    holders: 0,
                })
            } else {
                None
            };

            self.tags[idx] = line;
            self.stamps[idx] = self.tick;
            self.flags[idx] = if prefetched { FLAG_PREFETCHED } else { 0 };
            self.stats.insertions += 1;
            evicted
        }

        /// Bitmask selecting all `ways` low way bits.
        #[inline]
        pub fn low_ways_mask(ways: usize) -> u64 {
            if ways >= 64 {
                u64::MAX
            } else {
                (1u64 << ways) - 1
            }
        }

        /// Empties the cache, keeping statistics.
        pub fn flush(&mut self) {
            self.tags.fill(INVALID_TAG);
            self.flags.fill(0);
            self.stamps.fill(0);
        }

        /// How many lines of the given set are currently valid. Test helper.
        pub fn set_occupancy(&self, set: u64) -> usize {
            let base = (set as usize) * self.ways;
            self.tags[base..base + self.ways].iter().filter(|&&t| t != INVALID_TAG).count()
        }
    }
}

/// One call on the cache API. Lines are `(set, tag)` pairs, so a sequence
/// concentrates on a few sets and keeps them full.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    Probe(u64),
    Insert {
        line: u64,
        prefetched: bool,
        mask: u64,
    },
    /// An insert with Query-Based Selection: the oracle's `protected`
    /// closure asks the reference holder map; the compact cache reads its
    /// holder column.
    InsertQbs {
        line: u64,
        prefetched: bool,
        mask: u64,
    },
    /// Sets a resident line's holder mask (no-op if absent), as L2 fills
    /// and evictions do through the LLC.
    Hold {
        line: u64,
        holders: u64,
    },
    Invalidate(u64),
    MarkDirty(u64),
    Flush,
}

/// Sets the sequences touch. Few, so each one sees evictions.
const HOT_SETS: u64 = 3;
/// Distinct lines per set beyond the associativity, so sets overflow.
const EXTRA_TAGS: u64 = 3;

/// Every line an [`arb_op`] sequence can name on this geometry.
fn universe(geom: CacheGeometry) -> Vec<u64> {
    let (sets, tags) = (geom.sets(), u64::from(geom.ways) + EXTRA_TAGS);
    (0..HOT_SETS.min(sets)).flat_map(|s| (0..tags).map(move |t| s + t * sets)).collect()
}

/// A random CAT allocation mask that selects at least one real way.
fn arb_mask(ways: u32) -> impl Strategy<Value = u64> {
    (any::<u64>(), 0..ways, 0u32..4).prop_map(
        |(bits, way, kind)| {
            if kind == 0 {
                u64::MAX
            } else {
                bits | 1 << way
            }
        },
    )
}

fn arb_op(geom: CacheGeometry, hot_sets: u64) -> BoxedStrategy<Op> {
    let (sets, ways) = (geom.sets(), geom.ways);
    let line = move || {
        (0..hot_sets.min(sets), 0..u64::from(ways) + EXTRA_TAGS)
            .prop_map(move |(s, t)| s + t * sets)
    };
    // Options repeat to weight the draw towards accesses and inserts.
    prop_oneof![
        line().prop_map(Op::Access),
        line().prop_map(Op::Access),
        line().prop_map(Op::Access),
        // Flushes are rare, so sets fill up between them.
        (line(), 0u32..300).prop_map(|(l, r)| if r == 0 { Op::Flush } else { Op::Probe(l) }),
        (line(), any::<bool>(), arb_mask(ways)).prop_map(|(line, prefetched, mask)| Op::Insert {
            line,
            prefetched,
            mask
        }),
        (line(), any::<bool>(), arb_mask(ways)).prop_map(|(line, prefetched, mask)| Op::Insert {
            line,
            prefetched,
            mask
        }),
        (line(), any::<bool>(), arb_mask(ways))
            .prop_map(|(line, prefetched, mask)| Op::InsertQbs { line, prefetched, mask }),
        (line(), any::<u64>(), any::<bool>()).prop_map(|(line, bits, unheld)| Op::Hold {
            line,
            holders: if unheld { 0 } else { bits }
        }),
        (line(), any::<u64>()).prop_map(|(line, holders)| Op::Hold { line, holders }),
        line().prop_map(Op::Invalidate),
        line().prop_map(Op::MarkDirty),
    ]
    .boxed()
}

fn same<T: PartialEq + Debug>(op: Op, what: &str, compact: T, oracle: T) -> Result<(), String> {
    if compact == oracle {
        Ok(())
    } else {
        Err(format!("{op:?}: {what} differs: compact {compact:?}, oracle {oracle:?}"))
    }
}

/// The oracle and the reference holder map it is fed from.
struct Reference {
    cache: oracle::Cache,
    /// Holder masks of resident lines; an absent line holds 0.
    holders: HashMap<u64, u64>,
}

impl Reference {
    /// The oracle's eviction, with the victim's mask moved out of the map.
    fn evicted(&mut self, ev: Option<Eviction>) -> Option<Eviction> {
        ev.map(|e| Eviction { holders: self.holders.remove(&e.line).unwrap_or(0), ..e })
    }
}

/// Applies `op` to both caches and fails on the first disagreement.
/// `field` is the compact cache's holder-mask width, or `None` without a
/// holder column (then QBS inserts are plain inserts and `Hold` is a no-op).
fn step(
    new: &mut Cache,
    old: &mut Reference,
    field: Option<u64>,
    op: Op,
    lines: &[u64],
) -> Result<(), String> {
    match op {
        Op::Access(l) => same(op, "access", new.access(l), old.cache.access(l))?,
        Op::Probe(l) => {
            same(op, "probe", new.probe_for_prefetch(l), old.cache.probe_for_prefetch(l))?
        }
        Op::Insert { line, prefetched, mask } | Op::InsertQbs { line, prefetched, mask } => {
            let qbs = matches!(op, Op::InsertQbs { .. }) && field.is_some();
            let was_resident = old.cache.contains(line);
            let fill = new.fill(line, prefetched, mask, qbs);
            let ev = if qbs {
                let map = &old.holders;
                let protected = |l: u64| map.get(&l).is_some_and(|&m| m != 0);
                old.cache.insert_qbs(line, prefetched, mask, &protected)
            } else {
                old.cache.insert(line, prefetched, mask)
            };
            let ev = old.evicted(ev);
            same(op, "fill", (fill.was_resident, fill.evicted), (was_resident, ev))?;
            same(op, "fill way", Some(fill.way), new.way_of(line))?;
        }
        Op::Hold { line, holders } => {
            if let (Some(field), Some(way)) = (field, new.way_of(line)) {
                new.set_holders(way, holders & field);
                old.holders.insert(line, holders & field);
            }
        }
        Op::Invalidate(l) => {
            let ev = old.cache.invalidate_line(l);
            same(op, "invalidate_line", new.invalidate_line(l), old.evicted(ev))?
        }
        Op::MarkDirty(l) => {
            new.mark_dirty(l);
            old.cache.mark_dirty(l);
        }
        Op::Flush => {
            new.flush();
            old.cache.flush();
            old.holders.clear();
        }
    }
    same(op, "stats", new.stats, old.cache.stats)?;
    for &l in lines {
        same(op, &format!("contains({l})"), new.contains(l), old.cache.contains(l))?;
        if field.is_some() {
            let column = new.way_of(l).map(|w| new.holders(w));
            let map = old.cache.contains(l).then(|| old.holders.get(&l).copied().unwrap_or(0));
            same(op, &format!("holders({l})"), column, map)?;
        }
    }
    for set in 0..HOT_SETS.min(new.sets()) {
        same(
            op,
            &format!("set_occupancy({set})"),
            new.set_occupancy(set),
            old.cache.set_occupancy(set),
        )?;
    }
    Ok(())
}

/// Runs `ops` on a compact cache (with a holder column for `holder_cores`
/// cores, if given) and on the oracle.
fn run(geom: CacheGeometry, holder_cores: Option<usize>, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut new = match holder_cores {
        Some(cores) => Cache::with_holders(geom, cores),
        None => Cache::new(geom),
    };
    let field = holder_cores.map(|c| u64::MAX >> (64 - c));
    let mut old = Reference { cache: oracle::Cache::new(geom), holders: HashMap::new() };
    assert_eq!((new.sets(), new.ways()), (old.cache.sets(), old.cache.ways()));
    let lines = universe(geom);
    for (i, &op) in ops.iter().enumerate() {
        step(&mut new, &mut old, field, op, &lines)
            .map_err(|e| TestCaseError::fail(format!("op {i}: {e}")))?;
    }
    Ok(())
}

fn l1_like() -> CacheGeometry {
    SystemConfig::scaled(1).l1
}

fn tiny() -> CacheGeometry {
    CacheGeometry { size_bytes: 4 * 2 * 64, ways: 2, hit_latency: 1 }
}

fn llc_20way() -> CacheGeometry {
    SystemConfig::scaled(1).llc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compact_matches_oracle_on_l1_geometry(ops in proptest::collection::vec(arb_op(l1_like(), HOT_SETS), 1500)) {
        run(l1_like(), None, &ops)?;
    }

    #[test]
    fn compact_matches_oracle_on_tiny_geometry(ops in proptest::collection::vec(arb_op(tiny(), HOT_SETS), 1500)) {
        run(tiny(), Some(2), &ops)?;
    }

    #[test]
    fn compact_matches_oracle_on_20_way_llc(ops in proptest::collection::vec(arb_op(llc_20way(), HOT_SETS), 1500)) {
        run(llc_20way(), Some(32), &ops)?;
    }
}

/// One set touched well past the 14-bit per-set clock, so the compact
/// cache renumbers its stamps, with the set partly invalid, dirty and
/// prefetched lines in it, and masked and QBS victim choices reading the
/// renumbered order. No flush, which would reset the clock.
#[test]
fn compact_matches_oracle_through_clock_renumbering() {
    for (geom, holder_cores) in [(l1_like(), None), (llc_20way(), Some(32))] {
        let strategy = arb_op(geom, 1);
        let mut rng = TestRng::new(0x5E7_C10C);
        let ops: Vec<Op> = std::iter::repeat_with(|| strategy.generate(&mut rng))
            .filter(|op| !matches!(op, Op::Flush))
            .take(4 << 14)
            .collect();
        // Every insert takes a tick of the set's clock, hit or fill.
        let ticks =
            ops.iter().filter(|op| matches!(op, Op::Insert { .. } | Op::InsertQbs { .. })).count();
        assert!(ticks > 1 << 14, "only {ticks} ticks of the set's clock");
        if let Err(e) = run(geom, holder_cores, &ops) {
            panic!("{geom:?}: {e:?}");
        }
    }
}
