//! Generic set-associative cache with LRU replacement and CAT-style
//! way-masked allocation.
//!
//! One [`Cache`] instance models any of L1D, L2 or the shared LLC; the
//! level-specific behaviour (who triggers which prefetcher, inclusive
//! back-invalidation) lives in [`crate::system`].
//!
//! ## CAT semantics
//!
//! Intel Cache Allocation Technology restricts only **allocation**: a core
//! whose class of service (CLOS) owns ways `{0,1}` may still *hit* on a
//! line that physically resides in way 7 — it just cannot victimise way 7
//! when it needs to insert. [`Cache::insert`] therefore takes an
//! `alloc_mask` limiting victim selection, while [`Cache::access`] searches
//! all ways unconditionally. This mirrors the hardware exactly and is what
//! makes *overlapping* partitions (used by the paper and by Dunn) work.
//!
//! ## Storage
//!
//! Each way costs 10 bytes: its exact `u64` line tag and one `u16` of
//! metadata, whose high 14 bits are an LRU stamp and whose low 2 bits are
//! the prefetched and dirty flags. Each set adds a `u16` LRU clock. LRU
//! order is only ever compared within one set, every touch of a valid way
//! takes a fresh tick of its set's clock (so the valid ways of a set hold
//! distinct stamps), and invalid ways are chosen before any stamp is
//! read. A per-set clock therefore picks the same victims as one
//! cache-wide counter would. When a set's clock would pass the 14-bit
//! range, `Cache::renumber` rewrites that set's valid stamps to `1..=k`
//! in the same order.

use crate::config::CacheGeometry;

const INVALID_TAG: u64 = u64::MAX;

const FLAG_PREFETCHED: u16 = 0b01;
const FLAG_DIRTY: u16 = 0b10;
/// Metadata bits below the LRU stamp.
const STAMP_SHIFT: u32 = 2;
const FLAG_MASK: u16 = (1 << STAMP_SHIFT) - 1;
/// Largest stamp a per-set clock hands out before it renumbers the set.
const STAMP_MAX: u16 = u16::MAX >> STAMP_SHIFT;

/// Result of a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitInfo {
    /// True if the line was brought in by a prefetch and this is the first
    /// demand touch since (the prefetched bit is cleared by that touch).
    /// Used for ground-truth prefetch-accuracy accounting.
    pub first_use_of_prefetch: bool,
}

/// A line pushed out by [`Cache::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line number of the victim.
    pub line: u64,
    /// The victim held modified data and must be written back.
    pub dirty: bool,
    /// The victim was prefetched and never demand-touched (wasted prefetch).
    pub unused_prefetch: bool,
}

/// Aggregate counters kept by each cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Demand hits that were the first touch of a prefetched line.
    pub prefetch_used: u64,
    /// Prefetched lines evicted without ever being demand-touched.
    pub prefetch_wasted: u64,
}

/// A set-associative, write-back, LRU cache.
#[derive(Clone)]
pub struct Cache {
    sets: u64,
    ways: usize,
    set_mask: u64,
    /// `sets * ways` tags (line numbers), row-major by set.
    tags: Vec<u64>,
    /// Metadata parallel to `tags`: the way's LRU stamp (larger = more
    /// recently used) above [`STAMP_SHIFT`] flag bits. Zero when invalid.
    meta: Vec<u16>,
    /// Per-set LRU clock: the last stamp handed out in that set.
    clocks: Vec<u16>,
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
            meta: vec![0; n],
            clocks: vec![0; sets as usize],
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
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    #[inline(always)]
    fn find(&self, line: u64) -> Option<usize> {
        let base = self.set_of(line) * self.ways;
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

    /// Takes a fresh tick of `set`'s LRU clock, shifted into stamp
    /// position.
    #[inline(always)]
    fn tick(&mut self, set: usize) -> u16 {
        let mut clock = self.clocks[set];
        if clock == STAMP_MAX {
            clock = self.renumber(set);
        }
        clock += 1;
        self.clocks[set] = clock;
        clock << STAMP_SHIFT
    }

    /// Rewrites the valid stamps of `set` to `1..=k` in their current
    /// order, keeping the flags, and returns `k`. Valid stamps are
    /// distinct, so the order, and every later victim, is unchanged.
    #[cold]
    #[inline(never)]
    fn renumber(&mut self, set: usize) -> u16 {
        let base = set * self.ways;
        let mut order: Vec<usize> =
            (base..base + self.ways).filter(|&i| self.tags[i] != INVALID_TAG).collect();
        order.sort_unstable_by_key(|&i| self.meta[i]);
        for (rank, &i) in (1..).zip(&order) {
            self.meta[i] = (rank << STAMP_SHIFT) | (self.meta[i] & FLAG_MASK);
        }
        order.len() as u16
    }

    /// True if the line is resident. Does not disturb LRU or statistics.
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Demand access. On a hit, updates LRU, clears the prefetched bit and
    /// reports whether this was the first use of a prefetched line.
    pub fn access(&mut self, line: u64) -> Option<HitInfo> {
        match self.find(line) {
            Some(idx) => {
                let stamp = self.tick(self.set_of(line));
                let m = self.meta[idx];
                let first_use = m & FLAG_PREFETCHED != 0;
                self.meta[idx] = stamp | (m & FLAG_DIRTY);
                if first_use {
                    self.stats.prefetch_used += 1;
                }
                self.stats.hits += 1;
                Some(HitInfo { first_use_of_prefetch: first_use })
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
            self.meta[idx] |= FLAG_DIRTY;
        }
    }

    /// Removes a line (inclusive back-invalidation). Returns the removed
    /// line's state if it was resident, so callers can write back dirty
    /// data.
    pub fn invalidate_line(&mut self, line: u64) -> Option<Eviction> {
        if let Some(idx) = self.find(line) {
            let m = self.meta[idx];
            let unused_prefetch = m & FLAG_PREFETCHED != 0;
            if unused_prefetch {
                self.stats.prefetch_wasted += 1;
            }
            self.tags[idx] = INVALID_TAG;
            self.meta[idx] = 0;
            Some(Eviction { line, dirty: m & FLAG_DIRTY != 0, unused_prefetch })
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
        let set = self.set_of(line);
        let base = set * self.ways;
        let usable = alloc_mask & Self::low_ways_mask(self.ways);
        debug_assert!(usable != 0, "allocation mask selects no way");

        // Single packed pass over the set: detect a hit on `line`, note the
        // first usable invalid way, and track the LRU (min-stamp) usable
        // way all in one sweep over the contiguous tag/metadata rows,
        // instead of a `find` pass followed by a victim-selection pass.
        // Metadata compares as a whole: the stamp sits above the flags and
        // valid stamps are distinct. Keys widen to `u32` so a stamp at the
        // top of the range still beats the sentinel.
        let mut invalid_way: Option<usize> = None;
        let mut lru_way = usize::MAX;
        let mut lru_key = u32::MAX;
        let tags = &self.tags[base..base + self.ways];
        let meta = &self.meta[base..base + self.ways];
        for (w, &t) in tags.iter().enumerate() {
            if t == line {
                // Already present (e.g. demand fill racing a prefetch
                // fill): refresh recency; never *set* the prefetched bit on
                // a line that a demand already claimed.
                let idx = base + w;
                let stamp = self.tick(set);
                let keep = if prefetched { FLAG_MASK } else { FLAG_DIRTY };
                self.meta[idx] = stamp | (self.meta[idx] & keep);
                return None;
            }
            if usable & (1 << w) != 0 {
                if t == INVALID_TAG && invalid_way.is_none() {
                    invalid_way = Some(w);
                }
                let key = u32::from(meta[w]);
                if key < lru_key {
                    lru_key = key;
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
                    let mut best_key = u32::MAX;
                    for w in 0..self.ways {
                        if usable & (1 << w) == 0 || tried & (1 << w) != 0 {
                            continue;
                        }
                        let key = u32::from(self.meta[base + w]);
                        if key < best_key {
                            best_key = key;
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
            let m = self.meta[idx];
            let unused_prefetch = m & FLAG_PREFETCHED != 0;
            if unused_prefetch {
                self.stats.prefetch_wasted += 1;
            }
            self.stats.evictions += 1;
            Some(Eviction { line: self.tags[idx], dirty: m & FLAG_DIRTY != 0, unused_prefetch })
        } else {
            None
        };

        let stamp = self.tick(set);
        self.tags[idx] = line;
        self.meta[idx] = stamp | if prefetched { FLAG_PREFETCHED } else { 0 };
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
        self.meta.fill(0);
        self.clocks.fill(0);
    }

    /// How many lines of the given set are currently valid. Test helper.
    pub fn set_occupancy(&self, set: u64) -> usize {
        let base = (set as usize) * self.ways;
        self.tags[base..base + self.ways].iter().filter(|&&t| t != INVALID_TAG).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 4 ways.
        Cache::new(CacheGeometry { size_bytes: 4 * 4 * 64, ways: 4, hit_latency: 1 })
    }

    /// Lines 0,4,8,... all map to set 0 of a 4-set cache.
    fn set0_line(i: u64) -> u64 {
        i * 4
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(c.access(10).is_none());
        c.insert(10, false, u64::MAX);
        assert!(c.access(10).is_some());
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        for i in 0..4 {
            c.insert(set0_line(i), false, u64::MAX);
        }
        // Touch lines 1..3 so line 0 is LRU.
        for i in 1..4 {
            assert!(c.access(set0_line(i)).is_some());
        }
        let ev = c.insert(set0_line(9), false, u64::MAX).expect("set full");
        assert_eq!(ev.line, set0_line(0));
    }

    #[test]
    fn masked_insert_only_victimises_masked_ways() {
        let mut c = small();
        // Fill all 4 ways of set 0.
        for i in 0..4 {
            c.insert(set0_line(i), false, u64::MAX);
        }
        // Insert 100 new lines restricted to way 0: the three lines that
        // landed in ways 1..3 must survive.
        let survivors: Vec<u64> = (1..4).map(set0_line).collect();
        for i in 10..110 {
            c.insert(set0_line(i), false, 0b0001);
        }
        let mut present = 0;
        for &l in &survivors {
            if c.contains(l) {
                present += 1;
            }
        }
        assert!(present >= 2, "masked inserts must not evict unmasked ways (kept {present}/3)");
        // At least the most recent masked insert is resident.
        assert!(c.contains(set0_line(109)));
    }

    #[test]
    fn hits_allowed_outside_alloc_mask() {
        let mut c = small();
        c.insert(set0_line(0), false, 0b1000); // way 3
                                               // A core restricted to way 0 still hits.
        assert!(c.access(set0_line(0)).is_some());
    }

    #[test]
    fn prefetched_bit_first_use_accounting() {
        let mut c = small();
        c.insert(7, true, u64::MAX);
        let h1 = c.access(7).unwrap();
        assert!(h1.first_use_of_prefetch);
        let h2 = c.access(7).unwrap();
        assert!(!h2.first_use_of_prefetch);
        assert_eq!(c.stats.prefetch_used, 1);
    }

    #[test]
    fn unused_prefetch_counted_on_eviction() {
        let mut c = small();
        c.insert(set0_line(0), true, 0b0001);
        c.insert(set0_line(1), false, 0b0001);
        assert_eq!(c.stats.prefetch_wasted, 1);
    }

    #[test]
    fn demand_fill_overrides_prefetch_bit_on_race() {
        let mut c = small();
        c.insert(9, true, u64::MAX);
        c.insert(9, false, u64::MAX); // demand fill of same line
        let h = c.access(9).unwrap();
        assert!(!h.first_use_of_prefetch);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        c.insert(set0_line(0), false, 0b0001);
        c.mark_dirty(set0_line(0));
        let ev = c.insert(set0_line(1), false, 0b0001).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.insert(42, false, u64::MAX);
        assert!(c.invalidate_line(42).is_some());
        assert!(!c.contains(42));
        assert!(c.invalidate_line(42).is_none());
    }

    #[test]
    fn invalidate_reports_dirty_state() {
        let mut c = small();
        c.insert(42, false, u64::MAX);
        c.mark_dirty(42);
        let ev = c.invalidate_line(42).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.line, 42);
    }

    #[test]
    fn prefetch_probe_does_not_consume_first_use() {
        let mut c = small();
        c.insert(5, true, u64::MAX);
        assert!(c.probe_for_prefetch(5));
        let h = c.access(5).unwrap();
        assert!(h.first_use_of_prefetch, "probe must not clear the prefetched bit");
    }

    /// The tag store is most of a many-core `System`'s memory and of every
    /// snapshot of it: 10 bytes per way plus 2 per set.
    #[test]
    fn scaled_llc_costs_ten_bytes_per_way_and_two_per_set() {
        let geom = crate::config::SystemConfig::scaled(8).llc;
        let c = Cache::new(geom);
        // Exhaustive, so a new per-way or per-set vector must be counted here.
        let Cache { sets: _, ways: _, set_mask: _, tags, meta, clocks, stats: _ } = &c;
        let heap = tags.capacity() * std::mem::size_of::<u64>()
            + meta.capacity() * std::mem::size_of::<u16>()
            + clocks.capacity() * std::mem::size_of::<u16>();
        assert_eq!(geom.lines(), 40_960);
        assert_eq!(heap as u64, 10 * geom.lines() + 2 * geom.sets());
    }

    /// Tags stay exact `u64`s: a 1024-core machine puts line numbers above
    /// 2^32, and two lines differing only there must not alias.
    #[test]
    fn tags_above_32_bits_stay_distinct() {
        let mut c = small();
        let (lo, hi) = (set0_line(1), set0_line(1) | 1 << 40);
        c.insert(lo, false, u64::MAX);
        assert!(!c.contains(hi));
        c.insert(hi, false, u64::MAX);
        assert!(c.contains(lo) && c.contains(hi));
        assert_eq!(c.set_occupancy(0), 2);
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = small();
        assert_eq!(c.set_occupancy(0), 0);
        c.insert(set0_line(0), false, u64::MAX);
        c.insert(set0_line(1), false, u64::MAX);
        assert_eq!(c.set_occupancy(0), 2);
        c.flush();
        assert_eq!(c.set_occupancy(0), 0);
    }
}
