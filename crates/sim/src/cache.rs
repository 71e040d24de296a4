//! Generic set-associative cache with LRU replacement and CAT-style
//! way-masked allocation.
//!
//! One [`Cache`] instance models any of L1D, L2 or the shared LLC; the
//! level-specific behaviour (who triggers which prefetcher, inclusive
//! back-invalidation) lives in [`crate::core_model`], [`crate::presence`]
//! and [`crate::system`].
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
//! ## Holder column and QBS
//!
//! A cache built with [`Cache::with_holders`] (the LLC) keeps one more
//! field per way: the bitmask of socket-local cores whose private L2
//! holds the way's line, maintained by [`crate::presence::Llc`]. A
//! [`Cache::fill`] with Query-Based Selection reads those masks in the
//! same pass that scans the set's tags and stamps, and victimises the LRU
//! usable way no L2 holds, else the plain LRU usable way. Caches built
//! with [`Cache::new`] (L1 and L2) allocate no column.
//!
//! ## Storage
//!
//! Each way costs 10 bytes: its exact `u64` line tag and one `u16` of
//! metadata, whose high 14 bits are an LRU stamp and whose low 2 bits are
//! the prefetched and dirty flags. The holder column, where it exists,
//! packs each way's mask into `u64` words at the socket's core count
//! rounded up to a power of two bits: 1 bit per way on a 1-core socket,
//! 4 bytes on a 32-core one. Each set adds a `u16` LRU clock. LRU
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
    /// The line's way: its index into the tag store (see [`Cache::way_of`]).
    pub way: usize,
}

/// A line pushed out by [`Cache::fill`] or removed by
/// [`Cache::invalidate_line`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line number of the victim.
    pub line: u64,
    /// The victim held modified data and must be written back.
    pub dirty: bool,
    /// The victim was prefetched and never demand-touched (wasted prefetch).
    pub unused_prefetch: bool,
    /// The victim's holder mask; always 0 in a cache without the column.
    pub holders: u64,
}

/// What [`Cache::fill`] did with a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fill {
    /// The line's way: its index into the tag store (see [`Cache::way_of`]).
    pub way: usize,
    /// The line was already resident, so only its recency was refreshed.
    pub was_resident: bool,
    /// The line pushed out to make room, if any.
    pub evicted: Option<Eviction>,
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
    /// Holder masks parallel to `tags` (bit *i* = socket-local core *i*'s
    /// L2 holds the line; zero when invalid), `1 << holder_log` bits per
    /// way packed into words; empty when the cache has no holder column.
    holders: Vec<u64>,
    /// log2 of the bits in one way's holder mask (0..=6).
    holder_log: u32,
    /// The low `1 << holder_log` bits: one way's field in a word.
    holder_field: u64,
    /// Per-set LRU clock: the last stamp handed out in that set.
    clocks: Vec<u16>,
    /// Counters; public for tests and diagnostics.
    pub stats: CacheStats,
}

impl Cache {
    /// Builds an empty cache with the given geometry and no holder column.
    pub fn new(geom: CacheGeometry) -> Self {
        Self::build(geom, None)
    }

    /// Builds an empty cache with a holder column wide enough for
    /// `cores` (1..=64) holders, as the LLC needs for Query-Based
    /// Selection and targeted back-invalidation.
    pub fn with_holders(geom: CacheGeometry, cores: usize) -> Self {
        assert!((1..=64).contains(&cores), "holder masks are 1 to 64 bits wide");
        Self::build(geom, Some(cores.next_power_of_two().trailing_zeros()))
    }

    fn build(geom: CacheGeometry, holder_log: Option<u32>) -> Self {
        geom.validate();
        let sets = geom.sets();
        let ways = geom.ways as usize;
        let n = (sets as usize) * ways;
        let log = holder_log.unwrap_or(6);
        Cache {
            sets,
            ways,
            set_mask: sets - 1,
            tags: vec![INVALID_TAG; n],
            meta: vec![0; n],
            holders: match holder_log {
                Some(log) => vec![0; (n << log).div_ceil(64)],
                None => Vec::new(),
            },
            holder_log: log,
            holder_field: u64::MAX >> (64 - (1 << log)),
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

    /// The way holding `line`, as an index into the tag store, if the
    /// line is resident. Does not disturb LRU or statistics.
    #[inline(always)]
    pub fn way_of(&self, line: u64) -> Option<usize> {
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
        self.way_of(line).is_some()
    }

    /// The word holding `way`'s holder mask, and the mask's shift in it.
    #[inline(always)]
    fn holder_slot(&self, way: usize) -> (usize, u32) {
        let per_word_log = 6 - self.holder_log;
        (way >> per_word_log, ((way & ((1 << per_word_log) - 1)) as u32) << self.holder_log)
    }

    /// Holder mask of `way` (a [`Cache::way_of`] index). Panics without a
    /// holder column.
    #[inline(always)]
    pub fn holders(&self, way: usize) -> u64 {
        let (word, shift) = self.holder_slot(way);
        (self.holders[word] >> shift) & self.holder_field
    }

    /// Replaces the holder mask of `way` (a [`Cache::way_of`] index) and
    /// returns the old one. Panics without a holder column.
    #[inline(always)]
    pub fn set_holders(&mut self, way: usize, mask: u64) -> u64 {
        debug_assert!(mask & !self.holder_field == 0, "mask {mask:#x} is wider than the column");
        let (word, shift) = self.holder_slot(way);
        let w = &mut self.holders[word];
        let old = (*w >> shift) & self.holder_field;
        *w ^= (old ^ mask) << shift;
        old
    }

    /// Clears and returns the holder mask of `way`; 0 without a column.
    #[inline(always)]
    fn take_holders(&mut self, way: usize) -> u64 {
        if self.holders.is_empty() {
            0
        } else {
            self.set_holders(way, 0)
        }
    }

    /// Demand access. On a hit, updates LRU, clears the prefetched bit and
    /// reports whether this was the first use of a prefetched line.
    pub fn access(&mut self, line: u64) -> Option<HitInfo> {
        match self.way_of(line) {
            Some(idx) => {
                let stamp = self.tick(self.set_of(line));
                let m = self.meta[idx];
                let first_use = m & FLAG_PREFETCHED != 0;
                self.meta[idx] = stamp | (m & FLAG_DIRTY);
                if first_use {
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
        let hit = self.way_of(line).is_some();
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Marks a resident line dirty (no-op if absent).
    pub fn mark_dirty(&mut self, line: u64) {
        if let Some(idx) = self.way_of(line) {
            self.mark_dirty_at(idx);
        }
    }

    /// Marks the line in `way` (a [`Cache::way_of`] index) dirty.
    #[inline(always)]
    pub(crate) fn mark_dirty_at(&mut self, way: usize) {
        self.meta[way] |= FLAG_DIRTY;
    }

    /// Removes a line (inclusive back-invalidation). Returns the removed
    /// line's state if it was resident, so callers can write back dirty
    /// data.
    pub fn invalidate_line(&mut self, line: u64) -> Option<Eviction> {
        if let Some(idx) = self.way_of(line) {
            let m = self.meta[idx];
            let unused_prefetch = m & FLAG_PREFETCHED != 0;
            if unused_prefetch {
                self.stats.prefetch_wasted += 1;
            }
            self.tags[idx] = INVALID_TAG;
            self.meta[idx] = 0;
            let holders = self.take_holders(idx);
            Some(Eviction { line, dirty: m & FLAG_DIRTY != 0, unused_prefetch, holders })
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
    #[inline]
    pub fn insert(&mut self, line: u64, prefetched: bool, alloc_mask: u64) -> Option<Eviction> {
        self.place::<false>(line, prefetched, alloc_mask).evicted
    }

    /// [`Cache::insert`] that also reports the line's way and whether it
    /// was already resident. With `qbs` (Query-Based Selection, which
    /// needs the holder column) the victim is the LRU usable way whose
    /// holder mask is 0, else the plain LRU usable way. A newly placed
    /// line starts with holder mask 0; the victim's mask leaves in its
    /// [`Eviction`].
    #[inline]
    pub fn fill(&mut self, line: u64, prefetched: bool, alloc_mask: u64, qbs: bool) -> Fill {
        if qbs {
            self.place::<true>(line, prefetched, alloc_mask)
        } else {
            self.place::<false>(line, prefetched, alloc_mask)
        }
    }

    #[inline(always)]
    fn place<const QBS: bool>(&mut self, line: u64, prefetched: bool, alloc_mask: u64) -> Fill {
        assert!(!QBS || !self.holders.is_empty(), "QBS reads the holder column");
        let set = self.set_of(line);
        let base = set * self.ways;
        let usable = alloc_mask & Self::low_ways_mask(self.ways);
        debug_assert!(usable != 0, "allocation mask selects no way");

        // Single packed pass over the set: detect a hit on `line`, track
        // the LRU (min-stamp) usable way and, under QBS, the LRU usable way
        // no L2 holds. Metadata compares as a whole: the stamp sits above
        // the flags and valid stamps are distinct. An invalid way has
        // metadata 0 and no holders, below every valid way, so the first
        // usable invalid way wins both. Keys widen to `u32` so a stamp at
        // the top of the range still beats the sentinel.
        let mut lru = (u32::MAX, usize::MAX);
        let mut free = (u32::MAX, usize::MAX);
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
                return Fill { way: idx, was_resident: true, evicted: None };
            }
            if usable & (1 << w) != 0 {
                let key = u32::from(meta[w]);
                if key < lru.0 {
                    lru = (key, w);
                }
                if QBS && key < free.0 && self.holders(base + w) == 0 {
                    free = (key, w);
                }
            }
        }
        let w = if free.1 != usize::MAX { free.1 } else { lru.1 };
        assert!(w != usize::MAX, "allocation mask selects no way");
        let idx = base + w;

        let evicted = if self.tags[idx] != INVALID_TAG {
            let m = self.meta[idx];
            let unused_prefetch = m & FLAG_PREFETCHED != 0;
            if unused_prefetch {
                self.stats.prefetch_wasted += 1;
            }
            self.stats.evictions += 1;
            Some(Eviction {
                line: self.tags[idx],
                dirty: m & FLAG_DIRTY != 0,
                unused_prefetch,
                holders: self.take_holders(idx),
            })
        } else {
            None
        };

        let stamp = self.tick(set);
        self.tags[idx] = line;
        self.meta[idx] = stamp | if prefetched { FLAG_PREFETCHED } else { 0 };
        self.stats.insertions += 1;
        Fill { way: idx, was_resident: false, evicted }
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
        self.holders.fill(0);
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
    /// snapshot of it: 10 bytes per way plus 2 per set, and in the LLC a
    /// holder mask per way as wide as the socket's core count rounded up
    /// to a power of two. L1 and L2 allocate no holder column.
    #[test]
    fn tag_store_costs_ten_bytes_per_way_and_two_per_set_plus_llc_holders() {
        let heap = |c: &Cache| {
            // Exhaustive, so a new per-way or per-set vector must be counted here.
            let Cache {
                sets: _,
                ways: _,
                set_mask: _,
                tags,
                meta,
                holders,
                holder_log: _,
                holder_field: _,
                clocks,
                stats: _,
            } = c;
            (tags.capacity() * std::mem::size_of::<u64>()
                + meta.capacity() * std::mem::size_of::<u16>()
                + holders.capacity() * std::mem::size_of::<u64>()
                + clocks.capacity() * std::mem::size_of::<u16>()) as u64
        };
        let cfg = crate::config::SystemConfig::scaled(8);
        let (lines, sets) = (cfg.llc.lines(), cfg.llc.sets());
        assert_eq!(lines, 40_960);
        for geom in [cfg.l1, cfg.l2] {
            assert_eq!(heap(&Cache::new(geom)), 10 * geom.lines() + 2 * geom.sets(), "{geom:?}");
        }
        assert_eq!(heap(&Cache::new(cfg.llc)), 10 * lines + 2 * sets);
        // (cores per socket, holder bits per way)
        for (cores, bits) in [(1, 1), (2, 2), (8, 8), (12, 16), (32, 32), (64, 64)] {
            let c = Cache::with_holders(cfg.llc, cores);
            assert_eq!(heap(&c), 10 * lines + 2 * sets + bits * lines / 8, "{cores} cores");
        }
    }

    /// Neighbouring ways share a word of the packed column; setting one
    /// mask leaves the others alone, at every width.
    #[test]
    fn packed_holder_masks_are_independent() {
        let geom = CacheGeometry { size_bytes: 4 * 4 * 64, ways: 4, hit_latency: 1 };
        for cores in [1, 3, 8, 17, 64] {
            let mut c = Cache::with_holders(geom, cores);
            let full = u64::MAX >> (64 - cores);
            for way in 0..16 {
                assert_eq!(c.set_holders(way, full ^ (way as u64 & full)), 0);
            }
            for way in 0..16 {
                assert_eq!(c.holders(way), full ^ (way as u64 & full), "{cores} cores, way {way}");
            }
        }
    }

    #[test]
    fn qbs_fill_spares_held_ways_until_all_are_held() {
        let geom = CacheGeometry { size_bytes: 4 * 4 * 64, ways: 4, hit_latency: 1 };
        let mut c = Cache::with_holders(geom, 2);
        let ways: Vec<usize> =
            (0..4).map(|i| c.fill(set0_line(i), false, u64::MAX, true).way).collect();
        // Lines 0 and 1 are the two LRU ways; an L2 holds line 0.
        c.set_holders(ways[0], 0b10);
        let f = c.fill(set0_line(4), false, u64::MAX, true);
        assert_eq!(f.evicted.map(|e| (e.line, e.holders)), Some((set0_line(1), 0)));
        assert_eq!((f.way, f.was_resident, c.holders(f.way)), (ways[1], false, 0));
        // Every usable way held: the plain LRU way goes, with its mask.
        for &w in &ways {
            c.set_holders(w, c.holders(w) | 1);
        }
        let f = c.fill(set0_line(5), false, 0b0101, true);
        assert_eq!(f.evicted.map(|e| (e.line, e.holders)), Some((set0_line(0), 0b11)));
        assert_eq!(c.holders(f.way), 0, "a new line starts unheld");
        // A resident line is only refreshed and keeps its mask.
        let f = c.fill(set0_line(2), true, u64::MAX, true);
        assert_eq!((f.way, f.was_resident, f.evicted, c.holders(f.way)), (ways[2], true, None, 1));
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
