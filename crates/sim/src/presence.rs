//! L2-holder tracking for the inclusive LLC: Query-Based Selection and
//! targeted inclusive back-invalidation.
//!
//! Broadwell's inclusive LLC implements *Query Based Selection* (Jaleel et
//! al., MICRO'10: "Achieving Non-Inclusive Cache Performance with Inclusive
//! Caches"): before evicting an LLC victim, the LLC queries whether the
//! line is resident in any core's private caches and prefers victims that
//! are not. Without QBS, a pure-LRU inclusive LLC systematically destroys
//! L1/L2-resident working sets — their LLC copies are never re-touched
//! (all hits are absorbed privately), so they always look coldest exactly
//! when a streaming neighbour churns the cache.
//!
//! Instead of probing every core's L2 on each eviction, the simulator
//! keeps, per line, a bitmask of which socket-local L2 caches hold it
//! (L1 contents are a subset of L2 in this hierarchy). Each mask lives in
//! exactly one of two places:
//!
//! * in the line's LLC way, in the tag store's holder column
//!   ([`Cache::with_holders`]), whenever the LLC holds the line. QBS reads
//!   these masks from the set it is already scanning, so picking a victim
//!   costs no lookup;
//! * in the *orphan* table (`Presence`) when some L2 holds a line the
//!   LLC does not. That happens inside the deferred back-invalidation
//!   window (between an LLC eviction and the quantum boundary that
//!   back-invalidates the victim's holders), and when an LLC-hit prefetch
//!   lands in an L2 after its LLC copy has left.
//!
//! [`Llc`] pairs the two and keeps every mask in its place.
//! [`Llc::fill`] is the one LLC insert path: the victim's mask moves into
//! the orphan table and the new line takes its mask from there. L2 fills
//! and evictions update masks through [`Llc::add_holder`] and
//! [`Llc::drop_holder`]; back-invalidation reads and clears them through
//! [`Llc::take_holders`], so [`crate::system::System::run`] walks only the
//! cores that actually hold a copy instead of broadcasting to all.
//!
//! The orphan table is a purpose-built open-addressing table rather than
//! `std::HashMap`: u64 keys, Fibonacci multiplicative hashing (no
//! SipHash), linear probing, and backward-shift deletion (no tombstones).
//! It holds few lines, and while it is empty no lookup reaches it.

use crate::cache::{Cache, Fill, HitInfo};
use crate::config::CacheGeometry;

/// A socket's LLC: the tag store with its holder column, and the orphan
/// table for lines some L2 holds that the tag store does not.
#[derive(Clone)]
pub struct Llc {
    cache: Cache,
    orphans: Presence,
}

impl Llc {
    /// An empty LLC with the given geometry, shared by `cores` (1..=64)
    /// socket-local cores.
    pub fn new(geom: CacheGeometry, cores: usize) -> Self {
        Llc { cache: Cache::with_holders(geom, cores), orphans: Presence::new() }
    }

    /// The tag store (read-only: masks change only through `Llc`).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Demand access; see [`Cache::access`].
    #[inline(always)]
    pub(crate) fn access(&mut self, line: u64) -> Option<HitInfo> {
        self.cache.access(line)
    }

    /// Prefetch probe; see [`Cache::probe_for_prefetch`].
    #[inline(always)]
    pub(crate) fn probe_for_prefetch(&mut self, line: u64) -> bool {
        self.cache.probe_for_prefetch(line)
    }

    /// Inserts `line` on behalf of socket-local core `core` (see
    /// [`Cache::fill`]). A newly placed line takes its holders from the
    /// orphan table; the victim's holders other than `core` move there.
    /// The returned eviction keeps the victim's full mask, so the caller
    /// drops its own private copies when its bit is set.
    #[inline]
    pub(crate) fn fill(
        &mut self,
        line: u64,
        prefetched: bool,
        alloc_mask: u64,
        qbs: bool,
        core: usize,
    ) -> Fill {
        let fill = self.cache.fill(line, prefetched, alloc_mask, qbs);
        if !fill.was_resident && !self.orphans.is_empty() {
            self.cache.set_holders(fill.way, self.orphans.take(line));
        }
        if let Some(ev) = fill.evicted {
            self.orphans.put(ev.line, ev.holders & !(1 << core));
        }
        fill
    }

    /// Core `core`'s L2 gained `line`. `way` is the line's LLC way when
    /// the caller already found it; otherwise the set is scanned.
    #[inline]
    pub(crate) fn add_holder(&mut self, line: u64, way: Option<usize>, core: usize) {
        debug_assert!(way.is_none() || way == self.cache.way_of(line), "stale way for {line}");
        match way.or_else(|| self.cache.way_of(line)) {
            Some(w) => {
                let mask = self.cache.holders(w);
                debug_assert!(mask & (1 << core) == 0, "core {core} already holds line {line}");
                self.cache.set_holders(w, mask | 1 << core);
            }
            None => self.orphans.inc(line, core),
        }
    }

    /// Core `core`'s L2 evicted `line`; a `dirty` copy marks the LLC's
    /// copy dirty, if the LLC still holds one.
    #[inline]
    pub(crate) fn drop_holder(&mut self, line: u64, core: usize, dirty: bool) {
        match self.cache.way_of(line) {
            Some(w) => {
                let mask = self.cache.holders(w);
                debug_assert!(mask & (1 << core) != 0, "core {core} does not hold line {line}");
                self.cache.set_holders(w, mask & !(1 << core));
                if dirty {
                    self.cache.mark_dirty_at(w);
                }
            }
            None => self.orphans.dec(line, core),
        }
    }

    /// Clears and returns the holders of `line`, whose private copies the
    /// caller is about to back-invalidate.
    #[inline]
    pub(crate) fn take_holders(&mut self, line: u64) -> u64 {
        if !self.orphans.is_empty() {
            let mask = self.orphans.take(line);
            if mask != 0 {
                return mask;
            }
        }
        self.cache.way_of(line).map_or(0, |w| self.cache.set_holders(w, 0))
    }

    /// Bitmask of socket-local cores whose L2 holds `line`.
    pub fn holders(&self, line: u64) -> u64 {
        match self.cache.way_of(line) {
            Some(w) => self.cache.holders(w),
            None => self.orphans.holders(line),
        }
    }

    /// Number of orphan lines: held by some L2, absent from the tag store.
    #[cfg(test)]
    pub(crate) fn orphans(&self) -> usize {
        self.orphans.len
    }
}

/// Sentinel for an empty slot. Line numbers are `addr >> 6`, so `u64::MAX`
/// can never be a real key.
const EMPTY: u64 = u64::MAX;

/// The orphan table: per-line bitmask of the private L2 caches holding a
/// line the LLC does not hold.
#[derive(Debug, Clone)]
pub(crate) struct Presence {
    /// Slot keys (line numbers), `EMPTY` when vacant.
    keys: Vec<u64>,
    /// Holder bitmasks parallel to `keys`; bit *i* = core *i*'s L2.
    masks: Vec<u64>,
    /// Occupied slot count.
    len: usize,
    /// `keys.len() - 1`; capacity is always a power of two.
    index_mask: usize,
}

impl Default for Presence {
    fn default() -> Self {
        Presence::new()
    }
}

impl Presence {
    /// Empty table. Orphans are few, so it starts small and grows.
    pub fn new() -> Self {
        Self::with_capacity_pow2(1 << 8)
    }

    fn with_capacity_pow2(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        Presence { keys: vec![EMPTY; cap], masks: vec![0; cap], len: 0, index_mask: cap - 1 }
    }

    /// Fibonacci multiplicative hash: multiply by 2^64/φ and keep the high
    /// bits, which mixes low-entropy line numbers well and costs one
    /// multiply — the whole point of not using the default SipHash.
    #[inline(always)]
    fn slot_of(&self, line: u64) -> usize {
        let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.index_mask
    }

    #[inline(always)]
    fn probe(&self, line: u64) -> Result<usize, usize> {
        let mut i = self.slot_of(line);
        loop {
            let k = self.keys[i];
            if k == line {
                return Ok(i);
            }
            if k == EMPTY {
                return Err(i);
            }
            i = (i + 1) & self.index_mask;
        }
    }

    /// Core `core`'s private L2 gained a copy of `line`.
    #[inline]
    pub fn inc(&mut self, line: u64, core: usize) {
        debug_assert!(core < 64, "holder mask is 64 bits wide");
        match self.probe(line) {
            Ok(i) => {
                debug_assert!(
                    self.masks[i] & (1 << core) == 0,
                    "core {core} already holds line {line}"
                );
                self.masks[i] |= 1 << core;
            }
            Err(i) => self.occupy(i, line, 1 << core),
        }
    }

    /// Records `mask` as the holders of `line`, which the table must not
    /// hold yet. A zero mask records nothing.
    #[inline]
    pub fn put(&mut self, line: u64, mask: u64) {
        if mask == 0 {
            return;
        }
        match self.probe(line) {
            Ok(_) => debug_assert!(false, "line {line} is already an orphan"),
            Err(i) => self.occupy(i, line, mask),
        }
    }

    fn occupy(&mut self, slot: usize, line: u64, mask: u64) {
        self.keys[slot] = line;
        self.masks[slot] = mask;
        self.len += 1;
        // Keep load factor below 1/2 so probe chains stay short.
        if self.len * 2 > self.keys.len() {
            self.grow();
        }
    }

    /// Core `core`'s private L2 lost its copy of `line`.
    #[inline]
    pub fn dec(&mut self, line: u64, core: usize) {
        match self.probe(line) {
            Ok(i) => {
                debug_assert!(
                    self.masks[i] & (1 << core) != 0,
                    "core {core} does not hold line {line}"
                );
                self.masks[i] &= !(1 << core);
                if self.masks[i] == 0 {
                    self.remove_slot(i);
                }
            }
            Err(_) => debug_assert!(false, "presence underflow for line {line}"),
        }
    }

    /// Removes `line` and returns its holders (0 if it was not held).
    #[inline]
    pub fn take(&mut self, line: u64) -> u64 {
        match self.probe(line) {
            Ok(i) => {
                let mask = self.masks[i];
                self.remove_slot(i);
                mask
            }
            Err(_) => 0,
        }
    }

    /// Bitmask of cores whose private caches hold `line` (bit *i* = core
    /// *i*).
    #[inline(always)]
    pub fn holders(&self, line: u64) -> u64 {
        match self.probe(line) {
            Ok(i) => self.masks[i],
            Err(_) => 0,
        }
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Backward-shift deletion: re-seat the following probe-chain entries
    /// so lookups never need tombstones.
    fn remove_slot(&mut self, mut hole: usize) {
        self.keys[hole] = EMPTY;
        self.masks[hole] = 0;
        self.len -= 1;
        let mut i = (hole + 1) & self.index_mask;
        while self.keys[i] != EMPTY {
            let home = self.slot_of(self.keys[i]);
            // Shift back only entries whose home slot does not sit in the
            // (cyclic) interval (hole, i]; those can still be found.
            let in_interval =
                if hole <= i { hole < home && home <= i } else { home > hole || home <= i };
            if !in_interval {
                self.keys[hole] = self.keys[i];
                self.masks[hole] = self.masks[i];
                self.keys[i] = EMPTY;
                self.masks[i] = 0;
                hole = i;
            }
            i = (i + 1) & self.index_mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let mut bigger = Presence::with_capacity_pow2(self.keys.len() * 2);
        for (i, &k) in self.keys.iter().enumerate() {
            if k != EMPTY {
                match bigger.probe(k) {
                    Ok(_) => unreachable!("duplicate key while rehashing"),
                    Err(slot) => {
                        bigger.keys[slot] = k;
                        bigger.masks[slot] = self.masks[i];
                        bigger.len += 1;
                    }
                }
            }
        }
        *self = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holder_mask_roundtrip() {
        let mut p = Presence::new();
        assert_eq!(p.holders(5), 0);
        p.inc(5, 0);
        assert_eq!(p.holders(5), 0b01);
        p.inc(5, 3);
        assert_eq!(p.holders(5), 0b1001);
        p.dec(5, 0);
        assert_eq!(p.holders(5), 0b1000);
        p.dec(5, 3);
        assert_eq!(p.holders(5), 0);
        assert!(p.is_empty());
    }

    #[test]
    fn independent_lines() {
        let mut p = Presence::new();
        p.inc(1, 0);
        p.inc(2, 1);
        p.dec(1, 0);
        assert_eq!(p.holders(1), 0);
        assert_eq!(p.holders(2), 0b10);
        assert_eq!(p.len, 1);
    }

    #[test]
    fn survives_growth() {
        let mut p = Presence::with_capacity_pow2(8);
        for line in 0..1000u64 {
            p.inc(line, (line % 4) as usize);
        }
        assert_eq!(p.len, 1000);
        for line in 0..1000u64 {
            assert_eq!(p.holders(line), 1 << (line % 4), "line {line}");
        }
        for line in 0..1000u64 {
            p.dec(line, (line % 4) as usize);
        }
        assert!(p.is_empty());
    }

    #[test]
    fn colliding_lines_found_after_deletion() {
        // Force collisions in a tiny table and delete from the middle of a
        // probe chain; backward-shift must keep the rest findable.
        let mut p = Presence::with_capacity_pow2(8);
        // With a 3-bit index the chance of chains is high among any handful
        // of keys; use many and check exhaustively.
        let lines = [3u64, 11, 19, 27];
        for &l in &lines {
            p.inc(l, 0);
        }
        p.dec(11, 0);
        assert_eq!(p.holders(11), 0);
        for &l in [3u64, 19, 27].iter() {
            assert_eq!(p.holders(l), 1, "line {l} lost after backward-shift deletion");
        }
    }

    #[test]
    fn put_and_take_move_whole_masks() {
        let mut p = Presence::with_capacity_pow2(8);
        p.put(9, 0);
        assert!(p.is_empty(), "a zero mask is no orphan");
        for line in 0..100u64 {
            p.put(line * 8, line | 1);
        }
        for line in 0..100u64 {
            assert_eq!(p.take(line * 8), line | 1);
        }
        assert_eq!(p.take(8), 0);
        assert!(p.is_empty());
    }

    #[test]
    fn same_core_reinsertion_after_eviction() {
        let mut p = Presence::new();
        p.inc(7, 2);
        p.dec(7, 2);
        p.inc(7, 2);
        assert_eq!(p.holders(7), 0b100);
    }
}
