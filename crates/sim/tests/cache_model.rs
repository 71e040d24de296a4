//! Property tests: the set-associative cache against a naive reference
//! model, plus structural invariants under arbitrary operation sequences.

use cmm_sim::cache::Cache;
use cmm_sim::config::CacheGeometry;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Naive fully-explicit LRU reference: per set, a recency queue of lines.
struct RefCache {
    sets: u64,
    ways: usize,
    /// Per-set recency order, most-recent last.
    q: Vec<VecDeque<u64>>,
}

impl RefCache {
    fn new(sets: u64, ways: usize) -> Self {
        RefCache { sets, ways, q: (0..sets).map(|_| VecDeque::new()).collect() }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets) as usize
    }

    fn access(&mut self, line: u64) -> bool {
        let s = self.set_of(line);
        if let Some(pos) = self.q[s].iter().position(|&l| l == line) {
            let l = self.q[s].remove(pos).unwrap();
            self.q[s].push_back(l);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, line: u64) -> Option<u64> {
        let s = self.set_of(line);
        if let Some(pos) = self.q[s].iter().position(|&l| l == line) {
            let l = self.q[s].remove(pos).unwrap();
            self.q[s].push_back(l);
            return None;
        }
        let evicted = if self.q[s].len() == self.ways { self.q[s].pop_front() } else { None };
        self.q[s].push_back(line);
        evicted
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    Insert(u64),
    Invalidate(u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..256).prop_map(Op::Access),
            (0u64..256).prop_map(Op::Insert),
            (0u64..256).prop_map(Op::Invalidate),
        ],
        1..400,
    )
}

proptest! {
    /// With the full allocation mask and no QBS protection the cache must
    /// behave exactly like textbook per-set LRU.
    #[test]
    fn matches_reference_lru(ops in arb_ops()) {
        // 8 sets × 4 ways.
        let geom = CacheGeometry { size_bytes: 8 * 4 * 64, ways: 4, hit_latency: 1 };
        let mut cache = Cache::new(geom);
        let mut reference = RefCache::new(8, 4);
        for op in ops {
            match op {
                Op::Access(l) => {
                    prop_assert_eq!(cache.access(l).is_some(), reference.access(l), "access {}", l);
                }
                Op::Insert(l) => {
                    let ev = cache.insert(l, false, u64::MAX).map(|e| e.line);
                    let ev_ref = reference.insert(l);
                    prop_assert_eq!(ev, ev_ref, "insert {}", l);
                }
                Op::Invalidate(l) => {
                    let s = reference.set_of(l);
                    let present = reference.q[s].iter().position(|&x| x == l);
                    if let Some(pos) = present {
                        reference.q[s].remove(pos);
                    }
                    prop_assert_eq!(cache.invalidate_line(l).is_some(), present.is_some());
                }
            }
        }
        // Final contents agree.
        for l in 0u64..256 {
            let s = reference.set_of(l);
            prop_assert_eq!(cache.contains(l), reference.q[s].contains(&l), "line {}", l);
        }
    }

    /// Lines inserted under a restricted mask never push out more lines
    /// than the mask has ways, and hits remain possible on every resident
    /// line regardless of mask.
    #[test]
    fn masked_inserts_bounded_by_mask_width(
        lines in proptest::collection::vec(0u64..64, 1..100),
        mask_width in 1u32..4,
    ) {
        let geom = CacheGeometry { size_bytes: 8 * 4 * 64, ways: 4, hit_latency: 1 };
        let mut cache = Cache::new(geom);
        let mask = (1u64 << mask_width) - 1;
        for &l in &lines {
            cache.insert(l, false, mask);
        }
        // Per set, at most mask_width of the inserted lines can survive.
        for set in 0..8u64 {
            let resident = (0..64u64)
                .filter(|l| l % 8 == set && cache.contains(*l))
                .count();
            prop_assert!(resident <= mask_width as usize, "set {set}: {resident} lines");
        }
    }

    /// QBS: protected lines survive any volume of unprotected churn as
    /// long as one unprotected victim exists.
    #[test]
    fn qbs_protects_resident_lines(churn in proptest::collection::vec(0u64..512, 10..200)) {
        let geom = CacheGeometry { size_bytes: 8 * 4 * 64, ways: 4, hit_latency: 1 };
        let mut cache = Cache::with_holders(geom, 1);
        // Two held lines per set would still leave 2 ways of churn room.
        for l in 0..16u64 {
            // lines 0..16: two per set, each held by an L2
            let way = cache.fill(l, false, u64::MAX, true).way;
            cache.set_holders(way, 1);
        }
        for &l in &churn {
            cache.fill(l + 16, false, u64::MAX, true);
        }
        for l in 0..16u64 {
            prop_assert!(cache.contains(l), "protected line {l} was evicted");
        }
    }

    /// Statistics stay consistent: hits + misses == accesses issued.
    #[test]
    fn stats_accounting(ops in proptest::collection::vec(0u64..128, 1..300)) {
        let geom = CacheGeometry { size_bytes: 4 * 4 * 64, ways: 4, hit_latency: 1 };
        let mut cache = Cache::new(geom);
        for (i, &l) in ops.iter().enumerate() {
            if i % 3 == 0 {
                cache.insert(l, false, u64::MAX);
            } else {
                cache.access(l);
            }
        }
        let accesses = ops.iter().enumerate().filter(|(i, _)| i % 3 != 0).count() as u64;
        prop_assert_eq!(cache.stats.hits + cache.stats.misses, accesses);
        prop_assert!(cache.stats.evictions <= cache.stats.insertions);
    }
}
