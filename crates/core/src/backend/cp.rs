//! Cache Partitioning (CP) back-end — Sec. III-B2.
//!
//! Two plans, both CAT-only (all prefetchers stay enabled):
//!
//! * **Pref-CP** — the whole `Agg` set shares one small partition
//!   (`ceil(1.5 × |Agg|)` ways at the low end of the mask); the neutral
//!   cores keep the full cache. Partitions *overlap*: neutral insertions
//!   may still use the low ways, but the aggressors cannot thrash the high
//!   ways.
//! * **Pref-CP2** — the `Agg` set is split into its friendly and
//!   unfriendly subsets, each with its own small partition (disjoint from
//!   each other, both overlapped by the neutral full mask).

use super::{partition_ways, Detection, PartitionPlan};
use cmm_sim::msr::contiguous_mask;

/// CLOS ids used by the CP plans (CLOS 0 stays the neutral full mask).
pub const CLOS_AGG: usize = 1;
/// Second partition for Pref-CP2's unfriendly subset.
pub const CLOS_AGG2: usize = 2;

/// Builds the Pref-CP plan. An empty `Agg` set degenerates to the flat
/// plan (the paper applies no CP-side isolation when nothing is
/// aggressive).
pub fn pref_cp_plan(
    det: &Detection,
    num_cores: usize,
    llc_ways: u32,
    scale: f64,
    min_ways_per_core: u32,
) -> PartitionPlan {
    if det.agg.is_empty() {
        return PartitionPlan::flat(num_cores, llc_ways);
    }
    let ways = partition_ways(det.agg.len(), scale, llc_ways, min_ways_per_core);
    let mut plan = PartitionPlan::flat(num_cores, llc_ways);
    plan.masks.push((CLOS_AGG, contiguous_mask(0, ways)));
    for (core, clos) in plan.assignments.iter_mut() {
        if det.agg.contains(core) {
            *clos = CLOS_AGG;
        }
    }
    plan
}

/// Builds the Pref-CP2 plan. Degenerates to [`pref_cp_plan`] when either
/// subset is empty (one partition suffices), and to flat when `Agg` is
/// empty.
pub fn pref_cp2_plan(
    det: &Detection,
    num_cores: usize,
    llc_ways: u32,
    scale: f64,
    min_ways_per_core: u32,
) -> PartitionPlan {
    if det.agg.is_empty() {
        return PartitionPlan::flat(num_cores, llc_ways);
    }
    if det.friendly.is_empty() || det.unfriendly.is_empty() {
        return pref_cp_plan(det, num_cores, llc_ways, scale, min_ways_per_core);
    }
    let wf = partition_ways(det.friendly.len(), scale, llc_ways, min_ways_per_core);
    let wu = partition_ways(det.unfriendly.len(), scale, llc_ways, min_ways_per_core);
    // Keep the pair of partitions from covering the whole cache.
    let budget = llc_ways.saturating_sub(2).max(2);
    let (wf, wu) = if wf + wu > budget {
        let wf2 = (wf * budget / (wf + wu)).max(1);
        (wf2, (budget - wf2).max(1))
    } else {
        (wf, wu)
    };
    let mut plan = PartitionPlan::flat(num_cores, llc_ways);
    plan.masks.push((CLOS_AGG, contiguous_mask(0, wf)));
    plan.masks.push((CLOS_AGG2, contiguous_mask(wf, wu)));
    for (core, clos) in plan.assignments.iter_mut() {
        if det.friendly.contains(core) {
            *clos = CLOS_AGG;
        } else if det.unfriendly.contains(core) {
            *clos = CLOS_AGG2;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(agg: Vec<usize>, friendly: Vec<usize>, unfriendly: Vec<usize>) -> Detection {
        Detection { interval1: Vec::new(), agg, friendly, unfriendly }
    }

    #[test]
    fn empty_agg_is_flat() {
        let p = pref_cp_plan(&det(vec![], vec![], vec![]), 8, 20, 1.5, 1);
        assert_eq!(p, PartitionPlan::flat(8, 20));
    }

    #[test]
    fn pref_cp_places_agg_in_small_low_partition() {
        let d = det(vec![1, 4], vec![1], vec![4]);
        let p = pref_cp_plan(&d, 8, 20, 1.5, 1);
        // ceil(1.5 × 2) = 3 ways at the low end.
        assert!(p.masks.contains(&(CLOS_AGG, 0b111)));
        let clos_of = |c: usize| p.assignments.iter().find(|(core, _)| *core == c).unwrap().1;
        assert_eq!(clos_of(1), CLOS_AGG);
        assert_eq!(clos_of(4), CLOS_AGG);
        assert_eq!(clos_of(0), 0);
        // Neutral CLOS keeps the full mask (overlapping partitioning).
        assert!(p.masks.contains(&(0, (1 << 20) - 1)));
    }

    #[test]
    fn pref_cp2_splits_friendly_and_unfriendly() {
        let d = det(vec![0, 1, 2, 3], vec![0, 1], vec![2, 3]);
        let p = pref_cp2_plan(&d, 8, 20, 1.5, 1);
        // Friendly: 3 low ways; unfriendly: next 3 ways.
        assert!(p.masks.contains(&(CLOS_AGG, 0b000111)));
        assert!(p.masks.contains(&(CLOS_AGG2, 0b111000)));
        let clos_of = |c: usize| p.assignments.iter().find(|(core, _)| *core == c).unwrap().1;
        assert_eq!(clos_of(0), CLOS_AGG);
        assert_eq!(clos_of(2), CLOS_AGG2);
        assert_eq!(clos_of(7), 0);
    }

    #[test]
    fn pref_cp2_degenerates_without_a_split() {
        let d = det(vec![0, 1], vec![0, 1], vec![]);
        let p2 = pref_cp2_plan(&d, 8, 20, 1.5, 1);
        let p1 = pref_cp_plan(&d, 8, 20, 1.5, 1);
        assert_eq!(p2, p1);
    }

    #[test]
    fn pref_cp2_partitions_never_cover_whole_cache() {
        // 4 friendly + 4 unfriendly on a narrow 8-way LLC would want 6+6.
        let d = det(vec![0, 1, 2, 3, 4, 5, 6, 7], (0..4).collect(), (4..8).collect());
        let p = pref_cp2_plan(&d, 8, 8, 1.5, 1);
        let m1 = p.masks.iter().find(|(c, _)| *c == CLOS_AGG).unwrap().1;
        let m2 = p.masks.iter().find(|(c, _)| *c == CLOS_AGG2).unwrap().1;
        assert_eq!(m1 & m2, 0, "partitions must be disjoint");
        assert!((m1 | m2).count_ones() <= 6, "must leave exclusive ways to the neutral set");
    }

    #[test]
    fn masks_are_contiguous_and_valid() {
        let d = det(vec![0, 1, 2], vec![0], vec![1, 2]);
        for plan in [pref_cp_plan(&d, 8, 20, 1.5, 1), pref_cp2_plan(&d, 8, 20, 1.5, 1)] {
            for &(_, m) in &plan.masks {
                assert!(cmm_sim::msr::mask_is_contiguous(m), "mask {m:#x}");
                assert!(m < (1 << 20));
            }
        }
    }
}
