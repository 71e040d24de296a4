//! Coordinated throttling — the CMM-a/b/c policies of Sec. III-B3 / Fig. 6.
//!
//! The coordination insight: prefetch-friendly cores get their performance
//! from *prefetching*, not LLC capacity (Fig. 3), so they can live in a
//! small partition with prefetchers enabled; prefetch-unfriendly cores get
//! nothing from prefetching, so theirs can be throttled. Each core yields
//! the resource it does not need.
//!
//! * **CMM-a** (Fig. 6 a): the whole `Agg` set shares one small partition;
//!   group-level throttling is applied to the *unfriendly* cores inside it.
//! * **CMM-b** (Fig. 6 b): only the friendly cores are partitioned; the
//!   unfriendly ones stay in the shared pool but are throttled.
//! * **CMM-c** (Fig. 6 c): friendly and unfriendly cores get separate
//!   small partitions; the unfriendly ones are throttled.
//! * Empty `Agg` set (Fig. 6 d): fall back to [`super::dunn`] — handled by
//!   the driver, not here.
//!
//! Only prefetch-unfriendly cores are ever throttled; if there are none,
//! the policy degenerates to pure CP (paper, Sec. III-B3).

use super::cp::{CLOS_AGG, CLOS_AGG2};
use super::{partition_ways, Detection, PartitionPlan};
use cmm_sim::msr::contiguous_mask;

/// Which Fig. 6 option to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Fig. 6 (a).
    A,
    /// Fig. 6 (b).
    B,
    /// Fig. 6 (c).
    C,
}

/// Builds the partition side of a CMM policy. Returns `None` when the
/// `Agg` set is empty — the caller must fall back to Dunn (option d).
pub fn cmm_plan(
    variant: Variant,
    det: &Detection,
    num_cores: usize,
    llc_ways: u32,
    scale: f64,
    min_ways_per_core: u32,
) -> Option<PartitionPlan> {
    if det.agg.is_empty() {
        return None;
    }
    let mut plan = PartitionPlan::flat(num_cores, llc_ways);
    match variant {
        Variant::A => {
            let ways = partition_ways(det.agg.len(), scale, llc_ways, min_ways_per_core);
            plan.masks.push((CLOS_AGG, contiguous_mask(0, ways)));
            for (core, clos) in plan.assignments.iter_mut() {
                if det.agg.contains(core) {
                    *clos = CLOS_AGG;
                }
            }
        }
        Variant::B => {
            if det.friendly.is_empty() {
                // Nothing to partition: unfriendly cores stay in the pool
                // (they will be throttled instead).
                return Some(plan);
            }
            let ways = partition_ways(det.friendly.len(), scale, llc_ways, min_ways_per_core);
            plan.masks.push((CLOS_AGG, contiguous_mask(0, ways)));
            for (core, clos) in plan.assignments.iter_mut() {
                if det.friendly.contains(core) {
                    *clos = CLOS_AGG;
                }
            }
        }
        Variant::C => {
            if det.friendly.is_empty() || det.unfriendly.is_empty() {
                // With one subset empty, (c) is identical to (a).
                return cmm_plan(Variant::A, det, num_cores, llc_ways, scale, min_ways_per_core);
            }
            let wf = partition_ways(det.friendly.len(), scale, llc_ways, min_ways_per_core);
            let wu = partition_ways(det.unfriendly.len(), scale, llc_ways, min_ways_per_core);
            let budget = llc_ways.saturating_sub(2).max(2);
            let (wf, wu) = if wf + wu > budget {
                let wf2 = (wf * budget / (wf + wu)).max(1);
                (wf2, (budget - wf2).max(1))
            } else {
                (wf, wu)
            };
            plan.masks.push((CLOS_AGG, contiguous_mask(0, wf)));
            plan.masks.push((CLOS_AGG2, contiguous_mask(wf, wu)));
            for (core, clos) in plan.assignments.iter_mut() {
                if det.friendly.contains(core) {
                    *clos = CLOS_AGG;
                } else if det.unfriendly.contains(core) {
                    *clos = CLOS_AGG2;
                }
            }
        }
    }
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(agg: Vec<usize>, friendly: Vec<usize>, unfriendly: Vec<usize>) -> Detection {
        Detection { interval1: Vec::new(), agg, friendly, unfriendly }
    }

    fn clos_of(plan: &PartitionPlan, core: usize) -> usize {
        plan.assignments.iter().find(|(c, _)| *c == core).unwrap().1
    }

    fn mask_of(plan: &PartitionPlan, clos: usize) -> u64 {
        plan.masks.iter().find(|(c, _)| *c == clos).unwrap().1
    }

    #[test]
    fn empty_agg_returns_none_for_dunn_fallback() {
        for v in [Variant::A, Variant::B, Variant::C] {
            assert!(cmm_plan(v, &det(vec![], vec![], vec![]), 8, 20, 1.5, 1).is_none());
        }
    }

    #[test]
    fn variant_a_partitions_whole_agg_set() {
        let d = det(vec![0, 1, 2], vec![0, 1], vec![2]);
        let p = cmm_plan(Variant::A, &d, 8, 20, 1.5, 1).unwrap();
        // ceil(1.5 × 3) = 5 ways.
        assert_eq!(mask_of(&p, CLOS_AGG), 0b11111);
        for c in 0..3 {
            assert_eq!(clos_of(&p, c), CLOS_AGG);
        }
        for c in 3..8 {
            assert_eq!(clos_of(&p, c), 0);
        }
    }

    #[test]
    fn variant_b_partitions_only_friendly() {
        let d = det(vec![0, 1, 2], vec![0, 1], vec![2]);
        let p = cmm_plan(Variant::B, &d, 8, 20, 1.5, 1).unwrap();
        assert_eq!(clos_of(&p, 0), CLOS_AGG);
        assert_eq!(clos_of(&p, 1), CLOS_AGG);
        // The unfriendly core shares the whole cache...
        assert_eq!(clos_of(&p, 2), 0);
        // ...and the friendly partition is sized for 2 cores: 3 ways.
        assert_eq!(mask_of(&p, CLOS_AGG), 0b111);
    }

    #[test]
    fn variant_b_without_friendly_cores_partitions_nothing() {
        let d = det(vec![2, 3], vec![], vec![2, 3]);
        let p = cmm_plan(Variant::B, &d, 8, 20, 1.5, 1).unwrap();
        assert!(p.assignments.iter().all(|&(_, clos)| clos == 0));
    }

    #[test]
    fn variant_c_separates_subsets() {
        let d = det(vec![0, 1, 2, 3], vec![0, 1], vec![2, 3]);
        let p = cmm_plan(Variant::C, &d, 8, 20, 1.5, 1).unwrap();
        let mf = mask_of(&p, CLOS_AGG);
        let mu = mask_of(&p, CLOS_AGG2);
        assert_eq!(mf & mu, 0, "friendly/unfriendly partitions are disjoint");
        assert_eq!(clos_of(&p, 0), CLOS_AGG);
        assert_eq!(clos_of(&p, 3), CLOS_AGG2);
        assert_eq!(clos_of(&p, 7), 0);
    }

    #[test]
    fn variant_c_degenerates_to_a_when_one_subset_empty() {
        let d = det(vec![0, 1], vec![0, 1], vec![]);
        let pc = cmm_plan(Variant::C, &d, 8, 20, 1.5, 1).unwrap();
        let pa = cmm_plan(Variant::A, &d, 8, 20, 1.5, 1).unwrap();
        assert_eq!(pc, pa);
    }

    #[test]
    fn all_masks_contiguous() {
        let d = det(vec![0, 1, 2, 3, 4], vec![0, 1, 2], vec![3, 4]);
        for v in [Variant::A, Variant::B, Variant::C] {
            let p = cmm_plan(v, &d, 8, 20, 1.5, 1).unwrap();
            for &(_, m) in &p.masks {
                assert!(cmm_sim::msr::mask_is_contiguous(m), "{v:?}: mask {m:#x}");
            }
        }
    }
}
