//! Cross-crate property-based tests (proptest): invariants that must hold
//! for *any* workload mix, detector input, or partition request.

use cmm_core::backend::{self, Detection, PartitionPlan};
use cmm_core::frontend::{detect_agg, metrics, DetectorConfig};
use cmm_metrics::{harmonic_speedup, hm_ipc, kmeans_1d, weighted_speedup};
use cmm_sim::msr::mask_is_contiguous;
use cmm_sim::pmu::Pmu;
use proptest::prelude::*;

fn arb_pmu() -> impl Strategy<Value = Pmu> {
    (1_000u64..10_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000)
        .prop_map(|(cycles, pf_req, pf_miss, dm_req, dm_miss)| Pmu {
            cycles,
            instructions: cycles / 2,
            l2_pf_req: pf_req,
            l2_pf_miss: pf_miss.min(pf_req),
            l2_dm_req: dm_req,
            l2_dm_miss: dm_miss.min(dm_req),
            ..Pmu::default()
        })
}

proptest! {
    #[test]
    fn detector_output_is_sorted_subset(deltas in proptest::collection::vec(arb_pmu(), 1..16)) {
        let agg = detect_agg(&deltas, &DetectorConfig::default());
        prop_assert!(agg.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(agg.iter().all(|&c| c < deltas.len()));
    }

    #[test]
    fn metrics_never_nan(d in arb_pmu()) {
        let m = metrics(&d);
        for v in [m.l2_pf_miss_frac, m.l2_ptr, m.pga, m.l2_pmr, m.l2_ppm, m.llc_pt] {
            prop_assert!(v.is_finite());
            prop_assert!(v >= 0.0);
        }
    }

    #[test]
    fn pmr_and_frac_are_fractions(d in arb_pmu()) {
        let m = metrics(&d);
        prop_assert!(m.l2_pmr <= 1.0 + 1e-9);
        prop_assert!(m.l2_pf_miss_frac <= 1.0 + 1e-9);
    }

    #[test]
    fn partition_plans_always_valid(
        agg in proptest::collection::btree_set(0usize..8, 0..8),
        friendly_sel in proptest::collection::vec(any::<bool>(), 8),
        ways in 4u32..=20,
        scale in 0.5f64..3.0,
    ) {
        let agg: Vec<usize> = agg.into_iter().collect();
        let friendly: Vec<usize> =
            agg.iter().copied().filter(|&c| friendly_sel[c]).collect();
        let unfriendly: Vec<usize> =
            agg.iter().copied().filter(|&c| !friendly_sel[c]).collect();
        let det = Detection {
            interval1: Vec::new(),
            agg: agg.clone(),
            friendly,
            unfriendly,
        };
        let plans = [
            Some(cmm_core::backend::cp::pref_cp_plan(&det, 8, ways, scale, 1)),
            Some(cmm_core::backend::cp::pref_cp2_plan(&det, 8, ways, scale, 1)),
            cmm_core::backend::cmm::cmm_plan(cmm_core::backend::cmm::Variant::A, &det, 8, ways, scale, 1),
            cmm_core::backend::cmm::cmm_plan(cmm_core::backend::cmm::Variant::B, &det, 8, ways, scale, 1),
            cmm_core::backend::cmm::cmm_plan(cmm_core::backend::cmm::Variant::C, &det, 8, ways, scale, 1),
        ];
        for plan in plans.into_iter().flatten() {
            check_plan(&plan, ways)?;
        }
    }

    #[test]
    fn dunn_plans_always_valid(
        stalls in proptest::collection::vec(0u64..1_000_000, 2..12),
        ways in 4u32..=20,
        clusters in 2usize..=5,
    ) {
        let deltas: Vec<Pmu> = stalls
            .iter()
            .map(|&s| Pmu { cycles: 1_000_000, stalls_l2_pending: s, ..Pmu::default() })
            .collect();
        let plan = cmm_core::backend::dunn::dunn_plan(&deltas, ways, clusters);
        check_plan(&plan, ways)?;
        prop_assert_eq!(plan.assignments.len(), deltas.len());
    }

    #[test]
    fn hm_ipc_bounded_by_min_and_max(ipcs in proptest::collection::vec(0.01f64..4.0, 1..16)) {
        let hm = hm_ipc(&ipcs);
        let min = ipcs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ipcs.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(hm >= min - 1e-9 && hm <= max + 1e-9);
    }

    #[test]
    fn hs_invariant_under_uniform_slowdown(
        alone in proptest::collection::vec(0.1f64..4.0, 1..9),
        factor in 0.1f64..1.0,
    ) {
        let together: Vec<f64> = alone.iter().map(|a| a * factor).collect();
        let hs = harmonic_speedup(&alone, &together);
        prop_assert!((hs - factor).abs() < 1e-9);
    }

    #[test]
    fn ws_of_identical_runs_is_core_count(ipcs in proptest::collection::vec(0.1f64..4.0, 1..9)) {
        prop_assert!((weighted_speedup(&ipcs, &ipcs) - ipcs.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn kmeans_assigns_to_nearest_centroid(
        values in proptest::collection::vec(-1e6f64..1e6, 1..32),
        k in 1usize..5,
    ) {
        let r = kmeans_1d(&values, k);
        for (i, &v) in values.iter().enumerate() {
            let assigned = r.centroids[r.assignments[i]];
            for &c in &r.centroids {
                prop_assert!(
                    (v - assigned).abs() <= (v - c).abs() + 1e-6,
                    "value {v} assigned to {assigned}, nearer {c}"
                );
            }
        }
    }

    #[test]
    fn throttle_groups_partition_the_agg_set(
        ptr in proptest::collection::vec(0u64..100_000, 8),
        agg in proptest::collection::btree_set(0usize..8, 1..8),
        groups in 1usize..4,
    ) {
        let deltas: Vec<Pmu> = ptr
            .iter()
            .map(|&p| Pmu { cycles: 1_000_000, l2_pf_miss: p, l2_pf_req: p + 1, ..Pmu::default() })
            .collect();
        let agg: Vec<usize> = agg.into_iter().collect();
        let gs = backend::throttle_groups(&agg, &deltas, 3, groups);
        let mut flat: Vec<usize> = gs.iter().flatten().copied().collect();
        flat.sort_unstable();
        prop_assert_eq!(flat, agg, "groups must partition the Agg set exactly");
    }
}

fn check_plan(plan: &PartitionPlan, ways: u32) -> Result<(), TestCaseError> {
    for &(_, mask) in &plan.masks {
        prop_assert!(mask != 0);
        prop_assert!(mask_is_contiguous(mask));
        prop_assert!(mask < (1u64 << ways) || ways == 64);
    }
    for &(core, clos) in &plan.assignments {
        prop_assert!(core < 8 || plan.assignments.len() > 8);
        prop_assert!(
            plan.masks.iter().any(|(c, _)| *c == clos),
            "core {core} assigned to unprogrammed CLOS {clos}"
        );
    }
    Ok(())
}
