//! Prefetch Throttling (PT) back-end — Sec. III-B1.
//!
//! Every epoch: detect the `Agg` set (all-on interval), probe friendliness
//! (all-off interval), then search the on/off space over the `Agg` cores —
//! exhaustively while `2^|Agg|` is small, else over k-means traffic groups
//! — one sampling interval per setting, ranked by `hm_ipc`. The winning
//! setting runs for the next execution epoch. PT never touches CAT.

use super::{detect_logged, search_throttle, search_throttle_levels, throttle_groups, Detection};
use crate::policy::ControllerConfig;
use crate::substrate::Substrate;
use crate::telemetry::FaultRecord;

/// The three MSR 0x1A4 levels the PT-fine extension searches: all engines
/// on, only the two L2 engines (streamer + adjacent) off, and all off.
pub const FINE_LEVELS: [u64; 3] = [0x0, 0x3, 0xF];

/// PT-fine's cap on throttle groups (and on the per-core exhaustive
/// limit): two groups of three levels keep the search within 9 sampling
/// intervals.
pub const FINE_GROUP_CAP: usize = 2;

/// Result of one PT profiling pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PtOutcome {
    /// The detection that drove the decision.
    pub detection: Detection,
    /// The chosen per-core prefetch enabling (already applied).
    pub prefetch_on: Vec<bool>,
    /// Cycles spent profiling (detection + search intervals).
    pub profiling_cycles: u64,
    /// Every trialed configuration with its `hm_ipc` (telemetry).
    pub trials: Vec<crate::telemetry::Trial>,
    /// Index of the applied winner in `trials`; `None` when no search ran.
    pub winner: Option<usize>,
}

/// PT-fine (extension): like [`profile`], but each throttle group is
/// searched over the three [`FINE_LEVELS`] instead of binary on/off.
/// Groups are capped at [`FINE_GROUP_CAP`] so the search stays within 9
/// sampling intervals.
pub fn profile_fine<S: Substrate>(
    sys: &mut S,
    ctrl: &ControllerConfig,
    det_cfg: &crate::frontend::DetectorConfig,
    log: &mut Vec<FaultRecord>,
) -> PtOutcome {
    let detection = detect_logged(sys, ctrl, det_cfg, log);
    let groups =
        throttle_groups(&detection.agg, &detection.interval1, FINE_GROUP_CAP, FINE_GROUP_CAP);
    let search = search_throttle_levels(sys, &groups, &FINE_LEVELS, ctrl.sampling_interval, log);
    let profiling_cycles = detection.profiling_cycles + search.cycles;
    PtOutcome {
        detection,
        prefetch_on: search.best.iter().map(|&m| m != 0xF).collect(),
        profiling_cycles,
        trials: search.trials,
        winner: search.winner,
    }
}

/// Runs PT's full profiling epoch and applies the winner.
pub fn profile<S: Substrate>(
    sys: &mut S,
    ctrl: &ControllerConfig,
    det_cfg: &crate::frontend::DetectorConfig,
    log: &mut Vec<FaultRecord>,
) -> PtOutcome {
    let detection = detect_logged(sys, ctrl, det_cfg, log);
    let groups = throttle_groups(
        &detection.agg,
        &detection.interval1,
        ctrl.exhaustive_limit,
        ctrl.throttle_groups,
    );
    let search = search_throttle(sys, &groups, ctrl.sampling_interval, log);
    let profiling_cycles = detection.profiling_cycles + search.cycles;
    PtOutcome {
        detection,
        prefetch_on: search.best,
        profiling_cycles,
        trials: search.trials,
        winner: search.winner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::DetectorConfig;
    use cmm_sim::config::SystemConfig;
    use cmm_sim::workload::Workload;
    use cmm_sim::System;
    use cmm_workloads::spec;

    fn system_with(names: &[&str]) -> System {
        let cfg = SystemConfig::scaled(names.len());
        let llc = cfg.llc.size_bytes;
        let ws: Vec<Box<dyn Workload + Send>> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Box::new(spec::by_name(n).unwrap().instantiate(llc, (i as u64 + 1) << 36, 7))
                    as Box<dyn Workload + Send>
            })
            .collect();
        System::new(cfg, ws)
    }

    #[test]
    fn detects_stream_as_aggressive_and_friendly() {
        let mut sys = system_with(&["bwaves3d", "povray_rt", "gobmk_ai", "namd_md"]);
        sys.run(600_000); // warm past the cache-resident benchmarks' cold phase
        let ctrl = ControllerConfig::quick();
        let out = profile(&mut sys, &ctrl, &DetectorConfig::default(), &mut Vec::new());
        assert_eq!(out.detection.agg, vec![0], "only the stream is aggressive");
        assert_eq!(out.detection.friendly, vec![0], "the stream profits from prefetching");
        assert!(out.detection.unfriendly.is_empty());
        // The chosen config must keep the friendly stream's prefetchers on:
        // throttling it would tank hm_ipc.
        assert!(out.prefetch_on[0]);
    }

    #[test]
    fn throttles_the_random_access_aggressor() {
        let mut sys = system_with(&["rand_access", "mcf_refine", "povray_rt", "omnet_events"]);
        sys.run(600_000);
        let ctrl = ControllerConfig::quick();
        let out = profile(&mut sys, &ctrl, &DetectorConfig::default(), &mut Vec::new());
        assert!(
            out.detection.agg.contains(&0),
            "burst-random must be detected as aggressive: {:?}",
            out.detection
        );
        assert!(
            out.detection.unfriendly.contains(&0),
            "burst-random prefetching is useless: {:?}",
            out.detection
        );
    }

    #[test]
    fn no_aggressor_means_no_throttling() {
        // Long warm-up: the L2-resident benchmarks legitimately look like
        // streams during their cold first pass.
        let mut sys = system_with(&["povray_rt", "gobmk_ai", "namd_md", "hmmer_search"]);
        sys.run(600_000);
        let ctrl = ControllerConfig::quick();
        let out = profile(&mut sys, &ctrl, &DetectorConfig::default(), &mut Vec::new());
        assert!(out.detection.agg.is_empty());
        assert!(out.prefetch_on.iter().all(|&on| on));
        // Only the mandatory all-on interval was needed.
        assert_eq!(out.profiling_cycles, ctrl.sampling_interval);
    }

    #[test]
    fn fine_throttling_can_pick_the_middle_level() {
        // A burst-random aggressor: its L2 engines flood, its L1 engines
        // are nearly free. PT-fine must at least not do worse than binary
        // PT's options, and the chosen MSR must be one of the three levels.
        let mut sys = system_with(&["rand_access", "mcf_refine", "povray_rt", "omnet_events"]);
        sys.run(600_000);
        let ctrl = ControllerConfig::quick();
        let out = profile_fine(&mut sys, &ctrl, &DetectorConfig::default(), &mut Vec::new());
        for core in 0..4 {
            let msr = sys.read_msr(core, cmm_sim::msr::MSR_MISC_FEATURE_CONTROL).unwrap();
            assert!(FINE_LEVELS.contains(&msr), "core {core} msr {msr:#x}");
        }
        assert_eq!(out.prefetch_on.len(), 4);
    }

    #[test]
    fn profiling_cycles_accounted() {
        let mut sys = system_with(&["bwaves3d", "rand_access", "povray_rt", "mcf_refine"]);
        sys.run(100_000);
        let ctrl = ControllerConfig::quick();
        let before = sys.now();
        let out = profile(&mut sys, &ctrl, &DetectorConfig::default(), &mut Vec::new());
        assert_eq!(sys.now() - before, out.profiling_cycles);
    }
}
