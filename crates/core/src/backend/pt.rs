//! Prefetch Throttling (PT) back-end — Sec. III-B1.
//!
//! Every epoch: detect the `Agg` set (all-on interval), probe friendliness
//! (all-off interval), then search the on/off space over the `Agg` cores —
//! exhaustively while `2^|Agg|` is small, else over k-means traffic groups
//! — one sampling interval per setting, ranked by `hm_ipc`. The winning
//! setting runs for the next execution epoch. PT never touches CAT.
//!
//! The search is [`super::search_in`] with [`super::Knob::Prefetch`]: PT
//! trials the [`ON_OFF`] levels per group, PT-fine the [`FINE_LEVELS`].
//! [`crate::driver::Driver`] runs both per CAT domain.

/// Binary PT's two MSR 0x1A4 levels: all engines off, then all on. Off
/// comes first, so in trial `combo` group `g` is on exactly when bit `g` of
/// `combo` is set, and the last trial is all-on.
pub const ON_OFF: [u64; 2] = [0xF, 0x0];

/// The three MSR 0x1A4 levels the PT-fine extension searches: all engines
/// on, only the two L2 engines (streamer + adjacent) off, and all off.
pub const FINE_LEVELS: [u64; 3] = [0x0, 0x3, 0xF];

/// PT-fine's cap on throttle groups (and on the per-core exhaustive
/// limit): two groups of three levels keep the search within 9 sampling
/// intervals.
pub const FINE_GROUP_CAP: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use crate::policy::{ControllerConfig, Mechanism};
    use crate::telemetry::EpochRecord;
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

    /// Runs one `mechanism` profiling epoch after `warm` cycles and returns
    /// its record plus the cycles the epoch spent.
    fn one_epoch(names: &[&str], warm: u64, mechanism: Mechanism) -> (EpochRecord, u64) {
        let mut sys = system_with(names);
        sys.run(warm);
        let before = sys.now();
        let mut drv = Driver::new(sys, mechanism, ControllerConfig::quick());
        drv.epoch();
        let spent = drv.system().now() - before;
        (drv.take_records().remove(0), spent)
    }

    /// The cycles a profiling epoch must spend: one all-on detection
    /// interval, a friendliness probe when `Agg` is non-empty, and one
    /// interval per trial.
    fn expected_cycles(rec: &EpochRecord) -> u64 {
        let detection = if rec.agg.is_empty() { 1 } else { 2 };
        (detection + rec.trials.len() as u64) * ControllerConfig::quick().sampling_interval
    }

    #[test]
    fn detects_stream_as_aggressive_and_friendly() {
        // Warm past the cache-resident benchmarks' cold phase.
        let names = ["bwaves3d", "povray_rt", "gobmk_ai", "namd_md"];
        let (rec, _) = one_epoch(&names, 600_000, Mechanism::Pt);
        assert_eq!(rec.agg, vec![0], "only the stream is aggressive");
        assert_eq!(rec.friendly, vec![0], "the stream profits from prefetching");
        assert!(rec.unfriendly.is_empty());
        // The chosen config must keep the friendly stream's prefetchers on:
        // throttling it would tank hm_ipc.
        assert_eq!(rec.applied[0].msr_1a4, 0x0);
    }

    #[test]
    fn throttles_the_random_access_aggressor() {
        let names = ["rand_access", "mcf_refine", "povray_rt", "omnet_events"];
        let (rec, _) = one_epoch(&names, 600_000, Mechanism::Pt);
        assert!(rec.agg.contains(&0), "burst-random must be detected as aggressive: {rec:?}");
        assert!(rec.unfriendly.contains(&0), "burst-random prefetching is useless: {rec:?}");
    }

    #[test]
    fn no_aggressor_means_no_throttling() {
        // Long warm-up: the L2-resident benchmarks legitimately look like
        // streams during their cold first pass.
        let names = ["povray_rt", "gobmk_ai", "namd_md", "hmmer_search"];
        let (rec, spent) = one_epoch(&names, 600_000, Mechanism::Pt);
        assert!(rec.agg.is_empty());
        assert!(rec.applied.iter().all(|c| c.msr_1a4 == 0x0));
        // Only the mandatory all-on interval was needed.
        assert!(rec.trials.is_empty());
        assert_eq!(spent, expected_cycles(&rec));
    }

    #[test]
    fn fine_throttling_can_pick_the_middle_level() {
        // A burst-random aggressor: its L2 engines flood, its L1 engines
        // are nearly free. PT-fine must at least not do worse than binary
        // PT's options, and the chosen MSR must be one of the three levels.
        let names = ["rand_access", "mcf_refine", "povray_rt", "omnet_events"];
        let (rec, _) = one_epoch(&names, 600_000, Mechanism::PtFine);
        assert_eq!(rec.applied.len(), 4);
        for (core, c) in rec.applied.iter().enumerate() {
            assert!(FINE_LEVELS.contains(&c.msr_1a4), "core {core} msr {:#x}", c.msr_1a4);
        }
        assert!(rec.trials.iter().flat_map(|t| &t.msr_1a4).all(|m| FINE_LEVELS.contains(m)));
    }

    #[test]
    fn profiling_epoch_cycles_accounted() {
        let names = ["bwaves3d", "rand_access", "povray_rt", "mcf_refine"];
        let (rec, spent) = one_epoch(&names, 100_000, Mechanism::Pt);
        assert_eq!(spent, expected_cycles(&rec));
    }
}
