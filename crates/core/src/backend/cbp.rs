//! CBP-style memory-bandwidth coordination (extension beyond the paper).
//!
//! CBP (Nejat et al.) extends the paper's two-resource coordination with
//! memory-bandwidth partitioning: after the prefetch × CAT plan is in
//! force, a third search assigns Intel MBA-style delay levels to the
//! aggressor throttle groups. This module holds the bandwidth half of
//! that mechanism — the delay levels and the availability probe —
//! while [`crate::driver::Driver`] composes it with the existing CMM-a
//! plan (the hierarchical prefetch → CAT → MBA search order) or runs it
//! stand-alone as the bandwidth-only `MBA` ablation.
//!
//! The search is the back-end's one trial search, [`super::search_in`]
//! with [`super::Knob::Mba`]: every combination of [`MBA_LEVELS`] across
//! the throttle groups, one sampling interval each, ranked by domain-local
//! `hm_ipc`, with the same `kept_last_good` retreat as the prefetch
//! searches when the winner cannot be programmed. Trials carry both the
//! prefetch MSR image in force (fixed during this search) and the
//! per-core MBA level image, so the journal shows the joint configuration
//! each trial actually ran.

use super::write_msr_logged;
use crate::substrate::Substrate;
use crate::telemetry::FaultRecord;
use cmm_sim::msr::MSR_MBA_THROTTLE;

/// The MBA delay levels the search considers per throttle group:
/// unthrottled, moderate (40 %), and aggressive (90 % → ≈10 % of peak
/// request rate). Three levels keeps the combination count at
/// `3^groups ≤ 27` — the same budget as the PT-fine engine search.
pub const MBA_LEVELS: [u64; 3] = [0, 40, 90];

/// Probes whether the substrate exposes the MBA throttle register at all:
/// writing the power-on level 0 must succeed. On parts without MBA (or
/// when the fault layer has taken the register away) this fails and the
/// caller degrades CBP → CMM-a (or MBA → no-op). The probe write is a
/// no-op on a healthy machine, so probing never perturbs a run.
pub fn mba_available<S: Substrate>(sys: &mut S, anchor: usize, log: &mut Vec<FaultRecord>) -> bool {
    write_msr_logged(sys, anchor, MSR_MBA_THROTTLE, 0, log).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::pt::ON_OFF;
    use crate::backend::{search_in, Knob};
    use crate::fault::{FaultConfig, FaultySubstrate};
    use cmm_sim::config::SystemConfig;
    use cmm_sim::msr::MSR_MISC_FEATURE_CONTROL;
    use cmm_sim::workload::Idle;
    use cmm_sim::System;

    fn machine(cores: usize) -> System {
        System::new(SystemConfig::tiny(cores), (0..cores).map(|_| Box::new(Idle) as _).collect())
    }

    #[test]
    fn probe_succeeds_on_a_healthy_machine_and_is_a_noop() {
        let mut sys = machine(2);
        Substrate::set_mba_throttle(&mut sys, 1, 40).unwrap();
        let mut log = Vec::new();
        assert!(mba_available(&mut sys, 0, &mut log));
        assert!(log.is_empty());
        // Probing core 0 did not disturb core 1's programmed level.
        assert_eq!(Substrate::mba_throttle(&sys, 1), 40);
    }

    #[test]
    fn probe_fails_when_the_register_is_rejected() {
        let mut s = FaultySubstrate::new(machine(1), FaultConfig::mba_only(3, 1.0));
        let mut log = Vec::new();
        assert!(!mba_available(&mut s, 0, &mut log));
        assert!(log.iter().any(|f| f.action == "gave_up"));
    }

    #[test]
    fn empty_groups_clear_the_levels_without_trials() {
        let mut sys = machine(2);
        Substrate::set_mba_throttle(&mut sys, 0, 80).unwrap();
        let mut log = Vec::new();
        let s = search_in(&mut sys, Knob::Mba(&[0, 0]), &[], &MBA_LEVELS, 1_000, &mut log, 0, 2);
        assert!(s.trials.is_empty());
        assert_eq!(s.winner, None);
        assert_eq!(Substrate::mba_throttle(&sys, 0), 0);
    }

    #[test]
    fn search_tries_every_level_combo_and_applies_the_winner() {
        let groups = [vec![0], vec![1]];
        // The prefetch knob over binary levels: off first, so group g is
        // on exactly when bit g of the trial index is set.
        let mut sys = machine(2);
        let mut log = Vec::new();
        let s = search_in(&mut sys, Knob::Prefetch, &groups, &ON_OFF, 1_000, &mut log, 0, 2);
        let images: Vec<_> = s.trials.iter().map(|t| t.msr_1a4.clone()).collect();
        assert_eq!(images, vec![vec![0xF, 0xF], vec![0x0, 0xF], vec![0xF, 0x0], vec![0x0, 0x0]]);
        assert!(s.trials.iter().all(|t| t.mba.is_empty()));
        assert_eq!(s.best, s.trials[s.winner.unwrap()].msr_1a4);
        for c in 0..2 {
            assert_eq!(sys.read_msr(c, MSR_MISC_FEATURE_CONTROL).unwrap(), s.best[c]);
        }

        // The MBA knob over the delay levels, with a fixed prefetch image.
        let mut sys = machine(2);
        let s =
            search_in(&mut sys, Knob::Mba(&[0, 0xF]), &groups, &MBA_LEVELS, 1_000, &mut log, 0, 2);
        assert_eq!(s.trials.len(), 9);
        let w = s.winner.unwrap();
        let best = s.trials[w].hm_ipc;
        assert!(s.trials.iter().all(|t| t.hm_ipc <= best));
        // Trials carry the joint configuration: fixed prefetch image plus
        // the per-trial MBA image.
        assert!(s.trials.iter().all(|t| t.msr_1a4 == vec![0, 0xF]));
        assert!(s.trials.iter().any(|t| t.mba == vec![90, 90]));
        // The applied machine state matches the winner.
        for c in 0..2 {
            assert_eq!(Substrate::mba_throttle(&sys, c), s.best[c]);
        }
        assert!(log.is_empty(), "clean machine, no faults: {log:?}");
    }

    #[test]
    fn unprogrammable_winner_keeps_the_last_good_levels() {
        let mut s = FaultySubstrate::new(machine(2), FaultConfig::mba_only(3, 1.0));
        let mut log = Vec::new();
        let search = search_in(
            &mut s,
            Knob::Mba(&[0, 0]),
            &[vec![0], vec![1]],
            &MBA_LEVELS,
            1_000,
            &mut log,
            0,
            2,
        );
        assert_eq!(search.trials.len(), 9);
        assert!(search.winner.is_some());
        assert!(log.iter().any(|f| f.kind == "degraded" && f.action == "kept_last_good"));
        assert_eq!(search.best, vec![0, 0]);
        for c in 0..2 {
            assert_eq!(Substrate::mba_throttle(&s, c), 0);
        }
    }
}
