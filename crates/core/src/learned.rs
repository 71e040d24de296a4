//! Bridge between the dependency-free `cmm-learn` crate and the
//! controller: PMU-delta → feature-vector mapping, the [`Learner`] a
//! [`crate::driver::Driver`] can carry, and the discretized action/state
//! space the RL-CBP bandit searches.
//!
//! `cmm-learn` knows nothing about the simulator; this module maps
//! [`PmuDelta`] onto its [`RawCounters`] and owns every policy decision
//! that needs simulator types (which cores an action touches, how a
//! detection discretizes into a bandit state).

use crate::backend::Detection;
use cmm_learn::bandit::{Bandit, BanditConfig};
use cmm_learn::bucket;
use cmm_learn::features::{self, RawCounters, N_FEATURES};
use cmm_learn::model::Model;
use cmm_sim::pmu::PmuDelta;

/// Maps one core's PMU interval delta onto the crate-neutral counter
/// struct `cmm-learn` extracts features from.
pub fn raw_counters(d: &PmuDelta) -> RawCounters {
    RawCounters {
        cycles: d.cycles,
        instructions: d.instructions,
        l1d_accesses: d.l1d_accesses,
        l1d_misses: d.l1d_misses,
        l2_requests: d.l2_dm_req + d.l2_pf_req,
        l2_misses: d.l2_dm_miss + d.l2_pf_miss,
        l2_pf_requests: d.l2_pf_req,
        l3_load_misses: d.l3_load_miss,
        stalls_l2_pending: d.stalls_l2_pending,
        pf_used: d.pf_used,
        pf_wasted: d.pf_wasted,
        mem_bytes: d.mem_total_bytes(),
    }
}

/// One core's feature vector (`cmm_learn::FEATURE_NAMES` order).
pub fn core_features(d: &PmuDelta) -> [f64; N_FEATURES] {
    features::features(&raw_counters(d))
}

/// The epoch's machine-mean feature vector — what the journal records
/// under the `/6` `features` key.
pub fn mean_features(deltas: &[PmuDelta]) -> Vec<f64> {
    let vectors: Vec<[f64; N_FEATURES]> = deltas.iter().map(core_features).collect();
    features::mean(&vectors).to_vec()
}

/// The prefetcher MSR 0x1A4 images the learned controllers choose among:
/// all engines on, the two L2 engines off, all engines off — the same
/// three levels PT-fine trials.
pub const PF_CHOICES: [u64; 3] = [0x0, 0x3, 0xF];

/// MBA delay levels the RL action space covers (mirrors
/// [`crate::backend::cbp::MBA_LEVELS`]).
const MBA_CHOICES: [u64; 3] = [0, 40, 90];

/// Execution-epoch stretch factors: 1 = re-plan every epoch, 2 = hold the
/// applied action for one extra execution epoch (the learned epoch-length
/// knob).
const STRETCH_CHOICES: [u64; 2] = [1, 2];

/// One decoded RL-CBP action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RlAction {
    /// MSR 0x1A4 image for the unfriendly aggressors (friendly and neutral
    /// cores always keep their prefetchers on, as in CMM).
    pub pf: u64,
    /// `true` applies the CMM-a partition plan; `false` leaves the cache
    /// flat.
    pub cat_cmm: bool,
    /// MBA delay level for the whole `Agg` set (0 = unthrottled).
    pub mba: u64,
    /// Number of execution epochs the action stays in force.
    pub stretch: u64,
}

/// Size of the discretized action space:
/// prefetch (3) × CAT plan (2) × MBA level (3) × stretch (2).
pub const N_ACTIONS: usize = PF_CHOICES.len() * 2 * MBA_CHOICES.len() * STRETCH_CHOICES.len();

/// Size of the discretized state space: `Agg`-count (3) × prefetch
/// accuracy (3) × bandwidth pressure (3).
pub const N_STATES: usize = 27;

/// Decodes a bandit action index (`0..N_ACTIONS`) into its knob settings.
pub fn decode_action(a: usize) -> RlAction {
    assert!(a < N_ACTIONS);
    let stretch = STRETCH_CHOICES[a % 2];
    let a = a / 2;
    let mba = MBA_CHOICES[a % 3];
    let a = a / 3;
    let cat_cmm = a % 2 == 1;
    let pf = PF_CHOICES[a / 2];
    RlAction { pf, cat_cmm, mba, stretch }
}

/// Inverse of [`decode_action`] for the seeded prior.
fn encode_action(act: RlAction) -> usize {
    let pf_i = PF_CHOICES.iter().position(|&p| p == act.pf).unwrap();
    let mba_i = MBA_CHOICES.iter().position(|&m| m == act.mba).unwrap();
    let stretch_i = STRETCH_CHOICES.iter().position(|&s| s == act.stretch).unwrap();
    ((pf_i * 2 + act.cat_cmm as usize) * 3 + mba_i) * 2 + stretch_i
}

/// The CMM-like prior the bandit starts from in every state: unfriendly
/// prefetchers fully off, CMM-a partition, no bandwidth throttle,
/// re-planned every epoch — the configuration CMM-a itself converges to on
/// an aggressive mix, so greedy exploitation starts at the incumbent
/// mechanism rather than uniform ignorance.
pub fn cmm_like_action() -> usize {
    encode_action(RlAction { pf: 0xF, cat_cmm: true, mba: 0, stretch: 1 })
}

/// The journal's `action` label for a decoded RL action.
pub fn action_label(act: &RlAction) -> String {
    format!(
        "pf={:#x},cat={},mba={},stretch={}",
        act.pf,
        if act.cat_cmm { "cmm" } else { "flat" },
        act.mba,
        act.stretch
    )
}

/// Discretizes a detection into the bandit's state index.
///
/// Three bucketed axes: how many aggressors, how accurate their
/// prefetchers are (ground-truth accuracy over the interval), and how much
/// memory bandwidth the machine is moving — the coordinates along which
/// the best (prefetch × CAT × MBA) configuration actually varies.
pub fn state_of(det: &Detection) -> usize {
    let agg_b = bucket(det.agg.len() as f64, &[1.0, 3.0]);
    let vectors: Vec<[f64; N_FEATURES]> = det.interval1.iter().map(core_features).collect();
    let mean = features::mean(&vectors);
    let acc_b = bucket(mean[5], &[0.4, 0.7]);
    let bw_b = bucket(mean[7], &[0.02, 0.1]);
    agg_b * 9 + acc_b * 3 + bw_b
}

/// The online RL policy: one seeded bandit per CAT domain, grown lazily so
/// single- and multi-socket machines share the code path.
#[derive(Debug, Clone)]
pub struct RlPolicy {
    seed: u64,
    epsilon: f64,
    bandits: Vec<Bandit>,
}

impl RlPolicy {
    /// `epsilon` is the initial exploration probability; 0 makes the
    /// policy purely greedy (drawing no entropy — the determinism tests'
    /// configuration).
    pub fn new(seed: u64, epsilon: f64) -> Self {
        RlPolicy { seed, epsilon, bandits: Vec::new() }
    }

    /// The domain's bandit, created on first use. Each domain gets an
    /// independent entropy stream (`seed` ⊕ domain via splitmix) and the
    /// CMM-like optimistic prior in every state.
    pub fn bandit_mut(&mut self, domain: usize) -> &mut Bandit {
        while self.bandits.len() <= domain {
            let mut s = self.seed.wrapping_add(self.bandits.len() as u64);
            let seed = cmm_learn::splitmix64(&mut s);
            let mut b = Bandit::new(BanditConfig {
                seed,
                states: N_STATES,
                actions: N_ACTIONS,
                epsilon: self.epsilon,
                epsilon_decay: 0.85,
                alpha: 0.5,
            });
            let prior = cmm_like_action();
            for state in 0..N_STATES {
                b.seed_action(state, prior, 0.02);
            }
            self.bandits.push(b);
        }
        &mut self.bandits[domain]
    }
}

/// A learned controller a [`crate::driver::Driver`] can carry
/// ([`crate::driver::Driver::with_learner`]).
#[derive(Debug, Clone)]
pub enum Learner {
    /// `Mechanism::MlSel`: the offline-trained phase classifier plus its
    /// confidence floor. An epoch whose *least* confident per-core
    /// prediction falls below the floor degrades to the CMM-a search.
    Ml {
        /// The `cmm-model/1` classifier (classes = MSR 0x1A4 images).
        model: Model,
        /// Minimum per-core posterior probability to trust the classifier.
        floor: f64,
    },
    /// `Mechanism::RlCbp`: the online bandit policy.
    Rl(RlPolicy),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_counter_mapping_aggregates_l2_streams() {
        let d = PmuDelta {
            cycles: 100,
            instructions: 150,
            l2_dm_req: 10,
            l2_pf_req: 30,
            l2_dm_miss: 5,
            l2_pf_miss: 15,
            mem_demand_bytes: 64,
            mem_prefetch_bytes: 128,
            mem_writeback_bytes: 64,
            ..PmuDelta::default()
        };
        let r = raw_counters(&d);
        assert_eq!(r.l2_requests, 40);
        assert_eq!(r.l2_misses, 20);
        assert_eq!(r.l2_pf_requests, 30);
        assert_eq!(r.mem_bytes, 256);
        assert!((core_features(&d)[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn action_codec_round_trips() {
        for a in 0..N_ACTIONS {
            let act = decode_action(a);
            assert_eq!(encode_action(act), a, "{act:?}");
            assert!(PF_CHOICES.contains(&act.pf));
            assert!(MBA_CHOICES.contains(&act.mba));
            assert!(STRETCH_CHOICES.contains(&act.stretch));
        }
        assert_eq!(N_ACTIONS, 36);
    }

    #[test]
    fn cmm_prior_decodes_to_the_cmm_configuration() {
        let act = decode_action(cmm_like_action());
        assert_eq!(act, RlAction { pf: 0xF, cat_cmm: true, mba: 0, stretch: 1 });
        assert_eq!(action_label(&act), "pf=0xf,cat=cmm,mba=0,stretch=1");
    }

    #[test]
    fn state_space_is_covered() {
        let mut det = Detection {
            interval1: vec![PmuDelta::default()],
            agg: vec![],
            friendly: vec![],
            unfriendly: vec![],
        };
        assert_eq!(state_of(&det), 0);
        det.agg = vec![0, 1, 2, 3];
        det.interval1 = vec![PmuDelta {
            cycles: 100,
            pf_used: 90,
            pf_wasted: 10,
            mem_demand_bytes: 100 * 64,
            ..PmuDelta::default()
        }];
        assert_eq!(state_of(&det), 2 * 9 + 2 * 3 + 2);
        assert!(state_of(&det) < N_STATES);
    }

    #[test]
    fn zero_epsilon_policy_always_starts_at_the_cmm_prior() {
        let mut a = RlPolicy::new(1, 0.0);
        let mut b = RlPolicy::new(2, 0.0);
        for state in 0..N_STATES {
            assert_eq!(a.bandit_mut(0).select(state), cmm_like_action());
            assert_eq!(b.bandit_mut(0).select(state), cmm_like_action());
        }
    }

    #[test]
    fn domains_get_independent_bandits() {
        let mut p = RlPolicy::new(7, 0.5);
        p.bandit_mut(0).select(0);
        p.bandit_mut(0).observe(1.0);
        assert_eq!(p.bandit_mut(1).count(0, cmm_like_action()), 0);
        assert_eq!(p.bandits.len(), 2);
    }
}
