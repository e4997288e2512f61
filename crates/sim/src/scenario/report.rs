//! What a run returns: [`RunReport`] and its per-ONI, per-switch, per-epoch
//! and per-phase entries.

use onoc_ecc_codes::EccScheme;
use onoc_link::CacheCounters;

use super::ScenarioConfig;
use crate::decision::DecisionParams;
use crate::stats::SimStats;

/// One scheme change taken during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeSwitch {
    /// Simulated time of the switch, in nanoseconds.
    pub time_ns: f64,
    /// Destination ONI whose channel switched.
    pub oni: usize,
    /// Scheme before the switch.
    pub from: EccScheme,
    /// Scheme after the switch.
    pub to: EccScheme,
    /// Channel temperature that triggered the re-decision, in °C.
    pub temperature_c: f64,
    /// Index of the epoch whose boundary took the decision — carried
    /// uniformly by every engine (previously omitted when the per-message
    /// policy drove a prescribed transient): `Some` for epoch-gated runs
    /// (matching the entry of [`RunReport::trajectory`] whose `time_ns`
    /// equals the switch time), `None` under the per-message policy, which
    /// steps no epochs.
    pub epoch: Option<u64>,
}

/// Temperature envelope of the interconnect at one epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// End of the epoch, in nanoseconds.
    pub time_ns: f64,
    /// Coolest node temperature, in °C.
    pub min_temperature_c: f64,
    /// Hottest node temperature, in °C.
    pub max_temperature_c: f64,
    /// Number of destination channels currently on a non-baseline scheme.
    pub reconfigured_onis: usize,
}

/// One phase boundary the epoch-gated engine crossed while playing a
/// scheduled workload ([`onoc_thermal::WorkloadSchedule`]): when it
/// happened, which ONIs hopped to their new-phase wavelength assignment,
/// and how many scheme switches the swap provoked right after.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTransition {
    /// Index of the phase being entered (the run starts inside phase 0
    /// without a transition, so indices here start at 1).
    pub phase: usize,
    /// Schedule time of the boundary, in nanoseconds.  The engine clamps
    /// the preceding epoch to end exactly here, so this is always an epoch
    /// edge of the run.
    pub time_ns: f64,
    /// Index of the first epoch played inside the new phase.
    pub epoch: u64,
    /// ONIs whose wavelength assignment fingerprint changed at this
    /// boundary (0 unless the scenario uses per-phase design assignments).
    pub swapped_onis: usize,
    /// Scheme switches taken in the storm window after the boundary — the
    /// epochs in `[epoch, epoch + 8)`, truncated at the next transition.
    /// The re-tuning cost of swapping the fleet mid-run.
    pub storm_switches: u64,
}

/// Final state of one destination channel after a run: the unified per-ONI
/// report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OniReport {
    /// Destination ONI index.
    pub oni: usize,
    /// Messages delivered to this destination.
    pub delivered_messages: u64,
    /// Channel temperature at the end of the run, in °C.  Under the
    /// per-message policy this is the temperature of the last decision
    /// applied to the channel (the ambient baseline when it saw no
    /// traffic).
    pub final_temperature_c: f64,
    /// Hottest temperature the channel saw, in °C (same caveat).
    pub peak_temperature_c: f64,
    /// Scheme the channel ended the run on.
    pub scheme: EccScheme,
    /// Channel power of the final operating point, in mW.
    pub channel_power_mw: f64,
    /// Thermal-tuning share of the final per-lane power, in mW.
    pub tuning_power_mw_per_lane: f64,
    /// Number of scheme changes the channel went through.
    pub scheme_switches: u64,
    /// Manager queries attributed to this destination channel: epoch-gated
    /// re-asks, or (per-message policy) the distinct decision solves this
    /// destination's traffic triggered beyond the baseline.  Sums to
    /// [`RunReport::decisions`] across the fleet.
    pub decisions: u64,
    /// Re-asks for this destination the manager could not serve (always 0
    /// under the per-message policy, which fails the build instead).  Sums
    /// to [`RunReport::infeasible_requests`].
    pub infeasible_requests: u64,
    /// Static (laser + ring heater) energy charged to this channel, in pJ.
    pub static_energy_pj: f64,
    /// Dynamic (modulation + codec) energy charged to this channel, in pJ.
    pub dynamic_energy_pj: f64,
}

impl OniReport {
    /// Records `point` as the operating point the channel holds, with its
    /// decision temperature as the final temperature.
    pub(super) fn hold(&mut self, point: &DecisionParams) {
        self.final_temperature_c = point.temperature_c;
        self.scheme = point.scheme;
        self.channel_power_mw = point.channel_power_mw;
        self.tuning_power_mw_per_lane = point.tuning_power_mw;
    }
}

/// Outcome of one scenario run: the unified report of every entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The configuration that was simulated.
    pub config: ScenarioConfig,
    /// Scheme of the initial operating point of ONI 0's channel.
    pub baseline_scheme: EccScheme,
    /// Channel power of that baseline point, in mW.
    pub baseline_channel_power_mw: f64,
    /// Decoded BER of that baseline point.
    pub baseline_decoded_ber: f64,
    /// Aggregate traffic statistics (energy includes the static share).
    pub stats: SimStats,
    /// Final per-destination state, sorted by ONI index (one entry per ONI).
    pub per_oni: Vec<OniReport>,
    /// Number of epochs stepped (0 under the per-message policy).
    pub epochs: u64,
    /// Manager queries: epoch-gated re-asks, or distinct per-message
    /// decision solves beyond the baseline.
    pub decisions: u64,
    /// Epoch-gated re-asks the manager could not serve (the channel kept its
    /// previous operating point).
    pub infeasible_requests: u64,
    /// Messages delivered on a scheme other than their destination's
    /// baseline.
    pub reconfigured_messages: u64,
    /// Every scheme change, in time order.
    pub switch_log: Vec<SchemeSwitch>,
    /// Temperature envelope per epoch (empty under the per-message policy).
    pub trajectory: Vec<EpochSample>,
    /// Phase boundaries crossed while playing a scheduled workload, in time
    /// order (empty under the per-message policy or an unscheduled model).
    pub phases: Vec<PhaseTransition>,
    /// Counters of the fleet's one operating-point cache: `misses` is the
    /// number of actual photonic-solver invocations.
    pub solver_cache: CacheCounters,
}

impl RunReport {
    /// Total scheme switches across the interconnect.
    #[must_use]
    pub fn total_switches(&self) -> u64 {
        self.switch_log.len() as u64
    }

    /// Number of distinct schemes in use at the end of the run.
    #[must_use]
    pub fn distinct_final_schemes(&self) -> usize {
        self.per_oni
            .iter()
            .map(|o| o.scheme)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    }

    /// The per-ONI entries that actually received traffic.
    pub fn active_onis(&self) -> impl Iterator<Item = &OniReport> {
        self.per_oni.iter().filter(|o| o.delivered_messages > 0)
    }
}
