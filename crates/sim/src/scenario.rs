//! The unified simulation surface: one builder, one run, one report.
//!
//! [`ScenarioBuilder`] is the simulator's one entry point: it composes
//!
//! * **traffic** (pattern, class, message geometry, arrival process, seed),
//! * a **thermal model** ([`onoc_thermal::ThermalModelSpec`]: prescribed
//!   environments, the activity-coupled RC network, or workload-heated
//!   compute clusters),
//! * a **decision policy** ([`DecisionPolicy`]: per-message decisions at
//!   injection time, or the epoch-gated feedback loop with hysteresis),
//! * the **link fleet** (thermal stack, per-ONI fabrication variation,
//!   tuning mode, operating-point cache resolution), and
//! * a **thread budget** for sharding independent per-ONI work
//!
//! into one [`Scenario`] whose [`Scenario::run`] returns the unified
//! [`RunReport`] — per-ONI state (delivered traffic, temperatures, scheme,
//! switches, energy split) plus run-level epochs, decisions, switch log,
//! trajectory and solver-cache counters, whatever combination produced it.
//!
//! # Example
//!
//! ```
//! use onoc_link::TrafficClass;
//! use onoc_sim::{traffic::TrafficPattern, ScenarioBuilder};
//!
//! let report = ScenarioBuilder::new()
//!     .oni_count(4)
//!     .pattern(TrafficPattern::UniformRandom { messages_per_node: 20 })
//!     .class(TrafficClass::Bulk)
//!     .words_per_message(8)
//!     .seed(7)
//!     .build()?
//!     .run();
//! assert_eq!(report.stats.delivered_messages, 4 * 20);
//! # Ok::<(), onoc_sim::SimulationError>(())
//! ```

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::path::PathBuf;

use onoc_ecc_codes::EccScheme;
use onoc_link::{
    CacheCounters, LinkManager, ManagerDecision, NanophotonicLink, SharedOpCache, ThermalLinkStack,
    TrafficClass,
};
use onoc_parallel::{default_shards, parallel_map_traced};
use onoc_telemetry::{RecorderHandle, TelemetryEvent};
use onoc_thermal::{
    AssignmentStrategy, BankTuningMode, FabricationVariation, RcNetworkParameters,
    ThermalEnvironment, ThermalModel, ThermalModelSpec, WavelengthAssignment, WorkloadSchedule,
    WorkloadTrace,
};
use onoc_topology::{FabricSpec, LinkKind, RouteTable, Router};
use onoc_units::Celsius;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::arbiter::TokenArbiter;
use crate::decision::{
    bucket_centre, bucket_index, conditional_corrupted_bits, DecisionParams, Event, EventKind,
    SimulationError,
};
use crate::packet::{Message, MessageId};
use crate::stats::SimStats;
use crate::time::SimTime;
use crate::traffic::{TrafficGenerator, TrafficPattern};

/// Per-ONI fabrication variation of a scenario's link fleet: every
/// destination channel becomes its own chip instance, with ring offsets
/// sampled from `sigma_nm` under a seed derived from `seed` and the ONI
/// index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingVariationConfig {
    /// Standard deviation of the per-ring resonance offsets, in nm.
    pub sigma_nm: f64,
    /// Base seed; each ONI derives its own chip seed from it.
    pub seed: u64,
    /// Tuning mode of every ONI's bank (pure heater or barrel shift).
    pub mode: BankTuningMode,
}

impl RingVariationConfig {
    /// Checks σ and the tuning mode.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        FabricationVariation {
            sigma_nm: self.sigma_nm,
            seed: self.seed,
        }
        .validate()?;
        self.mode.validate()
    }

    /// The chip instance of destination `oni`.
    #[must_use]
    pub fn oni_variation(&self, oni: usize) -> FabricationVariation {
        // SplitMix64 of (seed, oni) so neighbouring ONIs get uncorrelated
        // chips while the whole fleet stays reproducible.
        let z = onoc_thermal::bank::splitmix64_mix(
            self.seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(oni as u64 + 1)),
        );
        FabricationVariation::new(self.sigma_nm, z)
    }
}

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

/// When and how the runtime manager re-decides a channel's operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionPolicy {
    /// One decision per message, taken at injection time from the prescribed
    /// temperature of the destination channel.  Only valid with a
    /// [`ThermalModelSpec::Prescribed`] model — per-message precomputation
    /// cannot see temperatures the traffic itself will create.
    PerMessage {
        /// Temperature quantization of the decision cache, in kelvin:
        /// injections within the same bucket share one operating point.
        quantization_k: f64,
    },
    /// The epoch-stepped feedback loop: play events for one epoch, deposit
    /// the dissipated power into the thermal model, advance it, and re-ask
    /// the manager for ONIs whose temperature left its decision bucket —
    /// with deadband and scheme-revert hysteresis against oscillation.
    /// Valid with every thermal model.
    EpochGated {
        /// Epoch length, in nanoseconds.
        epoch_ns: f64,
        /// Temperature quantization of manager decisions, in kelvin.
        quantization_k: f64,
        /// Hysteresis deadband, in kelvin, on top of half a bucket.
        hysteresis_k: f64,
        /// Scheme-revert hysteresis, in kelvin: undoing a channel's most
        /// recent switch needs at least this much temperature excursion from
        /// the switch point.
        revert_hysteresis_k: f64,
    },
}

impl DecisionPolicy {
    /// The default per-message policy (0.5 K decision buckets).
    #[must_use]
    pub fn per_message() -> Self {
        Self::PerMessage {
            quantization_k: 0.5,
        }
    }

    /// The default epoch-gated policy (25 ns epochs, 0.5 K buckets, 1.5 K
    /// deadband, 10 K revert hysteresis).
    #[must_use]
    pub fn epoch_gated() -> Self {
        Self::EpochGated {
            epoch_ns: 25.0,
            quantization_k: 0.5,
            hysteresis_k: 1.5,
            revert_hysteresis_k: 10.0,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), SimulationError> {
        let quantization = match *self {
            Self::PerMessage { quantization_k } | Self::EpochGated { quantization_k, .. } => {
                quantization_k
            }
        };
        if !(quantization > 0.0 && quantization.is_finite()) {
            return Err(SimulationError::InvalidConfiguration {
                reason: format!(
                    "thermal quantization step must be positive and finite, got {quantization}"
                ),
            });
        }
        if let Self::EpochGated {
            epoch_ns,
            hysteresis_k,
            revert_hysteresis_k,
            ..
        } = *self
        {
            if !(epoch_ns > 0.0 && epoch_ns.is_finite()) {
                return Err(SimulationError::InvalidConfiguration {
                    reason: format!("epoch must be positive and finite, got {epoch_ns}"),
                });
            }
            for (name, value) in [
                ("hysteresis", hysteresis_k),
                ("revert hysteresis", revert_hysteresis_k),
            ] {
                if !(value >= 0.0 && value.is_finite()) {
                    return Err(SimulationError::InvalidConfiguration {
                        reason: format!("{name} must be non-negative and finite, got {value}"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Design-time (GLOW-style) wavelength-grid assignment of a scenario's link
/// fleet: before the run starts, every destination channel gets a
/// logical-wavelength → ring permutation searched against the thermal
/// model's own per-ONI design temperatures
/// ([`ThermalModelSpec::design_temperatures`]) and that ONI's chip instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignAssignmentConfig {
    /// Search strategy of the assigner.
    pub strategy: AssignmentStrategy,
    /// Base seed of the refinement search; each ONI derives its own.
    pub seed: u64,
    /// Derive one assignment fleet **per schedule phase** (each searched
    /// against that phase's own steady-state heat map,
    /// [`ThermalModelSpec::phase_design_temperatures`]) instead of a single
    /// fleet against the worst-case fold.  The epoch-gated engine swaps
    /// fleets hitlessly at phase boundaries.  With a single-phase (or
    /// unscheduled) thermal model this degenerates to the worst-case fleet.
    pub per_phase: bool,
}

impl DesignAssignmentConfig {
    /// The default greedy + local-search assigner under `seed`.
    #[must_use]
    pub fn greedy_refine(seed: u64) -> Self {
        Self {
            strategy: AssignmentStrategy::GreedyRefine,
            seed,
            per_phase: false,
        }
    }

    /// Switches to one assignment fleet per schedule phase (see
    /// [`DesignAssignmentConfig::per_phase`]).
    #[must_use]
    pub fn per_phase(mut self) -> Self {
        self.per_phase = true;
        self
    }

    /// The assigner seed of destination `oni` (SplitMix64 of `(seed, oni)`,
    /// mirroring [`RingVariationConfig::oni_variation`]).
    #[must_use]
    pub fn oni_seed(&self, oni: usize) -> u64 {
        onoc_thermal::bank::splitmix64_mix(
            self.seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(oni as u64 + 1)),
        )
    }
}

/// The complete description of one scenario: everything [`ScenarioBuilder`]
/// composes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Number of ONIs in the interconnect.
    pub oni_count: usize,
    /// Spatial/temporal traffic pattern.
    pub pattern: TrafficPattern,
    /// Traffic class of every message (drives the manager's scheme choice).
    pub class: TrafficClass,
    /// Number of 64-bit words per message.
    pub words_per_message: u64,
    /// Mean inter-arrival time at each source, in nanoseconds.
    pub mean_inter_arrival_ns: f64,
    /// Deadline slack granted to each message, in nanoseconds (`None` = no
    /// deadlines).
    pub deadline_slack_ns: Option<f64>,
    /// Nominal BER target the platform guarantees.
    pub nominal_ber: f64,
    /// RNG seed (traffic and error injection are fully reproducible).
    pub seed: u64,
    /// The thermal substrate the run plays over.
    pub thermal: ThermalModelSpec,
    /// Decision policy; `None` derives it from the thermal model
    /// (prescribed → per-message, coupled → epoch-gated defaults).
    pub policy: Option<DecisionPolicy>,
    /// Optional custom thermal stack (drift slope, heater, tune policy) for
    /// every ONI's link; `None` uses the paper default.
    pub stack: Option<ThermalLinkStack>,
    /// Optional per-ONI fabrication variation: `Some` makes the fleet
    /// heterogeneous (one seeded chip instance per destination channel).
    pub variation: Option<RingVariationConfig>,
    /// Optional design-time wavelength assignment: `Some` runs the
    /// GLOW-style assigner per ONI (against the thermal model's design
    /// temperatures and the ONI's chip instance) before the run starts, so
    /// the fleet becomes heterogeneous like under `variation`.
    pub assignment: Option<DesignAssignmentConfig>,
    /// Optional fabric topology: the physical link structure the traffic
    /// rides over.  `None` keeps the canonical single MWSR ring (one reader
    /// channel per destination, all-to-all single-hop) — exactly equivalent
    /// to `Topology::single_ring(oni_count)` with zero crosstalk, and pinned
    /// bit-identical to it by the golden tests.  A configured fabric routes
    /// every flow over deterministic shortest paths; waveguide-group
    /// crosstalk makes the fleet thermally heterogeneous, and electrical
    /// fallback links carry multi-hop traffic between clusters.
    pub topology: Option<FabricSpec>,
    /// Optional operating-point cache resolution override, in buckets per
    /// kelvin (`None` keeps the link default of 20).
    pub cache_buckets_per_kelvin: Option<f64>,
    /// Thread budget for sharding independent per-ONI work (baseline solves
    /// and epoch re-asks of heterogeneous fleets); `0` = one shard per core.
    /// Any value produces bit-identical reports.
    pub threads: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            oni_count: 12,
            pattern: TrafficPattern::UniformRandom {
                messages_per_node: 10,
            },
            class: TrafficClass::Bulk,
            words_per_message: 16,
            mean_inter_arrival_ns: 5.0,
            deadline_slack_ns: None,
            nominal_ber: 1e-11,
            seed: 1,
            thermal: ThermalModelSpec::paper_ambient(),
            policy: None,
            stack: None,
            variation: None,
            assignment: None,
            topology: None,
            cache_buckets_per_kelvin: None,
            threads: 0,
        }
    }
}

impl ScenarioConfig {
    /// The decision policy in effect: the explicit one, or the default
    /// derived from the thermal model family.
    #[must_use]
    pub fn resolved_policy(&self) -> DecisionPolicy {
        self.policy.unwrap_or({
            if self.thermal.is_activity_coupled() {
                DecisionPolicy::epoch_gated()
            } else {
                DecisionPolicy::per_message()
            }
        })
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// [`SimulationError::InvalidConfiguration`] for structural problems:
    /// too few ONIs, empty messages, a BER outside (0, 0.5), a degenerate
    /// arrival process, an invalid thermal model or policy, a per-message
    /// policy over an activity-coupled model, an invalid stack/variation, or
    /// a degenerate cache resolution.
    pub fn validate(&self) -> Result<(), SimulationError> {
        if self.oni_count < 2 {
            return Err(SimulationError::InvalidConfiguration {
                reason: "at least two ONIs are required".into(),
            });
        }
        if self.words_per_message == 0 {
            return Err(SimulationError::InvalidConfiguration {
                reason: "messages must carry at least one word".into(),
            });
        }
        if !(self.nominal_ber > 0.0 && self.nominal_ber < 0.5) {
            return Err(SimulationError::InvalidConfiguration {
                reason: "nominal BER must be in (0, 0.5)".into(),
            });
        }
        if !(self.mean_inter_arrival_ns > 0.0 && self.mean_inter_arrival_ns.is_finite()) {
            return Err(SimulationError::InvalidConfiguration {
                reason: format!(
                    "mean inter-arrival time must be positive and finite, got {}",
                    self.mean_inter_arrival_ns
                ),
            });
        }
        self.thermal
            .validate(self.oni_count)
            .map_err(|reason| SimulationError::InvalidConfiguration { reason })?;
        let policy = self.resolved_policy();
        policy.validate()?;
        if matches!(policy, DecisionPolicy::PerMessage { .. }) && self.thermal.is_activity_coupled()
        {
            return Err(SimulationError::InvalidConfiguration {
                reason: "per-message decisions replay a prescribed thermal model; \
                         activity-coupled and workload-heated models need the \
                         epoch-gated policy"
                    .into(),
            });
        }
        if matches!(policy, DecisionPolicy::PerMessage { .. }) && self.variation.is_some() {
            // The per-message engine keeps one fleet-wide baseline (ONI 0's
            // chip) for static-power residency and switch bookkeeping; a
            // heterogeneous fleet needs the per-ONI baselines only the
            // epoch-gated engine maintains.
            return Err(SimulationError::InvalidConfiguration {
                reason: "per-ONI fabrication variation requires the epoch-gated policy".into(),
            });
        }
        if matches!(policy, DecisionPolicy::PerMessage { .. }) && self.assignment.is_some() {
            // Per-ONI design temperatures produce per-ONI assignments —
            // the same heterogeneous-fleet situation as `variation`.
            return Err(SimulationError::InvalidConfiguration {
                reason: "design-time wavelength assignment requires the epoch-gated policy".into(),
            });
        }
        if let Some(stack) = &self.stack {
            stack
                .validate()
                .map_err(|reason| SimulationError::InvalidConfiguration { reason })?;
            if let Some(assignment) = &stack.assignment {
                // The stack validator checks the permutation structure; the
                // length against the (fixed) channel grid is checked here so
                // a mis-sized assignment is a configuration error, not a
                // panic inside `ThermalSolver::new` mid-build.
                let lanes = NanophotonicLink::paper_link()
                    .channel()
                    .geometry()
                    .wavelength_count();
                if assignment.len() != lanes {
                    return Err(SimulationError::InvalidConfiguration {
                        reason: format!(
                            "stack wavelength assignment covers {} lanes but the channel \
                             carries {lanes} wavelengths",
                            assignment.len()
                        ),
                    });
                }
            }
        }
        if let Some(variation) = &self.variation {
            variation
                .validate()
                .map_err(|reason| SimulationError::InvalidConfiguration { reason })?;
        }
        if let Some(buckets) = self.cache_buckets_per_kelvin {
            if !(buckets > 0.0 && buckets.is_finite()) {
                return Err(SimulationError::InvalidConfiguration {
                    reason: format!(
                        "cache resolution must be positive and finite, got {buckets} \
                         buckets per kelvin"
                    ),
                });
            }
        }
        if let Some(fabric) = &self.topology {
            fabric
                .validate()
                .map_err(|e| SimulationError::InvalidConfiguration {
                    reason: e.to_string(),
                })?;
            if fabric.topology.node_count() != self.oni_count {
                return Err(SimulationError::InvalidConfiguration {
                    reason: format!(
                        "the topology spans {} nodes but the scenario has {} ONIs",
                        fabric.topology.node_count(),
                        self.oni_count
                    ),
                });
            }
            let routes = Router::resolve(&fabric.topology);
            if routes.uses_swmr() {
                return Err(SimulationError::InvalidConfiguration {
                    reason: "SWMR hops are not yet supported by the scenario engines \
                             (the arbiters serialize per destination channel)"
                        .into(),
                });
            }
            if matches!(policy, DecisionPolicy::PerMessage { .. }) && !routes.is_single_hop() {
                // The per-message engine precomputes one decision per
                // injection; a message relayed through intermediate routers
                // needs the per-hop grant bookkeeping only the epoch-gated
                // engine maintains.
                return Err(SimulationError::InvalidConfiguration {
                    reason: "multi-hop topologies require the epoch-gated policy".into(),
                });
            }
            if matches!(policy, DecisionPolicy::PerMessage { .. })
                && self.topology_fleet_is_heterogeneous()
            {
                // Crosstalk-scaled drift slopes give every waveguide group
                // its own chip behaviour — the same heterogeneous-fleet
                // situation as `variation`.
                return Err(SimulationError::InvalidConfiguration {
                    reason: "a crosstalk-heterogeneous topology requires the \
                             epoch-gated policy"
                        .into(),
                });
            }
        }
        Ok(())
    }

    /// Whether the configured topology gives different ONIs different
    /// thermal stacks: nonzero waveguide-group crosstalk over groups of
    /// unequal population scales each reader channel's drift slope by its
    /// own neighbour count.
    fn topology_fleet_is_heterogeneous(&self) -> bool {
        let Some(fabric) = &self.topology else {
            return false;
        };
        if fabric.crosstalk_per_neighbor <= 0.0 {
            return false;
        }
        let fabric_nodes = &fabric.topology;
        let populations: std::collections::BTreeSet<usize> = (0..fabric_nodes.node_count())
            .map(|node| {
                let link = fabric_nodes
                    .reader_link(node)
                    .expect("validated: every node reads one MWSR channel");
                fabric_nodes.group_population(fabric_nodes.links()[link].waveguide_group)
            })
            .collect();
        populations.len() > 1
    }

    /// The crosstalk-adjusted thermal stack of `oni`'s reader channel under
    /// the configured topology — `None` when no topology is set or when the
    /// derived stack equals the base (zero crosstalk / isolated group), so
    /// the default single-ring path stays byte-identical to a run without a
    /// topology.
    fn topology_stack(&self, oni: usize) -> Option<ThermalLinkStack> {
        let fabric = self.topology.as_ref()?;
        let base = self
            .stack
            .clone()
            .unwrap_or_else(ThermalLinkStack::paper_default);
        let link = fabric
            .topology
            .reader_link(oni)
            .expect("validated: every node reads one MWSR channel");
        let stack = fabric
            .link_stack(&base, link)
            .expect("reader links are photonic");
        if stack == base {
            None
        } else {
            Some(stack)
        }
    }

    /// The link of destination `oni` under this configuration: the base
    /// stack (custom or paper default) plus, for heterogeneous fleets, that
    /// ONI's own chip instance and tuning mode.  With a fleet cache the link
    /// joins the shared storage (the cache handle carries the resolution);
    /// without one it keeps a private cache at the configured resolution.
    fn oni_link(&self, oni: usize, fleet_cache: Option<&SharedOpCache>) -> NanophotonicLink {
        let mut link = NanophotonicLink::paper_link();
        if let Some(stack) = self.topology_stack(oni) {
            // Crosstalk-adjusted reader-channel stack of this node's fabric
            // link; falls back to the plain base stack below when the
            // topology leaves it unchanged.
            link = link.with_thermal_stack(stack);
        } else if let Some(stack) = self.stack.clone() {
            link = link.with_thermal_stack(stack);
        }
        if let Some(variation) = &self.variation {
            link = link
                .with_fabrication_variation(variation.oni_variation(oni))
                .with_bank_tuning_mode(variation.mode);
        }
        if let Some(cache) = fleet_cache {
            link = link.with_shared_cache(cache.clone());
        } else if let Some(buckets) = self.cache_buckets_per_kelvin {
            link = link
                .with_cache_resolution(buckets)
                .unwrap_or_else(|e| panic!("validated cache resolution: {e}"));
        }
        link
    }

    fn shards(&self) -> usize {
        if self.threads == 0 {
            default_shards()
        } else {
            self.threads
        }
    }
}

/// Builder over [`ScenarioConfig`]: every knob is a chainable setter, and
/// the setters commute — the report depends only on the final configuration,
/// never on the order the fields were set in (property-tested).
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    config: ScenarioConfig,
    /// Telemetry sink threaded through the manager fleet and both run
    /// engines.  Deliberately *not* part of [`ScenarioConfig`]: a recorder
    /// is a side channel, not a simulated quantity, so config equality and
    /// the report stay recorder-independent.
    recorder: RecorderHandle,
    /// Externally-injected shared operating-point cache (scale-out warm
    /// start across scenarios).  A side channel like the recorder: the cache
    /// only memoizes deterministic solver outputs, so the report is
    /// bit-identical with or without it.
    shared_cache: Option<SharedOpCache>,
    /// Persistent cache snapshot: loaded (if present) before the run, saved
    /// after it.  Also a side channel — see `shared_cache`.
    snapshot_path: Option<PathBuf>,
    /// Forces one manager (and one private cache) per ONI even for a
    /// homogeneous fleet — the pre-scale-out engine, kept for A/B
    /// comparison.  Physics are bit-identical to the shared-cache engine;
    /// only the cache counters differ (each ONI re-solves its own points).
    per_link_caches: bool,
}

impl ScenarioBuilder {
    /// Starts from the default configuration (12 ONIs, bulk uniform-random
    /// traffic, the paper's fixed 25 °C ambient, per-message decisions).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an existing configuration.
    #[must_use]
    pub fn from_config(config: ScenarioConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// The configuration built so far.
    #[must_use]
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Sets the number of ONIs.
    #[must_use]
    pub fn oni_count(mut self, oni_count: usize) -> Self {
        self.config.oni_count = oni_count;
        self
    }

    /// Sets the traffic pattern.
    #[must_use]
    pub fn pattern(mut self, pattern: TrafficPattern) -> Self {
        self.config.pattern = pattern;
        self
    }

    /// Sets the traffic class.
    #[must_use]
    pub fn class(mut self, class: TrafficClass) -> Self {
        self.config.class = class;
        self
    }

    /// Sets the number of 64-bit words per message.
    #[must_use]
    pub fn words_per_message(mut self, words: u64) -> Self {
        self.config.words_per_message = words;
        self
    }

    /// Sets the mean inter-arrival time per source, in nanoseconds.
    #[must_use]
    pub fn mean_inter_arrival_ns(mut self, mean_ns: f64) -> Self {
        self.config.mean_inter_arrival_ns = mean_ns;
        self
    }

    /// Grants every message a deadline `slack_ns` after its injection.
    #[must_use]
    pub fn deadline_slack_ns(mut self, slack_ns: Option<f64>) -> Self {
        self.config.deadline_slack_ns = slack_ns;
        self
    }

    /// Sets the nominal BER target.
    #[must_use]
    pub fn nominal_ber(mut self, ber: f64) -> Self {
        self.config.nominal_ber = ber;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the thermal model spec directly.
    #[must_use]
    pub fn thermal_model(mut self, spec: ThermalModelSpec) -> Self {
        self.config.thermal = spec;
        self
    }

    /// Plays the run over a prescribed temperature trace.
    #[must_use]
    pub fn prescribed(self, environment: ThermalEnvironment) -> Self {
        self.thermal_model(ThermalModelSpec::Prescribed { environment })
    }

    /// Heats the run with the link's own dissipation through a per-ONI RC
    /// network.
    #[must_use]
    pub fn activity_coupled(self, network: RcNetworkParameters) -> Self {
        self.thermal_model(ThermalModelSpec::ActivityCoupled { network })
    }

    /// Heats the run with the link's dissipation *plus* per-ONI workload
    /// heat-injection traces (one per ONI).
    #[must_use]
    pub fn workload_heated(self, network: RcNetworkParameters, traces: Vec<WorkloadTrace>) -> Self {
        self.thermal_model(ThermalModelSpec::WorkloadHeated { network, traces })
    }

    /// Heats the run with the link's dissipation plus a phase-scheduled
    /// DVFS workload: per-ONI heat-injection traces that change at phase
    /// boundaries ([`onoc_thermal::WorkloadSchedule`] — diurnal power
    /// levels, task migration between clusters).  The epoch-gated engine
    /// clamps epochs to the phase boundaries and, with
    /// [`DesignAssignmentConfig::per_phase`], swaps each ONI's wavelength
    /// assignment hitlessly as its phase begins.
    #[must_use]
    pub fn workload_scheduled(
        self,
        network: RcNetworkParameters,
        schedule: WorkloadSchedule,
    ) -> Self {
        self.thermal_model(ThermalModelSpec::WorkloadScheduled { network, schedule })
    }

    /// Sets the decision policy explicitly (the default follows the thermal
    /// model: prescribed → per-message, coupled → epoch-gated).
    #[must_use]
    pub fn policy(mut self, policy: DecisionPolicy) -> Self {
        self.config.policy = Some(policy);
        self
    }

    /// Replaces the thermal stack of every ONI's link.
    #[must_use]
    pub fn stack(mut self, stack: ThermalLinkStack) -> Self {
        self.config.stack = Some(stack);
        self
    }

    /// Gives the fleet per-ONI fabrication variation (one chip instance and
    /// manager per destination channel).
    #[must_use]
    pub fn variation(mut self, variation: RingVariationConfig) -> Self {
        self.config.variation = Some(variation);
        self
    }

    /// Runs the design-time (GLOW-style) wavelength assigner per ONI before
    /// the run starts: each destination channel's logical-wavelength → ring
    /// mapping is searched against the thermal model's design temperatures
    /// ([`ThermalModelSpec::design_temperatures`]) and that ONI's chip
    /// instance.  Requires the epoch-gated policy (per-ONI assignments make
    /// the fleet heterogeneous).
    #[must_use]
    pub fn design_assignment(mut self, assignment: DesignAssignmentConfig) -> Self {
        self.config.assignment = Some(assignment);
        self
    }

    /// Routes the traffic over a fabric topology (see
    /// [`onoc_topology::Topology`]): per-flow deterministic shortest paths,
    /// per-router queueing at the existing per-destination arbiters, and
    /// additive per-hop latency/energy accounting.  Accepts a bare
    /// [`onoc_topology::Topology`] (zero crosstalk, paper electrical
    /// fallback) or a full [`FabricSpec`].  The canonical
    /// `Topology::single_ring(oni_count)` is pinned bit-identical to the
    /// default (no-topology) run.  Multi-hop fabrics and
    /// crosstalk-heterogeneous fleets require the epoch-gated policy.
    #[must_use]
    pub fn topology(mut self, fabric: impl Into<FabricSpec>) -> Self {
        self.config.topology = Some(fabric.into());
        self
    }

    /// Overrides the operating-point cache resolution, in buckets per
    /// kelvin.  Degenerate values are rejected by
    /// [`ScenarioBuilder::build`] as
    /// [`SimulationError::InvalidConfiguration`].
    #[must_use]
    pub fn cache_resolution(mut self, buckets_per_kelvin: f64) -> Self {
        self.config.cache_buckets_per_kelvin = Some(buckets_per_kelvin);
        self
    }

    /// Sets the thread budget for sharding independent per-ONI work
    /// (`0` = one shard per core).  Reports are bit-identical at any value.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Attaches a telemetry sink: the manager fleet emits solver/cache/
    /// decision events, the design-time assigner emits search steps, the
    /// epoch engine emits [`TelemetryEvent::EpochAdvanced`] and
    /// [`TelemetryEvent::SchemeSwitched`], and sharded fan-outs emit
    /// per-shard wall-clock timings.  The report itself is bit-identical
    /// with or without a recorder (property-tested).
    #[must_use]
    pub fn telemetry(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Points the whole manager fleet at an externally-owned shared
    /// operating-point cache: every link joins `cache`'s storage, so
    /// repeated scenarios (sweeps, A/B runs) reuse each other's solves.  The
    /// cache handle carries its own temperature resolution; combining it
    /// with a conflicting [`ScenarioBuilder::cache_resolution`] override is
    /// rejected by [`ScenarioBuilder::build`].  Like the recorder, the cache
    /// is a side channel: the report is bit-identical with or without it —
    /// only the solver-cache counters reflect the warm start.
    #[must_use]
    pub fn shared_cache(mut self, cache: SharedOpCache) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Persists the fleet's operating-point cache at `path`: if the file
    /// exists it is loaded before the run (warm start — a repeat of the same
    /// sweep reports zero solver invocations), and the cache is saved back
    /// after [`Scenario::run`] completes.  The snapshot is rendered through
    /// the deterministic telemetry JSON kernel, so its bytes are reproducible
    /// for a given entry set.  Mutually exclusive with
    /// [`ScenarioBuilder::per_link_caches`].
    #[must_use]
    pub fn cache_snapshot(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot_path = Some(path.into());
        self
    }

    /// Forces the pre-scale-out fleet layout: one manager with its own
    /// private cache per ONI, even when the fleet is homogeneous.  Physics
    /// are bit-identical to the default shared-cache engine (property-
    /// tested); only the cache counters differ, since every ONI re-solves
    /// points its neighbours already computed.  Kept for A/B comparison and
    /// for isolating one channel's solver traffic.
    #[must_use]
    pub fn per_link_caches(mut self) -> Self {
        self.per_link_caches = true;
        self
    }

    /// Validates the configuration and prepares the scenario: builds the
    /// manager fleet, generates the traffic, and solves the initial
    /// operating points.
    ///
    /// # Errors
    ///
    /// * [`SimulationError::InvalidConfiguration`] — see
    ///   [`ScenarioConfig::validate`];
    /// * [`SimulationError::NoFeasibleConfiguration`] when the traffic class
    ///   cannot be served at some required temperature.
    pub fn build(self) -> Result<Scenario, SimulationError> {
        Scenario::prepare(
            self.config,
            self.recorder,
            FleetCacheSetup {
                shared_cache: self.shared_cache,
                snapshot_path: self.snapshot_path,
                per_link_caches: self.per_link_caches,
            },
        )
    }
}

/// How the fleet's operating-point caches are wired: the builder's
/// side-channel cache knobs, collected for [`Scenario::prepare`].
#[derive(Debug, Default)]
struct FleetCacheSetup {
    shared_cache: Option<SharedOpCache>,
    snapshot_path: Option<PathBuf>,
    per_link_caches: bool,
}

impl FleetCacheSetup {
    /// Resolves the fleet cache: the injected handle, a warm-started load of
    /// the snapshot file, or a fresh cache at the configured resolution.
    /// Returns `None` in per-link mode (every link keeps a private cache).
    fn resolve(&self, config: &ScenarioConfig) -> Result<Option<SharedOpCache>, SimulationError> {
        let invalid = |reason: String| SimulationError::InvalidConfiguration { reason };
        if self.per_link_caches {
            if self.shared_cache.is_some() || self.snapshot_path.is_some() {
                return Err(invalid(
                    "per-link caches cannot be combined with a shared cache or a cache snapshot"
                        .into(),
                ));
            }
            return Ok(None);
        }
        let check_resolution = |cache: &SharedOpCache, origin: &str| {
            if let Some(buckets) = config.cache_buckets_per_kelvin {
                if cache.buckets_per_kelvin() != buckets {
                    return Err(invalid(format!(
                        "{origin} holds {} buckets per kelvin but the scenario configures \
                         {buckets}; entries solved on one grid cannot be served on another",
                        cache.buckets_per_kelvin()
                    )));
                }
            }
            Ok(())
        };
        if let Some(cache) = &self.shared_cache {
            check_resolution(cache, "the injected shared cache")?;
            if self.snapshot_path.is_some() {
                return Err(invalid(
                    "an injected shared cache cannot be combined with a cache snapshot; \
                     pick one owner for the warm start"
                        .into(),
                ));
            }
            return Ok(Some(cache.clone()));
        }
        if let Some(path) = &self.snapshot_path {
            if path.exists() {
                let cache = SharedOpCache::load(path)
                    .map_err(|e| invalid(format!("cache snapshot failed to load: {e}")))?;
                check_resolution(&cache, "the loaded cache snapshot")?;
                return Ok(Some(cache));
            }
            // First run: start cold, save after the run.
            let cache = match config.cache_buckets_per_kelvin {
                Some(buckets) => {
                    SharedOpCache::with_resolution(buckets).map_err(|e| invalid(e.to_string()))?
                }
                None => SharedOpCache::new(),
            };
            return Ok(Some(cache));
        }
        Ok(None)
    }
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
    /// Aggregated operating-point cache counters of the manager fleet:
    /// `misses` is the number of actual photonic-solver invocations.
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

/// Per-destination live state during an epoch-gated run.
#[derive(Debug, Clone, Copy)]
struct ChannelState {
    params: DecisionParams,
    /// Scheme of this channel's own initial baseline (with a heterogeneous
    /// fleet, different ONIs can legitimately start on different schemes).
    baseline_scheme: EccScheme,
    /// Temperature (bucket centre) of the last decision, in °C.
    decision_temperature_c: f64,
    /// Most recent scheme switch: the scheme switched *away from* and the
    /// channel temperature at the switch (the revert-hysteresis anchor).
    last_switch: Option<(EccScheme, f64)>,
    /// Transfer in flight: operating point captured at grant time, and when
    /// it started.
    active: Option<(DecisionParams, SimTime)>,
    peak_temperature_c: f64,
    switches: u64,
}

/// Outcome of playing one destination channel's events through one epoch:
/// everything the merge step folds back into the global run state.  The
/// fold always walks destinations in ascending order, so the report is
/// independent of how the playback was scheduled across threads.
#[derive(Debug)]
struct ChannelPlayback {
    channel: ChannelState,
    arbiter: TokenArbiter,
    /// Completions scheduled past the epoch boundary, re-queued globally.
    carryover: Vec<Event>,
    /// Latest event time this channel processed.
    local_makespan: SimTime,
    delivered: u64,
    delivered_bits: u64,
    hops: u64,
    busy_ns: f64,
    /// Dynamic energy charged inside this epoch, in pJ.
    dynamic_pj: f64,
    reconfigured: u64,
    total_latency_ns: f64,
    max_latency_ns: f64,
    deadline_misses: u64,
    corrupted_words: u64,
    corrupted_bits: u64,
    corrected_words: u64,
}

/// The error-injection RNG stream of one message on one hop, derived from
/// the scenario seed, the message id and the hop index (SplitMix64 mixing,
/// like [`RingVariationConfig::oni_variation`]).  Tying the stream to the
/// message instead of the playback position keeps the sampled errors
/// identical whether the epoch events are played serially or sharded by
/// destination channel.
fn hop_error_rng(seed: u64, message: MessageId, hop: u64) -> StdRng {
    StdRng::seed_from_u64(onoc_thermal::bank::splitmix64_mix(
        (seed ^ 0x0E44_5EED_0DD5_EED5)
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(message.0.wrapping_add(1)))
            .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(hop.wrapping_add(1))),
    ))
}

/// Samples the residual-error outcome of one transfer: `(corrupted words,
/// corrupted bits, corrected words)` over `words` 64-bit words at `point`.
fn sample_word_errors(rng: &mut StdRng, words: u64, point: &DecisionParams) -> (u64, u64, u64) {
    let mut corrupted_words = 0u64;
    let mut corrupted_bits = 0u64;
    let mut corrected_words = 0u64;
    for _ in 0..words {
        if rng.gen_bool(point.word_error_probability.clamp(0.0, 1.0)) {
            corrupted_words += 1;
            corrupted_bits += conditional_corrupted_bits(rng, 64, point.decoded_ber);
        }
        if rng.gen_bool(point.corrected_probability.clamp(0.0, 1.0)) {
            corrected_words += 1;
        }
    }
    (corrupted_words, corrupted_bits, corrected_words)
}

/// Per-ONI bookkeeping shared by both run loops.
#[derive(Debug, Clone, Default)]
struct OniAccumulators {
    delivered: Vec<u64>,
    static_pj: Vec<f64>,
    dynamic_pj: Vec<f64>,
}

impl OniAccumulators {
    fn new(oni_count: usize) -> Self {
        Self {
            delivered: vec![0; oni_count],
            static_pj: vec![0.0; oni_count],
            dynamic_pj: vec![0.0; oni_count],
        }
    }
}

/// A fully-prepared scenario, ready to [`Scenario::run`].
#[derive(Debug)]
pub struct Scenario {
    config: ScenarioConfig,
    policy: DecisionPolicy,
    /// The manager fleets, one per design phase: `managers[phase][oni]`.
    /// All runs keep exactly one fleet unless per-phase design assignments
    /// are configured over a scheduled model; within a fleet there is one
    /// manager per destination ONI for heterogeneous fleets, or a single
    /// shared manager (and operating-point cache) when every channel is the
    /// same chip.
    managers: Vec<Vec<LinkManager>>,
    /// Distinct operating-point decisions: the baseline of ONI 0 first,
    /// then (per-message policy) one entry per distinct decision bucket.
    decisions: Vec<ManagerDecision>,
    /// Per-message policy: decision index per message (baseline when
    /// absent).
    assignment: BTreeMap<MessageId, usize>,
    /// Per-message policy: manager solves performed during precomputation.
    precompute_queries: u64,
    /// Per-message policy: those solves attributed to the destination ONI
    /// whose message triggered them.
    precompute_per_oni: Vec<u64>,
    /// Epoch-gated policy: initial operating point per ONI.
    baselines: Vec<DecisionParams>,
    /// Epoch-gated policy: the instantiated thermal model.
    model: Option<Box<dyn ThermalModel>>,
    /// Design-time wavelength assignments, `assignments[phase][oni]`
    /// (empty when the scenario runs unassigned; a single phase-0 fleet
    /// unless per-phase assignments are configured).
    assignments: Vec<Vec<WavelengthAssignment>>,
    /// Resolved per-flow routes of the configured topology (`None` without
    /// one: the canonical ring needs no table — every flow is the single
    /// hop onto its destination's reader channel).
    routes: Option<RouteTable>,
    messages: BTreeMap<MessageId, Message>,
    injection_order: Vec<MessageId>,
    rng: StdRng,
    /// Telemetry sink shared with the manager fleet (see
    /// [`ScenarioBuilder::telemetry`]).
    recorder: RecorderHandle,
    /// The shared operating-point cache the whole fleet resolves through,
    /// when one is in play (injected, snapshot-loaded, or snapshot-fresh);
    /// `None` when every manager owns a private cache.
    fleet_cache: Option<SharedOpCache>,
    /// Where to save the fleet cache after the run (see
    /// [`ScenarioBuilder::cache_snapshot`]).
    snapshot_path: Option<PathBuf>,
}

impl Scenario {
    /// Validates `config` and prepares the run (manager fleet, traffic,
    /// initial operating points).
    ///
    /// # Errors
    ///
    /// See [`ScenarioBuilder::build`].
    pub fn new(config: ScenarioConfig) -> Result<Self, SimulationError> {
        Self::new_traced(config, RecorderHandle::none())
    }

    /// [`Scenario::new`] with a telemetry sink threaded through the manager
    /// fleet, the design-time assigner and the run engines (see
    /// [`ScenarioBuilder::telemetry`]).
    ///
    /// # Errors
    ///
    /// See [`ScenarioBuilder::build`].
    pub fn new_traced(
        config: ScenarioConfig,
        recorder: RecorderHandle,
    ) -> Result<Self, SimulationError> {
        Self::prepare(config, recorder, FleetCacheSetup::default())
    }

    /// The full preparation path behind [`ScenarioBuilder::build`]:
    /// [`Scenario::new_traced`] plus the builder's cache side channels.
    fn prepare(
        config: ScenarioConfig,
        recorder: RecorderHandle,
        cache_setup: FleetCacheSetup,
    ) -> Result<Self, SimulationError> {
        config.validate()?;
        let policy = config.resolved_policy();
        let n = config.oni_count;
        let mut fleet_cache = cache_setup.resolve(&config)?;
        let topology_heterogeneous = config.topology_fleet_is_heterogeneous();
        if fleet_cache.is_none() && !cache_setup.per_link_caches && topology_heterogeneous {
            // Crosstalk-heterogeneous fabric: stamp one fleet-wide shared
            // cache so links whose derived stacks coincide reuse each
            // other's solves — keys carry the stack fingerprint, so mixing
            // distinct stacks in one store is safe.
            fleet_cache = Some(match config.cache_buckets_per_kelvin {
                Some(buckets) => SharedOpCache::with_resolution(buckets).map_err(|e| {
                    SimulationError::InvalidConfiguration {
                        reason: e.to_string(),
                    }
                })?,
                None => SharedOpCache::new(),
            });
        }
        // A homogeneous fleet shares one manager (and one operating-point
        // cache); a heterogeneous fleet — per-ONI chip instances, per-ONI
        // design-time assignments, or crosstalk-scaled topology stacks —
        // gets one manager per ONI, as does the per-link-cache A/B engine.
        let manager_count = if config.variation.is_some()
            || config.assignment.is_some()
            || cache_setup.per_link_caches
            || topology_heterogeneous
        {
            n
        } else {
            1
        };
        // Design-time wavelength assignment: search each ONI's permutation
        // against the thermal model's own design temperatures before the
        // first operating point is ever solved.  Per-phase mode searches one
        // fleet per schedule phase against that phase's own heat map;
        // otherwise a single fleet is searched against the worst-case fold.
        let design = match config.assignment {
            Some(spec) => {
                let maps = if spec.per_phase {
                    config.thermal.phase_design_temperatures(n)
                } else {
                    config.thermal.design_temperatures(n).map(|map| vec![map])
                }
                .map_err(|e| SimulationError::InvalidConfiguration {
                    reason: e.to_string(),
                })?;
                Some((spec, maps))
            }
            None => None,
        };
        let phase_fleets = design.as_ref().map_or(1, |(_, maps)| maps.len());
        let mut assignments: Vec<Vec<WavelengthAssignment>> = Vec::new();
        let managers: Vec<Vec<LinkManager>> = (0..phase_fleets)
            .map(|phase| {
                let mut fleet_assignments: Vec<WavelengthAssignment> = Vec::new();
                let fleet: Vec<LinkManager> = (0..manager_count)
                    .map(|oni| {
                        let mut link = config
                            .oni_link(oni, fleet_cache.as_ref())
                            .with_telemetry(recorder.clone());
                        if let Some((spec, maps)) = &design {
                            let assigner =
                                link.wavelength_assigner(spec.strategy, spec.oni_seed(oni));
                            let assignment = assigner.assign_traced(
                                &link.ring_bank_state_at(maps[phase][oni]),
                                &recorder,
                            );
                            fleet_assignments.push(assignment.clone());
                            link = link
                                .with_wavelength_assignment(assignment)
                                .expect("the assigner covers the link's own wavelength grid");
                        }
                        LinkManager::new(
                            link,
                            EccScheme::paper_schemes().to_vec(),
                            config.nominal_ber,
                        )
                    })
                    .collect();
                if design.is_some() {
                    assignments.push(fleet_assignments);
                }
                fleet
            })
            .collect();

        let generated = TrafficGenerator::new(
            config.pattern,
            config.oni_count,
            config.words_per_message,
            config.class,
            config.mean_inter_arrival_ns,
            config.deadline_slack_ns,
            config.seed,
        )
        .generate();

        let mut decisions: Vec<ManagerDecision> = Vec::new();
        let mut assignment: BTreeMap<MessageId, usize> = BTreeMap::new();
        let mut precompute_queries = 0u64;
        let mut precompute_per_oni = vec![0u64; n];
        let mut baselines: Vec<DecisionParams> = Vec::new();
        let mut model: Option<Box<dyn ThermalModel>> = None;

        let infeasible = || SimulationError::NoFeasibleConfiguration {
            class: config.class,
        };
        let manager_index = |oni: usize| if manager_count == 1 { 0 } else { oni };

        match policy {
            DecisionPolicy::PerMessage { quantization_k } => {
                // The baseline of ONI 0's chip at the calibration ambient,
                // then one decision per distinct (manager, temperature
                // bucket) a message injection touches.
                let baseline = managers[0][0]
                    .configure(config.class)
                    .ok_or_else(infeasible)?;
                decisions.push(baseline);
                let ThermalModelSpec::Prescribed { environment } = &config.thermal else {
                    unreachable!("validated: per-message policy implies a prescribed model");
                };
                let mut cache: BTreeMap<(usize, i64), usize> = BTreeMap::new();
                for message in &generated {
                    let temperature = environment.temperature_at(
                        message.destination,
                        config.oni_count,
                        message.injected_at.as_nanos(),
                    );
                    let bucket = bucket_index(temperature.value(), quantization_k);
                    let key = (manager_index(message.destination), bucket);
                    let index = match cache.get(&key) {
                        Some(&index) => index,
                        None => {
                            let bucket_temperature =
                                Celsius::new(bucket_centre(bucket, quantization_k));
                            let decision = managers[0][key.0]
                                .configure_at(config.class, bucket_temperature)
                                .ok_or_else(infeasible)?;
                            precompute_queries += 1;
                            precompute_per_oni[message.destination] += 1;
                            decisions.push(decision);
                            cache.insert(key, decisions.len() - 1);
                            decisions.len() - 1
                        }
                    };
                    assignment.insert(message.id, index);
                }
            }
            DecisionPolicy::EpochGated { quantization_k, .. } => {
                let built = config.thermal.instantiate(n);
                // Initial operating point per ONI at its own (bucketed)
                // starting temperature; distinct (manager, bucket) pairs are
                // solved once.
                let initial: Vec<(usize, i64)> = (0..n)
                    .map(|oni| {
                        let t0 = built.temperature_of(oni).value();
                        (manager_index(oni), bucket_index(t0, quantization_k))
                    })
                    .collect();
                // Initial solves run on the phase-0 fleet: the run starts
                // inside phase 0, whatever the schedule holds later.
                let solve = |&(midx, bucket): &(usize, i64)| {
                    managers[0][midx]
                        .configure_at(
                            config.class,
                            Celsius::new(bucket_centre(bucket, quantization_k)),
                        )
                        .ok_or_else(infeasible)
                };
                let solved: Vec<ManagerDecision> =
                    if manager_count == n && n > 1 && config.shards() > 1 {
                        // Heterogeneous fleet: every ONI owns its manager, so
                        // the expensive first solves shard cleanly.
                        parallel_map_traced(
                            &initial,
                            config.shards(),
                            solve,
                            &recorder,
                            "initial-solve",
                        )
                        .into_iter()
                        .collect::<Result<_, _>>()?
                    } else {
                        // Shared manager: solve each distinct bucket exactly
                        // once (first-touch order), sharding the distinct
                        // batch across threads when it is large enough — the
                        // solve-once cache issues the same query multiset as
                        // the serial walk, so counters stay deterministic.
                        let mut distinct: Vec<(usize, i64)> = Vec::new();
                        let mut index_of: BTreeMap<(usize, i64), usize> = BTreeMap::new();
                        for key in &initial {
                            if !index_of.contains_key(key) {
                                index_of.insert(*key, distinct.len());
                                distinct.push(*key);
                            }
                        }
                        let solved_distinct: Vec<ManagerDecision> =
                            if distinct.len() > 1 && config.shards() > 1 {
                                parallel_map_traced(
                                    &distinct,
                                    config.shards(),
                                    solve,
                                    &recorder,
                                    "initial-solve",
                                )
                                .into_iter()
                                .collect::<Result<_, _>>()?
                            } else {
                                distinct.iter().map(solve).collect::<Result<_, _>>()?
                            };
                        initial
                            .iter()
                            .map(|key| solved_distinct[index_of[key]])
                            .collect()
                    };
                decisions.push(solved[0]);
                baselines = solved.iter().map(DecisionParams::from_decision).collect();
                model = Some(built);
            }
        }

        // Resolve the fabric's route table once, before any traffic plays:
        // deterministic shortest paths with lexicographic tie-breaks, one
        // `route_resolved` event per ordered flow.
        let routes = config.topology.as_ref().map(|fabric| {
            let table = Router::resolve(&fabric.topology);
            for route in table.iter() {
                recorder.emit(|| TelemetryEvent::RouteResolved {
                    source: route.source as u64,
                    destination: route.destination as u64,
                    hops: route.hop_count() as u64,
                    electrical_hops: route.electrical_hops() as u64,
                });
            }
            table
        });

        let injection_order = generated.iter().map(|m| m.id).collect();
        let messages = generated.into_iter().map(|m| (m.id, m)).collect();
        Ok(Self {
            rng: StdRng::seed_from_u64(config.seed ^ 0xC0FF_EE00),
            policy,
            config,
            routes,
            managers,
            decisions,
            assignment,
            precompute_queries,
            precompute_per_oni,
            baselines,
            model,
            assignments,
            messages,
            injection_order,
            recorder,
            fleet_cache,
            snapshot_path: cache_setup.snapshot_path,
        })
    }

    /// The configuration being simulated.
    #[must_use]
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The decision policy in effect.
    #[must_use]
    pub fn policy(&self) -> DecisionPolicy {
        self.policy
    }

    /// Number of messages that will be injected.
    #[must_use]
    pub fn message_count(&self) -> usize {
        self.messages.len()
    }

    /// The initial operating point of ONI 0's channel.
    #[must_use]
    pub fn baseline_decision(&self) -> &ManagerDecision {
        &self.decisions[0]
    }

    /// The design-time wavelength assignments of the fleet, one per ONI —
    /// empty when the scenario runs unassigned (see
    /// [`ScenarioBuilder::design_assignment`]).  With per-phase assignments
    /// this is the phase-0 fleet; see [`Scenario::phase_assignments`].
    #[must_use]
    pub fn assignments(&self) -> &[WavelengthAssignment] {
        self.assignments.first().map_or(&[], Vec::as_slice)
    }

    /// The design-time assignment fleets per schedule phase,
    /// `phase_assignments()[phase][oni]` — a single entry unless
    /// [`DesignAssignmentConfig::per_phase`] is set over a scheduled model,
    /// empty when the scenario runs unassigned.
    #[must_use]
    pub fn phase_assignments(&self) -> &[Vec<WavelengthAssignment>] {
        &self.assignments
    }

    /// The manager serving destination `oni` during design phase `phase`
    /// (clamped: without per-phase fleets every phase shares fleet 0).
    fn manager_for(&self, phase: usize, oni: usize) -> &LinkManager {
        let fleet = &self.managers[phase.min(self.managers.len() - 1)];
        if fleet.len() == 1 {
            &fleet[0]
        } else {
            &fleet[oni]
        }
    }

    /// Aggregated operating-point cache counters across the manager fleet.
    /// With a fleet-wide cache the handle's own counters are authoritative
    /// (a per-manager fold would double-count the shared traffic).
    fn cache_counters(&self) -> CacheCounters {
        if let Some(cache) = &self.fleet_cache {
            return cache.counters();
        }
        self.managers
            .iter()
            .flatten()
            .fold(CacheCounters::default(), |mut total, manager| {
                total.merge(manager.link().cache_counters());
                total
            })
    }

    /// The fleet-wide shared operating-point cache, when one is in play
    /// (see [`ScenarioBuilder::shared_cache`] /
    /// [`ScenarioBuilder::cache_snapshot`]); `None` when every manager owns
    /// a private cache.
    #[must_use]
    pub fn shared_cache(&self) -> Option<SharedOpCache> {
        self.fleet_cache.clone()
    }

    /// Runs the scenario to completion.  With a snapshot path configured,
    /// the fleet cache is saved after the run.
    ///
    /// # Panics
    ///
    /// Panics when the cache snapshot cannot be written.
    #[must_use]
    pub fn run(self) -> RunReport {
        let persist = match (&self.fleet_cache, &self.snapshot_path) {
            (Some(cache), Some(path)) => Some((cache.clone(), path.clone())),
            _ => None,
        };
        let report = match self.policy {
            DecisionPolicy::PerMessage { .. } => self.run_per_message(),
            DecisionPolicy::EpochGated { .. } => self.run_epoch_gated(),
        };
        if let Some((cache, path)) = persist {
            // A warm-started run that added no entries leaves the snapshot
            // bytes untouched instead of rewriting the whole file.
            if cache.is_dirty() || !path.exists() {
                cache
                    .save(&path)
                    .unwrap_or_else(|e| panic!("cache snapshot {}: {e}", path.display()));
            }
        }
        report
    }

    /// The per-message engine: every message rides the decision precomputed
    /// for its injection-time destination temperature.
    #[allow(clippy::too_many_lines)]
    fn run_per_message(mut self) -> RunReport {
        let n = self.config.oni_count;
        let params: Vec<DecisionParams> = self
            .decisions
            .iter()
            .map(DecisionParams::from_decision)
            .collect();
        let baseline = params[0];

        let mut stats = SimStats {
            injected_messages: self.messages.len() as u64,
            ..SimStats::default()
        };
        let mut arbiters: BTreeMap<usize, TokenArbiter> = BTreeMap::new();
        let mut queue: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut sequence = 0u64;
        for &id in &self.injection_order {
            let message = self.messages[&id];
            queue.push(Reverse(Event {
                time: message.injected_at,
                sequence,
                kind: EventKind::Inject,
                message: id,
            }));
            sequence += 1;
        }

        let mut busy: BTreeMap<usize, bool> = BTreeMap::new();
        let mut makespan = SimTime::ZERO;
        // Static-power residency: every destination channel holds a decision
        // (initially the baseline) from t = 0; its laser + heater power
        // burns over wall-clock time regardless of occupancy.  Intervals are
        // closed lazily, whenever a transfer starts on a decision with a
        // different static power and at the end of the run.
        let mut statics: Vec<(usize, SimTime)> = vec![(0, SimTime::ZERO); n];
        let mut acc = OniAccumulators::new(n);
        // Last decision applied per destination, switch bookkeeping, and how
        // many messages ran on a non-baseline scheme.
        let mut last_per_oni: Vec<Option<usize>> = vec![None; n];
        let mut peak_t: Vec<f64> = vec![baseline.temperature_c; n];
        let mut switches: Vec<u64> = vec![0; n];
        let mut switch_log: Vec<SchemeSwitch> = Vec::new();
        let mut reconfigured_messages = 0u64;

        while let Some(Reverse(event)) = queue.pop() {
            makespan = makespan.max_time(event.time);
            let message = self.messages[&event.message];
            let index = self.assignment.get(&event.message).copied().unwrap_or(0);
            let point = params[index];
            match event.kind {
                EventKind::Inject => {
                    let arbiter = arbiters.entry(message.destination).or_default();
                    arbiter.request(message.source, message.id);
                    Self::per_message_try_start(
                        message.destination,
                        event.time,
                        &mut arbiters,
                        &mut busy,
                        &mut queue,
                        &mut sequence,
                        &self.messages,
                        &params,
                        &self.assignment,
                        &mut statics,
                        &mut stats,
                        &mut acc,
                    );
                }
                EventKind::Complete => {
                    let destination = message.destination;
                    let duration_ns = point.transfer_duration(message.words).value();
                    stats.delivered_messages += 1;
                    // The per-message policy only admits single-hop fabrics:
                    // every delivery is exactly one hop onto the
                    // destination's reader channel.
                    stats.hops_traversed += 1;
                    if self.routes.is_some() {
                        self.recorder.emit(|| TelemetryEvent::HopTraversed {
                            message: message.id.0,
                            node: destination as u64,
                            hop_index: 0,
                            electrical: false,
                            time_ns: event.time.as_nanos(),
                        });
                    }
                    stats.delivered_bits += message.payload_bits();
                    stats.channel_busy_ns += duration_ns;
                    // Only the transfer-gated share is charged per transfer;
                    // the static share accrues over wall-clock residency.
                    stats.energy_pj += point.dynamic_power_mw * duration_ns;
                    acc.dynamic_pj[destination] += point.dynamic_power_mw * duration_ns;
                    acc.delivered[destination] += 1;
                    let latency = event.time.since(message.injected_at).value();
                    stats.total_latency_ns += latency;
                    stats.max_latency_ns = stats.max_latency_ns.max(latency);
                    if message.misses_deadline(event.time) {
                        stats.deadline_misses += 1;
                    }
                    for _ in 0..message.words {
                        if self
                            .rng
                            .gen_bool(point.word_error_probability.clamp(0.0, 1.0))
                        {
                            stats.corrupted_words += 1;
                            stats.corrupted_bits +=
                                conditional_corrupted_bits(&mut self.rng, 64, point.decoded_ber);
                        }
                        if self
                            .rng
                            .gen_bool(point.corrected_probability.clamp(0.0, 1.0))
                        {
                            stats.corrected_words += 1;
                        }
                    }
                    // Unified switch bookkeeping: a delivery on a different
                    // scheme than the destination's previous delivery is a
                    // per-message-mode scheme switch.
                    let previous_scheme = last_per_oni[destination]
                        .map_or(baseline.scheme, |last| params[last].scheme);
                    if point.scheme != previous_scheme {
                        switches[destination] += 1;
                        self.recorder.emit(|| TelemetryEvent::SchemeSwitched {
                            oni: destination as u64,
                            from: previous_scheme.to_string(),
                            to: point.scheme.to_string(),
                            time_ns: event.time.as_nanos(),
                            temperature_c: point.temperature_c,
                            epoch: None,
                        });
                        switch_log.push(SchemeSwitch {
                            time_ns: event.time.as_nanos(),
                            oni: destination,
                            from: previous_scheme,
                            to: point.scheme,
                            temperature_c: point.temperature_c,
                            // The per-message engine steps no epochs; the
                            // field is still carried so every switch-log
                            // entry has the same shape.
                            epoch: None,
                        });
                    }
                    peak_t[destination] = peak_t[destination].max(point.temperature_c);
                    last_per_oni[destination] = Some(index);
                    if point.scheme != baseline.scheme {
                        reconfigured_messages += 1;
                    }
                    let arbiter = arbiters
                        .get_mut(&destination)
                        .expect("completion implies a prior grant");
                    arbiter.release(message.id);
                    busy.insert(destination, false);
                    Self::per_message_try_start(
                        destination,
                        event.time,
                        &mut arbiters,
                        &mut busy,
                        &mut queue,
                        &mut sequence,
                        &self.messages,
                        &params,
                        &self.assignment,
                        &mut statics,
                        &mut stats,
                        &mut acc,
                    );
                }
            }
        }

        // Close the static-power residency of every destination channel at
        // the end of the run: an idle channel's laser and heaters are not
        // free.  A zero-traffic run has zero makespan and charges nothing.
        for (oni, &(index, since)) in statics.iter().enumerate() {
            let residency_pj = params[index].static_power_mw * makespan.since(since).value();
            stats.energy_pj += residency_pj;
            stats.static_energy_pj += residency_pj;
            acc.static_pj[oni] += residency_pj;
        }

        stats.makespan_ns = makespan.as_nanos();
        let per_oni = (0..n)
            .map(|oni| {
                let p = last_per_oni[oni].map_or(baseline, |last| params[last]);
                OniReport {
                    oni,
                    delivered_messages: acc.delivered[oni],
                    final_temperature_c: p.temperature_c,
                    peak_temperature_c: peak_t[oni],
                    scheme: p.scheme,
                    channel_power_mw: p.channel_power_mw,
                    tuning_power_mw_per_lane: p.tuning_power_mw,
                    scheme_switches: switches[oni],
                    decisions: self.precompute_per_oni[oni],
                    infeasible_requests: 0,
                    static_energy_pj: acc.static_pj[oni],
                    dynamic_energy_pj: acc.dynamic_pj[oni],
                }
            })
            .collect();
        RunReport {
            baseline_scheme: baseline.scheme,
            baseline_channel_power_mw: baseline.channel_power_mw,
            baseline_decoded_ber: baseline.decoded_ber,
            stats,
            per_oni,
            epochs: 0,
            decisions: self.precompute_queries,
            infeasible_requests: 0,
            reconfigured_messages,
            switch_log,
            trajectory: Vec::new(),
            phases: Vec::new(),
            solver_cache: self.cache_counters(),
            config: self.config,
        }
    }

    /// Grants the next pending transfer on `destination` (per-message mode),
    /// re-basing the destination's static-power residency when the granted
    /// decision carries a different static power.
    #[allow(clippy::too_many_arguments)]
    fn per_message_try_start(
        destination: usize,
        now: SimTime,
        arbiters: &mut BTreeMap<usize, TokenArbiter>,
        busy: &mut BTreeMap<usize, bool>,
        queue: &mut BinaryHeap<Reverse<Event>>,
        sequence: &mut u64,
        messages: &BTreeMap<MessageId, Message>,
        params: &[DecisionParams],
        assignment: &BTreeMap<MessageId, usize>,
        statics: &mut [(usize, SimTime)],
        stats: &mut SimStats,
        acc: &mut OniAccumulators,
    ) {
        if *busy.get(&destination).unwrap_or(&false) {
            return;
        }
        let arbiter = arbiters.entry(destination).or_default();
        if let Some((_, id)) = arbiter.grant() {
            let message = messages[&id];
            let index = assignment.get(&id).copied().unwrap_or(0);
            let point = params[index];
            // Applying a decision with a different static power re-bases the
            // destination's residency interval at the transfer start.
            let (current, since) = statics[destination];
            if params[current].static_power_mw != point.static_power_mw {
                let residency_pj = params[current].static_power_mw * now.since(since).value();
                stats.energy_pj += residency_pj;
                stats.static_energy_pj += residency_pj;
                acc.static_pj[destination] += residency_pj;
                statics[destination] = (index, now);
            }
            let duration = point.transfer_duration(message.words);
            busy.insert(destination, true);
            queue.push(Reverse(Event {
                time: now.advanced_by(duration),
                sequence: *sequence,
                kind: EventKind::Complete,
                message: id,
            }));
            *sequence += 1;
        }
    }

    /// One epoch-gated re-ask for `channel` (destination `oni`) at
    /// temperature `t_now`, after the (cheap, serial) deadband gate has
    /// already fired: quantization, the scheme-revert hysteresis and the
    /// infeasibility handling of the feedback loop.  Pure in everything but
    /// the manager's memoized cache, so heterogeneous fleets shard it
    /// across threads with bit-identical results.
    #[allow(clippy::too_many_arguments)]
    fn reask(
        &self,
        mut channel: ChannelState,
        oni: usize,
        phase: usize,
        t_now: f64,
        end_ns: f64,
        epoch: u64,
    ) -> (ChannelState, Option<SchemeSwitch>, u64) {
        let DecisionPolicy::EpochGated {
            quantization_k,
            revert_hysteresis_k,
            ..
        } = self.policy
        else {
            unreachable!("re-asks only happen under the epoch-gated policy");
        };
        let bucket_t = bucket_centre(bucket_index(t_now, quantization_k), quantization_k);
        match self
            .manager_for(phase, oni)
            .configure_at(self.config.class, Celsius::new(bucket_t))
        {
            Some(decision) => {
                let new_params = DecisionParams::from_decision(&decision);
                let mut switch = None;
                if new_params.scheme != channel.params.scheme {
                    // Scheme-revert hysteresis: undoing the most recent
                    // switch needs a temperature excursion beyond its
                    // anchor, otherwise a channel that just cooled by
                    // escaping to the coded path would flap straight back.
                    if let Some((from, at_temp)) = channel.last_switch {
                        if new_params.scheme == from
                            && (t_now - at_temp).abs() < revert_hysteresis_k
                        {
                            channel.decision_temperature_c = bucket_t;
                            return (channel, None, 0);
                        }
                    }
                    channel.switches += 1;
                    channel.last_switch = Some((channel.params.scheme, t_now));
                    switch = Some(SchemeSwitch {
                        time_ns: end_ns,
                        oni,
                        from: channel.params.scheme,
                        to: new_params.scheme,
                        temperature_c: t_now,
                        epoch: Some(epoch),
                    });
                }
                channel.params = new_params;
                channel.decision_temperature_c = bucket_t;
                (channel, switch, 0)
            }
            None => {
                // Keep the previous operating point; the channel stays up at
                // its old configuration.
                channel.decision_temperature_c = bucket_t;
                (channel, None, 1)
            }
        }
    }

    /// The epoch-gated engine: event-driven traffic over an epoch-stepped
    /// [`ThermalModel`].
    #[allow(clippy::too_many_lines)]
    fn run_epoch_gated(mut self) -> RunReport {
        let n = self.config.oni_count;
        let DecisionPolicy::EpochGated {
            epoch_ns,
            quantization_k,
            hysteresis_k,
            ..
        } = self.policy
        else {
            unreachable!("run_epoch_gated implies the epoch-gated policy");
        };
        let deadband = quantization_k / 2.0 + hysteresis_k;
        let mut model = self
            .model
            .take()
            .expect("epoch-gated scenarios hold a model");
        let mut channels: Vec<ChannelState> = (0..n)
            .map(|oni| {
                let baseline = self.baselines[oni];
                let t0 = model.temperature_of(oni).value();
                ChannelState {
                    params: baseline,
                    baseline_scheme: baseline.scheme,
                    decision_temperature_c: bucket_centre(
                        bucket_index(t0, quantization_k),
                        quantization_k,
                    ),
                    last_switch: None,
                    active: None,
                    peak_temperature_c: t0,
                    switches: 0,
                }
            })
            .collect();

        let mut stats = SimStats {
            injected_messages: self.messages.len() as u64,
            ..SimStats::default()
        };
        let mut arbiters: BTreeMap<usize, TokenArbiter> = BTreeMap::new();
        let mut queue: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        // Injections take sequence numbers 0..N in injection order; the
        // completion of a message reuses its injection index offset by N.
        // The numbering is a pure function of the traffic, so event order
        // at equal times never depends on how earlier epochs were played.
        let mut injection_index: BTreeMap<MessageId, u64> = BTreeMap::new();
        for (index, &id) in self.injection_order.iter().enumerate() {
            let sequence = index as u64;
            injection_index.insert(id, sequence);
            queue.push(Reverse(Event {
                time: self.messages[&id].injected_at,
                sequence,
                kind: EventKind::Inject,
                message: id,
            }));
        }
        let complete_seq_base = self.injection_order.len() as u64;

        let mut makespan = SimTime::ZERO;
        let mut epoch_start = SimTime::ZERO;
        let mut epochs = 0u64;
        let mut decisions = 0u64;
        let mut infeasible_requests = 0u64;
        let mut decisions_per_oni = vec![0u64; n];
        let mut infeasible_per_oni = vec![0u64; n];
        let mut reconfigured_messages = 0u64;
        let mut switch_log: Vec<SchemeSwitch> = Vec::new();
        let mut trajectory: Vec<EpochSample> = Vec::new();
        let mut deposited_pj = vec![0.0f64; n];
        let mut acc = OniAccumulators::new(n);
        // Per-ONI re-asks shard across threads for heterogeneous fleets
        // (every ONI owns its manager) *and* for homogeneous fleets behind
        // one shared manager: the solve-once cache admits exactly one miss
        // per distinct key whatever the interleaving, so the hit/miss
        // counters stay deterministic at any thread count.
        let shards = self.config.shards();
        let shard_reasks = n > 1 && shards > 1;
        // Multi-hop fabrics play serially with per-hop grant bookkeeping;
        // single-hop traffic (the canonical ring and any single-hop fabric)
        // partitions by destination channel and fans out across threads.
        let multihop: Option<RouteTable> = self
            .routes
            .as_ref()
            .filter(|table| !table.is_single_hop())
            .cloned();
        let electrical = self
            .config
            .topology
            .as_ref()
            .map_or_else(onoc_topology::ElectricalLinkModel::paper_fallback, |f| {
                f.electrical
            });
        let mut hop_cursor: BTreeMap<MessageId, usize> = BTreeMap::new();
        // Phase boundaries of a scheduled workload: epochs are clamped so
        // every boundary lands exactly on an epoch edge, and per-phase
        // assignment fleets swap as the new phase begins.  The swap is
        // hitless by construction — grants capture the channel's operating
        // point for the whole transfer, so in-flight traffic completes on
        // the old phase's point while new grants ride the new one.
        let phase_boundaries: Vec<SimTime> = match &self.config.thermal {
            ThermalModelSpec::WorkloadScheduled { schedule, .. } => schedule
                .phase_starts()
                .iter()
                .map(|&ns| SimTime::from_nanos(ns))
                .collect(),
            _ => vec![SimTime::ZERO],
        };
        let mut current_phase = 0usize;
        let mut phases: Vec<PhaseTransition> = Vec::new();

        while let Some(&Reverse(next)) = queue.peek() {
            // Enter every phase whose boundary has been reached — the
            // preceding epoch was clamped to end exactly at the boundary,
            // so the new phase starts on an epoch edge.
            while current_phase + 1 < phase_boundaries.len()
                && epoch_start >= phase_boundaries[current_phase + 1]
            {
                current_phase += 1;
                let boundary_ns = phase_boundaries[current_phase].as_nanos();
                self.recorder.emit(|| TelemetryEvent::PhaseEntered {
                    phase: current_phase as u64,
                    time_ns: boundary_ns,
                    epoch: epochs,
                });
                // Per-phase assignment fleets: swap exactly the ONIs whose
                // assignment changed, and force those channels to re-decide
                // on the new fleet at their current model temperature (the
                // new permutation changes the tuning cost, so the old
                // operating point no longer describes the channel).
                let mut swapped: Vec<(usize, f64)> = Vec::new();
                if self.managers.len() > 1 {
                    let from_fleet = &self.assignments[current_phase - 1];
                    let to_fleet = &self.assignments[current_phase];
                    for oni in 0..n {
                        let from = from_fleet[oni].fingerprint();
                        let to = to_fleet[oni].fingerprint();
                        if from != to {
                            self.recorder.emit(|| TelemetryEvent::AssignmentSwapped {
                                oni: oni as u64,
                                phase: current_phase as u64,
                                from_fingerprint: from,
                                to_fingerprint: to,
                                time_ns: boundary_ns,
                                epoch: epochs,
                            });
                            swapped.push((oni, model.temperature_of(oni).value()));
                        }
                    }
                }
                if !swapped.is_empty() {
                    decisions += swapped.len() as u64;
                    let phase_reask = |&(oni, t): &(usize, f64)| {
                        self.reask(channels[oni], oni, current_phase, t, boundary_ns, epochs)
                    };
                    let outcomes: Vec<(ChannelState, Option<SchemeSwitch>, u64)> =
                        if shard_reasks && swapped.len() > 1 {
                            parallel_map_traced(
                                &swapped,
                                shards,
                                phase_reask,
                                &self.recorder,
                                "phase-reask",
                            )
                        } else {
                            swapped.iter().map(phase_reask).collect()
                        };
                    for (&(oni, _), (state, switch, infeasible)) in swapped.iter().zip(outcomes) {
                        channels[oni] = state;
                        decisions_per_oni[oni] += 1;
                        if let Some(switch) = switch {
                            self.recorder.emit(|| TelemetryEvent::SchemeSwitched {
                                oni: switch.oni as u64,
                                from: switch.from.to_string(),
                                to: switch.to.to_string(),
                                time_ns: switch.time_ns,
                                temperature_c: switch.temperature_c,
                                epoch: switch.epoch,
                            });
                            switch_log.push(switch);
                        }
                        infeasible_requests += infeasible;
                        infeasible_per_oni[oni] += infeasible;
                    }
                }
                phases.push(PhaseTransition {
                    phase: current_phase,
                    time_ns: boundary_ns,
                    epoch: epochs,
                    swapped_onis: swapped.len(),
                    storm_switches: 0,
                });
            }

            // Nominal epoch boundary; long idle gaps are covered by a single
            // stretched epoch ending at the next event (the model step
            // integrates the whole gap, so nothing is lost).
            let mut epoch_end = SimTime::from_nanos(epoch_start.as_nanos() + epoch_ns);
            if next.time > epoch_end {
                epoch_end = next.time;
            }
            // Clamp to the next phase boundary so the boundary is always an
            // epoch edge.  Events exactly at the boundary still play inside
            // the closing epoch: their grants capture the old phase's point.
            if let Some(&boundary) = phase_boundaries.get(current_phase + 1) {
                if epoch_start < boundary && epoch_end > boundary {
                    epoch_end = boundary;
                }
            }

            // 1. Play the event queue through this epoch.
            if let Some(routes) = &multihop {
                // Multi-hop fabric: relay each message hop by hop, queueing
                // at every router's per-destination arbiter along the way.
                while let Some(&Reverse(event)) = queue.peek() {
                    if event.time > epoch_end {
                        break;
                    }
                    let Reverse(event) = queue.pop().expect("peeked");
                    makespan = makespan.max_time(event.time);
                    let message = self.messages[&event.message];
                    let route = routes.route(message.source, message.destination);
                    match event.kind {
                        EventKind::Inject => {
                            let entry = route.hops[0].node;
                            hop_cursor.insert(message.id, 0);
                            arbiters
                                .entry(entry)
                                .or_default()
                                .request(message.source, message.id);
                            Self::multihop_try_start(
                                entry,
                                event.time,
                                &mut arbiters,
                                &mut channels,
                                &mut queue,
                                routes,
                                &electrical,
                                &hop_cursor,
                                &self.messages,
                                &injection_index,
                                complete_seq_base,
                            );
                        }
                        EventKind::Complete => {
                            let hop_index = *hop_cursor
                                .get(&message.id)
                                .expect("completion implies a hop cursor");
                            let hop = route.hops[hop_index];
                            let node = hop.node;
                            let (point, started) = channels[node]
                                .active
                                .take()
                                .expect("completion implies an active transfer");
                            let duration_ns = point.transfer_duration(message.words).value();
                            stats.channel_busy_ns += duration_ns;
                            // Dynamic energy for the part of the hop inside
                            // this epoch; earlier parts were charged at the
                            // boundaries of the epochs they crossed.  The
                            // hop's energy heats the router it lands on.
                            let from = started.max_time(epoch_start);
                            let slice_pj = point.dynamic_power_mw * event.time.since(from).value();
                            stats.energy_pj += slice_pj;
                            deposited_pj[node] += slice_pj;
                            acc.dynamic_pj[node] += slice_pj;
                            stats.hops_traversed += 1;
                            let electrical_hop = hop.kind == LinkKind::Electrical;
                            self.recorder.emit(|| TelemetryEvent::HopTraversed {
                                message: message.id.0,
                                node: node as u64,
                                hop_index: hop_index as u64,
                                electrical: electrical_hop,
                                time_ns: event.time.as_nanos(),
                            });
                            // Residual errors accrue on photonic hops; the
                            // electrical fallback wires are error-free by
                            // model (their line coding is priced into the
                            // per-bit energy).
                            if !electrical_hop {
                                let mut rng =
                                    hop_error_rng(self.config.seed, message.id, hop_index as u64);
                                let (corrupted_words, corrupted_bits, corrected_words) =
                                    sample_word_errors(&mut rng, message.words, &point);
                                stats.corrupted_words += corrupted_words;
                                stats.corrupted_bits += corrupted_bits;
                                stats.corrected_words += corrected_words;
                            }
                            arbiters
                                .get_mut(&node)
                                .expect("completion implies a prior grant")
                                .release(message.id);
                            if hop_index + 1 < route.hops.len() {
                                // Relay: queue at the next router.
                                hop_cursor.insert(message.id, hop_index + 1);
                                let next = route.hops[hop_index + 1].node;
                                arbiters
                                    .entry(next)
                                    .or_default()
                                    .request(message.source, message.id);
                                Self::multihop_try_start(
                                    next,
                                    event.time,
                                    &mut arbiters,
                                    &mut channels,
                                    &mut queue,
                                    routes,
                                    &electrical,
                                    &hop_cursor,
                                    &self.messages,
                                    &injection_index,
                                    complete_seq_base,
                                );
                            } else {
                                hop_cursor.remove(&message.id);
                                stats.delivered_messages += 1;
                                stats.delivered_bits += message.payload_bits();
                                acc.delivered[message.destination] += 1;
                                if !electrical_hop && point.scheme != channels[node].baseline_scheme
                                {
                                    reconfigured_messages += 1;
                                }
                                let latency = event.time.since(message.injected_at).value();
                                stats.total_latency_ns += latency;
                                stats.max_latency_ns = stats.max_latency_ns.max(latency);
                                if message.misses_deadline(event.time) {
                                    stats.deadline_misses += 1;
                                }
                            }
                            Self::multihop_try_start(
                                node,
                                event.time,
                                &mut arbiters,
                                &mut channels,
                                &mut queue,
                                routes,
                                &electrical,
                                &hop_cursor,
                                &self.messages,
                                &injection_index,
                                complete_seq_base,
                            );
                        }
                    }
                }
            } else {
                // Single-hop traffic partitions by destination channel:
                // each partition owns its arbiter, channel state and error
                // streams outright, so playing the partitions in any
                // schedule — serially below, or sharded across threads —
                // folds back to the same report (gated bit-identical by the
                // scale-out tests).
                let mut due: BTreeMap<usize, Vec<Event>> = BTreeMap::new();
                while let Some(&Reverse(event)) = queue.peek() {
                    if event.time > epoch_end {
                        break;
                    }
                    let Reverse(event) = queue.pop().expect("peeked");
                    due.entry(self.messages[&event.message].destination)
                        .or_default()
                        .push(event);
                }
                let work: Vec<(usize, Vec<Event>)> = due.into_iter().collect();
                if !work.is_empty() {
                    let play = |(destination, events): &(usize, Vec<Event>)| {
                        self.play_channel_epoch(
                            events,
                            channels[*destination],
                            arbiters.get(destination).cloned().unwrap_or_default(),
                            epoch_start,
                            epoch_end,
                            complete_seq_base,
                            &injection_index,
                        )
                    };
                    let outcomes: Vec<ChannelPlayback> = if shard_reasks && work.len() > 1 {
                        parallel_map_traced(&work, shards, play, &self.recorder, "epoch-playback")
                    } else {
                        work.iter().map(play).collect()
                    };
                    for ((destination, _), outcome) in work.iter().zip(outcomes) {
                        channels[*destination] = outcome.channel;
                        arbiters.insert(*destination, outcome.arbiter);
                        for event in outcome.carryover {
                            queue.push(Reverse(event));
                        }
                        makespan = makespan.max_time(outcome.local_makespan);
                        stats.delivered_messages += outcome.delivered;
                        stats.hops_traversed += outcome.hops;
                        stats.delivered_bits += outcome.delivered_bits;
                        stats.channel_busy_ns += outcome.busy_ns;
                        stats.energy_pj += outcome.dynamic_pj;
                        deposited_pj[*destination] += outcome.dynamic_pj;
                        acc.dynamic_pj[*destination] += outcome.dynamic_pj;
                        acc.delivered[*destination] += outcome.delivered;
                        reconfigured_messages += outcome.reconfigured;
                        stats.total_latency_ns += outcome.total_latency_ns;
                        stats.max_latency_ns = stats.max_latency_ns.max(outcome.max_latency_ns);
                        stats.deadline_misses += outcome.deadline_misses;
                        stats.corrupted_words += outcome.corrupted_words;
                        stats.corrupted_bits += outcome.corrupted_bits;
                        stats.corrected_words += outcome.corrected_words;
                    }
                }
            }

            // The run ends with the last event, not at the nominal epoch
            // boundary: static power is charged for actual residency only.
            let end = if queue.is_empty() {
                makespan
            } else {
                epoch_end
            };
            let span_ns = end.since(epoch_start).value();
            if span_ns > 0.0 {
                // 2. Integrate the power deposited by each destination
                // channel over this epoch.
                for (oni, channel) in channels.iter_mut().enumerate() {
                    if let Some((point, started)) = channel.active {
                        let from = started.max_time(epoch_start);
                        let slice_pj = point.dynamic_power_mw * end.since(from).value();
                        stats.energy_pj += slice_pj;
                        deposited_pj[oni] += slice_pj;
                        acc.dynamic_pj[oni] += slice_pj;
                        // Re-base so the remainder is charged later.
                        channel.active = Some((point, end));
                    }
                    let static_pj = channel.params.static_power_mw * span_ns;
                    stats.energy_pj += static_pj;
                    stats.static_energy_pj += static_pj;
                    deposited_pj[oni] += static_pj;
                    acc.static_pj[oni] += static_pj;
                }

                // 3. Advance the thermal model with the average epoch power.
                let powers_mw: Vec<f64> = deposited_pj.iter().map(|pj| pj / span_ns).collect();
                model.advance(&powers_mw, span_ns);
                deposited_pj.iter_mut().for_each(|pj| *pj = 0.0);

                // 4. Re-ask the manager, gated by quantization + hysteresis.
                // The deadband gate is a handful of float comparisons, so it
                // runs serially; only the ONIs that actually need a solver
                // query fan out across threads (most epochs none do, and
                // spawning workers for an empty batch would dominate).
                let temps: Vec<f64> = (0..n)
                    .map(|oni| model.temperature_of(oni).value())
                    .collect();
                let end_ns = end.as_nanos();
                let mut pending: Vec<usize> = Vec::new();
                for (oni, channel) in channels.iter_mut().enumerate() {
                    channel.peak_temperature_c = channel.peak_temperature_c.max(temps[oni]);
                    if (temps[oni] - channel.decision_temperature_c).abs() > deadband {
                        pending.push(oni);
                    }
                }
                decisions += pending.len() as u64;
                let outcomes: Vec<(ChannelState, Option<SchemeSwitch>, u64)> =
                    if shard_reasks && pending.len() > 1 {
                        parallel_map_traced(
                            &pending,
                            shards,
                            |&oni| {
                                self.reask(
                                    channels[oni],
                                    oni,
                                    current_phase,
                                    temps[oni],
                                    end_ns,
                                    epochs,
                                )
                            },
                            &self.recorder,
                            "epoch-reask",
                        )
                    } else {
                        pending
                            .iter()
                            .map(|&oni| {
                                self.reask(
                                    channels[oni],
                                    oni,
                                    current_phase,
                                    temps[oni],
                                    end_ns,
                                    epochs,
                                )
                            })
                            .collect()
                    };
                for (&oni, (state, switch, infeasible)) in pending.iter().zip(outcomes) {
                    channels[oni] = state;
                    decisions_per_oni[oni] += 1;
                    if let Some(switch) = switch {
                        self.recorder.emit(|| TelemetryEvent::SchemeSwitched {
                            oni: switch.oni as u64,
                            from: switch.from.to_string(),
                            to: switch.to.to_string(),
                            time_ns: switch.time_ns,
                            temperature_c: switch.temperature_c,
                            epoch: switch.epoch,
                        });
                        switch_log.push(switch);
                    }
                    infeasible_requests += infeasible;
                    infeasible_per_oni[oni] += infeasible;
                }

                let sample = EpochSample {
                    time_ns: end.as_nanos(),
                    min_temperature_c: temps.iter().copied().fold(f64::INFINITY, f64::min),
                    max_temperature_c: temps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    reconfigured_onis: channels
                        .iter()
                        .filter(|c| c.params.scheme != c.baseline_scheme)
                        .count(),
                };
                self.recorder.emit(|| TelemetryEvent::EpochAdvanced {
                    epoch: epochs,
                    time_ns: sample.time_ns,
                    min_temperature_c: sample.min_temperature_c,
                    max_temperature_c: sample.max_temperature_c,
                    reconfigured_onis: sample.reconfigured_onis as u64,
                });
                epochs += 1;
                trajectory.push(sample);
            }
            epoch_start = end;
        }

        stats.makespan_ns = makespan.as_nanos();
        // Switch-storm accounting: the scheme flaps charged to each phase
        // transition are those decided in the epochs right after its
        // boundary, truncated at the next transition.
        const STORM_WINDOW_EPOCHS: u64 = 8;
        let window_ends: Vec<u64> = (0..phases.len())
            .map(|index| {
                (phases[index].epoch + STORM_WINDOW_EPOCHS)
                    .min(phases.get(index + 1).map_or(u64::MAX, |next| next.epoch))
            })
            .collect();
        for (transition, window_end) in phases.iter_mut().zip(window_ends) {
            transition.storm_switches = switch_log
                .iter()
                .filter(|s| {
                    s.epoch
                        .is_some_and(|epoch| epoch >= transition.epoch && epoch < window_end)
                })
                .count() as u64;
        }
        let per_oni = channels
            .iter()
            .enumerate()
            .map(|(oni, c)| OniReport {
                oni,
                delivered_messages: acc.delivered[oni],
                final_temperature_c: model.temperature_of(oni).value(),
                peak_temperature_c: c.peak_temperature_c,
                scheme: c.params.scheme,
                channel_power_mw: c.params.channel_power_mw,
                tuning_power_mw_per_lane: c.params.tuning_power_mw,
                scheme_switches: c.switches,
                decisions: decisions_per_oni[oni],
                infeasible_requests: infeasible_per_oni[oni],
                static_energy_pj: acc.static_pj[oni],
                dynamic_energy_pj: acc.dynamic_pj[oni],
            })
            .collect();
        let baseline = self.baselines[0];
        RunReport {
            baseline_scheme: baseline.scheme,
            baseline_channel_power_mw: baseline.channel_power_mw,
            baseline_decoded_ber: baseline.decoded_ber,
            stats,
            per_oni,
            epochs,
            decisions,
            infeasible_requests,
            reconfigured_messages,
            switch_log,
            trajectory,
            phases,
            solver_cache: self.cache_counters(),
            config: self.config,
        }
    }

    /// Plays one destination channel's due events through the current
    /// epoch (single-hop fabrics).  The channel's arbiter, state and
    /// per-message error streams are self-contained, so partitions play in
    /// any order — or on any thread — with identical outcomes.
    #[allow(clippy::too_many_arguments)]
    fn play_channel_epoch(
        &self,
        events: &[Event],
        mut channel: ChannelState,
        mut arbiter: TokenArbiter,
        epoch_start: SimTime,
        epoch_end: SimTime,
        complete_seq_base: u64,
        injection_index: &BTreeMap<MessageId, u64>,
    ) -> ChannelPlayback {
        /// Grants the next pending transfer, capturing the channel's
        /// *current* operating point for the whole transfer.  Completions
        /// due within the epoch re-enter the local replay heap; later ones
        /// carry over to the global queue.
        #[allow(clippy::too_many_arguments)]
        fn try_start(
            channel: &mut ChannelState,
            arbiter: &mut TokenArbiter,
            local: &mut BinaryHeap<Reverse<Event>>,
            carryover: &mut Vec<Event>,
            now: SimTime,
            epoch_end: SimTime,
            complete_seq_base: u64,
            injection_index: &BTreeMap<MessageId, u64>,
            messages: &BTreeMap<MessageId, Message>,
        ) {
            if channel.active.is_some() {
                return;
            }
            if let Some((_, id)) = arbiter.grant() {
                let message = messages[&id];
                let point = channel.params;
                channel.active = Some((point, now));
                let event = Event {
                    time: now.advanced_by(point.transfer_duration(message.words)),
                    sequence: complete_seq_base + injection_index[&id],
                    kind: EventKind::Complete,
                    message: id,
                };
                if event.time > epoch_end {
                    carryover.push(event);
                } else {
                    local.push(Reverse(event));
                }
            }
        }

        let mut local: BinaryHeap<Reverse<Event>> = events.iter().copied().map(Reverse).collect();
        let mut carryover: Vec<Event> = Vec::new();
        let mut local_makespan = SimTime::ZERO;
        let mut delivered = 0u64;
        let mut delivered_bits = 0u64;
        let mut hops = 0u64;
        let mut busy_ns = 0.0f64;
        let mut dynamic_pj = 0.0f64;
        let mut reconfigured = 0u64;
        let mut total_latency_ns = 0.0f64;
        let mut max_latency_ns = 0.0f64;
        let mut deadline_misses = 0u64;
        let mut corrupted_words = 0u64;
        let mut corrupted_bits = 0u64;
        let mut corrected_words = 0u64;
        let emit_hops = self.routes.is_some();

        while let Some(Reverse(event)) = local.pop() {
            local_makespan = local_makespan.max_time(event.time);
            let message = self.messages[&event.message];
            match event.kind {
                EventKind::Inject => {
                    arbiter.request(message.source, message.id);
                    try_start(
                        &mut channel,
                        &mut arbiter,
                        &mut local,
                        &mut carryover,
                        event.time,
                        epoch_end,
                        complete_seq_base,
                        injection_index,
                        &self.messages,
                    );
                }
                EventKind::Complete => {
                    let (point, started) = channel
                        .active
                        .take()
                        .expect("completion implies an active transfer");
                    let duration_ns = point.transfer_duration(message.words).value();
                    delivered += 1;
                    hops += 1;
                    if emit_hops {
                        self.recorder.emit(|| TelemetryEvent::HopTraversed {
                            message: message.id.0,
                            node: message.destination as u64,
                            hop_index: 0,
                            electrical: false,
                            time_ns: event.time.as_nanos(),
                        });
                    }
                    delivered_bits += message.payload_bits();
                    busy_ns += duration_ns;
                    // Dynamic energy for the part of the transfer inside
                    // this epoch; earlier parts were charged at the
                    // boundaries of the epochs they crossed.
                    let from = started.max_time(epoch_start);
                    dynamic_pj += point.dynamic_power_mw * event.time.since(from).value();
                    if point.scheme != channel.baseline_scheme {
                        reconfigured += 1;
                    }
                    let latency = event.time.since(message.injected_at).value();
                    total_latency_ns += latency;
                    max_latency_ns = max_latency_ns.max(latency);
                    if message.misses_deadline(event.time) {
                        deadline_misses += 1;
                    }
                    let mut rng = hop_error_rng(self.config.seed, message.id, 0);
                    let (new_corrupted_words, new_corrupted_bits, new_corrected_words) =
                        sample_word_errors(&mut rng, message.words, &point);
                    corrupted_words += new_corrupted_words;
                    corrupted_bits += new_corrupted_bits;
                    corrected_words += new_corrected_words;
                    arbiter.release(message.id);
                    try_start(
                        &mut channel,
                        &mut arbiter,
                        &mut local,
                        &mut carryover,
                        event.time,
                        epoch_end,
                        complete_seq_base,
                        injection_index,
                        &self.messages,
                    );
                }
            }
        }

        ChannelPlayback {
            channel,
            arbiter,
            carryover,
            local_makespan,
            delivered,
            delivered_bits,
            hops,
            busy_ns,
            dynamic_pj,
            reconfigured,
            total_latency_ns,
            max_latency_ns,
            deadline_misses,
            corrupted_words,
            corrupted_bits,
            corrected_words,
        }
    }

    /// Grants the next pending transfer on the channel of router `node`
    /// (multi-hop epoch mode): the granted message rides its *current*
    /// hop — the node's photonic operating point, or the fabric's
    /// electrical fallback — captured for the whole hop.
    #[allow(clippy::too_many_arguments)]
    fn multihop_try_start(
        node: usize,
        now: SimTime,
        arbiters: &mut BTreeMap<usize, TokenArbiter>,
        channels: &mut [ChannelState],
        queue: &mut BinaryHeap<Reverse<Event>>,
        routes: &RouteTable,
        electrical: &onoc_topology::ElectricalLinkModel,
        hop_cursor: &BTreeMap<MessageId, usize>,
        messages: &BTreeMap<MessageId, Message>,
        injection_index: &BTreeMap<MessageId, u64>,
        complete_seq_base: u64,
    ) {
        if channels[node].active.is_some() {
            return;
        }
        let arbiter = arbiters.entry(node).or_default();
        if let Some((_, id)) = arbiter.grant() {
            let message = messages[&id];
            let hop_index = hop_cursor[&id];
            let hop = routes.route(message.source, message.destination).hops[hop_index];
            let point = if hop.kind == LinkKind::Electrical {
                DecisionParams::electrical_hop(
                    electrical.latency_ns,
                    electrical.ns_per_word,
                    electrical.energy_pj_per_bit,
                    message.words,
                )
            } else {
                channels[node].params
            };
            channels[node].active = Some((point, now));
            queue.push(Reverse(Event {
                time: now.advanced_by(point.transfer_duration(message.words)),
                sequence: complete_seq_base + injection_index[&id],
                kind: EventKind::Complete,
                message: id,
            }));
        }
    }
}
