//! What a scenario simulates: [`ScenarioConfig`], its validation, and the
//! policy and fleet settings it carries.

use onoc_link::{NanophotonicLink, SharedOpCache, ThermalLinkStack, TrafficClass};
use onoc_parallel::default_shards;
use onoc_thermal::{AssignmentStrategy, BankTuningMode, FabricationVariation, ThermalModelSpec};
use onoc_topology::{FabricSpec, Router};

use crate::decision::SimulationError;
use crate::traffic::TrafficPattern;

/// A configuration error carrying `reason`.
pub(super) fn invalid(reason: impl Into<String>) -> SimulationError {
    SimulationError::InvalidConfiguration {
        reason: reason.into(),
    }
}

/// SplitMix64 of `(seed, oni)`: the per-ONI seed of every fleet-wide
/// setting, so neighbouring ONIs get uncorrelated streams while the whole
/// fleet stays reproducible.
fn oni_seed(seed: u64, oni: usize) -> u64 {
    onoc_thermal::bank::splitmix64_mix(
        seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(oni as u64 + 1)),
    )
}

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
        FabricationVariation::new(self.sigma_nm, oni_seed(self.seed, oni))
    }
}

/// When and how the runtime manager re-decides a channel's operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionPolicy {
    /// One decision per message, taken at injection time from the prescribed
    /// temperature of the destination channel.  Only valid with a
    /// prescribed thermal model — per-message precomputation cannot see
    /// temperatures the traffic itself will create.
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
            return Err(invalid(format!(
                "thermal quantization step must be positive and finite, got {quantization}"
            )));
        }
        if let Self::EpochGated {
            epoch_ns,
            hysteresis_k,
            revert_hysteresis_k,
            ..
        } = *self
        {
            if !(epoch_ns > 0.0 && epoch_ns.is_finite()) {
                return Err(invalid(format!(
                    "epoch must be positive and finite, got {epoch_ns}"
                )));
            }
            for (name, value) in [
                ("hysteresis", hysteresis_k),
                ("revert hysteresis", revert_hysteresis_k),
            ] {
                if !(value >= 0.0 && value.is_finite()) {
                    return Err(invalid(format!(
                        "{name} must be non-negative and finite, got {value}"
                    )));
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
        oni_seed(self.seed, oni)
    }
}

/// The complete description of one scenario: everything
/// [`ScenarioBuilder`](super::ScenarioBuilder) composes.
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
    /// policy over an RC-network model, an invalid stack/variation, or
    /// a degenerate cache resolution.
    pub fn validate(&self) -> Result<(), SimulationError> {
        if self.oni_count < 2 {
            return Err(invalid("at least two ONIs are required"));
        }
        if self.words_per_message == 0 {
            return Err(invalid("messages must carry at least one word"));
        }
        if !(self.nominal_ber > 0.0 && self.nominal_ber < 0.5) {
            return Err(invalid("nominal BER must be in (0, 0.5)"));
        }
        if !(self.mean_inter_arrival_ns > 0.0 && self.mean_inter_arrival_ns.is_finite()) {
            return Err(invalid(format!(
                "mean inter-arrival time must be positive and finite, got {}",
                self.mean_inter_arrival_ns
            )));
        }
        self.thermal.validate(self.oni_count).map_err(invalid)?;
        let policy = self.resolved_policy();
        policy.validate()?;
        let per_message = matches!(policy, DecisionPolicy::PerMessage { .. });
        if per_message && self.thermal.is_activity_coupled() {
            return Err(invalid(
                "per-message decisions replay a prescribed thermal model; \
                 RC-network thermal models need the epoch-gated policy",
            ));
        }
        if per_message && self.variation.is_some() {
            // The per-message engine keeps one fleet-wide baseline (ONI 0's
            // chip) for static-power residency and switch bookkeeping; a
            // heterogeneous fleet needs the per-ONI baselines only the
            // epoch-gated engine maintains.
            return Err(invalid(
                "per-ONI fabrication variation requires the epoch-gated policy",
            ));
        }
        if per_message && self.assignment.is_some() {
            // Per-ONI design temperatures produce per-ONI assignments —
            // the same heterogeneous-fleet situation as `variation`.
            return Err(invalid(
                "design-time wavelength assignment requires the epoch-gated policy",
            ));
        }
        self.validate_fleet()?;
        self.validate_topology(per_message)
    }

    /// The fleet half of [`ScenarioConfig::validate`]: the stack, the
    /// variation and the cache resolution.
    fn validate_fleet(&self) -> Result<(), SimulationError> {
        if let Some(stack) = &self.stack {
            stack.validate().map_err(invalid)?;
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
                    return Err(invalid(format!(
                        "stack wavelength assignment covers {} lanes but the channel \
                         carries {lanes} wavelengths",
                        assignment.len()
                    )));
                }
            }
        }
        if let Some(variation) = &self.variation {
            variation.validate().map_err(invalid)?;
        }
        if let Some(buckets) = self.cache_buckets_per_kelvin {
            if !(buckets > 0.0 && buckets.is_finite()) {
                return Err(invalid(format!(
                    "cache resolution must be positive and finite, got {buckets} \
                     buckets per kelvin"
                )));
            }
        }
        Ok(())
    }

    /// The fabric half of [`ScenarioConfig::validate`]: the topology must
    /// span the ONIs, use no SWMR hop, and — under the per-message policy —
    /// route every flow over one MWSR hop and be crosstalk-homogeneous.
    fn validate_topology(&self, per_message: bool) -> Result<(), SimulationError> {
        let Some(fabric) = &self.topology else {
            return Ok(());
        };
        fabric.validate().map_err(|e| invalid(e.to_string()))?;
        if fabric.topology.node_count() != self.oni_count {
            return Err(invalid(format!(
                "the topology spans {} nodes but the scenario has {} ONIs",
                fabric.topology.node_count(),
                self.oni_count
            )));
        }
        let routes = Router::resolve(&fabric.topology);
        if routes.uses_swmr() {
            return Err(invalid(
                "SWMR hops are not yet supported by the scenario engines \
                 (the arbiters serialize per destination channel)",
            ));
        }
        if per_message && !routes.is_single_hop() {
            // The per-message engine precomputes one photonic decision per
            // injection; relayed messages and electrical hops need the
            // per-hop grants and wire pricing only the epoch-gated relay has.
            return Err(invalid(
                "multi-hop topologies and electrical hops require the epoch-gated policy",
            ));
        }
        if per_message && self.topology_fleet_is_heterogeneous() {
            // Crosstalk-scaled drift slopes give every waveguide group
            // its own chip behaviour — the same heterogeneous-fleet
            // situation as `variation`.
            return Err(invalid(
                "a crosstalk-heterogeneous topology requires the \
                 epoch-gated policy",
            ));
        }
        Ok(())
    }

    /// Whether the configured topology gives different ONIs different
    /// thermal stacks: nonzero waveguide-group crosstalk over groups of
    /// unequal population scales each reader channel's drift slope by its
    /// own neighbour count.
    pub(super) fn topology_fleet_is_heterogeneous(&self) -> bool {
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
    /// ONI's own chip instance and tuning mode, joined to the fleet cache
    /// (whose handle carries the resolution).
    pub(super) fn oni_link(&self, oni: usize, fleet_cache: &SharedOpCache) -> NanophotonicLink {
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
        link.with_shared_cache(fleet_cache.clone())
    }

    /// A fresh, empty fleet cache at the configured resolution.
    pub(super) fn fresh_cache(&self) -> Result<SharedOpCache, SimulationError> {
        match self.cache_buckets_per_kelvin {
            Some(buckets) => {
                SharedOpCache::with_resolution(buckets).map_err(|e| invalid(e.to_string()))
            }
            None => Ok(SharedOpCache::new()),
        }
    }

    /// The shard count of fan-outs: the thread budget, or one per core.
    pub(super) fn shards(&self) -> usize {
        if self.threads == 0 {
            default_shards()
        } else {
            self.threads
        }
    }
}
