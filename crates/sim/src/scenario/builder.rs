//! [`ScenarioBuilder`]: the chainable surface over [`ScenarioConfig`] plus
//! the side channels (telemetry, shared caches) that are not part of it.

use std::path::PathBuf;

use onoc_link::{SharedOpCache, ThermalLinkStack, TrafficClass};
use onoc_telemetry::RecorderHandle;
use onoc_thermal::{
    RcNetworkParameters, ThermalEnvironment, ThermalModelSpec, WorkloadSchedule, WorkloadTrace,
};
use onoc_topology::FabricSpec;

use super::config::invalid;
use super::{
    DecisionPolicy, DesignAssignmentConfig, RingVariationConfig, Scenario, ScenarioConfig,
};
use crate::decision::SimulationError;
use crate::traffic::TrafficPattern;

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
        self.thermal_model(ThermalModelSpec::RcNetwork {
            network,
            workload: None,
        })
    }

    /// Heats the run with the link's dissipation *plus* per-ONI workload
    /// heat-injection traces (one per ONI), as a one-phase schedule.
    #[must_use]
    pub fn workload_heated(self, network: RcNetworkParameters, traces: Vec<WorkloadTrace>) -> Self {
        self.workload_scheduled(network, WorkloadSchedule::single(traces))
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
        self.thermal_model(ThermalModelSpec::RcNetwork {
            network,
            workload: Some(schedule),
        })
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
    /// epoch engine emits
    /// [`TelemetryEvent::EpochAdvanced`](onoc_telemetry::TelemetryEvent::EpochAdvanced)
    /// and
    /// [`TelemetryEvent::SchemeSwitched`](onoc_telemetry::TelemetryEvent::SchemeSwitched),
    /// and sharded fan-outs emit per-shard wall-clock timings.  The report
    /// itself is bit-identical with or without a recorder (property-tested).
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
    /// for a given entry set.
    #[must_use]
    pub fn cache_snapshot(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot_path = Some(path.into());
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
            },
        )
    }
}

/// Where the fleet's one operating-point cache comes from: the builder's
/// side-channel cache knobs, collected for [`Scenario::prepare`].
#[derive(Debug)]
pub(super) struct FleetCacheSetup {
    pub(super) shared_cache: Option<SharedOpCache>,
    pub(super) snapshot_path: Option<PathBuf>,
}

impl FleetCacheSetup {
    /// Resolves the fleet cache: the injected handle, a warm-started load of
    /// the snapshot file, or a fresh cache at the configured resolution.
    pub(super) fn resolve(
        &self,
        config: &ScenarioConfig,
    ) -> Result<SharedOpCache, SimulationError> {
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
                     pick one owner for the warm start",
                ));
            }
            return Ok(cache.clone());
        }
        if let Some(path) = self.snapshot_path.as_ref().filter(|path| path.exists()) {
            let cache = SharedOpCache::load(path)
                .map_err(|e| invalid(format!("cache snapshot failed to load: {e}")))?;
            check_resolution(&cache, "the loaded cache snapshot")?;
            return Ok(cache);
        }
        // No injected cache and no snapshot on disk yet: start cold (a
        // snapshot path is written after the run).
        config.fresh_cache()
    }
}
