//! The unified simulation surface: one builder, one run, one report.
//!
//! [`ScenarioBuilder`] is the simulator's one entry point: it composes
//!
//! * **traffic** (pattern, class, message geometry, arrival process, seed),
//! * a **thermal model** ([`onoc_thermal::ThermalModelSpec`]: prescribed
//!   environments, or the RC network heated by the link's own dissipation
//!   and, optionally, by a phased compute workload),
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

mod builder;
mod config;
mod epoch;
mod per_message;
mod report;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::path::PathBuf;

use onoc_ecc_codes::EccScheme;
use onoc_link::{CacheCounters, LinkManager, ManagerDecision, SharedOpCache};
use onoc_telemetry::{RecorderHandle, TelemetryEvent};
use onoc_thermal::WavelengthAssignment;
use onoc_topology::{RouteTable, Router};

pub use builder::ScenarioBuilder;
pub use config::{DecisionPolicy, DesignAssignmentConfig, RingVariationConfig, ScenarioConfig};
pub use report::{EpochSample, OniReport, PhaseTransition, RunReport, SchemeSwitch};

use crate::decision::{DecisionParams, Event, EventKind, SimulationError};
use crate::packet::{Message, MessageId};
use crate::stats::SimStats;
use crate::traffic::TrafficGenerator;
use builder::FleetCacheSetup;
use config::invalid;
use epoch::{EpochPolicy, EpochState};
use per_message::PerMessageState;

/// A fully-prepared scenario, ready to [`Scenario::run`].
#[derive(Debug)]
pub struct Scenario {
    setup: Setup,
    engine: Engine,
}

/// The engine-independent half of a prepared scenario: everything both
/// engines read.
#[derive(Debug)]
struct Setup {
    config: ScenarioConfig,
    /// The manager fleets, one per design phase: `managers[phase][oni]`.
    /// All runs keep exactly one fleet unless per-phase design assignments
    /// are configured over a scheduled model; within a fleet there is one
    /// manager per destination ONI for heterogeneous fleets, or a single
    /// shared manager when every channel is the same chip.  Every manager's
    /// link resolves through `fleet_cache`.
    managers: Vec<Vec<LinkManager>>,
    /// The initial operating point of ONI 0's channel.
    baseline: ManagerDecision,
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
    /// Telemetry sink shared with the manager fleet (see
    /// [`ScenarioBuilder::telemetry`]).
    recorder: RecorderHandle,
    /// The one operating-point cache the whole fleet resolves through:
    /// injected, snapshot-loaded, or fresh at the configured resolution.
    /// Its keys carry the stack fingerprint, so managers whose stacks
    /// coincide share their solves and distinct stacks never alias.
    fleet_cache: SharedOpCache,
    /// Where to save the fleet cache after the run (see
    /// [`ScenarioBuilder::cache_snapshot`]).
    snapshot_path: Option<PathBuf>,
}

/// The engine the decision policy selects, with the state only that engine
/// reads.
#[derive(Debug)]
enum Engine {
    PerMessage(PerMessageState),
    EpochGated(EpochState),
}

/// Index in `fleet` of the manager serving destination `oni`: its own, or
/// the one shared manager of a homogeneous fleet.
fn fleet_index(fleet: &[LinkManager], oni: usize) -> usize {
    if fleet.len() == 1 {
        0
    } else {
        oni
    }
}

impl Setup {
    /// The manager serving destination `oni` during design phase `phase`
    /// (clamped: without per-phase fleets every phase shares fleet 0).
    fn manager_for(&self, phase: usize, oni: usize) -> &LinkManager {
        let fleet = &self.managers[phase.min(self.managers.len() - 1)];
        &fleet[fleet_index(fleet, oni)]
    }

    /// Every message's injection event, numbered 0..N in injection order.
    fn injection_queue(&self) -> BinaryHeap<Reverse<Event>> {
        (0..)
            .zip(&self.injection_order)
            .map(|(sequence, id)| {
                Reverse(Event {
                    time: self.messages[id].injected_at,
                    sequence,
                    kind: EventKind::Inject,
                    message: *id,
                })
            })
            .collect()
    }

    /// The operating-point cache counters of the whole manager fleet.
    fn cache_counters(&self) -> CacheCounters {
        self.fleet_cache.counters()
    }

    /// The report a run starts from and fills in as it plays: the
    /// configuration, ONI 0's baseline, the injected traffic, and every ONI
    /// idle on that baseline.
    fn blank_report(&self) -> RunReport {
        let baseline = DecisionParams::from_decision(&self.baseline);
        let idle = OniReport {
            oni: 0,
            delivered_messages: 0,
            final_temperature_c: baseline.temperature_c,
            peak_temperature_c: baseline.temperature_c,
            scheme: baseline.scheme,
            channel_power_mw: baseline.channel_power_mw,
            tuning_power_mw_per_lane: baseline.tuning_power_mw,
            scheme_switches: 0,
            decisions: 0,
            infeasible_requests: 0,
            static_energy_pj: 0.0,
            dynamic_energy_pj: 0.0,
        };
        RunReport {
            config: self.config.clone(),
            baseline_scheme: baseline.scheme,
            baseline_channel_power_mw: baseline.channel_power_mw,
            baseline_decoded_ber: baseline.decoded_ber,
            stats: SimStats {
                injected_messages: self.messages.len() as u64,
                ..SimStats::default()
            },
            per_oni: (0..self.config.oni_count)
                .map(|oni| OniReport { oni, ..idle })
                .collect(),
            epochs: 0,
            decisions: 0,
            infeasible_requests: 0,
            reconfigured_messages: 0,
            switch_log: Vec::new(),
            trajectory: Vec::new(),
            phases: Vec::new(),
            solver_cache: CacheCounters::default(),
        }
    }
}

/// The manager fleets, one per design phase, and their design-time
/// wavelength assignments (empty when unassigned).
type Fleets = (Vec<Vec<LinkManager>>, Vec<Vec<WavelengthAssignment>>);

/// The fleets of `config`: one manager per ONI when `one_per_oni`, else a
/// single shared manager, every manager's link joined to `fleet_cache`.
fn build_fleets(
    config: &ScenarioConfig,
    recorder: &RecorderHandle,
    fleet_cache: &SharedOpCache,
    one_per_oni: bool,
) -> Result<Fleets, SimulationError> {
    let n = config.oni_count;
    let manager_count = if one_per_oni { n } else { 1 };
    // Design-time wavelength assignment: search each ONI's permutation
    // against the thermal model's own design temperatures before the first
    // operating point is ever solved.  Per-phase mode searches one fleet
    // per schedule phase against that phase's own heat map; otherwise a
    // single fleet is searched against the worst-case fold.
    let design = match config.assignment {
        Some(spec) => {
            let maps = if spec.per_phase {
                config.thermal.phase_design_temperatures(n)
            } else {
                config.thermal.design_temperatures(n).map(|map| vec![map])
            }
            .map_err(|e| invalid(e.to_string()))?;
            Some((spec, maps))
        }
        None => None,
    };
    let phase_fleets = design.as_ref().map_or(1, |(_, maps)| maps.len());
    let mut managers = Vec::with_capacity(phase_fleets);
    let mut assignments: Vec<Vec<WavelengthAssignment>> = Vec::new();
    for phase in 0..phase_fleets {
        let mut fleet = Vec::with_capacity(manager_count);
        let mut fleet_assignments: Vec<WavelengthAssignment> = Vec::new();
        for oni in 0..manager_count {
            let mut link = config
                .oni_link(oni, fleet_cache)
                .with_telemetry(recorder.clone());
            if let Some((spec, maps)) = &design {
                let assigner = link.wavelength_assigner(spec.strategy, spec.oni_seed(oni));
                let assignment =
                    assigner.assign_traced(&link.ring_bank_state_at(maps[phase][oni]), recorder);
                fleet_assignments.push(assignment.clone());
                link = link
                    .with_wavelength_assignment(assignment)
                    .map_err(|e| invalid(e.to_string()))?;
            }
            let manager = LinkManager::new(
                link,
                EccScheme::paper_schemes().to_vec(),
                config.nominal_ber,
            )
            .map_err(|e| invalid(e.to_string()))?;
            fleet.push(manager);
        }
        if design.is_some() {
            assignments.push(fleet_assignments);
        }
        managers.push(fleet);
    }
    Ok((managers, assignments))
}

impl Scenario {
    /// The preparation path behind [`ScenarioBuilder::build`]: validation,
    /// the manager fleet, the traffic, the engine state and the routes.
    fn prepare(
        config: ScenarioConfig,
        recorder: RecorderHandle,
        cache_setup: FleetCacheSetup,
    ) -> Result<Self, SimulationError> {
        config.validate()?;
        let fleet_cache = cache_setup.resolve(&config)?;
        // A homogeneous fleet shares one manager; a heterogeneous fleet —
        // per-ONI chip instances, per-ONI design-time assignments, or
        // crosstalk-scaled topology stacks — gets one manager per ONI.
        // Either way every link resolves through the one fleet cache.
        let one_per_oni = config.variation.is_some()
            || config.assignment.is_some()
            || config.topology_fleet_is_heterogeneous();
        let (managers, assignments) = build_fleets(&config, &recorder, &fleet_cache, one_per_oni)?;
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
        let fleet = &managers[0];
        let (baseline, engine) = match config.resolved_policy() {
            DecisionPolicy::PerMessage { quantization_k } => {
                PerMessageState::prepare(&config, fleet, &generated, quantization_k)?
            }
            DecisionPolicy::EpochGated {
                epoch_ns,
                quantization_k,
                hysteresis_k,
                revert_hysteresis_k,
            } => {
                let policy = EpochPolicy {
                    epoch_ns,
                    quantization_k,
                    hysteresis_k,
                    revert_hysteresis_k,
                };
                EpochState::prepare(&config, fleet, &recorder, policy)?
            }
        };
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
        let setup = Setup {
            config,
            managers,
            baseline,
            assignments,
            routes,
            messages,
            injection_order,
            recorder,
            fleet_cache,
            snapshot_path: cache_setup.snapshot_path,
        };
        Ok(Self { setup, engine })
    }

    /// The configuration being simulated.
    #[must_use]
    pub fn config(&self) -> &ScenarioConfig {
        &self.setup.config
    }

    /// The decision policy in effect.
    #[must_use]
    pub fn policy(&self) -> DecisionPolicy {
        self.setup.config.resolved_policy()
    }

    /// Number of messages that will be injected.
    #[must_use]
    pub fn message_count(&self) -> usize {
        self.setup.messages.len()
    }

    /// The initial operating point of ONI 0's channel.
    #[must_use]
    pub fn baseline_decision(&self) -> &ManagerDecision {
        &self.setup.baseline
    }

    /// The design-time wavelength assignments of the fleet, one per ONI —
    /// empty when the scenario runs unassigned (see
    /// [`ScenarioBuilder::design_assignment`]).  With per-phase assignments
    /// this is the phase-0 fleet; see [`Scenario::phase_assignments`].
    #[must_use]
    pub fn assignments(&self) -> &[WavelengthAssignment] {
        self.setup.assignments.first().map_or(&[], Vec::as_slice)
    }

    /// The design-time assignment fleets per schedule phase,
    /// `phase_assignments()[phase][oni]` — a single entry unless
    /// [`DesignAssignmentConfig::per_phase`] is set over a scheduled model,
    /// empty when the scenario runs unassigned.
    #[must_use]
    pub fn phase_assignments(&self) -> &[Vec<WavelengthAssignment>] {
        &self.setup.assignments
    }

    /// Runs the scenario to completion.  With a snapshot path configured,
    /// the fleet cache is saved after the run.
    ///
    /// # Panics
    ///
    /// Panics when the cache snapshot cannot be written.
    #[must_use]
    pub fn run(self) -> RunReport {
        let Self { setup, engine } = self;
        let report = match engine {
            Engine::PerMessage(state) => per_message::run(&setup, state),
            Engine::EpochGated(state) => epoch::run(&setup, state),
        };
        if let Some(path) = &setup.snapshot_path {
            // A warm-started run that added no entries leaves the snapshot
            // bytes untouched instead of rewriting the whole file.
            let cache = &setup.fleet_cache;
            if cache.is_dirty() || !path.exists() {
                cache
                    .save(path)
                    .unwrap_or_else(|e| panic!("cache snapshot {}: {e}", path.display()));
            }
        }
        report
    }
}
