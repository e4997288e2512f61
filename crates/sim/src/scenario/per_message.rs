//! The per-message engine: every message rides the decision precomputed
//! for its injection-time destination temperature.
//!
//! # Why two engines
//!
//! The epoch engine could replay a prescribed trace one decision per
//! message, but not with this engine's outputs.  This engine draws residual
//! errors from one sequential stream in completion order (the epoch engine
//! seeds one stream per message and hop); charges dynamic energy as power ×
//! the unrounded transfer duration, not as integer-picosecond epoch slices;
//! numbers completions in scheduling order, not by injection index; fixes
//! each message's decision at injection, not at grant; and re-bases static
//! residency lazily, when a transfer starts on a decision of different
//! static power, not every epoch.  The per-message FNV golden
//! (`GOLDEN_PER_MESSAGE` in `tests/collection_determinism.rs`) and the
//! `permsg-hotspot` digest of `hostbench` pin each of these behaviours, so a
//! merged engine would have to re-pin both.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use onoc_link::{LinkManager, ManagerDecision};
use onoc_telemetry::TelemetryEvent;
use onoc_thermal::ThermalModelSpec;
use onoc_units::Celsius;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::config::invalid;
use super::{fleet_index, Engine, RunReport, ScenarioConfig, SchemeSwitch, Setup};
use crate::arbiter::TokenArbiter;
use crate::decision::{
    bucket_centre, bucket_index, sample_word_errors, DecisionParams, Event, EventKind,
    SimulationError,
};
use crate::packet::{Message, MessageId};
use crate::time::SimTime;

/// What only the per-message engine reads: the decision table, each
/// message's index into it, the precompute counts and the error stream.
#[derive(Debug)]
pub(super) struct PerMessageState {
    /// Distinct operating points: the baseline of ONI 0 first, then one
    /// entry per distinct decision bucket.
    params: Vec<DecisionParams>,
    /// Decision index per message (baseline when absent).
    assignment: BTreeMap<MessageId, usize>,
    /// Manager solves performed during precomputation, attributed to the
    /// destination ONI whose message triggered them.
    precompute_per_oni: Vec<u64>,
    rng: StdRng,
}

impl PerMessageState {
    /// Precomputes every message's decision: the baseline of ONI 0's chip
    /// at the calibration ambient, then one decision per distinct (manager,
    /// temperature bucket) a message injection touches.  Returns the
    /// baseline with the engine.
    pub(super) fn prepare(
        config: &ScenarioConfig,
        fleet: &[LinkManager],
        traffic: &[Message],
        quantization_k: f64,
    ) -> Result<(ManagerDecision, Engine), SimulationError> {
        let ThermalModelSpec::Prescribed { environment } = &config.thermal else {
            // `ScenarioConfig::validate` rejects every other model first.
            return Err(invalid(
                "per-message decisions replay a prescribed thermal model",
            ));
        };
        let infeasible = || SimulationError::NoFeasibleConfiguration {
            class: config.class,
        };
        let baseline = fleet[0].configure(config.class).ok_or_else(infeasible)?;
        let mut params = vec![DecisionParams::from_decision(&baseline)];
        let mut assignment = BTreeMap::new();
        let mut precompute_per_oni = vec![0u64; config.oni_count];
        let mut cache: BTreeMap<(usize, i64), usize> = BTreeMap::new();
        for message in traffic {
            let temperature = environment.temperature_at(
                message.destination,
                config.oni_count,
                message.injected_at.as_nanos(),
            );
            let bucket = bucket_index(temperature.value(), quantization_k);
            let manager = fleet_index(fleet, message.destination);
            let index = match cache.get(&(manager, bucket)) {
                Some(&index) => index,
                None => {
                    let bucket_temperature = Celsius::new(bucket_centre(bucket, quantization_k));
                    let decision = fleet[manager]
                        .configure_at(config.class, bucket_temperature)
                        .ok_or_else(infeasible)?;
                    precompute_per_oni[message.destination] += 1;
                    params.push(DecisionParams::from_decision(&decision));
                    cache.insert((manager, bucket), params.len() - 1);
                    params.len() - 1
                }
            };
            assignment.insert(message.id, index);
        }
        let state = Self {
            params,
            assignment,
            precompute_per_oni,
            rng: StdRng::seed_from_u64(config.seed ^ 0xC0FF_EE00),
        };
        Ok((baseline, Engine::PerMessage(state)))
    }
}

/// Runs the per-message engine over `setup`'s traffic.
pub(super) fn run(setup: &Setup, state: PerMessageState) -> RunReport {
    let mut run = PerMessageRun::new(setup, state);
    while let Some(Reverse(event)) = run.queue.pop() {
        run.makespan = run.makespan.max_time(event.time);
        run.play(event);
    }
    run.finish()
}

/// The mutable state of one per-message run.
struct PerMessageRun<'a> {
    setup: &'a Setup,
    state: PerMessageState,
    /// The report the run fills in.
    report: RunReport,
    arbiters: BTreeMap<usize, TokenArbiter>,
    busy: BTreeMap<usize, bool>,
    queue: BinaryHeap<Reverse<Event>>,
    /// Sequence number of the next scheduled event.
    sequence: u64,
    makespan: SimTime,
    /// Static-power residency: every destination channel holds a decision
    /// (initially the baseline) from t = 0; its laser + heater power burns
    /// over wall-clock time regardless of occupancy.  Intervals are closed
    /// lazily, whenever a transfer starts on a decision with a different
    /// static power and at the end of the run.
    statics: Vec<(usize, SimTime)>,
}

impl<'a> PerMessageRun<'a> {
    fn new(setup: &'a Setup, state: PerMessageState) -> Self {
        let mut report = setup.blank_report();
        for (entry, &decisions) in report.per_oni.iter_mut().zip(&state.precompute_per_oni) {
            entry.decisions = decisions;
        }
        report.decisions = state.precompute_per_oni.iter().sum();
        Self {
            setup,
            state,
            report,
            arbiters: BTreeMap::new(),
            busy: BTreeMap::new(),
            queue: setup.injection_queue(),
            sequence: setup.injection_order.len() as u64,
            makespan: SimTime::ZERO,
            statics: vec![(0, SimTime::ZERO); setup.config.oni_count],
        }
    }

    /// Plays one event, then grants the destination's next transfer.
    fn play(&mut self, event: Event) {
        let message = self.setup.messages[&event.message];
        match event.kind {
            EventKind::Inject => {
                self.arbiters
                    .entry(message.destination)
                    .or_default()
                    .request(message.source, message.id);
            }
            EventKind::Complete => {
                self.deliver(&message, event.time);
                self.arbiters
                    .get_mut(&message.destination)
                    .expect("completion implies a prior grant")
                    .release(message.id);
                self.busy.insert(message.destination, false);
            }
        }
        self.try_start(message.destination, event.time);
    }

    /// Accounts the delivery of `message` at `now`: occupancy, dynamic
    /// energy, latency, residual errors and the destination's scheme.
    fn deliver(&mut self, message: &Message, now: SimTime) {
        let index = self.state.assignment.get(&message.id).copied().unwrap_or(0);
        let point = self.state.params[index];
        let destination = message.destination;
        let duration_ns = point.transfer_duration(message.words).value();
        let stats = &mut self.report.stats;
        stats.delivered_messages += 1;
        // The per-message policy only admits fabrics whose routes are one
        // MWSR hop: every delivery lands on the destination's reader channel.
        stats.hops_traversed += 1;
        if self.setup.routes.is_some() {
            self.setup.recorder.emit(|| TelemetryEvent::HopTraversed {
                message: message.id.0,
                node: destination as u64,
                hop_index: 0,
                electrical: false,
                time_ns: now.as_nanos(),
            });
        }
        stats.delivered_bits += message.payload_bits();
        stats.channel_busy_ns += duration_ns;
        // Only the transfer-gated share is charged per transfer; the static
        // share accrues over wall-clock residency.
        stats.energy_pj += point.dynamic_power_mw * duration_ns;
        let latency = now.since(message.injected_at).value();
        stats.total_latency_ns += latency;
        stats.max_latency_ns = stats.max_latency_ns.max(latency);
        if message.misses_deadline(now) {
            stats.deadline_misses += 1;
        }
        let (corrupted_words, corrupted_bits, corrected_words) =
            sample_word_errors(&mut self.state.rng, message.words, &point);
        stats.corrupted_words += corrupted_words;
        stats.corrupted_bits += corrupted_bits;
        stats.corrected_words += corrected_words;
        let entry = &mut self.report.per_oni[destination];
        entry.dynamic_energy_pj += point.dynamic_power_mw * duration_ns;
        entry.delivered_messages += 1;
        // Unified switch bookkeeping: a delivery on a different scheme than
        // the destination's previous delivery is a per-message-mode scheme
        // switch.
        let previous_scheme = entry.scheme;
        if point.scheme != previous_scheme {
            entry.scheme_switches += 1;
            self.setup.recorder.emit(|| TelemetryEvent::SchemeSwitched {
                oni: destination as u64,
                from: previous_scheme.to_string(),
                to: point.scheme.to_string(),
                time_ns: now.as_nanos(),
                temperature_c: point.temperature_c,
                epoch: None,
            });
            self.report.switch_log.push(SchemeSwitch {
                time_ns: now.as_nanos(),
                oni: destination,
                from: previous_scheme,
                to: point.scheme,
                temperature_c: point.temperature_c,
                // The per-message engine steps no epochs; the field is still
                // carried so every switch-log entry has the same shape.
                epoch: None,
            });
        }
        entry.peak_temperature_c = entry.peak_temperature_c.max(point.temperature_c);
        entry.hold(&point);
        if point.scheme != self.report.baseline_scheme {
            self.report.reconfigured_messages += 1;
        }
    }

    /// Grants the next pending transfer on `destination`, re-basing the
    /// destination's static-power residency when the granted decision
    /// carries a different static power.
    fn try_start(&mut self, destination: usize, now: SimTime) {
        if *self.busy.get(&destination).unwrap_or(&false) {
            return;
        }
        let Some((_, id)) = self.arbiters.entry(destination).or_default().grant() else {
            return;
        };
        let message = self.setup.messages[&id];
        let index = self.state.assignment.get(&id).copied().unwrap_or(0);
        let point = self.state.params[index];
        // Applying a decision with a different static power re-bases the
        // destination's residency interval at the transfer start.
        let (current, _) = self.statics[destination];
        if self.state.params[current].static_power_mw != point.static_power_mw {
            self.charge_residency(destination, now);
            self.statics[destination] = (index, now);
        }
        self.busy.insert(destination, true);
        self.queue.push(Reverse(Event {
            time: now.advanced_by(point.transfer_duration(message.words)),
            sequence: self.sequence,
            kind: EventKind::Complete,
            message: id,
        }));
        self.sequence += 1;
    }

    /// Charges `oni`'s static power from its last residency re-base to
    /// `now`.
    fn charge_residency(&mut self, oni: usize, now: SimTime) {
        let (index, since) = self.statics[oni];
        let residency_pj = self.state.params[index].static_power_mw * now.since(since).value();
        self.report.stats.energy_pj += residency_pj;
        self.report.stats.static_energy_pj += residency_pj;
        self.report.per_oni[oni].static_energy_pj += residency_pj;
    }

    fn finish(mut self) -> RunReport {
        // Close the static-power residency of every destination channel at
        // the end of the run: an idle channel's laser and heaters are not
        // free.  A zero-traffic run has zero makespan and charges nothing.
        for oni in 0..self.statics.len() {
            self.charge_residency(oni, self.makespan);
        }
        self.report.stats.makespan_ns = self.makespan.as_nanos();
        self.report.solver_cache = self.setup.cache_counters();
        self.report
    }
}
