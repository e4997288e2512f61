//! The epoch-gated engine: event-driven traffic over an epoch-stepped
//! [`ThermalModel`].  Each epoch enters the phases it reached, plays its
//! events (relayed hop by hop over a fabric with multi-hop or electrical
//! routes, else sharded by destination channel), then charges its energy, steps the model, re-asks
//! drifted channels and samples the temperatures.  Both playback modes grant
//! through `Context::grant_next` and account hops through
//! `Context::complete_hop`; both re-ask sites go through
//! `EpochRun::apply_reasks`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use onoc_link::{LinkManager, ManagerDecision};
use onoc_parallel::parallel_map_traced;
use onoc_telemetry::{RecorderHandle, TelemetryEvent};
use onoc_thermal::ThermalModel;
use onoc_topology::{ElectricalLinkModel, LinkKind, RouteTable};
use onoc_units::Celsius;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{
    fleet_index, Engine, EpochSample, PhaseTransition, RunReport, ScenarioConfig, SchemeSwitch,
    Setup,
};
use crate::arbiter::TokenArbiter;
use crate::decision::{
    bucket_centre, bucket_index, sample_word_errors, DecisionParams, Event, EventKind,
    SimulationError,
};
use crate::packet::{Message, MessageId};
use crate::time::SimTime;

/// The parameters of [`DecisionPolicy::EpochGated`](super::DecisionPolicy::EpochGated).
#[derive(Debug, Clone, Copy)]
pub(super) struct EpochPolicy {
    pub(super) epoch_ns: f64,
    pub(super) quantization_k: f64,
    pub(super) hysteresis_k: f64,
    pub(super) revert_hysteresis_k: f64,
}

/// What only the epoch engine reads: the channels on their per-ONI
/// baselines, the thermal model and the policy.
#[derive(Debug)]
pub(super) struct EpochState {
    channels: Vec<ChannelState>,
    model: Box<dyn ThermalModel>,
    policy: EpochPolicy,
}

impl EpochState {
    /// Instantiates the thermal model and solves each ONI's initial
    /// operating point at its own (bucketed) starting temperature.  Each
    /// distinct (manager, bucket) pair is solved once, in first-touch order;
    /// the distinct batch shards across threads, and the solve-once cache
    /// issues the same query multiset as a serial walk, so the counters stay
    /// deterministic.  Returns ONI 0's initial decision with the engine.
    pub(super) fn prepare(
        config: &ScenarioConfig,
        fleet: &[LinkManager],
        recorder: &RecorderHandle,
        policy: EpochPolicy,
    ) -> Result<(ManagerDecision, Engine), SimulationError> {
        let quantization_k = policy.quantization_k;
        let model = config.thermal.instantiate(config.oni_count);
        let initial: Vec<(usize, i64)> = (0..config.oni_count)
            .map(|oni| {
                let t0 = model.temperature_of(oni).value();
                (fleet_index(fleet, oni), bucket_index(t0, quantization_k))
            })
            .collect();
        let mut distinct: Vec<(usize, i64)> = Vec::new();
        let mut index_of: BTreeMap<(usize, i64), usize> = BTreeMap::new();
        for key in &initial {
            if !index_of.contains_key(key) {
                index_of.insert(*key, distinct.len());
                distinct.push(*key);
            }
        }
        // Initial solves run on the phase-0 fleet: the run starts inside
        // phase 0, whatever the schedule holds later.
        let solve = |&(manager, bucket): &(usize, i64)| {
            let temperature = Celsius::new(bucket_centre(bucket, quantization_k));
            fleet[manager]
                .configure_at(config.class, temperature)
                .ok_or(SimulationError::NoFeasibleConfiguration {
                    class: config.class,
                })
        };
        let solved: Vec<ManagerDecision> =
            parallel_map_traced(&distinct, config.shards(), solve, recorder, "initial-solve")
                .into_iter()
                .collect::<Result<_, _>>()?;
        let channels = initial
            .iter()
            .enumerate()
            .map(|(oni, key)| {
                let baseline = DecisionParams::from_decision(&solved[index_of[key]]);
                ChannelState {
                    params: baseline,
                    baseline_scheme: baseline.scheme,
                    decision_temperature_c: bucket_centre(key.1, quantization_k),
                    last_switch: None,
                    active: None,
                    peak_temperature_c: model.temperature_of(oni).value(),
                }
            })
            .collect();
        let state = Self {
            channels,
            model,
            policy,
        };
        Ok((solved[0], Engine::EpochGated(state)))
    }
}

/// Per-destination live state during an epoch-gated run.
#[derive(Debug, Clone, Copy)]
struct ChannelState {
    params: DecisionParams,
    /// Scheme of this channel's own initial baseline (with a heterogeneous
    /// fleet, different ONIs can legitimately start on different schemes).
    baseline_scheme: onoc_ecc_codes::EccScheme,
    /// Temperature (bucket centre) of the last decision, in °C.
    decision_temperature_c: f64,
    /// Most recent scheme switch: the scheme switched *away from* and the
    /// channel temperature at the switch (the revert-hysteresis anchor).
    last_switch: Option<(onoc_ecc_codes::EccScheme, f64)>,
    /// Transfer in flight: operating point captured at grant time, and when
    /// it started.
    active: Option<(DecisionParams, SimTime)>,
    peak_temperature_c: f64,
}

/// What finished hops add to the run totals.  The sharded playback tallies
/// one channel's epoch and folds it once; the relay folds a fresh tally per
/// hop, so every total receives the same sums in the same order either way.
#[derive(Debug, Default)]
struct HopTally {
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

/// Where a finished hop sits on its message's route: the router it lands
/// on (whose channel served it), its position from 0, whether it rode the
/// electrical fallback, and whether it delivers the message.
#[derive(Debug, Clone, Copy)]
struct HopAt {
    node: usize,
    index: usize,
    electrical: bool,
    last: bool,
}

/// Outcome of one destination channel's epoch, folded back into the run in
/// ascending destination order whatever the thread schedule.
#[derive(Debug)]
struct ChannelPlayback {
    channel: ChannelState,
    arbiter: TokenArbiter,
    /// Completions scheduled past the epoch boundary, re-queued globally.
    carryover: Vec<Event>,
    /// Latest event time this channel processed.
    local_makespan: SimTime,
    tally: HopTally,
}

/// The error-injection RNG stream of one message on one hop, derived from
/// the scenario seed, the message id and the hop index (SplitMix64 mixing,
/// like [`RingVariationConfig::oni_variation`](super::RingVariationConfig::oni_variation)).
/// Tying the stream to the message instead of the playback position keeps
/// the sampled errors identical whether the epoch events are played
/// serially or sharded by destination channel.
fn hop_error_rng(seed: u64, message: MessageId, hop: u64) -> StdRng {
    StdRng::seed_from_u64(onoc_thermal::bank::splitmix64_mix(
        (seed ^ 0x0E44_5EED_0DD5_EED5)
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(message.0.wrapping_add(1)))
            .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(hop.wrapping_add(1))),
    ))
}

/// Runs the epoch-gated engine over `setup`'s traffic.
pub(super) fn run(setup: &Setup, state: EpochState) -> RunReport {
    let mut run = EpochRun::new(setup, state);
    while let Some(&Reverse(next)) = run.queue.peek() {
        run.enter_phases();
        let epoch_end = run.epoch_end(next.time);
        match run.ctx.relay {
            Some(routes) => run.relay(routes, epoch_end),
            None => run.play_sharded(epoch_end),
        }
        run.close_epoch(epoch_end);
    }
    run.finish()
}

/// What an epoch run reads and never writes: shared by the serial loop and
/// the worker threads of every fan-out.
struct Context<'a> {
    setup: &'a Setup,
    policy: EpochPolicy,
    /// Completion sequence number per message: injections take 0..N in
    /// injection order, and a message's completions reuse its injection
    /// index offset by N.  The numbering is a pure function of the traffic,
    /// so event order at equal times never depends on how earlier epochs
    /// were played.
    completion_sequence: BTreeMap<MessageId, u64>,
    /// The route table of a fabric with a multi-hop or electrical route:
    /// its traffic relays serially with per-hop grants.  Traffic that rides
    /// one MWSR hop per route (the canonical ring and any such fabric)
    /// partitions by destination channel and fans out across threads.
    relay: Option<&'a RouteTable>,
    electrical: ElectricalLinkModel,
    shards: usize,
    /// Phase boundaries of a scheduled workload: epochs are clamped so
    /// every boundary lands exactly on an epoch edge, and per-phase
    /// assignment fleets swap as the new phase begins.  The swap is
    /// hitless by construction — grants capture the channel's operating
    /// point for the whole transfer, so in-flight traffic completes on the
    /// old phase's point while new grants ride the new one.
    phase_boundaries: Vec<SimTime>,
}

impl Context<'_> {
    /// Grants the next waiting transfer of an idle `channel`, capturing for
    /// the whole hop the electrical-hop point `electrical` supplies for the
    /// granted message, or else the channel's *current* photonic point.
    /// Returns the completion event; the caller decides where it queues.
    fn grant_next(
        &self,
        channel: &mut ChannelState,
        arbiter: &mut TokenArbiter,
        now: SimTime,
        electrical: impl FnOnce(&Message) -> Option<DecisionParams>,
    ) -> Option<Event> {
        let (_, id) = arbiter.grant()?;
        let message = self.setup.messages[&id];
        let point = electrical(&message).unwrap_or(channel.params);
        channel.active = Some((point, now));
        Some(Event {
            time: now.advanced_by(point.transfer_duration(message.words)),
            sequence: self.completion_sequence[&id],
            kind: EventKind::Complete,
            message: id,
        })
    }

    /// Accounts one finished hop of `message` on `channel` into `tally`:
    /// occupancy, the part of the hop's dynamic energy inside this epoch
    /// (earlier parts were charged at the boundaries of the epochs it
    /// crossed), residual errors on photonic hops, and the delivery on the
    /// last hop.
    fn complete_hop(
        &self,
        channel: &mut ChannelState,
        tally: &mut HopTally,
        message: &Message,
        hop: HopAt,
        now: SimTime,
        epoch_start: SimTime,
    ) {
        let (point, started) = channel
            .active
            .take()
            .expect("completion implies an active transfer");
        tally.hops += 1;
        tally.busy_ns += point.transfer_duration(message.words).value();
        let from = started.max_time(epoch_start);
        tally.dynamic_pj += point.dynamic_power_mw * now.since(from).value();
        if self.setup.routes.is_some() {
            self.setup.recorder.emit(|| TelemetryEvent::HopTraversed {
                message: message.id.0,
                node: hop.node as u64,
                hop_index: hop.index as u64,
                electrical: hop.electrical,
                time_ns: now.as_nanos(),
            });
        }
        // Residual errors accrue on photonic hops; the electrical fallback
        // wires are error-free by model (their line coding is priced into
        // the per-bit energy).
        if !hop.electrical {
            let mut rng = hop_error_rng(self.setup.config.seed, message.id, hop.index as u64);
            let (corrupted_words, corrupted_bits, corrected_words) =
                sample_word_errors(&mut rng, message.words, &point);
            tally.corrupted_words += corrupted_words;
            tally.corrupted_bits += corrupted_bits;
            tally.corrected_words += corrected_words;
        }
        if hop.last {
            tally.delivered += 1;
            tally.delivered_bits += message.payload_bits();
            if !hop.electrical && point.scheme != channel.baseline_scheme {
                tally.reconfigured += 1;
            }
            let latency = now.since(message.injected_at).value();
            tally.total_latency_ns += latency;
            tally.max_latency_ns = tally.max_latency_ns.max(latency);
            if message.misses_deadline(now) {
                tally.deadline_misses += 1;
            }
        }
    }

    /// Plays one destination channel's due single-hop events through the
    /// epoch: its arbiter, state and error streams are its own, so channels
    /// play on any thread with identical outcomes.  Completions past the
    /// epoch carry over to the global queue.
    fn play_channel(
        &self,
        events: &[Event],
        mut channel: ChannelState,
        mut arbiter: TokenArbiter,
        epoch_start: SimTime,
        epoch_end: SimTime,
    ) -> ChannelPlayback {
        let mut local: BinaryHeap<Reverse<Event>> = events.iter().copied().map(Reverse).collect();
        let mut carryover: Vec<Event> = Vec::new();
        let mut local_makespan = SimTime::ZERO;
        let mut tally = HopTally::default();
        while let Some(Reverse(event)) = local.pop() {
            let now = event.time;
            local_makespan = local_makespan.max_time(now);
            let message = self.setup.messages[&event.message];
            match event.kind {
                EventKind::Inject => arbiter.request(message.source, message.id),
                EventKind::Complete => {
                    let hop = HopAt {
                        node: message.destination,
                        index: 0,
                        electrical: false,
                        last: true,
                    };
                    self.complete_hop(&mut channel, &mut tally, &message, hop, now, epoch_start);
                    arbiter.release(message.id);
                }
            }
            if channel.active.is_some() {
                continue;
            }
            if let Some(done) = self.grant_next(&mut channel, &mut arbiter, now, |_| None) {
                if done.time > epoch_end {
                    carryover.push(done);
                } else {
                    local.push(Reverse(done));
                }
            }
        }
        ChannelPlayback {
            channel,
            arbiter,
            carryover,
            local_makespan,
            tally,
        }
    }

    /// One re-ask for `channel` (destination `oni`) at `t_now` once the
    /// deadband gate fired: quantization, scheme-revert hysteresis and
    /// infeasibility.  Returns the new state, the switch taken and the
    /// infeasible-request count.  Pure but for the manager's memoized cache,
    /// so re-asks shard across threads bit-identically.
    fn reask(
        &self,
        mut channel: ChannelState,
        oni: usize,
        phase: usize,
        t_now: f64,
        time_ns: f64,
        epoch: u64,
    ) -> (ChannelState, Option<SchemeSwitch>, u64) {
        let quantization_k = self.policy.quantization_k;
        let bucket_t = bucket_centre(bucket_index(t_now, quantization_k), quantization_k);
        channel.decision_temperature_c = bucket_t;
        let Some(decision) = self
            .setup
            .manager_for(phase, oni)
            .configure_at(self.setup.config.class, Celsius::new(bucket_t))
        else {
            // Keep the previous operating point; the channel stays up at its
            // old configuration.
            return (channel, None, 1);
        };
        let new_params = DecisionParams::from_decision(&decision);
        let mut switch = None;
        if new_params.scheme != channel.params.scheme {
            // Scheme-revert hysteresis: undoing the most recent switch needs
            // a temperature excursion beyond its anchor, otherwise a channel
            // that just cooled by escaping to the coded path would flap
            // straight back.
            if let Some((from, at_temp)) = channel.last_switch {
                if new_params.scheme == from
                    && (t_now - at_temp).abs() < self.policy.revert_hysteresis_k
                {
                    return (channel, None, 0);
                }
            }
            channel.last_switch = Some((channel.params.scheme, t_now));
            switch = Some(SchemeSwitch {
                time_ns,
                oni,
                from: channel.params.scheme,
                to: new_params.scheme,
                temperature_c: t_now,
                epoch: Some(epoch),
            });
        }
        channel.params = new_params;
        (channel, switch, 0)
    }
}

/// The mutable state of one epoch-gated run.
struct EpochRun<'a> {
    ctx: Context<'a>,
    model: Box<dyn ThermalModel>,
    channels: Vec<ChannelState>,
    arbiters: BTreeMap<usize, TokenArbiter>,
    queue: BinaryHeap<Reverse<Event>>,
    /// Route position of every relayed message in flight.
    hop_cursor: BTreeMap<MessageId, usize>,
    /// The report the run fills in.
    report: RunReport,
    /// Energy each ONI deposited in the current epoch, in pJ.
    deposited_pj: Vec<f64>,
    makespan: SimTime,
    epoch_start: SimTime,
    current_phase: usize,
}

impl<'a> EpochRun<'a> {
    fn new(setup: &'a Setup, state: EpochState) -> Self {
        let injections = setup.injection_order.len() as u64;
        let completion_sequence = (injections..).zip(&setup.injection_order);
        let ctx = Context {
            setup,
            policy: state.policy,
            completion_sequence: completion_sequence.map(|(seq, &id)| (id, seq)).collect(),
            relay: setup.routes.as_ref().filter(|table| !table.is_single_hop()),
            electrical: setup
                .config
                .topology
                .as_ref()
                .map_or_else(ElectricalLinkModel::paper_fallback, |f| f.electrical),
            shards: setup.config.shards(),
            phase_boundaries: (setup.config.thermal.phase_starts().into_iter())
                .map(SimTime::from_nanos)
                .collect(),
        };
        Self {
            ctx,
            model: state.model,
            deposited_pj: vec![0.0; state.channels.len()],
            channels: state.channels,
            arbiters: BTreeMap::new(),
            queue: setup.injection_queue(),
            hop_cursor: BTreeMap::new(),
            report: setup.blank_report(),
            makespan: SimTime::ZERO,
            epoch_start: SimTime::ZERO,
            current_phase: 0,
        }
    }

    /// Enters every phase whose boundary has been reached — the preceding
    /// epoch was clamped to end exactly at the boundary, so the new phase
    /// starts on an epoch edge.  Per-phase assignment fleets swap exactly
    /// the ONIs whose assignment changed, and those channels re-decide on
    /// the new fleet at their current model temperature (the new
    /// permutation changes the tuning cost, so the old operating point no
    /// longer describes the channel).
    fn enter_phases(&mut self) {
        let setup = self.ctx.setup;
        while let Some(&boundary) = self.ctx.phase_boundaries.get(self.current_phase + 1) {
            if self.epoch_start < boundary {
                break;
            }
            self.current_phase += 1;
            let phase = self.current_phase;
            let (boundary_ns, epoch) = (boundary.as_nanos(), self.report.epochs);
            setup.recorder.emit(|| TelemetryEvent::PhaseEntered {
                phase: phase as u64,
                time_ns: boundary_ns,
                epoch,
            });
            let mut swapped: Vec<(usize, f64)> = Vec::new();
            if setup.managers.len() > 1 {
                let (from_fleet, to_fleet) =
                    (&setup.assignments[phase - 1], &setup.assignments[phase]);
                for (oni, (from, to)) in from_fleet.iter().zip(to_fleet).enumerate() {
                    let (from, to) = (from.fingerprint(), to.fingerprint());
                    if from != to {
                        setup.recorder.emit(|| TelemetryEvent::AssignmentSwapped {
                            oni: oni as u64,
                            phase: phase as u64,
                            from_fingerprint: from,
                            to_fingerprint: to,
                            time_ns: boundary_ns,
                            epoch,
                        });
                        swapped.push((oni, self.model.temperature_of(oni).value()));
                    }
                }
            }
            self.apply_reasks(&swapped, boundary_ns, "phase-reask");
            self.report.phases.push(PhaseTransition {
                phase,
                time_ns: boundary_ns,
                epoch,
                swapped_onis: swapped.len(),
                storm_switches: 0,
            });
        }
    }

    /// The end of the epoch starting now with the next event due at `next`:
    /// a long idle gap stretches one epoch up to the event (the model step
    /// integrates it whole), and a phase boundary clamps it, so events
    /// exactly at the boundary still grant on the old phase's point.
    fn epoch_end(&self, next: SimTime) -> SimTime {
        let nominal = SimTime::from_nanos(self.epoch_start.as_nanos() + self.ctx.policy.epoch_ns);
        let end = nominal.max(next);
        match self.ctx.phase_boundaries.get(self.current_phase + 1) {
            Some(&boundary) if self.epoch_start < boundary && end > boundary => boundary,
            _ => end,
        }
    }

    /// Pops the next event due by `epoch_end`.
    fn pop_due(&mut self, epoch_end: SimTime) -> Option<Event> {
        match self.queue.peek() {
            Some(&Reverse(event)) if event.time <= epoch_end => {
                self.queue.pop();
                Some(event)
            }
            _ => None,
        }
    }

    /// Relays the epoch's due events over the fabric, hop by hop,
    /// queueing at every router's per-destination arbiter along the way.
    fn relay(&mut self, routes: &RouteTable, epoch_end: SimTime) {
        while let Some(event) = self.pop_due(epoch_end) {
            let now = event.time;
            self.makespan = self.makespan.max_time(now);
            let message = self.ctx.setup.messages[&event.message];
            let route = routes.route(message.source, message.destination);
            match event.kind {
                EventKind::Inject => {
                    self.hop_cursor.insert(message.id, 0);
                    self.request_hop(routes, route.hops[0].node, &message, now);
                }
                EventKind::Complete => {
                    let index = *self
                        .hop_cursor
                        .get(&message.id)
                        .expect("completion implies a hop cursor");
                    let node = route.hops[index].node;
                    let hop = HopAt {
                        node,
                        index,
                        electrical: route.hops[index].kind == LinkKind::Electrical,
                        last: index + 1 == route.hops.len(),
                    };
                    // The hop's energy heats the router it lands on.
                    let mut tally = HopTally::default();
                    let channel = &mut self.channels[node];
                    let epoch_start = self.epoch_start;
                    self.ctx
                        .complete_hop(channel, &mut tally, &message, hop, now, epoch_start);
                    self.fold(node, &tally);
                    self.arbiters
                        .get_mut(&node)
                        .expect("completion implies a prior grant")
                        .release(message.id);
                    if hop.last {
                        self.hop_cursor.remove(&message.id);
                    } else {
                        // Relay: queue at the next router.
                        self.hop_cursor.insert(message.id, index + 1);
                        let next = route.hops[index + 1].node;
                        self.request_hop(routes, next, &message, now);
                    }
                    self.start_hop(routes, node, now);
                }
            }
        }
    }

    /// Queues `message` at router `node`'s arbiter and tries to start it.
    fn request_hop(&mut self, routes: &RouteTable, node: usize, message: &Message, now: SimTime) {
        self.arbiters
            .entry(node)
            .or_default()
            .request(message.source, message.id);
        self.start_hop(routes, node, now);
    }

    /// Grants router `node`'s next waiting hop if its channel is idle: the
    /// granted message rides its *current* hop — the node's photonic
    /// operating point, or the fabric's electrical fallback.
    fn start_hop(&mut self, routes: &RouteTable, node: usize, now: SimTime) {
        let channel = &mut self.channels[node];
        if channel.active.is_some() {
            return;
        }
        let arbiter = self.arbiters.entry(node).or_default();
        let (hop_cursor, wires) = (&self.hop_cursor, &self.ctx.electrical);
        let electrical = |message: &Message| {
            let route = routes.route(message.source, message.destination);
            let hop = route.hops[hop_cursor[&message.id]];
            (hop.kind == LinkKind::Electrical).then(|| {
                DecisionParams::electrical_hop(
                    wires.latency_ns,
                    wires.ns_per_word,
                    wires.energy_pj_per_bit,
                    message.words,
                )
            })
        };
        if let Some(done) = self.ctx.grant_next(channel, arbiter, now, electrical) {
            self.queue.push(Reverse(done));
        }
    }

    /// Plays the epoch's due single-hop events, partitioned by destination
    /// channel: each partition owns its arbiter, channel state and error
    /// streams outright, so playing the partitions in any schedule — on the
    /// calling thread or sharded across workers — folds back to the same
    /// report (gated bit-identical by the scale-out tests).
    fn play_sharded(&mut self, epoch_end: SimTime) {
        let mut due: BTreeMap<usize, Vec<Event>> = BTreeMap::new();
        while let Some(event) = self.pop_due(epoch_end) {
            due.entry(self.ctx.setup.messages[&event.message].destination)
                .or_default()
                .push(event);
        }
        let work: Vec<(usize, Vec<Event>)> = due.into_iter().collect();
        let (ctx, channels, arbiters) = (&self.ctx, &self.channels, &self.arbiters);
        let epoch_start = self.epoch_start;
        let outcomes = parallel_map_traced(
            &work,
            ctx.shards,
            |(destination, events)| {
                ctx.play_channel(
                    events,
                    channels[*destination],
                    arbiters.get(destination).cloned().unwrap_or_default(),
                    epoch_start,
                    epoch_end,
                )
            },
            &ctx.setup.recorder,
            "epoch-playback",
        );
        for ((destination, _), outcome) in work.iter().zip(outcomes) {
            self.channels[*destination] = outcome.channel;
            self.arbiters.insert(*destination, outcome.arbiter);
            for event in outcome.carryover {
                self.queue.push(Reverse(event));
            }
            self.makespan = self.makespan.max_time(outcome.local_makespan);
            self.fold(*destination, &outcome.tally);
        }
    }

    /// Folds the hops of channel `node` in `tally` into the run totals.
    fn fold(&mut self, node: usize, tally: &HopTally) {
        let report = &mut self.report;
        let stats = &mut report.stats;
        stats.delivered_messages += tally.delivered;
        stats.hops_traversed += tally.hops;
        stats.delivered_bits += tally.delivered_bits;
        stats.channel_busy_ns += tally.busy_ns;
        stats.energy_pj += tally.dynamic_pj;
        self.deposited_pj[node] += tally.dynamic_pj;
        report.per_oni[node].dynamic_energy_pj += tally.dynamic_pj;
        report.per_oni[node].delivered_messages += tally.delivered;
        report.reconfigured_messages += tally.reconfigured;
        stats.total_latency_ns += tally.total_latency_ns;
        stats.max_latency_ns = stats.max_latency_ns.max(tally.max_latency_ns);
        stats.deadline_misses += tally.deadline_misses;
        stats.corrupted_words += tally.corrupted_words;
        stats.corrupted_bits += tally.corrupted_bits;
        stats.corrected_words += tally.corrected_words;
    }

    /// Closes the epoch: charges its energy, advances the thermal model,
    /// re-asks drifted channels and records the epoch's sample.  The run
    /// ends with the last event, not at the nominal epoch boundary: static
    /// power is charged for actual residency only.
    fn close_epoch(&mut self, epoch_end: SimTime) {
        let end = if self.queue.is_empty() {
            self.makespan
        } else {
            epoch_end
        };
        let span_ns = end.since(self.epoch_start).value();
        if span_ns > 0.0 {
            self.advance_model(end, span_ns);
            let temps: Vec<f64> = (0..self.channels.len())
                .map(|oni| self.model.temperature_of(oni).value())
                .collect();
            self.reask_drifted(&temps, end);
            self.record_sample(&temps, end);
        }
        self.epoch_start = end;
    }

    /// Integrates the power each destination channel deposited over the
    /// epoch — the in-flight slice of its transfer and the static power of
    /// its decision — and advances the thermal model with the average.
    fn advance_model(&mut self, end: SimTime, span_ns: f64) {
        let report = &mut self.report;
        for (oni, channel) in self.channels.iter_mut().enumerate() {
            let entry = &mut report.per_oni[oni];
            if let Some((point, started)) = channel.active {
                let from = started.max_time(self.epoch_start);
                let slice_pj = point.dynamic_power_mw * end.since(from).value();
                report.stats.energy_pj += slice_pj;
                self.deposited_pj[oni] += slice_pj;
                entry.dynamic_energy_pj += slice_pj;
                // Re-base so the remainder is charged later.
                channel.active = Some((point, end));
            }
            let static_pj = channel.params.static_power_mw * span_ns;
            report.stats.energy_pj += static_pj;
            report.stats.static_energy_pj += static_pj;
            self.deposited_pj[oni] += static_pj;
            entry.static_energy_pj += static_pj;
        }
        let powers_mw: Vec<f64> = self.deposited_pj.iter().map(|pj| pj / span_ns).collect();
        self.model.advance(&powers_mw, span_ns);
        self.deposited_pj.iter_mut().for_each(|pj| *pj = 0.0);
    }

    /// Re-asks the manager for every channel whose temperature left its
    /// decision deadband (half a bucket plus the hysteresis).  The deadband
    /// gate is a handful of float comparisons, so it runs serially; only the
    /// ONIs that actually need a solver query fan out across threads (most
    /// epochs none do, and spawning workers for an empty batch would
    /// dominate).
    fn reask_drifted(&mut self, temps: &[f64], end: SimTime) {
        let policy = self.ctx.policy;
        let deadband = policy.quantization_k / 2.0 + policy.hysteresis_k;
        let mut pending: Vec<(usize, f64)> = Vec::new();
        for (oni, channel) in self.channels.iter_mut().enumerate() {
            channel.peak_temperature_c = channel.peak_temperature_c.max(temps[oni]);
            if (temps[oni] - channel.decision_temperature_c).abs() > deadband {
                pending.push((oni, temps[oni]));
            }
        }
        self.apply_reasks(&pending, end.as_nanos(), "epoch-reask");
    }

    /// Re-asks the manager for each `(oni, temperature)` of `pending` at
    /// `time_ns`, fanned out across threads under `label` and folded back in
    /// input order, then logs and emits every scheme switch taken.
    fn apply_reasks(&mut self, pending: &[(usize, f64)], time_ns: f64, label: &str) {
        self.report.decisions += pending.len() as u64;
        let (ctx, channels) = (&self.ctx, &self.channels);
        let (phase, epoch) = (self.current_phase, self.report.epochs);
        let outcomes = parallel_map_traced(
            pending,
            ctx.shards,
            |&(oni, t)| ctx.reask(channels[oni], oni, phase, t, time_ns, epoch),
            &ctx.setup.recorder,
            label,
        );
        let report = &mut self.report;
        for (&(oni, _), (state, switch, infeasible)) in pending.iter().zip(outcomes) {
            self.channels[oni] = state;
            report.per_oni[oni].decisions += 1;
            if let Some(switch) = switch {
                report.per_oni[oni].scheme_switches += 1;
                ctx.setup.recorder.emit(|| TelemetryEvent::SchemeSwitched {
                    oni: switch.oni as u64,
                    from: switch.from.to_string(),
                    to: switch.to.to_string(),
                    time_ns: switch.time_ns,
                    temperature_c: switch.temperature_c,
                    epoch: switch.epoch,
                });
                report.switch_log.push(switch);
            }
            report.infeasible_requests += infeasible;
            report.per_oni[oni].infeasible_requests += infeasible;
        }
    }

    /// Records the temperature envelope of the epoch ending at `end`.
    fn record_sample(&mut self, temps: &[f64], end: SimTime) {
        let sample = EpochSample {
            time_ns: end.as_nanos(),
            min_temperature_c: temps.iter().copied().fold(f64::INFINITY, f64::min),
            max_temperature_c: temps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            reconfigured_onis: self
                .channels
                .iter()
                .filter(|c| c.params.scheme != c.baseline_scheme)
                .count(),
        };
        let epoch = self.report.epochs;
        self.ctx
            .setup
            .recorder
            .emit(|| TelemetryEvent::EpochAdvanced {
                epoch,
                time_ns: sample.time_ns,
                min_temperature_c: sample.min_temperature_c,
                max_temperature_c: sample.max_temperature_c,
                reconfigured_onis: sample.reconfigured_onis as u64,
            });
        self.report.epochs += 1;
        self.report.trajectory.push(sample);
    }

    fn finish(mut self) -> RunReport {
        let report = &mut self.report;
        report.stats.makespan_ns = self.makespan.as_nanos();
        // Switch-storm accounting: the scheme flaps charged to each phase
        // transition are those decided in the epochs right after its
        // boundary, truncated at the next transition.
        const STORM_WINDOW_EPOCHS: u64 = 8;
        let starts: Vec<u64> = report.phases.iter().map(|t| t.epoch).collect();
        for (index, transition) in report.phases.iter_mut().enumerate() {
            let window_end = (transition.epoch + STORM_WINDOW_EPOCHS)
                .min(starts.get(index + 1).copied().unwrap_or(u64::MAX));
            transition.storm_switches = report
                .switch_log
                .iter()
                .filter(|s| {
                    s.epoch
                        .is_some_and(|epoch| epoch >= transition.epoch && epoch < window_end)
                })
                .count() as u64;
        }
        for (oni, (entry, channel)) in report.per_oni.iter_mut().zip(&self.channels).enumerate() {
            entry.hold(&channel.params);
            entry.final_temperature_c = self.model.temperature_of(oni).value();
            entry.peak_temperature_c = channel.peak_temperature_c;
        }
        report.solver_cache = self.ctx.setup.cache_counters();
        self.report
    }
}
