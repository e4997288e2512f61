//! Fabric-topology invariants of the scenario engines:
//!
//! * the canonical single MWSR ring, configured explicitly, reproduces the
//!   default (no-topology) run bit for bit under both decision policies;
//! * the hybrid mesh relays every inter-cluster message over multiple hops
//!   and still delivers all traffic;
//! * topology runs speak the `route_resolved` / `hop_traversed` telemetry
//!   vocabulary, and each message's hop trace follows its route: hop
//!   indices 0..k, the route's nodes and its electrical flags in order, on
//!   the hybrid mesh and on a fabric whose one electrical route is a single
//!   hop (one event at the destination on the single ring);
//! * a crosstalk-heterogeneous fabric is rejected under the per-message
//!   policy and plays under the epoch-gated one.  The other structural
//!   rejections (node-count mismatch, multi-hop or electrical hops under
//!   the per-message policy) are rows of the rejection table in
//!   `tests/scenario_builder.rs`.

use std::collections::BTreeMap;
use std::sync::Arc;

use onoc_ecc::link::TrafficClass;
use onoc_ecc::sim::traffic::{TrafficGenerator, TrafficPattern};
use onoc_ecc::sim::{DecisionPolicy, Message, RunReport, ScenarioBuilder, SimulationError};
use onoc_ecc::telemetry::{MemoryRecorder, RecorderHandle, TelemetryEvent};
use onoc_ecc::thermal::RcNetworkParameters;
use onoc_ecc::topology::{FabricSpec, LinkKind, LinkSpec, Router, Topology};

fn base_builder(oni_count: usize, epoch_gated: bool) -> ScenarioBuilder {
    let builder = ScenarioBuilder::new()
        .oni_count(oni_count)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 20,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(8)
        .mean_inter_arrival_ns(6.0)
        .seed(41);
    if epoch_gated {
        builder
            .activity_coupled(RcNetworkParameters::paper_package())
            .policy(DecisionPolicy::epoch_gated())
    } else {
        builder
    }
}

/// A report with the configured topology normalized away — the only field
/// that legitimately differs between the default run and the explicit
/// single-ring run.
fn sans_topology(mut report: RunReport) -> RunReport {
    report.config.topology = None;
    report
}

#[test]
fn single_ring_topology_is_bit_identical_to_the_default_path() {
    for epoch_gated in [false, true] {
        let default_report = base_builder(6, epoch_gated)
            .build()
            .expect("default scenario builds")
            .run();
        let ring_report = base_builder(6, epoch_gated)
            .topology(Topology::single_ring(6))
            .build()
            .expect("single-ring scenario builds")
            .run();
        assert!(ring_report.config.topology.is_some());
        assert_eq!(
            ring_report.stats.hops_traversed, ring_report.stats.delivered_messages,
            "the ring is single-hop"
        );
        assert_eq!(
            sans_topology(ring_report),
            default_report,
            "single ring must reproduce the default path (epoch_gated = {epoch_gated})"
        );
    }
}

#[test]
fn hybrid_mesh_delivers_all_traffic_over_multiple_hops() {
    let report = base_builder(8, true)
        .topology(Topology::hybrid_mesh(8, 4))
        .build()
        .expect("hybrid-mesh scenario builds")
        .run();
    assert_eq!(
        report.stats.delivered_messages, report.stats.injected_messages,
        "multi-hop routing must not lose traffic"
    );
    assert!(
        report.stats.hops_traversed > report.stats.delivered_messages,
        "inter-cluster flows take more than one hop: {} hops for {} messages",
        report.stats.hops_traversed,
        report.stats.delivered_messages
    );
    assert!(report.stats.makespan_ns > 0.0);
    assert!(report.stats.energy_pj > 0.0);
}

#[test]
fn topology_runs_emit_route_and_hop_events() {
    let memory = Arc::new(MemoryRecorder::new());
    let report = base_builder(8, true)
        .topology(Topology::hybrid_mesh(8, 4))
        .telemetry(RecorderHandle::new(memory.clone()))
        .build()
        .expect("hybrid-mesh scenario builds")
        .run();
    let events = memory.events();
    let routes = events
        .iter()
        .filter(|e| e.kind() == "route_resolved")
        .count();
    let hops = events
        .iter()
        .filter(|e| e.kind() == "hop_traversed")
        .count() as u64;
    assert_eq!(routes, 8 * 7, "one route_resolved event per ordered flow");
    assert_eq!(
        hops, report.stats.hops_traversed,
        "one hop_traversed event per completed hop"
    );
    let electrical_hops = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TelemetryEvent::HopTraversed {
                    electrical: true,
                    ..
                }
            )
        })
        .count();
    assert!(
        electrical_hops > 0,
        "inter-cluster traffic must ride the electrical fallback"
    );
}

/// Each message's `hop_traversed` events, in emission order, keyed by
/// message id.
fn hop_trails(events: &[TelemetryEvent]) -> BTreeMap<u64, Vec<(u64, u64, bool)>> {
    let mut trails: BTreeMap<u64, Vec<(u64, u64, bool)>> = BTreeMap::new();
    for event in events {
        if let TelemetryEvent::HopTraversed {
            message,
            node,
            hop_index,
            electrical,
            ..
        } = event
        {
            trails
                .entry(*message)
                .or_default()
                .push((*hop_index, *node, *electrical));
        }
    }
    trails
}

/// The messages `builder` injects, by id.
fn traffic(builder: &ScenarioBuilder) -> BTreeMap<u64, Message> {
    let config = builder.config();
    TrafficGenerator::new(
        config.pattern,
        config.oni_count,
        config.words_per_message,
        config.class,
        config.mean_inter_arrival_ns,
        config.deadline_slack_ns,
        config.seed,
    )
    .generate()
    .into_iter()
    .map(|message| (message.id.0, message))
    .collect()
}

/// A 3-node fabric whose every route is one hop, but node 2 reads only
/// node 0, so the route 1 -> 2 is the electrical wire.
fn one_electrical_hop() -> Topology {
    Topology::new(
        3,
        vec![
            LinkSpec::mwsr(0, [1, 2], 0),
            LinkSpec::mwsr(1, [0, 2], 1),
            LinkSpec::mwsr(2, [0], 2),
            LinkSpec::electrical(1, 2),
        ],
    )
    .expect("a strongly connected 3-node fabric")
}

#[test]
fn relayed_hop_trace_follows_each_route() {
    for fabric in [Topology::hybrid_mesh(8, 4), one_electrical_hop()] {
        let nodes = fabric.node_count();
        let routes = Router::resolve(&fabric);
        let builder = base_builder(nodes, true).topology(fabric);
        let messages = traffic(&builder);
        let memory = Arc::new(MemoryRecorder::new());
        let report = builder
            .telemetry(RecorderHandle::new(memory.clone()))
            .build()
            .expect("relayed scenario builds")
            .run();
        assert_eq!(report.stats.injected_messages, messages.len() as u64);
        let trails = hop_trails(&memory.events());
        assert_eq!(trails.len(), messages.len(), "every message leaves a trail");
        for (id, trail) in &trails {
            let message = messages[id];
            let route = routes.route(message.source, message.destination);
            let expected: Vec<(u64, u64, bool)> = route
                .hops
                .iter()
                .enumerate()
                .map(|(index, hop)| {
                    let electrical = hop.kind == LinkKind::Electrical;
                    (index as u64, hop.node as u64, electrical)
                })
                .collect();
            assert_eq!(trail, &expected, "{nodes} nodes, message {id}");
        }
    }
}

#[test]
fn single_ring_hop_trace_is_one_event_at_the_destination() {
    for epoch_gated in [false, true] {
        let builder = base_builder(6, epoch_gated).topology(Topology::single_ring(6));
        let messages = traffic(&builder);
        let memory = Arc::new(MemoryRecorder::new());
        let report = builder
            .telemetry(RecorderHandle::new(memory.clone()))
            .build()
            .expect("single-ring scenario builds")
            .run();
        assert_eq!(report.stats.injected_messages, messages.len() as u64);
        let trails = hop_trails(&memory.events());
        assert_eq!(trails.len(), messages.len(), "epoch_gated = {epoch_gated}");
        for (id, trail) in &trails {
            let destination = messages[id].destination as u64;
            assert_eq!(trail, &vec![(0, destination, false)], "message {id}");
        }
    }
}

#[test]
fn crosstalk_heterogeneous_fleet_requires_the_epoch_gated_policy() {
    // multi_ring(5, 2) leaves the two waveguide groups with unequal reader
    // populations (3 vs 2), so nonzero crosstalk splits the fleet into
    // distinct thermal stacks.
    let fabric = FabricSpec::new(Topology::multi_ring(5, 2)).with_crosstalk(0.08);
    let err = base_builder(5, false)
        .topology(fabric.clone())
        .build()
        .expect_err("heterogeneous fabric under the per-message policy must not build");
    let SimulationError::InvalidConfiguration { reason } = err else {
        panic!("wrong error variant");
    };
    assert!(reason.contains("epoch-gated"), "{reason}");
    let report = base_builder(5, true)
        .topology(fabric)
        .build()
        .expect("epoch-gated heterogeneous fabric builds")
        .run();
    assert_eq!(
        report.stats.delivered_messages,
        report.stats.injected_messages
    );
}
