//! Tests of the scenario builder itself: one table of the configurations
//! it rejects and the typed error each one returns, with the valid
//! counterparts that still build; the thread-count invariance of sharded
//! epoch re-asks; the switch-log epoch pins; and the commutativity of its
//! setters.

use onoc_ecc::ecc::EccScheme;
use onoc_ecc::link::{SharedOpCache, ThermalLinkStack, TrafficClass};
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::{
    DecisionPolicy, DesignAssignmentConfig, RingVariationConfig, ScenarioBuilder, SimulationError,
};
use onoc_ecc::thermal::{BankTuningMode, RcNetworkParameters, ThermalEnvironment};
use onoc_ecc::topology::{FabricSpec, LinkSpec, Topology};
use onoc_ecc::units::{Celsius, Microwatts};
use proptest::prelude::*;

/// What a rejected build must return: the error variant, and a fragment of
/// its message.
#[derive(Debug, Clone, Copy)]
enum Rejection {
    Invalid(&'static str),
    Infeasible(&'static str),
}

/// One rejected configuration: a label, the builder, and its error.
type Row = (String, ScenarioBuilder, Rejection);

fn invalid(label: &str, builder: ScenarioBuilder, fragment: &'static str) -> Row {
    (label.into(), builder, Rejection::Invalid(fragment))
}

fn infeasible(label: &str, builder: ScenarioBuilder, fragment: &'static str) -> Row {
    (label.into(), builder, Rejection::Infeasible(fragment))
}

/// Bulk uniform traffic over 6 ONIs at the fixed ambient (per-message).
fn per_message() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .oni_count(6)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 15,
        })
        .class(TrafficClass::Bulk)
        .words_per_message(8)
        .mean_inter_arrival_ns(2.0)
        .seed(3)
}

/// Latency-first traffic over 12 ONIs playing `environment` per message.
fn prescribed(environment: ThermalEnvironment) -> ScenarioBuilder {
    per_message()
        .oni_count(12)
        .class(TrafficClass::LatencyFirst)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 8,
        })
        .prescribed(environment)
        .policy(DecisionPolicy::per_message())
}

/// Latency-first traffic over 8 ONIs heated by its own dissipation.
fn self_heated() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .oni_count(8)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 120,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(16)
        .mean_inter_arrival_ns(8.0)
        .seed(5)
        .activity_coupled(RcNetworkParameters::paper_package())
        .policy(DecisionPolicy::epoch_gated())
}

fn epoch_gated(epoch_ns: f64, quantization_k: f64, hysteresis_k: f64) -> DecisionPolicy {
    DecisionPolicy::EpochGated {
        epoch_ns,
        quantization_k,
        hysteresis_k,
        revert_hysteresis_k: 10.0,
    }
}

fn varied(sigma_nm: f64, mode: BankTuningMode) -> ScenarioBuilder {
    self_heated().variation(RingVariationConfig {
        sigma_nm,
        seed: 0,
        mode,
    })
}

/// A per-ONI chip fleet (σ = 80 pm).
fn chips() -> RingVariationConfig {
    RingVariationConfig {
        sigma_nm: 0.08,
        seed: 7,
        mode: BankTuningMode::PureHeater,
    }
}

/// Configurations the builder rejects, with the error each must name.
fn rejected_configurations() -> Vec<Row> {
    let hotspot = ThermalEnvironment::Hotspot {
        base: Celsius::new(30.0),
        peak: Celsius::new(85.0),
        center: 0,
        decay_per_hop: 1.0,
    };
    let transient = ThermalEnvironment::Transient {
        start: Celsius::new(25.0),
        target: Celsius::new(85.0),
        time_constant_ns: 0.0,
    };
    let hot = ThermalEnvironment::Uniform {
        temperature: Celsius::new(85.0),
    };
    let mut drifting = ThermalLinkStack::paper_default();
    drifting.rings.drift_nm_per_kelvin = f64::NAN;
    let mut unsaturated = ThermalLinkStack::paper_default();
    unsaturated.tuner.max_power_per_ring = Microwatts::new(1.0) * f64::INFINITY;
    let no_heat_capacity = RcNetworkParameters {
        heat_capacity_pj_per_k: 0.0,
        ..RcNetworkParameters::paper_package()
    };
    let swmr = Topology::new(
        3,
        vec![
            LinkSpec::mwsr(0, [2], 0),
            LinkSpec::mwsr(1, [0], 1),
            LinkSpec::mwsr(2, [1], 2),
            LinkSpec::swmr(0, [2], 3),
        ],
    )
    .expect("a strongly connected 3-node ring with one SWMR shortcut");
    // Every route is one hop, but node 2 reads only node 0, so 1 -> 2 rides
    // the electrical wire.
    let one_wire = Topology::new(
        3,
        vec![
            LinkSpec::mwsr(0, [1, 2], 0),
            LinkSpec::mwsr(1, [0, 2], 1),
            LinkSpec::mwsr(2, [0], 2),
            LinkSpec::electrical(1, 2),
        ],
    )
    .expect("a strongly connected 3-node fabric");
    // multi_ring(5, 2) is single-hop, but its waveguide groups hold 3 and 2
    // readers, so nonzero crosstalk gives the two groups different stacks.
    let crosstalk = FabricSpec::new(Topology::multi_ring(5, 2)).with_crosstalk(0.08);
    let snapshot = std::env::temp_dir().join("onoc-never-written-snapshot.json");
    let coarse = SharedOpCache::with_resolution(10.0).expect("valid resolution");
    let mut rows = vec![
        // Traffic and platform.
        invalid("one ONI", per_message().oni_count(1), "at least two ONIs"),
        invalid(
            "empty messages",
            per_message().words_per_message(0),
            "at least one word",
        ),
        invalid(
            "BER above 0.5",
            per_message().nominal_ber(0.7),
            "nominal BER",
        ),
        infeasible(
            "real-time traffic at an unreachable BER",
            per_message()
                .class(TrafficClass::RealTime)
                .nominal_ber(1e-12),
            "RealTime",
        ),
        // Prescribed thermal traces under the per-message policy.
        invalid("hotspot decay of a whole hop", prescribed(hotspot), "decay"),
        invalid(
            "zero transient time constant",
            prescribed(transient),
            "time constant",
        ),
        invalid(
            "per-message quantization of zero",
            prescribed(ThermalEnvironment::paper_ambient()).policy(DecisionPolicy::PerMessage {
                quantization_k: 0.0,
            }),
            "quantization",
        ),
        infeasible(
            "real-time traffic on a uniformly hot chip",
            prescribed(hot).class(TrafficClass::RealTime),
            "RealTime",
        ),
        // The epoch-gated loop, its fleet and its thermal network.
        invalid(
            "negative sigma",
            varied(-0.01, BankTuningMode::PureHeater),
            "sigma",
        ),
        invalid(
            "NaN sigma",
            varied(f64::NAN, BankTuningMode::PureHeater),
            "sigma",
        ),
        invalid(
            "barrel shift without a window",
            varied(0.04, BankTuningMode::BarrelShift { max_shift: 0 }),
            "barrel-shift",
        ),
        invalid(
            "NaN drift slope",
            self_heated().stack(drifting),
            "drift slope",
        ),
        invalid(
            "infinite heater saturation",
            self_heated().stack(unsaturated),
            "saturation",
        ),
        invalid(
            "zero epoch",
            self_heated().policy(epoch_gated(0.0, 0.5, 1.5)),
            "epoch",
        ),
        invalid(
            "NaN epoch quantization",
            self_heated().policy(epoch_gated(25.0, f64::NAN, 1.5)),
            "quantization",
        ),
        invalid(
            "negative hysteresis",
            self_heated().policy(epoch_gated(25.0, 0.5, -1.0)),
            "hysteresis",
        ),
        invalid(
            "RC node without heat capacity",
            self_heated().activity_coupled(no_heat_capacity),
            "heat capacity",
        ),
        invalid(
            "self-heated run with a negative inter-arrival time",
            self_heated().mean_inter_arrival_ns(-1.0),
            "inter-arrival",
        ),
        // Combinations only the epoch-gated engine can play: the per-message
        // engine keeps one fleet-wide baseline for static-power residency
        // and switch bookkeeping, so per-ONI chips or assignments would
        // mis-account idle energy and log phantom switches.
        invalid(
            "per-message policy over an activity-coupled model",
            ScenarioBuilder::new()
                .activity_coupled(RcNetworkParameters::paper_package())
                .policy(DecisionPolicy::per_message()),
            "need the epoch-gated policy",
        ),
        invalid(
            "explicit per-message policy over a varied fleet",
            ScenarioBuilder::new()
                .variation(chips())
                .policy(DecisionPolicy::per_message()),
            "fabrication variation requires the epoch-gated policy",
        ),
        invalid(
            "implicit per-message policy over a varied fleet",
            ScenarioBuilder::new().variation(chips()),
            "fabrication variation requires the epoch-gated policy",
        ),
        invalid(
            "design assignment under the per-message policy",
            ScenarioBuilder::new().design_assignment(DesignAssignmentConfig::greedy_refine(1)),
            "wavelength assignment requires the epoch-gated policy",
        ),
        // Fabrics the scenario engines cannot play.
        invalid(
            "4-node fabric over 6 ONIs",
            self_heated()
                .oni_count(6)
                .topology(Topology::single_ring(4)),
            "spans 4 nodes but the scenario has 6 ONIs",
        ),
        invalid(
            "multi-hop fabric under the per-message policy",
            per_message()
                .oni_count(8)
                .topology(Topology::hybrid_mesh(8, 4)),
            "multi-hop topologies and electrical hops require the epoch-gated policy",
        ),
        invalid(
            "one-hop electrical route under the per-message policy",
            per_message().oni_count(3).topology(one_wire),
            "multi-hop topologies and electrical hops require the epoch-gated policy",
        ),
        invalid(
            "SWMR shortcut under the epoch-gated policy",
            self_heated().oni_count(3).topology(swmr),
            "SWMR",
        ),
        invalid(
            "crosstalk-heterogeneous fabric under the per-message policy",
            per_message().oni_count(5).topology(crosstalk),
            "crosstalk-heterogeneous",
        ),
        // Cache wiring.
        invalid(
            "an injected cache with a snapshot",
            per_message()
                .shared_cache(SharedOpCache::new())
                .cache_snapshot(&snapshot),
            "pick one owner",
        ),
        invalid(
            "an injected cache on another resolution",
            per_message().shared_cache(coarse).cache_resolution(20.0),
            "buckets per kelvin but the scenario configures 20",
        ),
    ];
    for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
        rows.push(invalid(
            &format!("mean inter-arrival time {bad}"),
            per_message().mean_inter_arrival_ns(bad),
            "inter-arrival",
        ));
    }
    for bad in [0.0, -2.0, f64::NAN, f64::INFINITY] {
        rows.push(invalid(
            &format!("cache resolution {bad}"),
            ScenarioBuilder::new().cache_resolution(bad),
            "cache resolution",
        ));
    }
    rows
}

#[test]
fn every_rejected_configuration_names_its_error() {
    for (label, builder, expected) in rejected_configurations() {
        let Err(err) = builder.build() else {
            panic!("{label}: built, but must be rejected");
        };
        match (&err, expected) {
            (SimulationError::InvalidConfiguration { reason }, Rejection::Invalid(fragment)) => {
                assert!(reason.contains(fragment), "{label}: {err}");
            }
            (SimulationError::NoFeasibleConfiguration { .. }, Rejection::Infeasible(fragment)) => {
                assert!(err.to_string().contains(fragment), "{label}: {err}");
            }
            _ => panic!("{label}: expected {expected:?}, got {err:?}"),
        }
    }
}

#[test]
fn sharded_reasks_are_bit_identical_to_the_serial_loop() {
    // Heterogeneous fleets shard their per-ONI epoch re-asks across
    // threads; the ordered merge must keep the whole report (including the
    // aggregated cache counters) bit-identical at every thread count.
    let run = |threads: usize| {
        ScenarioBuilder::new()
            .oni_count(6)
            .pattern(TrafficPattern::UniformRandom {
                messages_per_node: 80,
            })
            .class(TrafficClass::LatencyFirst)
            .words_per_message(16)
            .mean_inter_arrival_ns(8.0)
            .seed(5)
            .activity_coupled(RcNetworkParameters::paper_package())
            .policy(DecisionPolicy::epoch_gated())
            .variation(RingVariationConfig {
                sigma_nm: 0.040,
                seed: 11,
                mode: BankTuningMode::PureHeater,
            })
            .threads(threads)
            .build()
            .unwrap()
            .run()
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        let sharded = run(threads);
        // The configs differ only in the thread budget, which must never
        // leak into the physics.
        assert_eq!(serial.stats, sharded.stats, "{threads} threads");
        assert_eq!(serial.per_oni, sharded.per_oni, "{threads} threads");
        assert_eq!(serial.switch_log, sharded.switch_log, "{threads} threads");
        assert_eq!(serial.trajectory, sharded.trajectory, "{threads} threads");
        assert_eq!(
            serial.solver_cache, sharded.solver_cache,
            "{threads} threads"
        );
        assert_eq!(serial.decisions, sharded.decisions, "{threads} threads");
    }
}

#[test]
fn epoch_gated_policy_now_drives_prescribed_models_too() {
    // The epoch-gated hysteresis machinery over a *prescribed* transient
    // trace.
    let report = ScenarioBuilder::new()
        .oni_count(6)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 60,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(16)
        .mean_inter_arrival_ns(6.0)
        .seed(9)
        .prescribed(ThermalEnvironment::Transient {
            start: Celsius::new(25.0),
            target: Celsius::new(85.0),
            time_constant_ns: 500.0,
        })
        .policy(DecisionPolicy::epoch_gated())
        .build()
        .unwrap()
        .run();
    assert_eq!(report.baseline_scheme, EccScheme::Uncoded);
    assert!(report.epochs > 0);
    assert!(
        report.total_switches() > 0,
        "the prescribed heat-up must force epoch-gated switches"
    );
    assert!(report
        .per_oni
        .iter()
        .all(|o| o.scheme == EccScheme::Hamming7164));
}

#[test]
fn switch_log_epoch_indices_are_pinned() {
    // Golden pin of the switch-log epoch field.  The epoch-gated engine
    // stamps every switch with the index of the epoch whose boundary took
    // the decision — including over a *prescribed* transient, the
    // combination whose entries used to omit it.
    let epoch_gated = ScenarioBuilder::new()
        .oni_count(6)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 60,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(16)
        .mean_inter_arrival_ns(6.0)
        .seed(9)
        .prescribed(ThermalEnvironment::Transient {
            start: Celsius::new(25.0),
            target: Celsius::new(85.0),
            time_constant_ns: 500.0,
        })
        .policy(DecisionPolicy::epoch_gated())
        .build()
        .unwrap()
        .run();
    assert!(epoch_gated.total_switches() > 0, "the heat-up must switch");
    let mut last_epoch = 0;
    for switch in &epoch_gated.switch_log {
        let epoch = switch
            .epoch
            .expect("every epoch-gated switch carries its epoch index");
        // The index points at the trajectory sample of the very boundary
        // the decision was taken on.
        let sample = epoch_gated.trajectory[usize::try_from(epoch).unwrap()];
        assert_eq!(sample.time_ns.to_bits(), switch.time_ns.to_bits());
        assert!(epoch >= last_epoch, "epochs are logged in order");
        last_epoch = epoch;
    }
    // Golden values for this exact configuration: all six channels escape
    // the uncoded path at the boundary of epoch 12 (t = 325 ns).
    assert_eq!(epoch_gated.total_switches(), 6);
    assert!(epoch_gated.switch_log.iter().all(|s| s.epoch == Some(12)));
    assert!(epoch_gated
        .switch_log
        .iter()
        .all(|s| (s.time_ns - 325.0).abs() < 1e-9));

    // The per-message engine steps no epochs: its entries carry `None`,
    // uniformly, instead of omitting the field.
    let per_message = ScenarioBuilder::new()
        .oni_count(6)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 60,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(16)
        .mean_inter_arrival_ns(6.0)
        .seed(9)
        .prescribed(ThermalEnvironment::Transient {
            start: Celsius::new(25.0),
            target: Celsius::new(85.0),
            time_constant_ns: 500.0,
        })
        .policy(DecisionPolicy::PerMessage {
            quantization_k: 0.5,
        })
        .build()
        .unwrap()
        .run();
    assert_eq!(per_message.epochs, 0);
    assert!(per_message.total_switches() > 0);
    assert!(per_message.switch_log.iter().all(|s| s.epoch.is_none()));
}

#[test]
fn a_valid_cache_resolution_override_builds_and_delivers() {
    let report = ScenarioBuilder::new()
        .oni_count(4)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 5,
        })
        .cache_resolution(4.0)
        .build()
        .unwrap()
        .run();
    assert_eq!(
        report.stats.delivered_messages,
        report.stats.injected_messages
    );
}

#[test]
fn heterogeneous_fleets_build_under_the_epoch_gated_policy() {
    // The table rejects per-ONI chips and per-ONI design assignments under
    // the per-message policy; the epoch-gated policy carries per-ONI
    // baselines and accepts both.
    assert!(ScenarioBuilder::new()
        .variation(chips())
        .activity_coupled(RcNetworkParameters::paper_package())
        .policy(DecisionPolicy::epoch_gated())
        .build()
        .is_ok());
    // Epoch-gated over a prescribed trace accepts a design assignment.
    assert!(ScenarioBuilder::new()
        .oni_count(4)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 5
        })
        .design_assignment(DesignAssignmentConfig::greedy_refine(1))
        .policy(DecisionPolicy::epoch_gated())
        .build()
        .is_ok());
}

proptest! {
    /// The builder's setters commute: any two application orders of the same
    /// field values produce identical configurations and identical reports.
    #[test]
    fn builder_field_order_never_changes_the_report(
        seed in 0u64..500,
        oni_count in 3usize..7,
        words in 1u64..9,
        messages in 1u64..12,
        class_index in 0usize..3,
    ) {
        let class = [TrafficClass::LatencyFirst, TrafficClass::Bulk, TrafficClass::Multimedia]
            [class_index];
        let pattern = TrafficPattern::UniformRandom { messages_per_node: messages };
        let network = RcNetworkParameters::paper_package();
        let forward = ScenarioBuilder::new()
            .oni_count(oni_count)
            .pattern(pattern)
            .class(class)
            .words_per_message(words)
            .seed(seed)
            .activity_coupled(network)
            .policy(DecisionPolicy::epoch_gated());
        let reversed = ScenarioBuilder::new()
            .policy(DecisionPolicy::epoch_gated())
            .activity_coupled(network)
            .seed(seed)
            .words_per_message(words)
            .class(class)
            .pattern(pattern)
            .oni_count(oni_count);
        prop_assert_eq!(forward.config(), reversed.config());
        let a = forward.build().unwrap().run();
        let b = reversed.build().unwrap().run();
        prop_assert_eq!(a, b);
    }
}
