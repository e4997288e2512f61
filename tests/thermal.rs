//! Workspace-level integration tests of the thermal subsystem: the
//! temperature sweep acceptance behaviour, the runtime manager's thermal
//! switching, and the simulator's playback of prescribed temperature traces
//! under the per-message policy.

use std::collections::BTreeSet;

use onoc_ecc::ecc::EccScheme;
use onoc_ecc::link::{LinkManager, NanophotonicLink, TrafficClass};
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::{DecisionPolicy, ScenarioBuilder};
use onoc_ecc::thermal::{RingThermalModel, ThermalEnvironment, ThermalTuner};
use onoc_ecc::units::{Celsius, KelvinDelta};

fn sweep_temperatures() -> Vec<Celsius> {
    (25..=85)
        .step_by(10)
        .map(|t| Celsius::new(f64::from(t)))
        .collect()
}

#[test]
fn total_power_per_scheme_is_monotone_non_decreasing_in_temperature() {
    let link = NanophotonicLink::paper_link();
    for scheme in EccScheme::paper_schemes() {
        let mut last = 0.0;
        let mut feasible_count = 0;
        for t in sweep_temperatures() {
            if let Ok(p) = link.operating_point_at(scheme, 1e-11, t) {
                let total = p.channel_power.value();
                assert!(
                    total >= last,
                    "{scheme}: channel power fell from {last} to {total} at {t}"
                );
                last = total;
                feasible_count += 1;
            }
        }
        assert!(feasible_count >= 3, "{scheme} feasible at too few points");
    }
}

#[test]
fn uncoded_is_feasible_at_25c_and_infeasible_at_85c_where_hamming_survives() {
    let link = NanophotonicLink::paper_link();
    assert!(link
        .operating_point_at(EccScheme::Uncoded, 1e-11, Celsius::new(25.0))
        .is_ok());
    assert!(link
        .operating_point_at(EccScheme::Uncoded, 1e-11, Celsius::new(85.0))
        .is_err());
    for scheme in [EccScheme::Hamming74, EccScheme::Hamming7164] {
        let p = link
            .operating_point_at(scheme, 1e-11, Celsius::new(85.0))
            .unwrap();
        assert!(p.power.tuning.value() > 0.0, "{scheme} must pay for tuning");
        assert!(p.laser.laser_output_power.value() <= 700.0);
    }
}

#[test]
fn runtime_manager_switches_latency_first_from_uncoded_to_hamming() {
    let manager = LinkManager::paper_manager();
    let mut schemes = Vec::new();
    for t in sweep_temperatures() {
        schemes.push(
            manager
                .configure_at(TrafficClass::LatencyFirst, t)
                .map(|d| d.point.scheme()),
        );
    }
    // Cool end rides uncoded, hot end rides H(71,64), never unservable.
    assert_eq!(schemes.first().unwrap(), &Some(EccScheme::Uncoded));
    assert_eq!(schemes.last().unwrap(), &Some(EccScheme::Hamming7164));
    assert!(schemes.iter().all(Option::is_some));
    // The switch is monotone: once coded, it stays coded as T rises.
    let first_coded = schemes
        .iter()
        .position(|s| *s == Some(EccScheme::Hamming7164))
        .unwrap();
    assert!(schemes[first_coded..]
        .iter()
        .all(|s| *s == Some(EccScheme::Hamming7164)));
}

#[test]
fn tuning_power_grows_with_temperature_and_respects_the_heater_model() {
    let link = NanophotonicLink::paper_link();
    let tuner = ThermalTuner::paper_heater();
    let rings = RingThermalModel::paper_silicon();
    let mut last_tuning = 0.0;
    for t in sweep_temperatures() {
        let p = link
            .operating_point_at(EccScheme::Hamming7164, 1e-11, t)
            .unwrap();
        let tuning = p.power.tuning.value();
        assert!(tuning >= last_tuning, "tuning power fell at {t}");
        last_tuning = tuning;
        // The per-lane figure decomposes into the heater model exactly:
        // 12 rings × (power per kelvin × compensated excursion).
        let compensation = tuner.compensate(rings.delta_at(t));
        let expected_mw = compensation.heater_power_per_ring.value() * 12.0 * 1e-3;
        assert!(
            (tuning - expected_mw).abs() < 1e-9,
            "tuning decomposition at {t}"
        );
    }
}

#[test]
fn drift_model_invariants_hold_over_the_sweep() {
    let rings = RingThermalModel::paper_silicon();
    let tuner = ThermalTuner::paper_heater();
    assert!(rings.drift_at(Celsius::new(25.0)).is_zero());
    let mut last_drift = 0.0;
    let mut last_power = 0.0;
    for dt in 1..=60 {
        let t = Celsius::new(25.0 + f64::from(dt));
        let drift = rings.drift_at(t).abs().nanometers();
        assert!(drift > last_drift, "drift magnitude must grow with ΔT");
        last_drift = drift;
        let c = tuner.compensate(KelvinDelta::new(f64::from(dt)));
        assert!(c.heater_power_per_ring.value() >= last_power);
        last_power = c.heater_power_per_ring.value();
        assert!(c.residual.abs().value() < f64::from(dt).abs() + 1e-12);
    }
}

#[test]
fn transient_scenario_switches_schemes_mid_run() {
    let report = ScenarioBuilder::new()
        .oni_count(8)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 10,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(8)
        .mean_inter_arrival_ns(25.0)
        .seed(21)
        .prescribed(ThermalEnvironment::Transient {
            start: Celsius::new(25.0),
            target: Celsius::new(85.0),
            time_constant_ns: 100.0,
        })
        .policy(DecisionPolicy::per_message())
        .build()
        .unwrap()
        .run();
    assert!(report.reconfigured_messages > 0, "the heat-up must bite");
    assert!(report.reconfigured_messages < report.stats.delivered_messages);
    // Most destinations take their last message hot (coded); a destination
    // whose traffic all landed early may legitimately finish uncoded.
    let active = report.active_onis().count();
    let coded = report
        .active_onis()
        .filter(|o| o.scheme == EccScheme::Hamming7164)
        .count();
    assert!(
        2 * coded > active,
        "only {coded}/{active} destinations ended coded"
    );
    assert_eq!(
        report.stats.delivered_messages,
        report.stats.injected_messages
    );
}

/// Latency-first traffic over 12 ONIs; with an `environment` the run plays
/// that prescribed trace under the per-message policy.
fn prescribed_run(environment: Option<ThermalEnvironment>) -> ScenarioBuilder {
    let builder = ScenarioBuilder::new()
        .oni_count(12)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 8,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(8)
        .mean_inter_arrival_ns(2.0)
        .seed(3);
    match environment {
        Some(environment) => builder
            .prescribed(environment)
            .policy(DecisionPolicy::per_message()),
        None => builder,
    }
}

#[test]
fn ambient_thermal_scenario_matches_the_baseline_run() {
    let plain = prescribed_run(None).build().unwrap().run();
    let thermal = prescribed_run(Some(ThermalEnvironment::paper_ambient()))
        .build()
        .unwrap()
        .run();
    assert_eq!(plain.stats, thermal.stats);
    assert_eq!(thermal.reconfigured_messages, 0);
    assert!(thermal
        .active_onis()
        .all(|o| o.scheme == EccScheme::Uncoded));
}

#[test]
fn hotspot_scenario_splits_the_interconnect_between_schemes() {
    let report = prescribed_run(Some(ThermalEnvironment::Hotspot {
        base: Celsius::new(30.0),
        peak: Celsius::new(85.0),
        center: 0,
        decay_per_hop: 0.35,
    }))
    .build()
    .unwrap()
    .run();
    assert_eq!(
        report.baseline_scheme,
        EccScheme::Uncoded,
        "baseline stays uncoded"
    );
    let schemes: BTreeSet<EccScheme> = report.active_onis().map(|o| o.scheme).collect();
    assert_eq!(schemes.len(), 2);
    assert!(report.reconfigured_messages > 0);
    let hot = report.active_onis().find(|o| o.oni == 0).unwrap();
    assert_eq!(hot.scheme, EccScheme::Hamming7164);
    assert!(hot.tuning_power_mw_per_lane > 0.0);
    let far = report.active_onis().find(|o| o.oni == 6).unwrap();
    assert_eq!(far.scheme, EccScheme::Uncoded);
    assert!(far.final_temperature_c < hot.final_temperature_c);
}

#[test]
fn transient_heating_reconfigures_mid_run() {
    // A long uniform-random run under a fast heating transient: early
    // messages ride uncoded, late messages must switch to H(71,64).
    let report = prescribed_run(Some(ThermalEnvironment::Transient {
        start: Celsius::new(25.0),
        target: Celsius::new(85.0),
        time_constant_ns: 200.0,
    }))
    .mean_inter_arrival_ns(20.0)
    .build()
    .unwrap()
    .run();
    assert!(report.reconfigured_messages > 0);
    assert!(
        report.reconfigured_messages < report.stats.delivered_messages,
        "some early messages should still ride the uncoded path"
    );
    // By the end of the run every channel sits hot and coded.
    assert!(report
        .active_onis()
        .all(|o| o.scheme == EccScheme::Hamming7164));
}
