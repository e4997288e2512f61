//! Workspace-level integration tests of the per-ring spectral model:
//! fabrication variation, the worst-ring link budget, barrel-shift channel
//! hopping and the heterogeneous feedback fleets.

use onoc_ecc::ecc::EccScheme;
use onoc_ecc::link::{LinkManager, NanophotonicLink, TrafficClass};
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::{DecisionPolicy, RingVariationConfig, ScenarioBuilder};
use onoc_ecc::thermal::{BankTuningMode, FabricationVariation, RcNetworkParameters};
use onoc_ecc::units::Celsius;

fn varied_link(sigma_nm: f64, mode: BankTuningMode) -> NanophotonicLink {
    NanophotonicLink::paper_link()
        .with_fabrication_variation(FabricationVariation::new(sigma_nm, 42))
        .with_bank_tuning_mode(mode)
}

#[test]
fn sigma_zero_reproduces_the_25c_pins_bit_identically() {
    // The pinned 25 °C operating points of tests/paper_reproduction.rs must
    // survive the per-ring pipeline with σ = 0 *exactly*.
    let per_bank = NanophotonicLink::paper_link();
    let per_ring = varied_link(0.0, BankTuningMode::PureHeater);
    for scheme in EccScheme::paper_schemes() {
        let a = per_bank.operating_point(scheme, 1e-11);
        let b = per_ring.operating_point(scheme, 1e-11);
        assert_eq!(a, b, "{scheme} at 25C");
        // And across the 25–85 °C sweep.
        for t in (25..=85).step_by(5) {
            let t = Celsius::new(f64::from(t));
            assert_eq!(
                per_bank.operating_point_at(scheme, 1e-11, t),
                per_ring.operating_point_at(scheme, 1e-11, t),
                "{scheme} at {t}"
            );
        }
    }
}

#[test]
fn barrel_shift_beats_pure_heater_from_55c_up_at_sigma_40pm() {
    // The fig_variation acceptance criterion, pinned as a test: at
    // σ = 40 pm the barrel-shift policy spends measurably less tuning power
    // than pure heating at every temperature ≥ 55 °C.
    let pure = varied_link(0.040, BankTuningMode::PureHeater);
    let barrel = varied_link(0.040, BankTuningMode::full_barrel_shift(16));
    for t in [55.0, 65.0, 75.0, 85.0] {
        let t = Celsius::new(t);
        let p = pure
            .operating_point_at(EccScheme::Hamming7164, 1e-11, t)
            .unwrap();
        let b = barrel
            .operating_point_at(EccScheme::Hamming7164, 1e-11, t)
            .unwrap();
        assert!(
            b.power.tuning.value() < 0.5 * p.power.tuning.value(),
            "at {t}: barrel {} vs pure {}",
            b.power.tuning,
            p.power.tuning
        );
        assert!(b.thermal.barrel_shift > 0, "no hop at {t}");
        assert_eq!(p.thermal.barrel_shift, 0);
        // Channel hopping also lowers the total bill.
        assert!(b.channel_power.value() < p.channel_power.value());
    }
    // Below half a grid spacing of drift the shift is a no-op.
    let cool = barrel
        .operating_point_at(EccScheme::Hamming7164, 1e-11, Celsius::new(27.0))
        .unwrap();
    assert_eq!(cool.thermal.barrel_shift, 0);
}

#[test]
fn channel_hopping_extends_the_uncoded_path_past_its_thermal_collapse() {
    // Under pure heating the uncoded link dies of residual drift between 50
    // and 55 °C; hopping the assignment keeps the residual under the lock
    // error and the uncoded path survives the whole sweep.
    let pure = varied_link(0.040, BankTuningMode::PureHeater);
    let barrel = varied_link(0.040, BankTuningMode::full_barrel_shift(16));
    assert!(pure
        .operating_point_at(EccScheme::Uncoded, 1e-11, Celsius::new(85.0))
        .is_err());
    assert!(barrel
        .operating_point_at(EccScheme::Uncoded, 1e-11, Celsius::new(85.0))
        .is_ok());
    // Which moves the LatencyFirst switch point: the pure-heater manager
    // falls back to H(71,64) at 55 °C, the barrel-shift manager never does.
    let pure_manager = LinkManager::new(
        varied_link(0.040, BankTuningMode::PureHeater),
        EccScheme::paper_schemes().to_vec(),
        1e-11,
    )
    .unwrap();
    let barrel_manager = LinkManager::new(
        varied_link(0.040, BankTuningMode::full_barrel_shift(16)),
        EccScheme::paper_schemes().to_vec(),
        1e-11,
    )
    .unwrap();
    let at = |manager: &LinkManager, t: f64| {
        manager
            .configure_at(TrafficClass::LatencyFirst, Celsius::new(t))
            .map(|d| d.point.scheme())
    };
    assert_eq!(at(&pure_manager, 85.0), Some(EccScheme::Hamming7164));
    assert_eq!(at(&barrel_manager, 85.0), Some(EccScheme::Uncoded));
}

#[test]
fn worst_ring_sets_the_budget_of_a_varied_bank() {
    // A varied bank's operating point is sized by its worst ring: the laser
    // output can only go up relative to the perfect chip, for every σ.
    let perfect = NanophotonicLink::paper_link();
    let mut last_output = 0.0;
    for sigma_pm in [10.0, 40.0, 80.0] {
        let varied = varied_link(sigma_pm * 1e-3, BankTuningMode::PureHeater);
        let p = perfect
            .operating_point(EccScheme::Hamming7164, 1e-11)
            .unwrap();
        let v = varied
            .operating_point(EccScheme::Hamming7164, 1e-11)
            .unwrap();
        assert!(
            v.laser.laser_output_power.value() >= p.laser.laser_output_power.value() - 1e-12,
            "sigma {sigma_pm} pm"
        );
        assert!(
            v.laser.laser_output_power.value() >= last_output,
            "budget must degrade with sigma (at {sigma_pm} pm)"
        );
        last_output = v.laser.laser_output_power.value();
        // The summary names a worst lane within the grid.
        assert!(v.thermal.worst_lane < 16);
    }
}

#[test]
fn heterogeneous_fleet_switches_at_different_times() {
    // With per-ONI chip instances the self-heating switch points de-cluster:
    // the switch log must show distinct temperatures across ONIs.
    let report = ScenarioBuilder::new()
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
        .variation(RingVariationConfig {
            sigma_nm: 0.040,
            seed: 11,
            mode: BankTuningMode::PureHeater,
        })
        .build()
        .unwrap()
        .run();
    assert_eq!(
        report.stats.delivered_messages,
        report.stats.injected_messages
    );
    assert!(report.total_switches() > 0);
    let mut switch_temps: Vec<f64> = report.switch_log.iter().map(|s| s.temperature_c).collect();
    switch_temps.sort_by(|a, b| a.partial_cmp(b).unwrap());
    switch_temps.dedup();
    assert!(
        switch_temps.len() > 1,
        "all chips switched at the same temperature: {switch_temps:?}"
    );
}
