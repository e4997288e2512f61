//! Design-time wavelength-assignment tests: the property suite of the
//! GLOW-style assigner plus scenario-level integration of the per-ONI
//! assignment pipeline.

use std::collections::BTreeSet;
use std::sync::Arc;

use onoc_ecc::ecc::EccScheme;
use onoc_ecc::link::{NanophotonicLink, TrafficClass};
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::{DecisionPolicy, DesignAssignmentConfig, RunReport, ScenarioBuilder};
use onoc_ecc::telemetry::{MemoryRecorder, RecorderHandle, TelemetryEvent};
use onoc_ecc::thermal::{
    AssignmentStrategy, FabricationVariation, RcNetworkParameters, RingBankState, ThermalTuner,
    WavelengthAssigner, WavelengthAssignment, WorkloadTrace,
};
use onoc_ecc::units::{Celsius, KelvinDelta};
use proptest::prelude::*;

fn paper_assigner(strategy: AssignmentStrategy, seed: u64) -> WavelengthAssigner {
    WavelengthAssigner {
        tuner: ThermalTuner::paper_heater(),
        grid_spacing_nm: 0.8,
        slope_nm_per_kelvin: 0.1,
        strategy,
        seed,
    }
}

fn bank(sigma_pm: f64, chip_seed: u64, dt: f64) -> RingBankState {
    RingBankState::new(
        FabricationVariation::new(sigma_pm / 1000.0, chip_seed).offsets_nm(16),
        KelvinDelta::new(dt),
    )
}

proptest! {
    /// (a) The identity assignment is bit-identical to today's unassigned
    /// path at every σ and temperature: same operating points through the
    /// full link stack.
    #[test]
    fn identity_assignment_is_bit_identical_at_every_sigma_and_temperature(
        sigma_pm in 0.0f64..100.0,
        chip_seed in 0u64..64,
        temperature in 25.0f64..85.0,
    ) {
        let variation = FabricationVariation::new(sigma_pm / 1000.0, chip_seed);
        let plain = NanophotonicLink::paper_link().with_fabrication_variation(variation);
        let assigned = NanophotonicLink::paper_link()
            .with_fabrication_variation(variation)
            .with_wavelength_assignment(WavelengthAssignment::identity(16))
            .unwrap();
        for scheme in [EccScheme::Uncoded, EccScheme::Hamming74, EccScheme::Hamming7164] {
            prop_assert_eq!(
                plain.operating_point_at(scheme, 1e-11, Celsius::new(temperature)),
                assigned.operating_point_at(scheme, 1e-11, Celsius::new(temperature))
            );
        }
    }

    /// (b) Assigner determinism: the same seed, heat map and offsets always
    /// produce the identical `WavelengthAssignment`.
    #[test]
    fn assigner_is_deterministic(
        sigma_pm in 0.0f64..100.0,
        chip_seed in 0u64..64,
        assign_seed in 0u64..64,
        dt in -35.0f64..60.0,
    ) {
        let state = bank(sigma_pm, chip_seed, dt);
        for strategy in [AssignmentStrategy::Greedy, AssignmentStrategy::GreedyRefine] {
            let first = paper_assigner(strategy, assign_seed).assign(&state);
            let second = paper_assigner(strategy, assign_seed).assign(&state);
            prop_assert_eq!(&first, &second);
            prop_assert!(first.validate().is_ok());
        }
    }

    /// (c) The assignment never increases the worst-ring predicted detuning
    /// versus identity at the target temperature (and never the predicted
    /// tuning power either — the assigner's never-worse guard).
    #[test]
    fn assignment_never_increases_worst_ring_detuning(
        sigma_pm in 0.0f64..100.0,
        chip_seed in 0u64..64,
        assign_seed in 0u64..64,
        dt in -35.0f64..60.0,
    ) {
        let state = bank(sigma_pm, chip_seed, dt);
        for strategy in [AssignmentStrategy::Greedy, AssignmentStrategy::GreedyRefine] {
            let assigner = paper_assigner(strategy, assign_seed);
            let assignment = assigner.assign(&state);
            let assigned = assigner.predicted_compensation(&state, &assignment);
            let identity =
                assigner.predicted_compensation(&state, &WavelengthAssignment::identity(16));
            prop_assert!(
                assigned.worst_residual().abs().nanometers()
                    <= identity.worst_residual().abs().nanometers() + 1e-12,
                "worst residual grew: {} vs {} (sigma {sigma_pm} pm, ΔT {dt})",
                assigned.worst_residual().abs().nanometers(),
                identity.worst_residual().abs().nanometers()
            );
            prop_assert!(
                assigned.total_heater_power().value() <= identity.total_heater_power().value(),
                "tuning power grew (sigma {sigma_pm} pm, ΔT {dt})"
            );
        }
    }
}

fn workload_builder() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .oni_count(8)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 40,
        })
        .class(TrafficClass::Bulk)
        .words_per_message(16)
        .seed(5)
        .workload_heated(
            RcNetworkParameters::paper_package(),
            WorkloadTrace::hot_cluster(8, 2, 300.0, 0.4),
        )
        .policy(DecisionPolicy::epoch_gated())
}

fn fleet_tuning_mw(report: &RunReport) -> f64 {
    report
        .per_oni
        .iter()
        .map(|o| o.tuning_power_mw_per_lane)
        .sum()
}

#[test]
fn scenario_assignment_follows_the_workload_heat_map() {
    let scenario = workload_builder()
        .design_assignment(DesignAssignmentConfig::greedy_refine(7))
        .build()
        .unwrap();
    let assignments = scenario.assignments().to_vec();
    assert_eq!(assignments.len(), 8, "one assignment per ONI");
    // The cluster centre (ONI 2) runs hottest, so its baked-in rotation is
    // the largest; the far side of the ring stays on identity.
    let offsets: Vec<i64> = assignments.iter().map(|a| a.design_offset(0)).collect();
    assert!(
        offsets[2] >= offsets[1] && offsets[1] >= offsets[0],
        "rotations must follow the heat gradient: {offsets:?}"
    );
    assert!(offsets[2] > 0, "the hot centre must rotate: {offsets:?}");
    assert!(
        assignments[6].is_identity(),
        "the cool far side keeps its design mapping"
    );

    // The assigned fleet spends measurably less tuning power end to end.
    let plain = workload_builder().build().unwrap().run();
    let assigned = scenario.run();
    assert_eq!(
        assigned.stats.delivered_messages,
        assigned.stats.injected_messages
    );
    let (p, a) = (fleet_tuning_mw(&plain), fleet_tuning_mw(&assigned));
    assert!(
        a < 0.8 * p,
        "assigned fleet tuning {a} mW/lane vs unassigned {p} mW/lane"
    );
    assert!(
        assigned.stats.energy_pj < plain.stats.energy_pj,
        "cheaper tuning must show up in the energy bill"
    );
}

#[test]
fn scenario_assignment_is_reproducible_and_seed_sensitive() {
    let run = |seed: u64| {
        workload_builder()
            .design_assignment(DesignAssignmentConfig {
                strategy: AssignmentStrategy::GreedyRefine,
                seed,
                per_phase: false,
            })
            .build()
            .unwrap()
            .run()
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "same assigner seed, same report");
}

#[test]
fn an_assigned_fleet_solves_each_stack_point_once() {
    // The cool far side keeps the identity assignment, so several ONIs
    // share one stack: the fleet's one cache must solve each of that
    // stack's points once, not once per ONI.
    let memory = Arc::new(MemoryRecorder::new());
    let report = workload_builder()
        .design_assignment(DesignAssignmentConfig::greedy_refine(7))
        .telemetry(RecorderHandle::new(memory.clone()))
        .build()
        .unwrap()
        .run();
    let mut solved = BTreeSet::new();
    let mut misses = 0u64;
    for event in memory.events() {
        if let TelemetryEvent::CacheMiss {
            fingerprint,
            scheme,
            temperature_c,
        } = event
        {
            misses += 1;
            assert!(
                solved.insert((fingerprint, scheme.clone(), temperature_c.to_bits())),
                "key ({fingerprint:#x}, {scheme}, {temperature_c}) solved twice"
            );
        }
    }
    assert_eq!(misses, report.solver_cache.misses);
}

#[test]
fn mis_sized_stack_assignment_is_a_configuration_error() {
    // A user-supplied stack carrying an assignment that does not cover the
    // channel grid must fail at build() as InvalidConfiguration, not panic
    // inside the solver mid-build.
    let stack = onoc_ecc::link::ThermalLinkStack {
        assignment: Some(WavelengthAssignment::identity(8)),
        ..onoc_ecc::link::ThermalLinkStack::paper_default()
    };
    let err = ScenarioBuilder::new().stack(stack).build().unwrap_err();
    assert!(err.to_string().contains("wavelength assignment"), "{err}");
    // A correctly-sized assignment in the stack builds fine.
    let stack = onoc_ecc::link::ThermalLinkStack {
        assignment: Some(WavelengthAssignment::identity(16)),
        ..onoc_ecc::link::ThermalLinkStack::paper_default()
    };
    assert!(ScenarioBuilder::new()
        .oni_count(4)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 5
        })
        .stack(stack)
        .build()
        .is_ok());
}

#[test]
fn assignment_composes_with_runtime_barrel_shift_on_the_link() {
    // A chip assigned for 85 °C but running cold: pure heating pays for the
    // baked-in rotation, the runtime barrel shift hops back for free.
    let hot = Celsius::new(85.0);
    let cold = Celsius::new(25.0);
    let base = NanophotonicLink::paper_link()
        .with_fabrication_variation(FabricationVariation::new(0.04, 42));
    let assignment =
        paper_assigner(AssignmentStrategy::GreedyRefine, 1).assign(&base.ring_bank_state_at(hot));
    let designed = base.with_wavelength_assignment(assignment).unwrap();
    let pure = designed
        .operating_point_at(EccScheme::Hamming7164, 1e-11, cold)
        .unwrap();
    let hopped = designed
        .clone()
        .with_bank_tuning_mode(onoc_ecc::thermal::BankTuningMode::full_barrel_shift(16))
        .operating_point_at(EccScheme::Hamming7164, 1e-11, cold)
        .unwrap();
    assert!(
        hopped.thermal.barrel_shift < 0,
        "the runtime shift hops back"
    );
    assert!(hopped.power.tuning.value() < 0.2 * pure.power.tuning.value());
    // At the design point the assignment alone already minimises the bill:
    // the barrel search finds nothing better than staying put.
    let designed_hot = designed
        .operating_point_at(EccScheme::Hamming7164, 1e-11, hot)
        .unwrap();
    assert_eq!(designed_hot.thermal.barrel_shift, 0);
}
