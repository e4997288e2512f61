//! Generic conformance suite for both [`ThermalModel`] families.
//!
//! The unified simulation surface drives `dyn ThermalModel` without knowing
//! which physics sits behind it, so both families — the prescribed trace
//! adapter and the RC network — must honour the same contract:
//!
//! * `oni_count` is stable for the lifetime of the model;
//! * `advance` only ever moves time forward: zero-duration steps are
//!   observable no-ops, negative or non-finite durations and mis-sized
//!   power vectors are rejected (panic), and temperatures stay finite;
//! * specs carrying non-finite temperatures are rejected up front;
//! * instantiating the same spec twice and replaying the same schedule is
//!   bit-identical — the property the simulator's reproducibility
//!   guarantees are built on.
//!
//! The cases are a prescribed transient and the RC network with no
//! workload, with a one-phase hot cluster and with a migrating cluster.

use std::panic::{catch_unwind, AssertUnwindSafe};

use onoc_ecc::thermal::{
    RcNetworkParameters, ThermalEnvironment, ThermalModelSpec, WorkloadSchedule, WorkloadTrace,
};
use onoc_ecc::units::Celsius;

const ONI_COUNT: usize = 6;

/// Every model family under test, by name, as the serializable spec the
/// scenario surface instantiates from.
fn specs() -> Vec<(&'static str, ThermalModelSpec)> {
    vec![
        (
            "prescribed (transient)",
            ThermalModelSpec::Prescribed {
                environment: ThermalEnvironment::Transient {
                    start: Celsius::new(25.0),
                    target: Celsius::new(85.0),
                    time_constant_ns: 400.0,
                },
            },
        ),
        ("RC network (no workload)", rc_network(None)),
        (
            "RC network (one-phase hot cluster)",
            rc_network(Some(WorkloadSchedule::single(WorkloadTrace::hot_cluster(
                ONI_COUNT, 2, 250.0, 0.5,
            )))),
        ),
        (
            "RC network (migration)",
            rc_network(Some(WorkloadSchedule::migration(
                ONI_COUNT,
                800.0,
                &[1, 4],
                250.0,
                0.5,
            ))),
        ),
    ]
}

/// The paper package's RC network heated by `workload` on top of the link.
fn rc_network(workload: Option<WorkloadSchedule>) -> ThermalModelSpec {
    ThermalModelSpec::RcNetwork {
        network: RcNetworkParameters::paper_package(),
        workload,
    }
}

/// A deterministic, deliberately non-uniform advance schedule:
/// `(per-ONI powers, dt_ns)` pairs covering idle epochs, bursts and a
/// zero-length step.
fn schedule() -> Vec<(Vec<f64>, f64)> {
    let ramp: Vec<f64> = (0..ONI_COUNT).map(|oni| 40.0 * oni as f64).collect();
    vec![
        (vec![0.0; ONI_COUNT], 25.0),
        (vec![150.0; ONI_COUNT], 100.0),
        (ramp.clone(), 0.0),
        (ramp, 500.0),
        (vec![80.0; ONI_COUNT], 2000.0),
    ]
}

#[test]
fn oni_count_is_stable_across_advances() {
    for (name, spec) in specs() {
        let mut model = spec.instantiate(ONI_COUNT);
        assert_eq!(model.oni_count(), ONI_COUNT, "{name}");
        for (powers, dt) in schedule() {
            model.advance(&powers, dt);
            assert_eq!(model.oni_count(), ONI_COUNT, "{name} after a step");
        }
    }
}

#[test]
fn zero_duration_steps_are_observable_no_ops() {
    for (name, spec) in specs() {
        let mut model = spec.instantiate(ONI_COUNT);
        // Warm the model so a no-op would actually have something to spoil.
        model.advance(&[120.0; ONI_COUNT], 300.0);
        let before: Vec<u64> = (0..ONI_COUNT)
            .map(|oni| model.temperature_of(oni).value().to_bits())
            .collect();
        model.advance(&[1e6; ONI_COUNT], 0.0);
        for (oni, &bits) in before.iter().enumerate() {
            assert_eq!(
                model.temperature_of(oni).value().to_bits(),
                bits,
                "{name}: a zero-duration step must not move ONI {oni}"
            );
        }
    }
}

#[test]
fn temperatures_stay_finite_throughout_the_schedule() {
    for (name, spec) in specs() {
        let mut model = spec.instantiate(ONI_COUNT);
        for (step, (powers, dt)) in schedule().into_iter().enumerate() {
            model.advance(&powers, dt);
            for oni in 0..ONI_COUNT {
                let t = model.temperature_of(oni).value();
                assert!(t.is_finite(), "{name}: ONI {oni} at step {step} is {t}");
            }
        }
    }
}

#[test]
fn negative_and_non_finite_durations_are_rejected() {
    for (name, spec) in specs() {
        for bad_dt in [-1.0, f64::NAN, f64::INFINITY] {
            let mut model = spec.instantiate(ONI_COUNT);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                model.advance(&[0.0; ONI_COUNT], bad_dt);
            }));
            assert!(
                outcome.is_err(),
                "{name}: advance must reject dt = {bad_dt}"
            );
        }
    }
}

#[test]
fn mis_sized_power_vectors_are_rejected() {
    for (name, spec) in specs() {
        for wrong in [0usize, ONI_COUNT - 1, ONI_COUNT + 1] {
            let mut model = spec.instantiate(ONI_COUNT);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                model.advance(&vec![10.0; wrong], 5.0);
            }));
            assert!(
                outcome.is_err(),
                "{name}: advance must reject {wrong} power entries for {ONI_COUNT} ONIs"
            );
        }
    }
}

#[test]
fn out_of_range_temperature_queries_are_rejected() {
    for (name, spec) in specs() {
        let model = spec.instantiate(ONI_COUNT);
        let outcome = catch_unwind(AssertUnwindSafe(|| model.temperature_of(ONI_COUNT)));
        assert!(outcome.is_err(), "{name}: ONI {ONI_COUNT} is out of range");
    }
}

#[test]
fn non_finite_temperatures_are_rejected_at_the_spec() {
    // `Celsius::new` itself rejects non-finite values, so the malformed
    // temperatures are produced the way a buggy computation would: through
    // unchecked quantity arithmetic.
    let nan_c = Celsius::new(25.0) * f64::NAN;
    let inf_c = Celsius::new(25.0) * f64::INFINITY;
    let bad_specs = vec![
        (
            "prescribed (NaN uniform)",
            ThermalModelSpec::Prescribed {
                environment: ThermalEnvironment::Uniform { temperature: nan_c },
            },
        ),
        (
            "prescribed (infinite transient target)",
            ThermalModelSpec::Prescribed {
                environment: ThermalEnvironment::Transient {
                    start: Celsius::new(25.0),
                    target: inf_c,
                    time_constant_ns: 100.0,
                },
            },
        ),
        (
            "RC network (NaN ambient)",
            ThermalModelSpec::RcNetwork {
                network: RcNetworkParameters {
                    ambient: nan_c,
                    ..RcNetworkParameters::paper_package()
                },
                workload: None,
            },
        ),
        (
            "RC network with a workload (infinite ambient)",
            ThermalModelSpec::RcNetwork {
                network: RcNetworkParameters {
                    ambient: inf_c * -1.0,
                    ..RcNetworkParameters::paper_package()
                },
                workload: Some(WorkloadSchedule::single(vec![
                    WorkloadTrace::idle();
                    ONI_COUNT
                ])),
            },
        ),
        (
            "RC network (infinite phase trace)",
            rc_network(Some(WorkloadSchedule::single(vec![
                WorkloadTrace::constant(
                    f64::INFINITY
                );
                ONI_COUNT
            ]))),
        ),
    ];
    for (name, spec) in bad_specs {
        assert!(spec.validate(ONI_COUNT).is_err(), "{name} must be rejected");
        let outcome = catch_unwind(AssertUnwindSafe(|| spec.instantiate(ONI_COUNT)));
        assert!(outcome.is_err(), "{name} must not instantiate");
    }
}

#[test]
fn replay_from_the_same_spec_is_bit_identical() {
    for (name, spec) in specs() {
        let mut first = spec.instantiate(ONI_COUNT);
        let mut second = spec.instantiate(ONI_COUNT);
        for (step, (powers, dt)) in schedule().into_iter().enumerate() {
            first.advance(&powers, dt);
            second.advance(&powers, dt);
            for oni in 0..ONI_COUNT {
                assert_eq!(
                    first.temperature_of(oni).value().to_bits(),
                    second.temperature_of(oni).value().to_bits(),
                    "{name}: ONI {oni} diverged at step {step}"
                );
            }
        }
    }
}

#[test]
fn activity_coupling_flag_matches_the_family() {
    for (name, spec) in specs() {
        let activity_coupled = !name.starts_with("prescribed");
        assert_eq!(spec.is_activity_coupled(), activity_coupled, "{name}");
    }
}
