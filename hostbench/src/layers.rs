//! Per-layer timings taken from outside: each times one public call of a
//! layer on the workload's own inputs.  Calls are timed in batches and the
//! median batch is reported, so one descheduled call cannot move a figure.

use std::hint::black_box;
use std::time::Instant;

use onoc_ber::math::erfc_inv;
use onoc_ecc_codes::ber::raw_ber_for_target;
use onoc_ecc_codes::EccScheme;
use onoc_link::NanophotonicLink;
use onoc_photonics::LaserPowerSolver;
use onoc_sim::traffic::TrafficGenerator;
use onoc_sim::ScenarioConfig;
use onoc_thermal::ThermalModelSpec;
use onoc_topology::{Router, TopologyElaborator};
use onoc_units::Celsius;

use crate::stats::{median, secs};
use crate::workloads::{LANES, NOMINAL_BER};

/// Wall-clock budget of one timing loop, in seconds.
const BUDGET_S: f64 = 0.12;

/// Median seconds per call of `f(i)` (`i` counts calls, to cycle inputs):
/// batches of `inner` calls until the budget is spent, at least five.
pub fn per_call(inner: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0;
    while samples.len() < 5 || (secs(start) < BUDGET_S && samples.len() < 100_000) {
        let batch = Instant::now();
        for _ in 0..inner {
            f(i);
            i += 1;
        }
        samples.push(secs(batch) / inner as f64);
    }
    median(&samples)
}

/// What a workload feeds the layers: the link it solves on, the varied chip
/// it solves on (the sweep only), its (scheme, BER) requests, the chip
/// temperatures it visits, and its scenario configuration if it has one.
pub struct LayerInputs<'a> {
    pub link: &'a NanophotonicLink,
    pub chip: Option<&'a NanophotonicLink>,
    pub requests: Vec<(EccScheme, f64)>,
    pub temperatures: Vec<Celsius>,
    pub scenario: Option<&'a ScenarioConfig>,
}

/// `(name, value, unit)` of one per-layer metric.
pub type Metric = (&'static str, f64, &'static str);

/// Times every layer call that applies to the inputs.  Layers the workload
/// does not run (no varied chip, no scenario, no fabric) report 0.
pub fn measure(inputs: &LayerInputs<'_>) -> Vec<Metric> {
    let LayerInputs {
        link,
        chip,
        requests,
        temperatures: temps,
        scenario,
    } = inputs;
    let mut out: Vec<Metric> = Vec::new();

    let erfc_args: Vec<f64> = requests
        .iter()
        .map(|&(scheme, ber)| 2.0 * raw_ber_for_target(scheme, ber))
        .collect();
    out.push((
        "ber.erfc_inv_ns",
        1e9 * per_call(64, |i| {
            black_box(erfc_inv(black_box(erfc_args[i % erfc_args.len()])));
        }),
        "ns",
    ));
    out.push((
        "ecc.raw_ber_for_target_ns",
        1e9 * per_call(64, |i| {
            let (scheme, ber) = requests[i % requests.len()];
            black_box(raw_ber_for_target(black_box(scheme), black_box(ber)));
        }),
        "ns",
    ));
    let channel = link.channel();
    out.push((
        "photonics.worst_case_crosstalk_ns",
        1e9 * per_call(16, |i| {
            black_box(channel.worst_case_crosstalk(black_box(i % LANES)));
        }),
        "ns",
    ));
    out.push((
        "photonics.worst_lane_us",
        1e6 * per_call(2, |_| {
            black_box(black_box(link.solver()).worst_case_wavelength());
        }),
        "us",
    ));
    let (on_wavelength_s, worst_case_s, compensate_s) =
        chip.map_or((0.0, 0.0, 0.0), |chip| chip_layers_s(chip, requests, temps));
    out.push((
        "photonics.solve_on_wavelength_us",
        1e6 * on_wavelength_s,
        "us",
    ));
    out.push(("photonics.solve_worst_case_us", 1e6 * worst_case_s, "us"));
    for (name, celsius) in [
        ("photonics.thermal_solve_at_us.25c", 25.0),
        ("photonics.thermal_solve_at_us.55c", 55.0),
    ] {
        out.push((
            name,
            1e6 * per_call(1, |_| {
                let _ = black_box(link.thermal_solver().solve_at(
                    EccScheme::Hamming7164,
                    black_box(NOMINAL_BER),
                    Celsius::new(celsius),
                ));
            }),
            "us",
        ));
    }
    out.push(("thermal.compensate_bank_us", 1e6 * compensate_s, "us"));
    out.push((
        "thermal.rc_advance_us",
        scenario.map_or(0.0, |config| {
            1e6 * rc_advance_s(&config.thermal, config.oni_count)
        }),
        "us",
    ));
    out.push((
        "core.cache_hit_ns",
        1e9 * {
            let (scheme, ber) = requests[0];
            let _ = link.operating_point_memoized(scheme, ber, temps[0]);
            per_call(256, |_| {
                let _ = black_box(link.operating_point_memoized(black_box(scheme), ber, temps[0]));
            })
        },
        "ns",
    ));
    out.push((
        "sim.traffic_gen_s",
        scenario.map_or(0.0, traffic_gen_s),
        "s",
    ));
    let fabric = scenario.and_then(|config| config.topology.as_ref());
    let (route_ms, elaborate_ms) = fabric.map_or((0.0, 0.0), |fabric| {
        (
            1e3 * repeat_median(5, || {
                black_box(Router::resolve(&fabric.topology));
            }),
            1e3 * repeat_median(5, || {
                let _ = black_box(TopologyElaborator::new().elaborate(fabric));
            }),
        )
    });
    out.push(("topology.route_table_ms", route_ms, "ms"));
    out.push(("topology.elaborate_ms", elaborate_ms, "ms"));
    out
}

/// The varied chip at each visited temperature: the bank compensation its
/// thermal solver applies under barrel-shift tuning, and the detuned channel
/// it then solves on.  Seconds per `solve_on_wavelength`, per
/// `solve_worst_case` and per `compensate_bank_assigned`.
fn chip_layers_s(
    chip: &NanophotonicLink,
    requests: &[(EccScheme, f64)],
    temps: &[Celsius],
) -> (f64, f64, f64) {
    let stack = chip.thermal_solver().stack();
    let spacing = chip.channel().geometry().grid.spacing().value();
    let slope = stack.rings.drift_nm_per_kelvin;
    let states: Vec<_> = temps.iter().map(|&t| chip.ring_bank_state_at(t)).collect();
    let compensate = |state| {
        stack
            .tuner
            .compensate_bank_assigned(state, spacing, slope, stack.mode, None)
    };
    let detuned: Vec<LaserPowerSolver> = temps
        .iter()
        .zip(&states)
        .map(|(&t, state)| {
            LaserPowerSolver::new(
                chip.channel()
                    .with_ring_detunings(&compensate(state).residual_nm)
                    .with_laser_ambient(t),
            )
        })
        .collect();
    let on_wavelength = per_call(4, |i| {
        let (scheme, ber) = requests[i % requests.len()];
        let _ = black_box(detuned[i % detuned.len()].solve_on_wavelength(scheme, ber, i % LANES));
    });
    let worst_case = per_call(1, |i| {
        let (scheme, ber) = requests[i % requests.len()];
        let _ = black_box(detuned[i % detuned.len()].solve_worst_case(scheme, ber));
    });
    let compensation = per_call(4, |i| {
        black_box(compensate(black_box(&states[i % states.len()])));
    });
    (on_wavelength, worst_case, compensation)
}

/// `op_at` timed per call on `link` over every request × temperature:
/// the median µs of one cold `operating_point_at`.
pub fn operating_point_at_us(
    link: &NanophotonicLink,
    requests: &[(EccScheme, f64)],
    temps: &[Celsius],
) -> f64 {
    1e6 * per_call(1, |i| {
        let (scheme, ber) = requests[i % requests.len()];
        let t = temps[(i / requests.len()) % temps.len()];
        let _ = black_box(link.operating_point_at(scheme, ber, t));
    })
}

/// One epoch (25 ns) of the workload's own thermal model at its fleet size,
/// with every node depositing 5 mW.
fn rc_advance_s(spec: &ThermalModelSpec, oni_count: usize) -> f64 {
    let mut model = spec.instantiate(oni_count);
    let powers = vec![5.0; oni_count];
    per_call(8, |_| model.advance(black_box(&powers), 25.0))
}

/// `TrafficGenerator::generate` with the workload's own parameters.
fn traffic_gen_s(config: &ScenarioConfig) -> f64 {
    repeat_median(3, || {
        black_box(
            TrafficGenerator::new(
                config.pattern,
                config.oni_count,
                config.words_per_message,
                config.class,
                config.mean_inter_arrival_ns,
                config.deadline_slack_ns,
                config.seed,
            )
            .generate(),
        );
    })
}

/// Median seconds of `reps` calls of a call too slow to batch.
fn repeat_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            secs(start)
        })
        .collect();
    median(&samples)
}
