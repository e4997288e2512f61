//! Workspace-level integration tests of the closed thermo-electrical loop:
//! activity-driven heating under the epoch-gated policy, its hysteresis,
//! heterogeneous fleets, and the memoized operating-point cache that keeps
//! the loop affordable.

use onoc_ecc::ecc::EccScheme;
use onoc_ecc::link::TrafficClass;
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::{DecisionPolicy, RingVariationConfig, RunReport, ScenarioBuilder};
use onoc_ecc::thermal::{BankTuningMode, RcNetworkParameters};

/// Uniform traffic of `messages_per_node` 16-word messages per ONI over 8
/// ONIs, heated by its own dissipation through the paper package.
fn self_heated(messages_per_node: u64, class: TrafficClass, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .oni_count(8)
        .pattern(TrafficPattern::UniformRandom { messages_per_node })
        .class(class)
        .words_per_message(16)
        .mean_inter_arrival_ns(8.0)
        .seed(seed)
        .activity_coupled(RcNetworkParameters::paper_package())
        .policy(DecisionPolicy::epoch_gated())
}

fn uniform_run(class: TrafficClass, seed: u64) -> RunReport {
    self_heated(150, class, seed).build().unwrap().run()
}

/// The latency-first fleet the per-fleet pins below share.
fn latency_first() -> ScenarioBuilder {
    self_heated(120, TrafficClass::LatencyFirst, 5)
}

fn peak(report: &RunReport) -> f64 {
    report
        .per_oni
        .iter()
        .map(|o| o.peak_temperature_c)
        .fold(f64::NEG_INFINITY, f64::max)
}

#[test]
fn feedback_reaches_a_steady_state_on_uniform_traffic() {
    for seed in [3, 11, 29] {
        let report = uniform_run(TrafficClass::LatencyFirst, seed);
        // Everything is delivered and the temperatures stay bounded.
        assert_eq!(
            report.stats.delivered_messages,
            report.stats.injected_messages
        );
        for oni in &report.per_oni {
            assert!(
                oni.peak_temperature_c > 25.0 && oni.peak_temperature_c < 100.0,
                "seed {seed}: ONI {} peaked at {}",
                oni.oni,
                oni.peak_temperature_c
            );
            // No oscillation: at most the single uncoded → coded switch.
            assert!(
                oni.scheme_switches <= 1,
                "seed {seed}: ONI {} flapped ({} switches)",
                oni.oni,
                oni.scheme_switches
            );
        }
        // The last quarter of the trajectory is quiescent: the temperature
        // envelope moves by well under a kelvin and the coded-ONI count is
        // frozen — a steady state, not a limit cycle.
        let tail = &report.trajectory[report.trajectory.len() * 3 / 4..];
        let max_t: Vec<f64> = tail.iter().map(|s| s.max_temperature_c).collect();
        let spread = max_t.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - max_t.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(spread < 1.0, "seed {seed}: tail still moving by {spread} K");
        assert!(tail
            .windows(2)
            .all(|w| w[0].reconfigured_onis == w[1].reconfigured_onis));
    }
}

#[test]
fn self_heating_forces_the_coded_path_without_any_prescribed_trace() {
    let report = uniform_run(TrafficClass::LatencyFirst, 7);
    assert_eq!(report.baseline_scheme, EccScheme::Uncoded);
    assert!(report.total_switches() > 0);
    assert!(report
        .per_oni
        .iter()
        .all(|o| o.scheme == EccScheme::Hamming7164));
    // The switch sheds laser power: the package ends cooler than its peak.
    let peak = report
        .trajectory
        .iter()
        .map(|s| s.max_temperature_c)
        .fold(f64::NEG_INFINITY, f64::max);
    let last = report.trajectory.last().unwrap().max_temperature_c;
    assert!(last < peak - 1.0, "no cool-down: peak {peak}, final {last}");
}

#[test]
fn the_cache_keeps_many_epoch_runs_affordable() {
    let report = uniform_run(TrafficClass::LatencyFirst, 13);
    let cache = report.solver_cache;
    // The manager asks up to three schemes per re-decision, yet the solver
    // runs only once per distinct (scheme, BER, temperature bucket).
    assert!(cache.total() > cache.misses * 2, "{cache:?}");
    assert!(cache.hit_rate() > 0.5, "{cache:?}");
}

#[test]
fn bulk_traffic_is_thermally_self_limiting() {
    // Bulk starts on the coded point: less power in, a cooler package, and
    // the loop never needs to switch anything.
    let report = uniform_run(TrafficClass::Bulk, 5);
    assert_eq!(report.baseline_scheme, EccScheme::Hamming7164);
    assert_eq!(report.total_switches(), 0);
    let hot = uniform_run(TrafficClass::LatencyFirst, 5);
    assert!(peak(&report) < peak(&hot));
}

#[test]
fn self_heating_switches_latency_first_traffic_to_the_coded_path() {
    let scenario = latency_first().build().unwrap();
    let injected = scenario.message_count() as u64;
    let report = scenario.run();
    assert_eq!(report.stats.delivered_messages, injected);
    assert_eq!(report.baseline_scheme, EccScheme::Uncoded);
    // No prescribed trace anywhere — the uncoded laser's own dissipation
    // must carry the channels past the uncoded link's collapse.
    assert!(
        report.total_switches() > 0,
        "activity-driven heating must force at least one switch"
    );
    assert!(report
        .switch_log
        .iter()
        .all(|s| s.from == EccScheme::Uncoded && s.to == EccScheme::Hamming7164));
    assert!(report
        .per_oni
        .iter()
        .all(|o| o.scheme == EccScheme::Hamming7164));
    assert!(report.epochs > 10);
}

#[test]
fn feedback_reaches_a_steady_state_without_oscillation() {
    let report = latency_first().build().unwrap().run();
    // Bounded temperatures…
    for oni in &report.per_oni {
        assert!(
            oni.peak_temperature_c < 100.0,
            "ONI {} peaked at {}",
            oni.oni,
            oni.peak_temperature_c
        );
        assert!(oni.final_temperature_c > 25.0);
    }
    // …and no scheme flapping: each channel switches at most once up to
    // the coded path and never back (hysteresis holds at the edge).
    for oni in &report.per_oni {
        assert!(
            oni.scheme_switches <= 1,
            "ONI {} oscillated ({} switches)",
            oni.oni,
            oni.scheme_switches
        );
    }
}

#[test]
fn cooled_coded_channels_hold_via_hysteresis() {
    let report = latency_first().build().unwrap().run();
    // After the switch the coded point burns less power, so channels
    // cool below their switch temperature yet stay coded.
    let last = report.trajectory.last().unwrap();
    let peak = report
        .trajectory
        .iter()
        .map(|s| s.max_temperature_c)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        last.max_temperature_c < peak,
        "final {} vs peak {peak}",
        last.max_temperature_c
    );
    assert_eq!(last.reconfigured_onis, report.config.oni_count);
}

#[test]
fn memoized_cache_carries_the_run() {
    let report = latency_first().build().unwrap().run();
    let cache = report.solver_cache;
    assert!(report.decisions > 0);
    // Every manager re-ask queries all three candidate schemes, yet the
    // solver only runs once per distinct (scheme, BER, bucket).
    assert!(cache.hits > 0, "re-asks must hit the cache");
    assert!(
        cache.misses < (report.decisions + 1) * 3,
        "misses {} vs {} queries",
        cache.misses,
        (report.decisions + 1) * 3
    );
}

#[test]
fn bulk_traffic_stays_on_its_coded_point() {
    // Bulk lands on H(71,64) already at the ambient; its lower power
    // keeps the plant cooler and nothing ever switches.
    let report = latency_first()
        .class(TrafficClass::Bulk)
        .build()
        .unwrap()
        .run();
    assert_eq!(report.baseline_scheme, EccScheme::Hamming7164);
    assert_eq!(report.total_switches(), 0);
    assert!(report.per_oni.iter().all(|o| o.peak_temperature_c < 60.0));
}

#[test]
fn zero_traffic_run_is_cold_and_free() {
    let report = latency_first()
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 0,
        })
        .build()
        .unwrap()
        .run();
    assert_eq!(report.stats.makespan_ns, 0.0);
    assert_eq!(report.stats.energy_pj, 0.0);
    assert_eq!(report.epochs, 0);
    assert!(report.per_oni.iter().all(|o| o.final_temperature_c == 25.0));
}

#[test]
fn zero_sigma_fleet_reproduces_the_homogeneous_run_bit_identically() {
    let homogeneous = latency_first().build().unwrap().run();
    let trivially_varied = latency_first()
        .variation(RingVariationConfig {
            sigma_nm: 0.0,
            seed: 1234,
            mode: BankTuningMode::PureHeater,
        })
        .build()
        .unwrap()
        .run();
    // Per-ONI managers with σ = 0 chips take bit-identical decisions;
    // only the aggregated cache counters and the config itself differ.
    assert_eq!(homogeneous.stats, trivially_varied.stats);
    assert_eq!(homogeneous.per_oni, trivially_varied.per_oni);
    assert_eq!(homogeneous.switch_log, trivially_varied.switch_log);
    assert_eq!(homogeneous.trajectory, trivially_varied.trajectory);
    assert_eq!(
        homogeneous.baseline_scheme,
        trivially_varied.baseline_scheme
    );
}

#[test]
fn heterogeneous_fleets_take_heterogeneous_decisions() {
    let varied = || {
        latency_first()
            .variation(RingVariationConfig {
                sigma_nm: 0.04,
                seed: 7,
                mode: BankTuningMode::PureHeater,
            })
            .build()
            .unwrap()
            .run()
    };
    let report = varied();
    assert_eq!(
        report.stats.delivered_messages,
        report.stats.injected_messages
    );
    // Different chip instances pay different bills: the final channel
    // powers must not all be equal across the fleet.
    let powers: Vec<u64> = report
        .per_oni
        .iter()
        .map(|o| o.channel_power_mw.to_bits())
        .collect();
    assert!(
        powers.windows(2).any(|w| w[0] != w[1]),
        "heterogeneous fleet produced identical channels: {powers:?}"
    );
    // And the runs stay reproducible.
    assert_eq!(report, varied());
}

#[test]
fn barrel_shift_fleet_spends_less_tuning_power_than_pure_heater() {
    // Bulk traffic stays on H(71,64) throughout, so the two runs differ
    // only in how the heaters fight the self-heating drift — no scheme
    // switches to confound the comparison.
    let run = |mode: BankTuningMode| {
        latency_first()
            .class(TrafficClass::Bulk)
            .variation(RingVariationConfig {
                sigma_nm: 0.04,
                seed: 7,
                mode,
            })
            .build()
            .unwrap()
            .run()
    };
    let pure = run(BankTuningMode::PureHeater);
    let barrel = run(BankTuningMode::full_barrel_shift(16));
    assert_eq!(pure.total_switches(), 0);
    assert_eq!(barrel.total_switches(), 0);
    // Cheaper tuning at the same scheme means less dissipated energy and
    // a cooler fleet.
    assert!(barrel.stats.energy_pj <= pure.stats.energy_pj);
    assert!(peak(&barrel) <= peak(&pure) + 1e-9);
}
