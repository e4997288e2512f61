//! Workspace-level integration tests of the per-message policy at the
//! paper's fixed 25 °C ambient: delivery, the manager's scheme choice per
//! traffic class, congestion and deadlines, residual-error injection, and
//! the static/dynamic energy split.

use onoc_ecc::ecc::EccScheme;
use onoc_ecc::link::TrafficClass;
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::ScenarioBuilder;

/// Bulk uniform traffic over 6 ONIs: 15 eight-word messages per node.
fn quick() -> ScenarioBuilder {
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

#[test]
fn all_injected_messages_are_delivered() {
    let scenario = quick().build().unwrap();
    let injected = scenario.message_count() as u64;
    let report = scenario.run();
    assert_eq!(report.stats.injected_messages, injected);
    assert_eq!(report.stats.delivered_messages, injected);
    assert_eq!(report.stats.delivered_bits, injected * 8 * 64);
    assert!(report.stats.makespan_ns > 0.0);
    assert!(report.stats.mean_latency_ns() > 0.0);
}

#[test]
fn bulk_traffic_runs_on_h7164() {
    let report = quick().build().unwrap().run();
    assert_eq!(report.baseline_scheme, EccScheme::Hamming7164);
    assert!(report.baseline_channel_power_mw > 50.0 && report.baseline_channel_power_mw < 300.0);
}

#[test]
fn real_time_traffic_is_faster_but_hungrier() {
    let bulk = quick().build().unwrap().run();
    let rt = quick().class(TrafficClass::RealTime).build().unwrap().run();
    assert_eq!(rt.baseline_scheme, EccScheme::Uncoded);
    assert!(rt.stats.mean_latency_ns() < bulk.stats.mean_latency_ns());
    assert!(rt.baseline_channel_power_mw > bulk.baseline_channel_power_mw);
    assert!(rt.stats.energy_per_bit_pj() > 0.0);
}

#[test]
fn hotspot_congestion_increases_latency() {
    let uniform = quick().build().unwrap().run();
    let hotspot = quick()
        .pattern(TrafficPattern::Hotspot {
            destination: 0,
            messages_per_node: 15,
        })
        .build()
        .unwrap()
        .run();
    assert!(hotspot.stats.mean_latency_ns() > uniform.stats.mean_latency_ns());
}

#[test]
fn deadlines_are_tracked() {
    let report = quick()
        .class(TrafficClass::RealTime)
        .pattern(TrafficPattern::Hotspot {
            destination: 1,
            messages_per_node: 30,
        })
        .deadline_slack_ns(Some(10.0))
        .mean_inter_arrival_ns(0.5)
        .build()
        .unwrap()
        .run();
    // A congested hotspot with tight deadlines must miss some of them.
    assert!(report.stats.deadline_misses > 0);
    assert!(report.stats.deadline_miss_rate() <= 1.0);
}

#[test]
fn residual_errors_are_rare_at_strict_ber() {
    let report = quick().build().unwrap().run();
    // At BER 1e-11 the expected number of corrupted words over this run
    // is far below one.
    assert_eq!(report.stats.corrupted_bits, 0);
    assert!((report.stats.observed_ber() - 0.0).abs() < 1e-12);
}

#[test]
fn relaxed_ber_multimedia_run_still_delivers_everything() {
    let report = quick()
        .class(TrafficClass::Multimedia)
        .nominal_ber(1e-6)
        .build()
        .unwrap()
        .run();
    assert_eq!(
        report.stats.delivered_messages,
        report.stats.injected_messages
    );
}

#[test]
fn observed_ber_tracks_the_decoded_ber_at_a_relaxed_target() {
    // A deliberately loose BER target makes residual errors frequent
    // enough to measure: the sampled corrupted-bit count must land near
    // `decoded_ber × delivered_bits`, pinning both the per-word error
    // draw and the conditional bits-per-bad-word sampling.
    let report = quick()
        .oni_count(8)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 60,
        })
        .words_per_message(32)
        .nominal_ber(1e-3)
        .build()
        .unwrap()
        .run();
    let expected_ber = report.baseline_decoded_ber;
    assert!(expected_ber >= 1e-3, "decoded BER meets the nominal target");
    let observed = report.stats.observed_ber();
    assert!(
        observed > expected_ber * 0.7 && observed < expected_ber * 1.3,
        "observed {observed:e} vs decoded {expected_ber:e}"
    );
    // Bits are counted per corrupted word (≥ 1 each), so the bit count
    // can never undercut the word count.
    assert!(report.stats.corrupted_bits >= report.stats.corrupted_words);
    assert!(report.stats.corrupted_words > 0);
    let wer = report.stats.observed_word_error_rate();
    let expected_wer = 1.0 - (1.0 - expected_ber).powi(64);
    assert!(
        wer > expected_wer * 0.7 && wer < expected_wer * 1.3,
        "word error rate {wer} vs {expected_wer}"
    );
}

#[test]
fn energy_charges_static_power_over_wall_clock_and_dynamic_over_occupancy() {
    let scenario = quick().build().unwrap();
    let point = scenario.baseline_decision().point;
    let per_lane_static = point.power.laser.value() + point.power.tuning.value();
    let static_fraction = per_lane_static / point.power.per_wavelength_total().value();
    let static_mw = point.channel_power.value() * static_fraction;
    let dynamic_mw = point.channel_power.value() - static_mw;
    let report = scenario.run();
    // Every one of the 6 destination channels holds the baseline decision
    // for the whole run, so its laser + heaters burn over the makespan;
    // modulation + codec power only burns while a word is in flight.
    let expected_static = static_mw * report.stats.makespan_ns * report.config.oni_count as f64;
    let expected = expected_static + dynamic_mw * report.stats.channel_busy_ns;
    assert!((report.stats.energy_pj - expected).abs() / expected < 1e-9);
    assert!((report.stats.static_energy_pj - expected_static).abs() / expected_static < 1e-9);
    // The old occupancy-only accounting understated the energy.
    let occupancy_only = report.baseline_channel_power_mw * report.stats.channel_busy_ns;
    assert!(report.stats.energy_pj > occupancy_only);
}

#[test]
fn idle_channels_are_not_free_but_an_empty_run_is() {
    // Zero traffic: zero makespan, zero residency, zero energy.
    let empty = quick()
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 0,
        })
        .build()
        .unwrap()
        .run();
    assert_eq!(empty.stats.makespan_ns, 0.0);
    assert_eq!(empty.stats.energy_pj, 0.0);
    // A single message still charges every idle channel's static power
    // over the (non-zero) makespan: energy per bit rises at low load.
    let sparse = quick()
        .pattern(TrafficPattern::Streaming {
            source: 0,
            destination: 1,
            bursts: 1,
            burst_messages: 1,
        })
        .build()
        .unwrap()
        .run();
    let busy = quick().build().unwrap().run();
    assert!(sparse.stats.energy_per_bit_pj() > busy.stats.energy_per_bit_pj());
}
