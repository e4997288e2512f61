//! End-to-end datapath integration tests: IP word → encoder → serializer →
//! noisy optical channel (BSC at the solver's raw BER) → deserializer →
//! decoder → IP word, across the crate boundaries.

use onoc_ecc::ecc::monte_carlo::BinarySymmetricChannel;
use onoc_ecc::ecc::EccScheme;
use onoc_ecc::interface::{InterfaceConfig, Receiver, Transmitter};
use onoc_ecc::link::NanophotonicLink;
use onoc_ecc::link::TrafficClass;
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::ScenarioBuilder;

#[test]
fn words_survive_the_channel_at_the_operating_point_raw_ber() {
    let link = NanophotonicLink::paper_link();
    let config = InterfaceConfig::paper_default();
    let tx = Transmitter::new(config.clone());
    let rx = Receiver::new(config);

    for scheme in [EccScheme::Hamming74, EccScheme::Hamming7164] {
        let point = link.operating_point(scheme, 1e-9).unwrap();
        let mut channel = BinarySymmetricChannel::new(point.laser.raw_ber, 7);
        let mut residual_errors = 0u64;
        for i in 0..200u64 {
            let word = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let stream = tx.encode_word(word, scheme).unwrap();
            let (received, _) = channel.transmit(&stream);
            let decoded = rx.decode_stream(&received, scheme).unwrap();
            if decoded.word != word {
                residual_errors += 1;
            }
        }
        // At a raw BER of ~1e-4 the probability of an uncorrectable pattern
        // in 200 words is vanishingly small.
        assert_eq!(residual_errors, 0, "{scheme} lost words");
    }
}

#[test]
fn uncoded_path_fails_where_hamming_succeeds() {
    let config = InterfaceConfig::paper_default();
    let tx = Transmitter::new(config.clone());
    let rx = Receiver::new(config);
    // A deliberately noisy channel (BER 0.5%).
    let raw_ber = 5e-3;
    let words = 300u64;

    let count_wrong = |scheme: EccScheme, seed: u64| -> u64 {
        let mut channel = BinarySymmetricChannel::new(raw_ber, seed);
        (0..words)
            .filter(|&i| {
                let word = i.wrapping_mul(0xDEAD_BEEF_1234_5678);
                let stream = tx.encode_word(word, scheme).unwrap();
                let (received, _) = channel.transmit(&stream);
                rx.decode_stream(&received, scheme).unwrap().word != word
            })
            .count() as u64
    };

    let uncoded_errors = count_wrong(EccScheme::Uncoded, 3);
    let h74_errors = count_wrong(EccScheme::Hamming74, 3);
    assert!(
        uncoded_errors > 20,
        "the noisy channel should corrupt many uncoded words"
    );
    assert!(
        h74_errors * 4 < uncoded_errors,
        "H(7,4) ({h74_errors}) should lose far fewer words than uncoded ({uncoded_errors})"
    );
}

#[test]
fn simulator_and_link_agree_on_the_operating_point() {
    let link = NanophotonicLink::paper_link();
    let expected = link.operating_point(EccScheme::Hamming7164, 1e-11).unwrap();
    let report = ScenarioBuilder::new()
        .oni_count(12)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 5,
        })
        .class(TrafficClass::Bulk)
        .words_per_message(4)
        .mean_inter_arrival_ns(5.0)
        .nominal_ber(1e-11)
        .seed(11)
        .build()
        .unwrap()
        .run();
    assert_eq!(report.baseline_scheme, EccScheme::Hamming7164);
    assert!((report.baseline_channel_power_mw - expected.channel_power.value()).abs() < 1e-6);
    // The simulator charges the static share of the channel power (laser +
    // ring heaters) over every destination channel's wall-clock residency
    // and the dynamic share (modulation + codec) over the transfer
    // occupancy; at this low load the idle-laser term dominates, so the
    // simulated figure sits well above the active-transfers-only analytic
    // energy per bit.
    let static_mw = (expected.power.laser.value() + expected.power.tuning.value()) * 16.0;
    let dynamic_mw = expected.channel_power.value() - static_mw;
    let reconstructed =
        static_mw * report.stats.makespan_ns * 12.0 + dynamic_mw * report.stats.channel_busy_ns;
    assert!(
        (report.stats.energy_pj - reconstructed).abs() / reconstructed < 1e-9,
        "simulated {} vs reconstructed {reconstructed}",
        report.stats.energy_pj
    );
    let analytic = expected.energy_per_bit.value();
    let simulated = report.stats.energy_per_bit_pj();
    assert!(
        simulated > analytic,
        "idle static power must inflate the simulated figure: {simulated} vs {analytic}"
    );
}
