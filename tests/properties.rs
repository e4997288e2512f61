//! Property-based tests on the cross-crate invariants.

use onoc_ecc::ber::{erfc, erfc_inv};
use onoc_ecc::ecc::EccScheme;
use onoc_ecc::interface::{InterfaceConfig, Receiver, Transmitter};
use onoc_ecc::link::NanophotonicLink;
use onoc_ecc::units::{Decibels, Microwatts};
use proptest::prelude::*;

proptest! {
    /// Every Hamming-family scheme corrects any single-bit error in any word.
    #[test]
    fn any_single_bit_error_is_corrected(word in any::<u64>(), flip in 0usize..71) {
        let config = InterfaceConfig::paper_default();
        let tx = Transmitter::new(config.clone());
        let rx = Receiver::new(config);
        for scheme in [EccScheme::Hamming74, EccScheme::Hamming7164] {
            let mut stream = tx.encode_word(word, scheme).unwrap();
            let position = flip % stream.len();
            stream[position] = !stream[position];
            let decoded = rx.decode_stream(&stream, scheme).unwrap();
            prop_assert_eq!(decoded.word, word);
            prop_assert!(decoded.corrected_blocks >= 1);
        }
    }

    /// Encode/decode round-trips for every registered scheme and any word.
    #[test]
    fn clean_round_trip_for_every_scheme(word in any::<u64>()) {
        let config = InterfaceConfig::paper_default();
        let tx = Transmitter::new(config.clone());
        let rx = Receiver::new(config);
        for scheme in EccScheme::all() {
            let stream = tx.encode_word(word, scheme).unwrap();
            prop_assert_eq!(stream.len(), scheme.encoded_bits_per_word(64));
            let decoded = rx.decode_stream(&stream, scheme).unwrap();
            prop_assert_eq!(decoded.word, word);
        }
    }

    /// Block-code geometry invariants hold for every scheme in the registry.
    #[test]
    fn scheme_geometry_invariants(index in 0usize..11) {
        let scheme = EccScheme::all()[index % EccScheme::all().len()];
        let code = scheme.build().unwrap();
        prop_assert_eq!(code.block_length(), scheme.block_length());
        prop_assert_eq!(code.message_length(), scheme.message_length());
        prop_assert!(code.rate() > 0.0 && code.rate() <= 1.0);
        prop_assert!(scheme.communication_time_factor() >= 1.0);
        prop_assert_eq!(code.parity_bits(), scheme.block_length() - scheme.message_length());
    }

    /// erfc_inv is a right inverse of erfc over the BER-relevant range.
    #[test]
    fn erfc_inverse_round_trip(exponent in 1.0f64..14.0) {
        let y = 10f64.powf(-exponent);
        let x = erfc_inv(y);
        let back = erfc(x);
        prop_assert!((back - y).abs() / y < 1e-4);
    }

    /// dB attenuation and gain are mutual inverses and monotone.
    #[test]
    fn decibel_round_trip(db in 0.0f64..40.0, power in 1.0f64..1000.0) {
        let p = Microwatts::new(power);
        let attenuated = p.attenuated_by(Decibels::new(db));
        prop_assert!(attenuated.value() <= p.value() + 1e-12);
        let restored = attenuated.scaled_by(Decibels::new(db).to_gain());
        prop_assert!((restored.value() - p.value()).abs() / p.value() < 1e-9);
    }

    /// Laser power is monotone in the BER target for every feasible scheme,
    /// and coding never needs more laser power than the uncoded link.
    #[test]
    fn coding_never_increases_laser_power(exponent in 3i32..11) {
        let link = NanophotonicLink::paper_link();
        let ber = 10f64.powi(-exponent);
        let uncoded = link.operating_point(EccScheme::Uncoded, ber).unwrap();
        for scheme in [EccScheme::Hamming74, EccScheme::Hamming7164] {
            let coded = link.operating_point(scheme, ber).unwrap();
            prop_assert!(
                coded.laser.laser_electrical_power.value()
                    <= uncoded.laser.laser_electrical_power.value() + 1e-9
            );
        }
    }

    /// Thermal drift penalty: zero at the calibration temperature, and the
    /// residual drift magnitude after tuning is monotone in |ΔT|.
    #[test]
    fn thermal_drift_and_lock_error_properties(dt in 0.0f64..60.0) {
        use onoc_ecc::thermal::{RingThermalModel, ThermalTuner};
        use onoc_ecc::units::{Celsius, KelvinDelta};
        let rings = RingThermalModel::paper_silicon();
        prop_assert!(rings.drift_at(Celsius::new(25.0)).is_zero());
        let hotter = rings.drift_at(Celsius::new(25.0 + dt)).abs().nanometers();
        let even_hotter = rings.drift_at(Celsius::new(25.0 + dt + 1.0)).abs().nanometers();
        prop_assert!(even_hotter > hotter);
        // Cooling drifts symmetrically.
        let cooler = rings.drift_at(Celsius::new(25.0 - dt)).nanometers();
        prop_assert!((cooler + rings.drift_at(Celsius::new(25.0 + dt)).nanometers()).abs() < 1e-12);
        // The tuner's residual and heater power are monotone in the request.
        let tuner = ThermalTuner::paper_heater();
        let a = tuner.compensate(KelvinDelta::new(dt));
        let b = tuner.compensate(KelvinDelta::new(dt + 1.0));
        prop_assert!(b.residual.abs().value() >= a.residual.abs().value());
        prop_assert!(b.heater_power_per_ring.value() >= a.heater_power_per_ring.value());
        prop_assert!(a.residual.abs().value() <= dt + 1e-12);
    }

    /// The memoized operating-point cache is bit-identical to the uncached
    /// solver across schemes × BERs × temperatures: the memoized query snaps
    /// the temperature to its bucket centre and solves there, so an uncached
    /// solve at the snapped temperature must agree exactly (including on
    /// infeasibility).
    #[test]
    fn memoized_cache_is_bit_identical_to_the_solver(
        scheme_index in 0usize..3,
        ber_exponent in 3.0f64..12.0,
        temperature in 25.0f64..85.0,
    ) {
        use onoc_ecc::units::Celsius;
        let link = NanophotonicLink::paper_link();
        let scheme = EccScheme::paper_schemes()[scheme_index];
        let ber = 10f64.powf(-ber_exponent);
        let cached = link.operating_point_memoized(scheme, ber, Celsius::new(temperature));
        let snapped = link.cache_bucket_temperature(Celsius::new(temperature));
        let fresh = link.operating_point_at(scheme, ber, snapped);
        prop_assert_eq!(&cached, &fresh);
        // Asking again answers from the cache, still bit-identically.
        let again = link.operating_point_memoized(scheme, ber, Celsius::new(temperature));
        prop_assert_eq!(&cached, &again);
        prop_assert!(link.cache_counters().hits >= 1);
    }

    /// After the static-power fix a run's energy is zero exactly when its
    /// makespan is zero: an idle interconnect with configured channels burns
    /// laser power for as long as the run lasts, and only a run that never
    /// starts burns nothing.
    #[test]
    fn energy_is_zero_iff_makespan_is_zero(seed in 0u64..1000, messages in 0u64..4) {
        use onoc_ecc::link::TrafficClass;
        use onoc_ecc::sim::traffic::TrafficPattern;
        use onoc_ecc::sim::ScenarioBuilder;
        let report = ScenarioBuilder::new()
            .oni_count(4)
            .pattern(TrafficPattern::UniformRandom { messages_per_node: messages })
            .class(TrafficClass::Bulk)
            .words_per_message(4)
            .mean_inter_arrival_ns(2.0)
            .seed(seed)
            .build()
            .unwrap()
            .run();
        prop_assert_eq!(report.stats.energy_pj == 0.0, report.stats.makespan_ns == 0.0);
        if messages == 0 {
            prop_assert_eq!(report.stats.energy_pj, 0.0);
        } else {
            prop_assert!(report.stats.energy_pj > 0.0);
            prop_assert!(report.stats.static_energy_pj > 0.0);
            prop_assert!(report.stats.static_energy_pj < report.stats.energy_pj);
        }
    }

    /// The same zero-energy-iff-zero-makespan invariant holds for the
    /// closed-loop feedback engine.
    #[test]
    fn feedback_energy_is_zero_iff_makespan_is_zero(seed in 0u64..1000, messages in 0u64..3) {
        use onoc_ecc::link::TrafficClass;
        use onoc_ecc::sim::traffic::TrafficPattern;
        use onoc_ecc::sim::{DecisionPolicy, ScenarioBuilder};
        use onoc_ecc::thermal::RcNetworkParameters;
        let report = ScenarioBuilder::new()
            .oni_count(4)
            .pattern(TrafficPattern::UniformRandom { messages_per_node: messages })
            .class(TrafficClass::Bulk)
            .words_per_message(4)
            .mean_inter_arrival_ns(2.0)
            .seed(seed)
            .activity_coupled(RcNetworkParameters::paper_package())
            .policy(DecisionPolicy::epoch_gated())
            .build()
            .unwrap()
            .run();
        prop_assert_eq!(report.stats.energy_pj == 0.0, report.stats.makespan_ns == 0.0);
        if messages == 0 {
            prop_assert_eq!(report.stats.energy_pj, 0.0);
        }
    }

    /// σ = 0 regression guard for the per-ring refactor: a link whose stack
    /// carries an explicit zero-variation chip under the pure-heater mode is
    /// bit-identical to the untouched per-bank link for every scheme, BER
    /// and temperature — including on infeasibility.
    #[test]
    fn zero_sigma_per_ring_pipeline_is_bit_identical_to_per_bank(
        scheme_index in 0usize..3,
        ber_exponent in 3.0f64..12.0,
        temperature in 25.0f64..85.0,
        seed in 0u64..1000,
    ) {
        use onoc_ecc::thermal::{BankTuningMode, FabricationVariation};
        use onoc_ecc::units::Celsius;
        let scheme = EccScheme::paper_schemes()[scheme_index];
        let ber = 10f64.powf(-ber_exponent);
        let per_bank = NanophotonicLink::paper_link();
        let per_ring = NanophotonicLink::paper_link()
            .with_fabrication_variation(FabricationVariation::new(0.0, seed))
            .with_bank_tuning_mode(BankTuningMode::PureHeater);
        let a = per_bank.operating_point_at(scheme, ber, Celsius::new(temperature));
        let b = per_ring.operating_point_at(scheme, ber, Celsius::new(temperature));
        prop_assert_eq!(a, b);
    }

    /// Barrel-shift tuning never spends more heater power than pure heating
    /// for the same spectral state: the shift search includes k = 0, which
    /// *is* pure heating.
    #[test]
    fn barrel_shift_tuning_power_never_exceeds_pure_heater(
        sigma_pm in 0.0f64..100.0,
        seed in 0u64..1000,
        dt in -35.0f64..60.0,
    ) {
        use onoc_ecc::thermal::{
            BankTuningMode, FabricationVariation, RingBankState, ThermalTuner,
        };
        use onoc_ecc::units::KelvinDelta;
        let tuner = ThermalTuner::paper_heater();
        let offsets = FabricationVariation::new(sigma_pm * 1e-3, seed).offsets_nm(16);
        let state = RingBankState::new(offsets, KelvinDelta::new(dt));
        let pure = tuner.compensate_bank(&state, 0.8, 0.1, BankTuningMode::PureHeater);
        let barrel =
            tuner.compensate_bank(&state, 0.8, 0.1, BankTuningMode::full_barrel_shift(16));
        prop_assert!(
            barrel.total_heater_power().value() <= pure.total_heater_power().value() + 1e-12
        );
    }

    /// The memoized cache never serves a variation-mismatched operating
    /// point: after swapping the thermal stack for a different chip
    /// instance, every memoized answer equals a fresh solve under the *new*
    /// stack even though the old entries are still in the map.
    #[test]
    fn memoized_cache_never_serves_a_variation_mismatched_point(
        scheme_index in 0usize..3,
        temperature in 25.0f64..85.0,
        seed in 0u64..1000,
    ) {
        use onoc_ecc::thermal::FabricationVariation;
        use onoc_ecc::units::Celsius;
        let scheme = EccScheme::paper_schemes()[scheme_index];
        let t = Celsius::new(temperature);
        let link = NanophotonicLink::paper_link();
        let _ = link.operating_point_memoized(scheme, 1e-11, t);
        let misses_before = link.cache_counters().misses;
        let swapped = link.with_fabrication_variation(FabricationVariation::new(0.04, seed));
        prop_assert!(swapped.cache_counters().entries >= 1, "old entries persist");
        let memoized = swapped.operating_point_memoized(scheme, 1e-11, t);
        // The fingerprint in the key forced a fresh solve (no aliasing)…
        prop_assert_eq!(swapped.cache_counters().misses, misses_before + 1);
        // …and the memoized answer is the new stack's answer, bit for bit.
        let snapped = swapped.cache_bucket_temperature(t);
        let fresh = swapped.operating_point_at(scheme, 1e-11, snapped);
        prop_assert_eq!(&memoized, &fresh);
    }

    /// A hot operating point never beats the calibration-ambient one: the
    /// channel power at 25 + ΔT °C is at least the 25 °C figure, and the
    /// thermal terms appear exactly when ΔT > 0.
    #[test]
    fn heat_never_cheapens_the_link(dt in 0.0f64..60.0) {
        use onoc_ecc::units::Celsius;
        let link = NanophotonicLink::paper_link();
        let cool = link.operating_point(EccScheme::Hamming7164, 1e-11).unwrap();
        if let Ok(hot) = link.operating_point_at(
            EccScheme::Hamming7164,
            1e-11,
            Celsius::new(25.0 + dt),
        ) {
            prop_assert!(hot.channel_power.value() >= cool.channel_power.value() - 1e-9);
            prop_assert!(hot.power.laser.value() >= cool.power.laser.value() - 1e-9);
        } else {
            prop_assert!(false, "H(71,64) must stay feasible across the range");
        }
    }
}
