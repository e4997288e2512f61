//! Communication-time model.
//!
//! The paper expresses performance as the Communication Time (CT): the
//! relative increase of the transmission time due to parity bits, normalised
//! to the uncoded transmission (CT = 1.0 uncoded, 1.75 for H(7,4), ≈ 1.11 for
//! H(71,64)).  This module computes CT together with the absolute
//! serialization time of a word and the end-to-end word latency through the
//! interface pipeline.

use onoc_ecc_codes::EccScheme;
use onoc_units::Nanoseconds;

use crate::config::InterfaceConfig;

/// Timing figures of one word transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunicationTiming {
    /// Scheme used for the transmission.
    pub scheme: EccScheme,
    /// Relative communication time (1.0 for uncoded).
    pub communication_time_factor: f64,
    /// Number of bits serialized per wavelength lane for one word.
    pub bits_per_lane: f64,
    /// Absolute time needed to stream one encoded word over the channel.
    pub serialization_time: Nanoseconds,
    /// Additional pipeline latency: one IP cycle for encoding plus one for
    /// decoding (the codec blocks are registered, Section V-A).
    pub codec_latency: Nanoseconds,
    /// Total word latency (serialization + codec pipeline).
    pub total_latency: Nanoseconds,
}

impl CommunicationTiming {
    /// Computes the timing of one word transmission with `scheme` on the
    /// interface described by `config`.
    #[must_use]
    pub fn evaluate(config: &InterfaceConfig, scheme: EccScheme) -> Self {
        let encoded_bits = config.encoded_bits(scheme) as f64;
        let bits_per_lane = encoded_bits / config.wavelength_lanes as f64;
        let serialization_time = Nanoseconds::new(bits_per_lane / config.modulation_rate.value());
        let codec_latency = if matches!(scheme, EccScheme::Uncoded) {
            Nanoseconds::zero()
        } else {
            // One F_IP cycle on the encoder side, one on the decoder side.
            config.ip_clock.period() * 2.0
        };
        Self {
            scheme,
            communication_time_factor: scheme.communication_time_factor(),
            bits_per_lane,
            serialization_time,
            codec_latency,
            total_latency: serialization_time + codec_latency,
        }
    }

    /// Time to transmit `words` back-to-back words (the pipeline hides the
    /// codec latency after the first word).
    #[must_use]
    pub fn burst_time(&self, words: u64) -> Nanoseconds {
        if words == 0 {
            return Nanoseconds::zero();
        }
        self.codec_latency + self.serialization_time * words as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> InterfaceConfig {
        InterfaceConfig::paper_default()
    }

    #[test]
    fn ct_factors_match_the_paper() {
        let c = config();
        let uncoded = CommunicationTiming::evaluate(&c, EccScheme::Uncoded);
        let h74 = CommunicationTiming::evaluate(&c, EccScheme::Hamming74);
        let h7164 = CommunicationTiming::evaluate(&c, EccScheme::Hamming7164);
        assert!((uncoded.communication_time_factor - 1.0).abs() < 1e-12);
        assert!((h74.communication_time_factor - 1.75).abs() < 1e-12);
        assert!((h7164.communication_time_factor - 1.109).abs() < 1e-3);
    }

    #[test]
    fn serialization_time_scales_with_the_ct_factor() {
        let c = config();
        let uncoded = CommunicationTiming::evaluate(&c, EccScheme::Uncoded);
        let h74 = CommunicationTiming::evaluate(&c, EccScheme::Hamming74);
        let ratio = h74.serialization_time.value() / uncoded.serialization_time.value();
        assert!((ratio - 1.75).abs() < 1e-9);
        // 64 bits over 16 lanes at 10 Gb/s = 0.4 ns.
        assert!((uncoded.serialization_time.value() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn codec_latency_applies_only_to_coded_modes() {
        let c = config();
        assert!(CommunicationTiming::evaluate(&c, EccScheme::Uncoded)
            .codec_latency
            .is_zero());
        let coded = CommunicationTiming::evaluate(&c, EccScheme::Hamming7164);
        assert!((coded.codec_latency.value() - 2.0).abs() < 1e-9);
        assert!(coded.total_latency.value() > coded.serialization_time.value());
    }

    #[test]
    fn burst_time_amortises_the_codec_latency() {
        let c = config();
        let t = CommunicationTiming::evaluate(&c, EccScheme::Hamming74);
        let one = t.burst_time(1);
        let thousand = t.burst_time(1000);
        // Per-word cost for a long burst approaches the serialization time.
        let per_word = thousand.value() / 1000.0;
        assert!(per_word < one.value());
        assert!((per_word - t.serialization_time.value()).abs() < 0.01);
        assert!(t.burst_time(0).is_zero());
    }

    #[test]
    fn fewer_lanes_mean_longer_serialization() {
        let mut c = config();
        c.wavelength_lanes = 8;
        let narrow = CommunicationTiming::evaluate(&c, EccScheme::Uncoded);
        let wide = CommunicationTiming::evaluate(&config(), EccScheme::Uncoded);
        assert!(narrow.serialization_time.value() > wide.serialization_time.value());
    }
}
