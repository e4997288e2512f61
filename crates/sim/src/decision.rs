//! The primitives both scenario engines share: the setup error type, the
//! event-queue entry, the pre-derived transmission parameters of one
//! operating-point decision, residual-error sampling and the temperature
//! bucket grid the decision policies quantize on.

use onoc_ecc_codes::EccScheme;
use onoc_link::{ManagerDecision, TrafficClass};
use rand::rngs::StdRng;
use rand::Rng;

use crate::packet::MessageId;
use crate::time::SimTime;

/// Errors raised when setting up a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulationError {
    /// The configuration is structurally invalid.
    InvalidConfiguration {
        /// Description of the problem.
        reason: String,
    },
    /// The link manager found no operating point for the requested class.
    NoFeasibleConfiguration {
        /// The class that could not be served.
        class: TrafficClass,
    },
}

impl std::fmt::Display for SimulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfiguration { reason } => write!(f, "invalid configuration: {reason}"),
            Self::NoFeasibleConfiguration { class } => {
                write!(f, "no feasible link configuration for {class:?} traffic")
            }
        }
    }
}

impl std::error::Error for SimulationError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    Inject,
    Complete,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    pub(crate) time: SimTime,
    pub(crate) sequence: u64,
    pub(crate) kind: EventKind,
    pub(crate) message: MessageId,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.sequence).cmp(&(other.time, other.sequence))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Pre-derived per-decision transmission parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecisionParams {
    pub(crate) scheme: EccScheme,
    pub(crate) channel_power_mw: f64,
    /// Laser + ring-heater share of the channel power: burns over the whole
    /// wall-clock residency of the decision, idle or not.
    pub(crate) static_power_mw: f64,
    /// Modulation + codec share of the channel power: burns only while a
    /// word is in flight.
    pub(crate) dynamic_power_mw: f64,
    pub(crate) tuning_power_mw: f64,
    pub(crate) temperature_c: f64,
    pub(crate) decoded_ber: f64,
    word_duration: onoc_units::Nanoseconds,
    codec_latency: onoc_units::Nanoseconds,
    pub(crate) word_error_probability: f64,
    pub(crate) corrected_probability: f64,
}

impl DecisionParams {
    pub(crate) fn from_decision(decision: &ManagerDecision) -> Self {
        let point = decision.point;
        let decoded_ber = point.target_ber();
        let word_error_probability = 1.0 - (1.0 - decoded_ber).powi(64);
        let encoded_bits = point.scheme().encoded_bits_per_word(64) as i32;
        let corrected_probability = 1.0 - (1.0 - point.laser.raw_ber).powi(encoded_bits);
        let channel_power_mw = point.channel_power.value();
        // Split the channel power into its always-on share (laser + thermal
        // tuning) and its transfer-gated share (modulation + codec) using the
        // per-lane breakdown; both scale to the full lane count alike.
        let per_lane_total = point.power.per_wavelength_total().value();
        let per_lane_static = point.power.laser.value() + point.power.tuning.value();
        let static_fraction = if per_lane_total > 0.0 {
            per_lane_static / per_lane_total
        } else {
            0.0
        };
        let static_power_mw = channel_power_mw * static_fraction;
        Self {
            scheme: point.scheme(),
            channel_power_mw,
            static_power_mw,
            dynamic_power_mw: channel_power_mw - static_power_mw,
            tuning_power_mw: point.power.tuning.value(),
            temperature_c: point.temperature().value(),
            decoded_ber,
            word_duration: point.timing.serialization_time,
            codec_latency: point.timing.codec_latency,
            word_error_probability,
            corrected_probability,
        }
    }

    pub(crate) fn transfer_duration(&self, words: u64) -> onoc_units::Nanoseconds {
        onoc_units::Nanoseconds::new(
            self.codec_latency.value() + self.word_duration.value() * words as f64,
        )
    }

    /// The transmission parameters of an electrical fallback hop: a fixed
    /// router latency plus per-word serialization, with the transfer energy
    /// expressed as an average power over the hop duration (1 pJ/ns = 1 mW).
    /// Electrical hops carry their own line coding, so they are error-free
    /// by model and burn no photonic static power.
    pub(crate) fn electrical_hop(
        latency_ns: f64,
        ns_per_word: f64,
        energy_pj_per_bit: f64,
        words: u64,
    ) -> Self {
        let duration_ns = latency_ns + ns_per_word * words as f64;
        let bits = words as f64 * 64.0;
        let dynamic_power_mw = if duration_ns > 0.0 {
            energy_pj_per_bit * bits / duration_ns
        } else {
            0.0
        };
        Self {
            scheme: EccScheme::Uncoded,
            channel_power_mw: dynamic_power_mw,
            static_power_mw: 0.0,
            dynamic_power_mw,
            tuning_power_mw: 0.0,
            temperature_c: 0.0,
            decoded_ber: 0.0,
            word_duration: onoc_units::Nanoseconds::new(ns_per_word),
            codec_latency: onoc_units::Nanoseconds::new(latency_ns),
            word_error_probability: 0.0,
            corrected_probability: 0.0,
        }
    }
}

/// Samples how many payload bits of a corrupted 64-bit word are flipped:
/// the Binomial(`bits`, `ber`) law conditioned on at least one error (the
/// word-error event has already fired), drawn by inverse CDF.
pub(crate) fn conditional_corrupted_bits(rng: &mut StdRng, bits: u32, ber: f64) -> u64 {
    let p = ber.clamp(0.0, 1.0);
    if p <= 0.0 {
        return 1;
    }
    if p >= 1.0 {
        return u64::from(bits);
    }
    let q = 1.0 - p;
    let total = 1.0 - q.powi(bits as i32);
    if total <= 0.0 {
        return 1;
    }
    let mut k = 1u32;
    let mut pmf = f64::from(bits) * p * q.powi(bits as i32 - 1);
    let mut cdf = pmf;
    let u: f64 = rng.gen_range(0.0..1.0) * total;
    while u > cdf && k < bits {
        pmf *= f64::from(bits - k) / f64::from(k + 1) * (p / q);
        k += 1;
        cdf += pmf;
    }
    u64::from(k)
}

/// Samples the residual-error outcome of one transfer: `(corrupted words,
/// corrupted bits, corrected words)` over `words` 64-bit words at `point`.
pub(crate) fn sample_word_errors(
    rng: &mut StdRng,
    words: u64,
    point: &DecisionParams,
) -> (u64, u64, u64) {
    let mut corrupted_words = 0u64;
    let mut corrupted_bits = 0u64;
    let mut corrected_words = 0u64;
    for _ in 0..words {
        if rng.gen_bool(point.word_error_probability.clamp(0.0, 1.0)) {
            corrupted_words += 1;
            corrupted_bits += conditional_corrupted_bits(rng, 64, point.decoded_ber);
        }
        if rng.gen_bool(point.corrected_probability.clamp(0.0, 1.0)) {
            corrected_words += 1;
        }
    }
    (corrupted_words, corrupted_bits, corrected_words)
}

/// Bucket index of `temperature_c` on a grid of `step_k`-kelvin buckets
/// centred on multiples of the step: the decision grid of both policies.
pub(crate) fn bucket_index(temperature_c: f64, step_k: f64) -> i64 {
    #[allow(clippy::cast_possible_truncation)]
    let bucket = (temperature_c / step_k).round() as i64;
    bucket
}

/// Centre temperature of `bucket` on the same grid.
pub(crate) fn bucket_centre(bucket: i64, step_k: f64) -> f64 {
    bucket as f64 * step_k
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn conditional_corrupted_bit_sampling_matches_the_conditional_mean() {
        let mut rng = StdRng::seed_from_u64(99);
        // At a tiny BER a corrupted word almost surely has exactly one bad bit.
        for _ in 0..50 {
            assert_eq!(conditional_corrupted_bits(&mut rng, 64, 1e-11), 1);
        }
        // At a large BER the conditional mean is 64p / (1 − (1−p)^64).
        let p = 0.05;
        let samples = 20_000;
        let total: u64 = (0..samples)
            .map(|_| conditional_corrupted_bits(&mut rng, 64, p))
            .sum();
        let mean = total as f64 / f64::from(samples);
        let expected = 64.0 * p / (1.0 - (1.0 - p).powi(64));
        assert!(
            (mean - expected).abs() < 0.1,
            "conditional mean {mean} vs {expected}"
        );
        // Degenerate inputs stay in range.
        assert_eq!(conditional_corrupted_bits(&mut rng, 64, 0.0), 1);
        assert_eq!(conditional_corrupted_bits(&mut rng, 64, 1.0), 64);
    }

    #[test]
    fn buckets_quantize_and_round_trip() {
        assert_eq!(bucket_index(55.0, 0.5), 110);
        assert_eq!(bucket_index(55.2, 0.5), 110);
        assert_eq!(bucket_index(55.3, 0.5), 111);
        assert!((bucket_centre(110, 0.5) - 55.0).abs() < 1e-12);
    }
}
