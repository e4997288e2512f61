//! Monte-Carlo validation of the analytic BER models.
//!
//! The optical channel of the paper is, from the coding layer's point of
//! view, a binary symmetric channel (BSC): every transmitted bit is flipped
//! independently with probability `p` set by the optical signal-to-noise
//! ratio.  This module provides a BSC, an end-to-end encode → corrupt →
//! decode experiment, and empirical BER estimation used by the test-suite to
//! cross-check Eq. 2 of the paper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::code::{BlockCode, CodeError};

/// A binary symmetric channel flipping each bit with probability `p`.
#[derive(Debug, Clone)]
pub struct BinarySymmetricChannel {
    flip_probability: f64,
    rng: StdRng,
}

impl BinarySymmetricChannel {
    /// Creates a BSC with the given flip probability and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `flip_probability` is not in `[0, 1]`.
    #[must_use]
    pub fn new(flip_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&flip_probability),
            "flip probability must be in [0, 1]"
        );
        Self {
            flip_probability,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Flip probability of this channel.
    #[must_use]
    pub fn flip_probability(&self) -> f64 {
        self.flip_probability
    }

    /// Transmits a word through the channel, returning the (possibly
    /// corrupted) received word and the number of flips that occurred.
    pub fn transmit(&mut self, word: &[bool]) -> (Vec<bool>, usize) {
        let mut flips = 0;
        let received = word
            .iter()
            .map(|&bit| {
                if self.rng.gen_bool(self.flip_probability) {
                    flips += 1;
                    !bit
                } else {
                    bit
                }
            })
            .collect();
        (received, flips)
    }
}

/// Result of a Monte-Carlo BER experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerExperimentResult {
    /// Raw channel flip probability used for the experiment.
    pub raw_ber: f64,
    /// Number of codewords transmitted.
    pub blocks: u64,
    /// Number of payload bits transmitted.
    pub payload_bits: u64,
    /// Number of payload bits still erroneous after decoding.
    pub residual_bit_errors: u64,
    /// Number of blocks with at least one residual error.
    pub block_errors: u64,
    /// Number of blocks flagged as detected-uncorrectable by the decoder.
    pub detected_uncorrectable_blocks: u64,
}

impl BerExperimentResult {
    /// Empirical decoded bit-error rate.
    #[must_use]
    pub fn decoded_ber(&self) -> f64 {
        if self.payload_bits == 0 {
            0.0
        } else {
            self.residual_bit_errors as f64 / self.payload_bits as f64
        }
    }

    /// Empirical block-error rate.
    #[must_use]
    pub fn block_error_rate(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.block_errors as f64 / self.blocks as f64
        }
    }
}

/// Runs an encode → BSC → decode experiment over `blocks` random codewords.
///
/// # Errors
///
/// Propagates [`CodeError`] from the codec (only possible for mismatched
/// geometry, which would be a bug in the caller).
pub fn run_ber_experiment(
    code: &dyn BlockCode,
    raw_ber: f64,
    blocks: u64,
    seed: u64,
) -> Result<BerExperimentResult, CodeError> {
    let mut channel = BinarySymmetricChannel::new(raw_ber, seed);
    let mut data_rng = StdRng::seed_from_u64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    let k = code.message_length();

    let mut residual_bit_errors = 0u64;
    let mut block_errors = 0u64;
    let mut detected = 0u64;

    for _ in 0..blocks {
        let message: Vec<bool> = (0..k).map(|_| data_rng.gen_bool(0.5)).collect();
        let codeword = code.encode(&message)?;
        let (received, _) = channel.transmit(&codeword);
        let outcome = code.decode(&received)?;
        let errors = outcome
            .data
            .iter()
            .zip(&message)
            .filter(|(a, b)| a != b)
            .count() as u64;
        residual_bit_errors += errors;
        if errors > 0 {
            block_errors += 1;
        }
        if outcome.detected_uncorrectable {
            detected += 1;
        }
    }

    Ok(BerExperimentResult {
        raw_ber,
        blocks,
        payload_bits: blocks * k as u64,
        residual_bit_errors,
        block_errors,
        detected_uncorrectable_blocks: detected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::hamming_output_ber;
    use crate::hamming::HammingCode;
    use crate::shortened::ShortenedHammingCode;
    use crate::uncoded::UncodedPassthrough;

    #[test]
    fn bsc_with_zero_probability_never_flips() {
        let mut ch = BinarySymmetricChannel::new(0.0, 1);
        let word = vec![true; 1000];
        let (rx, flips) = ch.transmit(&word);
        assert_eq!(flips, 0);
        assert_eq!(rx, word);
    }

    #[test]
    fn bsc_with_unit_probability_always_flips() {
        let mut ch = BinarySymmetricChannel::new(1.0, 1);
        let word = vec![false; 100];
        let (rx, flips) = ch.transmit(&word);
        assert_eq!(flips, 100);
        assert!(rx.iter().all(|&b| b));
    }

    #[test]
    fn bsc_flip_rate_statistically_matches_p() {
        let mut ch = BinarySymmetricChannel::new(0.1, 42);
        let word = vec![false; 100_000];
        let (_, flips) = ch.transmit(&word);
        let rate = flips as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    #[should_panic(expected = "flip probability")]
    fn invalid_probability_panics() {
        let _ = BinarySymmetricChannel::new(1.5, 0);
    }

    #[test]
    fn uncoded_empirical_ber_matches_channel() {
        let code = UncodedPassthrough::new(64);
        let result = run_ber_experiment(&code, 0.02, 2_000, 7).unwrap();
        let ber = result.decoded_ber();
        assert!((ber - 0.02).abs() < 0.005, "ber = {ber}");
    }

    #[test]
    fn hamming74_empirical_ber_matches_analytic_model() {
        let code = HammingCode::h74();
        let p = 0.02;
        let result = run_ber_experiment(&code, p, 200_000, 11).unwrap();
        let empirical = result.decoded_ber();
        let analytic = hamming_output_ber(p, 7);
        // Eq. (2) is itself an approximation of the exact post-decoding BER
        // (it counts the probability that a bit participates in a block with
        // more than one error, not the exact miscorrection pattern), so only
        // require order-of-magnitude agreement.
        let ratio = empirical / analytic;
        assert!(
            ratio > 0.3 && ratio < 3.0,
            "empirical {empirical}, analytic {analytic}"
        );
        // And coding must beat the raw channel by a wide margin.
        assert!(empirical < p / 5.0);
    }

    #[test]
    fn hamming7164_empirical_ber_improves_on_raw_channel() {
        let code = ShortenedHammingCode::h7164();
        let p = 0.002;
        let result = run_ber_experiment(&code, p, 20_000, 3).unwrap();
        assert!(result.decoded_ber() < p / 2.0);
    }

    #[test]
    fn experiment_is_reproducible_for_a_fixed_seed() {
        let code = HammingCode::h74();
        let a = run_ber_experiment(&code, 0.01, 5_000, 99).unwrap();
        let b = run_ber_experiment(&code, 0.01, 5_000, 99).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_blocks_yields_zero_rates() {
        let code = HammingCode::h74();
        let r = run_ber_experiment(&code, 0.01, 0, 1).unwrap();
        assert_eq!(r.decoded_ber(), 0.0);
        assert_eq!(r.block_error_rate(), 0.0);
    }
}
