//! Receiver datapath of the ONI.
//!
//! Fig. 2-d of the paper: the photocurrent is amplified and compared to a
//! threshold (modelled upstream by the BER chain), the resulting bit stream
//! is deserialized at F_mod, the decoder bank corrects errors, and the mode
//! mux presents the recovered 64-bit word to the destination IP.

use onoc_ecc_codes::EccScheme;
use onoc_units::{Microwatts, SquareMicrometers};

use crate::blocks::{InterfaceSide, SynthesisDatabase};
use crate::config::{InterfaceConfig, InterfaceError};
use crate::serdes::Deserializer;

/// The outcome of receiving one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedWord {
    /// The recovered IP word.
    pub word: u64,
    /// Number of codewords in which the decoder corrected an error.
    pub corrected_blocks: usize,
    /// Number of codewords flagged as uncorrectable (only for codes with
    /// detection capability, e.g. SECDED or parity).
    pub uncorrectable_blocks: usize,
}

/// The receiver-side interface datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct Receiver {
    config: InterfaceConfig,
    synthesis: SynthesisDatabase,
}

impl Receiver {
    /// Creates a receiver for the given configuration.
    #[must_use]
    pub fn new(config: InterfaceConfig) -> Self {
        Self {
            config,
            synthesis: SynthesisDatabase::table1(),
        }
    }

    /// Interface configuration.
    #[must_use]
    pub fn config(&self) -> &InterfaceConfig {
        &self.config
    }

    /// Decodes a serial stream produced by
    /// [`Transmitter::encode_word`](crate::transmitter::Transmitter::encode_word)
    /// (possibly corrupted by the optical channel) back into an IP word.
    ///
    /// # Errors
    ///
    /// * [`InterfaceError::WrongStreamLength`] if the stream does not have
    ///   the length expected for `scheme`;
    /// * [`InterfaceError::Code`] for codec-level failures.
    pub fn decode_stream(
        &self,
        stream: &[bool],
        scheme: EccScheme,
    ) -> Result<DecodedWord, InterfaceError> {
        let expected = self.config.encoded_bits(scheme);
        if stream.len() != expected {
            return Err(InterfaceError::WrongStreamLength {
                expected,
                actual: stream.len(),
            });
        }
        // Deserialize in the F_mod clock domain.
        let mut deserializer = Deserializer::new(expected);
        let parallel = deserializer.deserialize_stream(stream);

        let code = scheme.build()?;
        let n = code.block_length();
        let mut data_bits = Vec::with_capacity(self.config.word_bits);
        let mut corrected_blocks = 0;
        let mut uncorrectable_blocks = 0;
        for chunk in parallel.chunks(n) {
            let outcome = code.decode(chunk)?;
            if outcome.corrected_error {
                corrected_blocks += 1;
            }
            if outcome.detected_uncorrectable {
                uncorrectable_blocks += 1;
            }
            data_bits.extend(outcome.data);
        }
        data_bits.truncate(self.config.word_bits);

        let word = data_bits
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &bit)| acc | (u64::from(bit) << i));
        Ok(DecodedWord {
            word,
            corrected_blocks,
            uncorrectable_blocks,
        })
    }

    /// Dynamic power of the receiver datapath in `scheme` mode.
    #[must_use]
    pub fn dynamic_power(&self, scheme: EccScheme) -> Microwatts {
        self.synthesis
            .dynamic_power(InterfaceSide::Receiver, scheme)
    }

    /// Total synthesized area of the receiver (all modes instantiated).
    #[must_use]
    pub fn area(&self) -> SquareMicrometers {
        self.synthesis.total_area(InterfaceSide::Receiver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transmitter::Transmitter;

    fn pair() -> (Transmitter, Receiver) {
        let config = InterfaceConfig::paper_default();
        (Transmitter::new(config.clone()), Receiver::new(config))
    }

    #[test]
    fn clean_round_trip_for_every_scheme() {
        let (tx, rx) = pair();
        let word = 0xFEED_FACE_DEAD_BEEFu64;
        for scheme in [
            EccScheme::Uncoded,
            EccScheme::Hamming74,
            EccScheme::Hamming7164,
            EccScheme::Secded7264,
            EccScheme::Repetition3,
            EccScheme::ParityOnly,
        ] {
            let stream = tx.encode_word(word, scheme).unwrap();
            let decoded = rx.decode_stream(&stream, scheme).unwrap();
            assert_eq!(decoded.word, word, "{scheme}");
            assert_eq!(decoded.corrected_blocks, 0, "{scheme}");
            assert_eq!(decoded.uncorrectable_blocks, 0, "{scheme}");
        }
    }

    #[test]
    fn single_bit_errors_are_corrected_by_hamming_modes() {
        let (tx, rx) = pair();
        let word = 0x0123_4567_89AB_CDEFu64;
        for scheme in [
            EccScheme::Hamming74,
            EccScheme::Hamming7164,
            EccScheme::Secded7264,
        ] {
            let clean = tx.encode_word(word, scheme).unwrap();
            for position in [0, clean.len() / 2, clean.len() - 1] {
                let mut corrupted = clean.clone();
                corrupted[position] = !corrupted[position];
                let decoded = rx.decode_stream(&corrupted, scheme).unwrap();
                assert_eq!(decoded.word, word, "{scheme} flip at {position}");
                assert_eq!(decoded.corrected_blocks, 1);
            }
        }
    }

    #[test]
    fn h74_corrects_one_error_per_codeword_16_errors_total() {
        let (tx, rx) = pair();
        let word = u64::MAX;
        let clean = tx.encode_word(word, EccScheme::Hamming74).unwrap();
        // Flip the first bit of each of the 16 codewords.
        let mut corrupted = clean;
        for block in 0..16 {
            corrupted[block * 7] = !corrupted[block * 7];
        }
        let decoded = rx.decode_stream(&corrupted, EccScheme::Hamming74).unwrap();
        assert_eq!(decoded.word, word);
        assert_eq!(decoded.corrected_blocks, 16);
    }

    #[test]
    fn uncoded_mode_propagates_errors() {
        let (tx, rx) = pair();
        let word = 0u64;
        let mut stream = tx.encode_word(word, EccScheme::Uncoded).unwrap();
        stream[5] = true;
        let decoded = rx.decode_stream(&stream, EccScheme::Uncoded).unwrap();
        assert_eq!(decoded.word, 1 << 5);
    }

    #[test]
    fn secded_flags_double_errors() {
        let (tx, rx) = pair();
        let clean = tx.encode_word(99, EccScheme::Secded7264).unwrap();
        let mut corrupted = clean;
        corrupted[3] = !corrupted[3];
        corrupted[40] = !corrupted[40];
        let decoded = rx.decode_stream(&corrupted, EccScheme::Secded7264).unwrap();
        assert_eq!(decoded.uncorrectable_blocks, 1);
    }

    #[test]
    fn wrong_stream_length_is_reported() {
        let (_, rx) = pair();
        let err = rx
            .decode_stream(&[false; 70], EccScheme::Hamming7164)
            .unwrap_err();
        assert!(matches!(
            err,
            InterfaceError::WrongStreamLength {
                expected: 71,
                actual: 70
            }
        ));
    }

    #[test]
    fn receiver_costs_come_from_table1() {
        let (_, rx) = pair();
        assert!((rx.area().value() - 3050.0).abs() < 1.0);
        assert!((rx.dynamic_power(EccScheme::Hamming74).value() - 10.1).abs() < 0.01);
        assert!((rx.dynamic_power(EccScheme::Uncoded).value() - 4.3).abs() < 0.01);
    }
}
