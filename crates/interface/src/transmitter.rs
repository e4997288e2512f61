//! Transmitter (emitter) datapath of the ONI.
//!
//! Fig. 2-c of the paper: the 64-bit IP word enters the interface, the
//! energy/performance manager selects one of the coding paths (uncoded,
//! H(7,4) bank, H(71,64)), the selected encoder output goes through the mode
//! mux to a serializer clocked at F_mod, and the resulting bit stream drives
//! the micro-ring modulator.

use onoc_ecc_codes::EccScheme;
use onoc_units::{Microwatts, SquareMicrometers};

use crate::blocks::{InterfaceSide, SynthesisDatabase};
use crate::config::{InterfaceConfig, InterfaceError};
use crate::serdes::Serializer;

/// The emitter-side interface datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmitter {
    config: InterfaceConfig,
    synthesis: SynthesisDatabase,
}

impl Transmitter {
    /// Creates a transmitter for the given configuration, using the Table I
    /// synthesis database for its cost figures.
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

    /// Synthesis cost database.
    #[must_use]
    pub fn synthesis(&self) -> &SynthesisDatabase {
        &self.synthesis
    }

    /// Encodes one IP word into the serial bit stream transmitted on the
    /// optical channel, using `scheme`.
    ///
    /// The word is split into as many sub-blocks as the scheme's codec
    /// message length requires (16 nibbles for H(7,4), a single 64-bit block
    /// for H(71,64) and the uncoded mode); each sub-block is encoded and the
    /// codewords are concatenated and serialized.
    ///
    /// # Errors
    ///
    /// Propagates codec errors as [`InterfaceError::Code`].
    pub fn encode_word(&self, word: u64, scheme: EccScheme) -> Result<Vec<bool>, InterfaceError> {
        let bits: Vec<bool> = (0..self.config.word_bits)
            .map(|i| (word >> i) & 1 == 1)
            .collect();
        self.encode_bits(&bits, scheme)
    }

    /// Encodes an arbitrary-width word given as bits (LSB first).
    ///
    /// # Errors
    ///
    /// Propagates codec errors as [`InterfaceError::Code`]; returns
    /// [`InterfaceError::InvalidConfiguration`] when the word width does not
    /// match the configuration.
    pub fn encode_bits(
        &self,
        bits: &[bool],
        scheme: EccScheme,
    ) -> Result<Vec<bool>, InterfaceError> {
        if bits.len() != self.config.word_bits {
            return Err(InterfaceError::InvalidConfiguration {
                reason: format!(
                    "word has {} bits but the interface is configured for {}",
                    bits.len(),
                    self.config.word_bits
                ),
            });
        }
        let code = scheme.build()?;
        let k = code.message_length();
        let mut encoded = Vec::with_capacity(self.config.encoded_bits(scheme));
        if k >= bits.len() {
            // Single codec, message padded with zeros up to k.
            let mut message = bits.to_vec();
            message.resize(k, false);
            encoded.extend(code.encode(&message)?);
        } else {
            for chunk in bits.chunks(k) {
                if chunk.len() == k {
                    encoded.extend(code.encode(chunk)?);
                } else {
                    // Zero-pad the last, partial sub-block.
                    let mut padded = chunk.to_vec();
                    padded.resize(k, false);
                    encoded.extend(code.encode(&padded)?);
                }
            }
        }
        // Push the encoded word through the serializer register pipeline to
        // model the F_mod-domain stream exactly as the hardware would.
        let mut serializer = Serializer::new(encoded.len());
        Ok(serializer.serialize_word(&encoded))
    }

    /// Dynamic power of the transmitter datapath in `scheme` mode.
    #[must_use]
    pub fn dynamic_power(&self, scheme: EccScheme) -> Microwatts {
        self.synthesis
            .dynamic_power(InterfaceSide::Transmitter, scheme)
    }

    /// Total synthesized area of the transmitter (all modes instantiated).
    #[must_use]
    pub fn area(&self) -> SquareMicrometers {
        self.synthesis.total_area(InterfaceSide::Transmitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx() -> Transmitter {
        Transmitter::new(InterfaceConfig::paper_default())
    }

    #[test]
    fn uncoded_stream_is_the_word_itself() {
        let word = 0xA5A5_5A5A_0123_4567u64;
        let stream = tx().encode_word(word, EccScheme::Uncoded).unwrap();
        assert_eq!(stream.len(), 64);
        let reassembled = stream
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
        assert_eq!(reassembled, word);
    }

    #[test]
    fn h74_stream_has_112_bits() {
        let stream = tx()
            .encode_word(0xFFFF_0000_FFFF_0000, EccScheme::Hamming74)
            .unwrap();
        assert_eq!(stream.len(), 112);
    }

    #[test]
    fn h7164_stream_has_71_bits() {
        let stream = tx().encode_word(42, EccScheme::Hamming7164).unwrap();
        assert_eq!(stream.len(), 71);
    }

    #[test]
    fn secded_stream_has_72_bits() {
        let stream = tx().encode_word(7, EccScheme::Secded7264).unwrap();
        assert_eq!(stream.len(), 72);
    }

    #[test]
    fn stream_length_matches_config_prediction_for_all_schemes() {
        let t = tx();
        for scheme in [
            EccScheme::Uncoded,
            EccScheme::Hamming74,
            EccScheme::Hamming7164,
            EccScheme::Secded7264,
            EccScheme::Repetition3,
            EccScheme::ParityOnly,
        ] {
            let stream = t.encode_word(0x0123_4567_89AB_CDEF, scheme).unwrap();
            assert_eq!(stream.len(), t.config().encoded_bits(scheme), "{scheme}");
        }
    }

    #[test]
    fn wrong_word_width_is_rejected() {
        let t = tx();
        assert!(matches!(
            t.encode_bits(&[true; 63], EccScheme::Uncoded),
            Err(InterfaceError::InvalidConfiguration { .. })
        ));
    }

    #[test]
    fn power_and_area_come_from_table1() {
        let t = tx();
        assert!((t.area().value() - 2013.0).abs() < 1.0);
        assert!((t.dynamic_power(EccScheme::Hamming74).value() - 9.57).abs() < 0.01);
        assert!((t.dynamic_power(EccScheme::Uncoded).value() - 3.16).abs() < 0.01);
    }

    #[test]
    fn different_words_produce_different_streams() {
        let t = tx();
        let a = t.encode_word(1, EccScheme::Hamming7164).unwrap();
        let b = t.encode_word(2, EccScheme::Hamming7164).unwrap();
        assert_ne!(a, b);
    }
}
