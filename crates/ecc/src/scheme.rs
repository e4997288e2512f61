//! The [`EccScheme`] registry: the concrete coding configurations evaluated in
//! the paper plus the extensions used by the ablation studies.

use crate::code::{BlockCode, CodeError};
use crate::extended::ExtendedHammingCode;
use crate::hamming::HammingCode;
use crate::parity::ParityCheckCode;
use crate::repetition::RepetitionCode;
use crate::shortened::ShortenedHammingCode;
use crate::uncoded::UncodedPassthrough;

/// Width of the IP-core data bus assumed throughout the paper (N_data).
pub const IP_WORD_BITS: usize = 64;

/// A named coding configuration selectable by the optical-link manager.
///
/// The three configurations of the paper are [`EccScheme::Uncoded`],
/// [`EccScheme::Hamming74`] and [`EccScheme::Hamming7164`]; the remaining
/// variants support the code-length ablation (`A1` in DESIGN.md).
///
/// ```
/// use onoc_ecc_codes::EccScheme;
///
/// assert_eq!(EccScheme::Hamming74.codecs_per_word(64), 16);
/// assert_eq!(EccScheme::Hamming74.encoded_bits_per_word(64), 112);
/// assert_eq!(EccScheme::Hamming7164.encoded_bits_per_word(64), 71);
/// assert!((EccScheme::Uncoded.communication_time_factor() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
#[derive(Default)]
pub enum EccScheme {
    /// Direct modulation without coding ("w/o ECC" in the paper).
    #[default]
    Uncoded,
    /// Hamming(7,4): 16 parallel codecs protect a 64-bit word (paper).
    Hamming74,
    /// Hamming(15,11).
    Hamming1511,
    /// Hamming(31,26).
    Hamming3126,
    /// Hamming(63,57) — the label that appears on Fig. 6a of the paper.
    Hamming6357,
    /// Shortened Hamming(71,64): a single codec protects the 64-bit word (paper).
    Hamming7164,
    /// Hamming(127,120).
    Hamming127120,
    /// Extended Hamming / SECDED(72,64).
    Secded7264,
    /// Extended Hamming / SECDED(8,4).
    Secded84,
    /// Rate-1/3 repetition code (baseline).
    Repetition3,
    /// Single parity check over the word (detection only).
    ParityOnly,
}

impl EccScheme {
    /// All supported schemes, in increasing block-length order.
    #[must_use]
    pub fn all() -> Vec<Self> {
        vec![
            Self::Uncoded,
            Self::ParityOnly,
            Self::Repetition3,
            Self::Hamming74,
            Self::Secded84,
            Self::Hamming1511,
            Self::Hamming3126,
            Self::Hamming6357,
            Self::Hamming7164,
            Self::Secded7264,
            Self::Hamming127120,
        ]
    }

    /// The three schemes evaluated in the paper (Figs. 5 and 6).
    #[must_use]
    pub fn paper_schemes() -> [Self; 3] {
        [Self::Uncoded, Self::Hamming7164, Self::Hamming74]
    }

    /// Codeword (block) length `n` of one codec instance.
    #[must_use]
    pub fn block_length(self) -> usize {
        match self {
            Self::Uncoded => IP_WORD_BITS,
            Self::ParityOnly => IP_WORD_BITS + 1,
            Self::Repetition3 => 3 * IP_WORD_BITS,
            Self::Hamming74 => 7,
            Self::Hamming1511 => 15,
            Self::Hamming3126 => 31,
            Self::Hamming6357 => 63,
            Self::Hamming7164 => 71,
            Self::Hamming127120 => 127,
            Self::Secded7264 => 72,
            Self::Secded84 => 8,
        }
    }

    /// Message length `k` of one codec instance.
    #[must_use]
    pub fn message_length(self) -> usize {
        match self {
            Self::Uncoded | Self::ParityOnly | Self::Repetition3 => IP_WORD_BITS,
            Self::Hamming74 | Self::Secded84 => 4,
            Self::Hamming1511 => 11,
            Self::Hamming3126 => 26,
            Self::Hamming6357 => 57,
            Self::Hamming7164 | Self::Secded7264 => 64,
            Self::Hamming127120 => 120,
        }
    }

    /// Code rate `k/n`.
    #[must_use]
    pub fn rate(self) -> f64 {
        self.message_length() as f64 / self.block_length() as f64
    }

    /// Communication-time factor `n/k` (1.0 uncoded, 1.75 for H(7,4), ≈1.11
    /// for H(71,64)).
    #[must_use]
    pub fn communication_time_factor(self) -> f64 {
        self.block_length() as f64 / self.message_length() as f64
    }

    /// Number of errors corrected per codeword.
    #[must_use]
    pub fn correctable_errors(self) -> usize {
        match self {
            Self::Uncoded | Self::ParityOnly => 0,
            Self::Repetition3 => 1,
            _ => 1,
        }
    }

    /// Number of parallel codec instances required to cover a `word_bits`-wide
    /// IP word (16 for H(7,4) on a 64-bit bus, 1 for H(71,64)).
    ///
    /// When the word width is not a multiple of the codec message length the
    /// last codec's message is zero-padded, so the count rounds up.
    #[must_use]
    pub fn codecs_per_word(self, word_bits: usize) -> usize {
        let k = self.message_length();
        if k >= word_bits {
            1
        } else {
            word_bits.div_ceil(k)
        }
    }

    /// Total number of encoded bits needed to carry a `word_bits` payload.
    #[must_use]
    pub fn encoded_bits_per_word(self, word_bits: usize) -> usize {
        if self.message_length() >= word_bits {
            // A single codec whose message is padded up to its k.
            self.block_length()
        } else {
            self.codecs_per_word(word_bits) * self.block_length()
        }
    }

    /// Human-readable name matching the paper's notation.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Uncoded => "w/o ECC",
            Self::ParityOnly => "Parity(65,64)",
            Self::Repetition3 => "Rep3",
            Self::Hamming74 => "H(7,4)",
            Self::Hamming1511 => "H(15,11)",
            Self::Hamming3126 => "H(31,26)",
            Self::Hamming6357 => "H(63,57)",
            Self::Hamming7164 => "H(71,64)",
            Self::Hamming127120 => "H(127,120)",
            Self::Secded7264 => "SECDED(72,64)",
            Self::Secded84 => "SECDED(8,4)",
        }
    }

    /// Instantiates the codec behind this scheme.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in variants; the `Result` mirrors the
    /// fallible constructors it delegates to.
    pub fn build(self) -> Result<Box<dyn BlockCode>, CodeError> {
        Ok(match self {
            Self::Uncoded => Box::new(UncodedPassthrough::new(IP_WORD_BITS)),
            Self::ParityOnly => Box::new(ParityCheckCode::new(IP_WORD_BITS)?),
            Self::Repetition3 => Box::new(RepetitionCode::new(3, IP_WORD_BITS)?),
            Self::Hamming74 => Box::new(HammingCode::new(3)?),
            Self::Hamming1511 => Box::new(HammingCode::new(4)?),
            Self::Hamming3126 => Box::new(HammingCode::new(5)?),
            Self::Hamming6357 => Box::new(HammingCode::new(6)?),
            Self::Hamming127120 => Box::new(HammingCode::new(7)?),
            Self::Hamming7164 => Box::new(ShortenedHammingCode::h7164()),
            Self::Secded7264 => Box::new(ExtendedHammingCode::h7264()),
            Self::Secded84 => Box::new(ExtendedHammingCode::h84()),
        })
    }
}

impl std::fmt::Display for EccScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schemes_are_the_three_evaluated_configurations() {
        let schemes = EccScheme::paper_schemes();
        assert_eq!(schemes[0], EccScheme::Uncoded);
        assert_eq!(schemes[1], EccScheme::Hamming7164);
        assert_eq!(schemes[2], EccScheme::Hamming74);
    }

    #[test]
    fn geometry_matches_built_codes() {
        for scheme in EccScheme::all() {
            let code = scheme.build().unwrap();
            assert_eq!(code.block_length(), scheme.block_length(), "{scheme}");
            assert_eq!(code.message_length(), scheme.message_length(), "{scheme}");
        }
    }

    #[test]
    fn communication_time_factors_match_the_paper() {
        assert!((EccScheme::Uncoded.communication_time_factor() - 1.0).abs() < 1e-12);
        assert!((EccScheme::Hamming74.communication_time_factor() - 1.75).abs() < 1e-12);
        assert!((EccScheme::Hamming7164.communication_time_factor() - 1.109).abs() < 1e-3);
    }

    #[test]
    fn codec_counts_for_the_64_bit_bus() {
        assert_eq!(EccScheme::Hamming74.codecs_per_word(64), 16);
        assert_eq!(EccScheme::Hamming7164.codecs_per_word(64), 1);
        assert_eq!(EccScheme::Uncoded.codecs_per_word(64), 1);
        assert_eq!(EccScheme::Hamming1511.codecs_per_word(66), 6);
    }

    #[test]
    fn encoded_bits_for_the_64_bit_bus() {
        assert_eq!(EccScheme::Hamming74.encoded_bits_per_word(64), 112);
        assert_eq!(EccScheme::Hamming7164.encoded_bits_per_word(64), 71);
        assert_eq!(EccScheme::Uncoded.encoded_bits_per_word(64), 64);
        assert_eq!(EccScheme::Secded7264.encoded_bits_per_word(64), 72);
    }

    #[test]
    fn misaligned_word_width_rounds_up() {
        // 64 bits over 11-bit messages → 6 codecs, the last one zero-padded.
        assert_eq!(EccScheme::Hamming1511.codecs_per_word(64), 6);
        assert_eq!(EccScheme::Hamming1511.encoded_bits_per_word(64), 90);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            EccScheme::all().into_iter().map(EccScheme::label).collect();
        assert_eq!(labels.len(), EccScheme::all().len());
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(EccScheme::Hamming74.to_string(), "H(7,4)");
        assert_eq!(EccScheme::Uncoded.to_string(), "w/o ECC");
    }

    #[test]
    fn default_is_uncoded() {
        assert_eq!(EccScheme::default(), EccScheme::Uncoded);
    }
}
