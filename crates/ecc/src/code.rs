//! The [`BlockCode`] trait shared by every code in this crate.

use crate::bits::BitBlock;

/// Errors produced by encoders and decoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// The caller supplied a data block whose length does not match `k`.
    WrongMessageLength {
        /// Expected message length `k`.
        expected: usize,
        /// Actual number of bits supplied.
        actual: usize,
    },
    /// The caller supplied a codeword whose length does not match `n`.
    WrongCodewordLength {
        /// Expected block length `n`.
        expected: usize,
        /// Actual number of bits supplied.
        actual: usize,
    },
    /// The requested code parameters are not supported.
    InvalidParameters {
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
}

impl std::fmt::Display for CodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WrongMessageLength { expected, actual } => {
                write!(f, "expected {expected} message bits, got {actual}")
            }
            Self::WrongCodewordLength { expected, actual } => {
                write!(f, "expected {expected} codeword bits, got {actual}")
            }
            Self::InvalidParameters { reason } => write!(f, "invalid code parameters: {reason}"),
        }
    }
}

impl std::error::Error for CodeError {}

/// Result of decoding one received codeword.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// The decoded message bits (length `k`).
    pub data: Vec<bool>,
    /// `true` when the decoder corrected at least one bit error.
    pub corrected_error: bool,
    /// `true` when the decoder detected an error pattern it cannot correct
    /// (only possible for codes with detection capability beyond their
    /// correction radius, e.g. SECDED).
    pub detected_uncorrectable: bool,
}

impl DecodeOutcome {
    /// Convenience constructor for a clean (error-free) decode.
    #[must_use]
    pub fn clean(data: Vec<bool>) -> Self {
        Self {
            data,
            corrected_error: false,
            detected_uncorrectable: false,
        }
    }
}

/// A binary block code mapping `k` message bits to `n` codeword bits.
///
/// All codes in this crate are systematic or behave as systematic from the
/// caller's perspective: `decode(encode(m)).data == m` in the absence of
/// errors.
pub trait BlockCode: std::fmt::Debug + Send + Sync {
    /// Codeword (block) length `n` in bits.
    fn block_length(&self) -> usize;

    /// Message length `k` in bits.
    fn message_length(&self) -> usize;

    /// Minimum Hamming distance of the code.
    fn min_distance(&self) -> usize;

    /// Human-readable name, e.g. `"H(7,4)"`.
    fn name(&self) -> String;

    /// Encodes `data` (exactly `k` bits) into a codeword of `n` bits.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::WrongMessageLength`] if `data.len() != k`.
    fn encode(&self, data: &[bool]) -> Result<Vec<bool>, CodeError>;

    /// Decodes a received word of `n` bits, correcting errors when possible.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::WrongCodewordLength`] if `received.len() != n`.
    fn decode(&self, received: &[bool]) -> Result<DecodeOutcome, CodeError>;

    /// Code rate `R_c = k / n`.
    fn rate(&self) -> f64 {
        self.message_length() as f64 / self.block_length() as f64
    }

    /// Number of parity (redundancy) bits `n − k`.
    fn parity_bits(&self) -> usize {
        self.block_length() - self.message_length()
    }

    /// Number of errors the code corrects per block, `⌊(d_min − 1)/2⌋`.
    fn correctable_errors(&self) -> usize {
        (self.min_distance() - 1) / 2
    }

    /// Relative communication-time overhead `n / k` (the paper's CT factor:
    /// 1.75 for H(7,4), ≈1.11 for H(71,64), 1.0 for an uncoded link).
    fn communication_time_factor(&self) -> f64 {
        self.block_length() as f64 / self.message_length() as f64
    }

    /// Encodes a [`BitBlock`]; convenience wrapper over [`BlockCode::encode`].
    ///
    /// # Errors
    ///
    /// Same as [`BlockCode::encode`].
    fn encode_block(&self, data: &BitBlock) -> Result<BitBlock, CodeError> {
        Ok(BitBlock::from_bools(&self.encode(&data.to_bools())?))
    }

    /// Decodes a [`BitBlock`]; convenience wrapper over [`BlockCode::decode`].
    ///
    /// # Errors
    ///
    /// Same as [`BlockCode::decode`].
    fn decode_block(&self, received: &BitBlock) -> Result<DecodeOutcome, CodeError> {
        self.decode(&received.to_bools())
    }
}

/// Validates a message-length argument, producing the conventional error.
pub(crate) fn check_message_len(expected: usize, actual: usize) -> Result<(), CodeError> {
    if expected == actual {
        Ok(())
    } else {
        Err(CodeError::WrongMessageLength { expected, actual })
    }
}

/// Validates a codeword-length argument, producing the conventional error.
pub(crate) fn check_codeword_len(expected: usize, actual: usize) -> Result<(), CodeError> {
    if expected == actual {
        Ok(())
    } else {
        Err(CodeError::WrongCodewordLength { expected, actual })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = CodeError::WrongMessageLength {
            expected: 4,
            actual: 7,
        };
        assert_eq!(e.to_string(), "expected 4 message bits, got 7");
        let e = CodeError::WrongCodewordLength {
            expected: 7,
            actual: 4,
        };
        assert!(e.to_string().contains("codeword"));
        let e = CodeError::InvalidParameters {
            reason: "m must be >= 2".into(),
        };
        assert!(e.to_string().contains("m must be >= 2"));
    }

    #[test]
    fn clean_outcome_has_no_flags() {
        let o = DecodeOutcome::clean(vec![true, false]);
        assert!(!o.corrected_error);
        assert!(!o.detected_uncorrectable);
        assert_eq!(o.data.len(), 2);
    }

    #[test]
    fn length_checks() {
        assert!(check_message_len(4, 4).is_ok());
        assert!(check_message_len(4, 5).is_err());
        assert!(check_codeword_len(7, 7).is_ok());
        assert!(check_codeword_len(7, 6).is_err());
    }
}
