//! Extended Hamming (SECDED) codes.
//!
//! Adding one overall parity bit to a Hamming code raises the minimum distance
//! from 3 to 4: single errors are still corrected, and double errors are now
//! *detected* instead of being silently miscorrected.  The paper mentions that
//! "other coding techniques can be used"; SECDED is the most common extension
//! in on-chip memories and interconnects, so we provide it as an optional
//! scheme for the design-space exploration and ablation benches.

use crate::code::{check_codeword_len, check_message_len, BlockCode, CodeError, DecodeOutcome};
use crate::shortened::ShortenedHammingCode;

/// An extended (SECDED) Hamming code built on a possibly-shortened base code.
///
/// ```
/// use onoc_ecc_codes::{BlockCode, ExtendedHammingCode};
///
/// // SECDED over a 64-bit word: H(72,64), the classic DRAM ECC geometry.
/// let code = ExtendedHammingCode::for_message_length(64)?;
/// assert_eq!(code.block_length(), 72);
/// assert_eq!(code.min_distance(), 4);
/// # Ok::<(), onoc_ecc_codes::CodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtendedHammingCode {
    base: ShortenedHammingCode,
}

impl ExtendedHammingCode {
    /// Creates a SECDED code protecting `message_length` data bits.
    ///
    /// # Errors
    ///
    /// Propagates [`CodeError::InvalidParameters`] from the base code
    /// construction.
    pub fn for_message_length(message_length: usize) -> Result<Self, CodeError> {
        Ok(Self {
            base: ShortenedHammingCode::for_message_length(message_length)?,
        })
    }

    /// SECDED over 4 data bits: the extended H(8,4) code.
    #[must_use]
    pub fn h84() -> Self {
        Self::for_message_length(4).expect("4-bit message is always valid")
    }

    /// SECDED over 64 data bits: the extended H(72,64) code.
    #[must_use]
    pub fn h7264() -> Self {
        Self::for_message_length(64).expect("64-bit message is always valid")
    }

    /// Access to the inner single-error-correcting code.
    #[must_use]
    pub fn base(&self) -> &ShortenedHammingCode {
        &self.base
    }

    fn overall_parity(bits: &[bool]) -> bool {
        bits.iter().filter(|&&b| b).count() % 2 == 1
    }
}

impl BlockCode for ExtendedHammingCode {
    fn block_length(&self) -> usize {
        self.base.block_length() + 1
    }

    fn message_length(&self) -> usize {
        self.base.message_length()
    }

    fn min_distance(&self) -> usize {
        4
    }

    fn name(&self) -> String {
        format!("SECDED({},{})", self.block_length(), self.message_length())
    }

    fn encode(&self, data: &[bool]) -> Result<Vec<bool>, CodeError> {
        check_message_len(self.message_length(), data.len())?;
        let mut cw = self.base.encode(data)?;
        cw.push(Self::overall_parity(&cw));
        Ok(cw)
    }

    fn decode(&self, received: &[bool]) -> Result<DecodeOutcome, CodeError> {
        check_codeword_len(self.block_length(), received.len())?;
        let (inner, overall) = received.split_at(self.base.block_length());
        let overall_received = overall[0];
        let overall_computed = Self::overall_parity(inner);
        let parity_mismatch = overall_received != overall_computed;

        let inner_outcome = self.base.decode(inner)?;

        if parity_mismatch {
            // Odd number of errors within the whole extended word: the inner
            // decoder either saw a clean word (error hit only the extra parity
            // bit) or corrected the single inner error.  Either way the data
            // is trustworthy.
            Ok(DecodeOutcome {
                data: inner_outcome.data,
                corrected_error: true,
                detected_uncorrectable: false,
            })
        } else if inner_outcome.corrected_error {
            // Even overall parity but the inner decoder "corrected" something:
            // this is the signature of a double error — flag it instead of
            // returning silently-corrupted data.
            Ok(DecodeOutcome {
                data: inner_outcome.data,
                corrected_error: false,
                detected_uncorrectable: true,
            })
        } else {
            Ok(DecodeOutcome::clean(inner_outcome.data))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_of_the_presets() {
        assert_eq!(ExtendedHammingCode::h84().block_length(), 8);
        assert_eq!(ExtendedHammingCode::h84().message_length(), 4);
        let c = ExtendedHammingCode::h7264();
        assert_eq!(c.block_length(), 72);
        assert_eq!(c.parity_bits(), 8);
        assert_eq!(c.name(), "SECDED(72,64)");
        assert_eq!(c.correctable_errors(), 1);
    }

    #[test]
    fn clean_round_trip() {
        let c = ExtendedHammingCode::h7264();
        let msg: Vec<bool> = (0..64).map(|i| i % 5 == 0).collect();
        let out = c.decode(&c.encode(&msg).unwrap()).unwrap();
        assert_eq!(out.data, msg);
        assert!(!out.corrected_error && !out.detected_uncorrectable);
    }

    #[test]
    fn corrects_all_single_errors() {
        let c = ExtendedHammingCode::h84();
        for value in 0..16u8 {
            let msg: Vec<bool> = (0..4).map(|i| (value >> i) & 1 == 1).collect();
            let cw = c.encode(&msg).unwrap();
            for flip in 0..8 {
                let mut bad = cw.clone();
                bad[flip] = !bad[flip];
                let out = c.decode(&bad).unwrap();
                assert_eq!(out.data, msg, "flip {flip} of value {value}");
                assert!(out.corrected_error);
                assert!(!out.detected_uncorrectable);
            }
        }
    }

    #[test]
    fn detects_all_double_errors() {
        let c = ExtendedHammingCode::h84();
        let msg = vec![true, false, false, true];
        let cw = c.encode(&msg).unwrap();
        for i in 0..8 {
            for j in (i + 1)..8 {
                let mut bad = cw.clone();
                bad[i] = !bad[i];
                bad[j] = !bad[j];
                let out = c.decode(&bad).unwrap();
                assert!(
                    out.detected_uncorrectable || out.data == msg,
                    "double error ({i},{j}) neither detected nor harmless"
                );
            }
        }
    }

    #[test]
    fn detects_double_errors_h7264_sampled() {
        let c = ExtendedHammingCode::h7264();
        let msg: Vec<bool> = (0..64).map(|i| i % 7 < 3).collect();
        let cw = c.encode(&msg).unwrap();
        for (i, j) in [(0, 1), (5, 40), (70, 71), (13, 64), (31, 32)] {
            let mut bad = cw.clone();
            bad[i] = !bad[i];
            bad[j] = !bad[j];
            let out = c.decode(&bad).unwrap();
            assert!(out.detected_uncorrectable || out.data == msg);
        }
    }

    #[test]
    fn wrong_lengths_rejected() {
        let c = ExtendedHammingCode::h84();
        assert!(c.encode(&[true; 5]).is_err());
        assert!(c.decode(&[true; 7]).is_err());
    }
}
