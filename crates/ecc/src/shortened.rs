//! Shortened Hamming codes, e.g. the paper's H(71,64).
//!
//! A shortened Hamming code is obtained from a parent H(2^m−1, 2^m−1−m) by
//! fixing the leading `s` message bits to zero and not transmitting them.
//! The resulting (n−s, k−s) code keeps the minimum distance (3) and the
//! single-error-correction capability of the parent while matching the data
//! width of the electrical interface: protecting a 64-bit IP word requires
//! m = 7 parity bits, so the natural code is H(127,120) shortened by 56
//! positions to H(71,64).

use crate::code::{check_codeword_len, check_message_len, BlockCode, CodeError, DecodeOutcome};
use crate::hamming::HammingCode;

/// A Hamming code shortened to an arbitrary message length.
///
/// ```
/// use onoc_ecc_codes::{BlockCode, ShortenedHammingCode};
///
/// // The paper's H(71,64): one codec protects the whole 64-bit bus.
/// let code = ShortenedHammingCode::for_message_length(64)?;
/// assert_eq!(code.block_length(), 71);
/// assert_eq!(code.message_length(), 64);
/// assert!((code.communication_time_factor() - 71.0 / 64.0).abs() < 1e-12);
/// # Ok::<(), onoc_ecc_codes::CodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortenedHammingCode {
    parent: HammingCode,
    message_length: usize,
    shortened_by: usize,
}

impl ShortenedHammingCode {
    /// Creates a shortened Hamming code with exactly `message_length` data
    /// bits, using the smallest parent code that can host them.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `message_length` is zero or
    /// requires more than 16 parity bits.
    pub fn for_message_length(message_length: usize) -> Result<Self, CodeError> {
        if message_length == 0 {
            return Err(CodeError::InvalidParameters {
                reason: "message length must be at least 1".to_owned(),
            });
        }
        // Smallest m such that 2^m - 1 - m >= message_length.
        let parity_count = (2..=16)
            .find(|&m| ((1usize << m) - 1 - m) >= message_length)
            .ok_or_else(|| CodeError::InvalidParameters {
                reason: format!(
                    "no Hamming code with <= 16 parity bits hosts {message_length} data bits"
                ),
            })?;
        let parent = HammingCode::new(parity_count)?;
        let shortened_by = parent.message_length() - message_length;
        Ok(Self {
            parent,
            message_length,
            shortened_by,
        })
    }

    /// The paper's H(71,64) code (64 data bits + 7 parity bits).
    #[must_use]
    pub fn h7164() -> Self {
        Self::for_message_length(64).expect("64-bit message is always valid")
    }

    /// An H(38,32) code protecting a 32-bit word (6 parity bits).
    #[must_use]
    pub fn h3832() -> Self {
        Self::for_message_length(32).expect("32-bit message is always valid")
    }

    /// An H(12,8) code protecting one byte (4 parity bits).
    #[must_use]
    pub fn h128() -> Self {
        Self::for_message_length(8).expect("8-bit message is always valid")
    }

    /// The parent (unshortened) Hamming code.
    #[must_use]
    pub fn parent(&self) -> &HammingCode {
        &self.parent
    }

    /// Number of message positions removed from the parent code.
    #[must_use]
    pub fn shortened_by(&self) -> usize {
        self.shortened_by
    }
}

impl BlockCode for ShortenedHammingCode {
    fn block_length(&self) -> usize {
        self.parent.block_length() - self.shortened_by
    }

    fn message_length(&self) -> usize {
        self.message_length
    }

    fn min_distance(&self) -> usize {
        3
    }

    fn name(&self) -> String {
        format!("H({},{})", self.block_length(), self.message_length())
    }

    fn encode(&self, data: &[bool]) -> Result<Vec<bool>, CodeError> {
        check_message_len(self.message_length, data.len())?;
        // Pad the message with `shortened_by` zero bits at the *end* (the
        // highest-numbered data positions of the parent), encode with the
        // parent, then drop those positions from the codeword.
        let mut padded = data.to_vec();
        padded.extend(std::iter::repeat_n(false, self.shortened_by));
        let parent_cw = self.parent.encode(&padded)?;
        // The padded zero data bits occupy the last `shortened_by`
        // non-parity positions of the parent codeword; because data bits are
        // placed in increasing position order, those are exactly the last
        // `shortened_by` data positions.  Removing them requires knowing
        // which codeword indices are data positions.
        let n_parent = self.parent.block_length();
        let keep_data = self.message_length;
        let mut kept = Vec::with_capacity(self.block_length());
        let mut data_seen = 0;
        for (idx, bit) in parent_cw.iter().enumerate() {
            let position = idx + 1;
            if position.is_power_of_two() {
                kept.push(*bit);
            } else {
                if data_seen < keep_data {
                    kept.push(*bit);
                }
                data_seen += 1;
            }
            debug_assert!(position <= n_parent);
        }
        Ok(kept)
    }

    fn decode(&self, received: &[bool]) -> Result<DecodeOutcome, CodeError> {
        check_codeword_len(self.block_length(), received.len())?;
        // Re-insert the shortened (zero) data positions, decode with the
        // parent, then truncate the decoded message.
        let mut expanded = Vec::with_capacity(self.parent.block_length());
        let mut iter = received.iter();
        let mut data_seen = 0;
        for position in 1..=self.parent.block_length() {
            if position.is_power_of_two() {
                expanded.push(*iter.next().expect("length checked"));
            } else if data_seen < self.message_length {
                expanded.push(*iter.next().expect("length checked"));
                data_seen += 1;
            } else {
                expanded.push(false);
                data_seen += 1;
            }
        }
        let mut outcome = self.parent.decode(&expanded)?;
        outcome.data.truncate(self.message_length);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h7164_parameters_match_the_paper() {
        let c = ShortenedHammingCode::h7164();
        assert_eq!(c.block_length(), 71);
        assert_eq!(c.message_length(), 64);
        assert_eq!(c.parity_bits(), 7);
        assert_eq!(c.name(), "H(71,64)");
        assert_eq!(c.parent().block_length(), 127);
        assert_eq!(c.shortened_by(), 56);
        // CT factor quoted as 1.1 in the paper.
        assert!((c.communication_time_factor() - 1.109_375).abs() < 1e-6);
    }

    #[test]
    fn other_presets() {
        assert_eq!(ShortenedHammingCode::h3832().block_length(), 38);
        assert_eq!(ShortenedHammingCode::h128().block_length(), 12);
    }

    #[test]
    fn degenerate_and_oversized_messages_rejected() {
        assert!(ShortenedHammingCode::for_message_length(0).is_err());
        assert!(ShortenedHammingCode::for_message_length(1 << 17).is_err());
    }

    #[test]
    fn unshortened_request_matches_parent() {
        // 4 data bits need m = 3 and no shortening at all.
        let c = ShortenedHammingCode::for_message_length(4).unwrap();
        assert_eq!(c.block_length(), 7);
        assert_eq!(c.shortened_by(), 0);
    }

    #[test]
    fn round_trip_without_errors() {
        let c = ShortenedHammingCode::h7164();
        let msg: Vec<bool> = (0..64).map(|i| (i * 7 + 3) % 5 < 2).collect();
        let cw = c.encode(&msg).unwrap();
        assert_eq!(cw.len(), 71);
        let out = c.decode(&cw).unwrap();
        assert_eq!(out.data, msg);
        assert!(!out.corrected_error);
    }

    #[test]
    fn corrects_every_single_bit_error_h7164() {
        let c = ShortenedHammingCode::h7164();
        let msg: Vec<bool> = (0..64).map(|i| i % 3 == 1).collect();
        let cw = c.encode(&msg).unwrap();
        for flip in 0..71 {
            let mut bad = cw.clone();
            bad[flip] = !bad[flip];
            let out = c.decode(&bad).unwrap();
            assert_eq!(out.data, msg, "flip at {flip} not corrected");
            assert!(out.corrected_error);
        }
    }

    #[test]
    fn corrects_every_single_bit_error_h3832_all_zero_and_all_one() {
        let c = ShortenedHammingCode::h3832();
        for msg in [vec![false; 32], vec![true; 32]] {
            let cw = c.encode(&msg).unwrap();
            for flip in 0..c.block_length() {
                let mut bad = cw.clone();
                bad[flip] = !bad[flip];
                assert_eq!(c.decode(&bad).unwrap().data, msg);
            }
        }
    }

    #[test]
    fn wrong_lengths_are_rejected() {
        let c = ShortenedHammingCode::h7164();
        assert!(c.encode(&[true; 63]).is_err());
        assert!(c.decode(&[true; 70]).is_err());
    }
}
