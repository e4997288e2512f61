//! Perfect binary Hamming codes H(2^m − 1, 2^m − 1 − m).
//!
//! These are the codes used by the paper: a minimum-distance-3 linear code
//! with the highest possible rate for single-error correction at a given
//! block length.  H(7,4) is the `m = 3` member; the shortened H(71,64) used
//! for the 64-bit IP bus is derived from the `m = 7` member H(127,120) (see
//! [`crate::shortened`]).

use crate::code::{check_codeword_len, check_message_len, BlockCode, CodeError, DecodeOutcome};

/// A perfect Hamming code with `m ≥ 2` parity bits.
///
/// The codeword layout follows the classic convention: bit positions are
/// numbered from 1 to `n = 2^m − 1`, parity bits occupy the power-of-two
/// positions and message bits fill the remaining positions in increasing
/// order.  Decoding computes the syndrome as the XOR of the (1-based) indices
/// of all set bits; a non-zero syndrome directly names the flipped position.
///
/// ```
/// use onoc_ecc_codes::{BlockCode, HammingCode};
///
/// let h74 = HammingCode::new(3)?;
/// assert_eq!(h74.block_length(), 7);
/// assert_eq!(h74.message_length(), 4);
/// assert_eq!(h74.correctable_errors(), 1);
/// assert!((h74.rate() - 4.0 / 7.0).abs() < 1e-12);
/// # Ok::<(), onoc_ecc_codes::CodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HammingCode {
    parity_count: usize,
    block_length: usize,
    message_length: usize,
}

impl HammingCode {
    /// Creates the Hamming code with `parity_count = m` parity bits.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `m < 2` or `m > 16`
    /// (larger codes would exceed any realistic on-chip serialisation width).
    pub fn new(parity_count: usize) -> Result<Self, CodeError> {
        if !(2..=16).contains(&parity_count) {
            return Err(CodeError::InvalidParameters {
                reason: format!("hamming parity count must be in 2..=16, got {parity_count}"),
            });
        }
        let block_length = (1usize << parity_count) - 1;
        Ok(Self {
            parity_count,
            block_length,
            message_length: block_length - parity_count,
        })
    }

    /// The paper's H(7,4) code (`m = 3`).
    #[must_use]
    pub fn h74() -> Self {
        Self::new(3).expect("m = 3 is always valid")
    }

    /// The H(15,11) code (`m = 4`).
    #[must_use]
    pub fn h1511() -> Self {
        Self::new(4).expect("m = 4 is always valid")
    }

    /// The H(127,120) code (`m = 7`), parent of the shortened H(71,64).
    #[must_use]
    pub fn h127120() -> Self {
        Self::new(7).expect("m = 7 is always valid")
    }

    /// Number of parity bits `m`.
    #[must_use]
    pub fn parity_count(&self) -> usize {
        self.parity_count
    }

    /// Returns `true` when the 1-based position holds a parity bit.
    fn is_parity_position(position: usize) -> bool {
        position.is_power_of_two()
    }

    /// Computes the syndrome of a full codeword laid out 1-based in `word`
    /// (index 0 unused).
    fn syndrome(word: &[bool]) -> usize {
        word.iter()
            .enumerate()
            .skip(1)
            .filter(|&(_, &bit)| bit)
            .fold(0, |acc, (pos, _)| acc ^ pos)
    }

    /// Encodes into the positional (1-based) representation; helper shared
    /// with the shortened code.
    pub(crate) fn encode_positional(&self, data: &[bool]) -> Result<Vec<bool>, CodeError> {
        check_message_len(self.message_length, data.len())?;
        let n = self.block_length;
        let mut word = vec![false; n + 1];
        let mut data_iter = data.iter();
        for (position, slot) in word.iter_mut().enumerate().skip(1) {
            if !Self::is_parity_position(position) {
                *slot = *data_iter.next().expect("message length checked");
            }
        }
        // Each parity bit at position 2^i covers all positions with bit i set.
        for i in 0..self.parity_count {
            let parity_pos = 1usize << i;
            let parity = (1..=n)
                .filter(|&p| p != parity_pos && (p & parity_pos) != 0 && word[p])
                .count()
                % 2
                == 1;
            word[parity_pos] = parity;
        }
        Ok(word)
    }

    /// Decodes from the positional (1-based) representation.
    pub(crate) fn decode_positional(&self, word: &mut [bool]) -> DecodeOutcome {
        let n = self.block_length;
        let syndrome = Self::syndrome(word);
        let mut corrected = false;
        if syndrome != 0 && syndrome <= n {
            word[syndrome] = !word[syndrome];
            corrected = true;
        }
        let data = (1..=n)
            .filter(|&p| !Self::is_parity_position(p))
            .map(|p| word[p])
            .collect();
        DecodeOutcome {
            data,
            corrected_error: corrected,
            detected_uncorrectable: false,
        }
    }
}

impl BlockCode for HammingCode {
    fn block_length(&self) -> usize {
        self.block_length
    }

    fn message_length(&self) -> usize {
        self.message_length
    }

    fn min_distance(&self) -> usize {
        3
    }

    fn name(&self) -> String {
        format!("H({},{})", self.block_length, self.message_length)
    }

    fn encode(&self, data: &[bool]) -> Result<Vec<bool>, CodeError> {
        let word = self.encode_positional(data)?;
        Ok(word[1..].to_vec())
    }

    fn decode(&self, received: &[bool]) -> Result<DecodeOutcome, CodeError> {
        check_codeword_len(self.block_length, received.len())?;
        let mut word = Vec::with_capacity(self.block_length + 1);
        word.push(false);
        word.extend_from_slice(received);
        Ok(self.decode_positional(&mut word))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages(k: usize) -> impl Iterator<Item = Vec<bool>> {
        (0u64..(1 << k)).map(move |v| (0..k).map(|i| (v >> i) & 1 == 1).collect())
    }

    #[test]
    fn h74_parameters() {
        let c = HammingCode::h74();
        assert_eq!(c.block_length(), 7);
        assert_eq!(c.message_length(), 4);
        assert_eq!(c.parity_bits(), 3);
        assert_eq!(c.min_distance(), 3);
        assert_eq!(c.name(), "H(7,4)");
        assert!((c.communication_time_factor() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn h127120_parameters() {
        let c = HammingCode::h127120();
        assert_eq!(c.block_length(), 127);
        assert_eq!(c.message_length(), 120);
        assert_eq!(c.parity_count(), 7);
    }

    #[test]
    fn invalid_parity_count_rejected() {
        assert!(HammingCode::new(1).is_err());
        assert!(HammingCode::new(17).is_err());
        assert!(HammingCode::new(2).is_ok());
    }

    #[test]
    fn round_trip_without_errors_h74_exhaustive() {
        let c = HammingCode::h74();
        for msg in all_messages(4) {
            let cw = c.encode(&msg).unwrap();
            assert_eq!(cw.len(), 7);
            let out = c.decode(&cw).unwrap();
            assert_eq!(out.data, msg);
            assert!(!out.corrected_error);
        }
    }

    #[test]
    fn corrects_every_single_bit_error_h74_exhaustive() {
        let c = HammingCode::h74();
        for msg in all_messages(4) {
            let cw = c.encode(&msg).unwrap();
            for flip in 0..7 {
                let mut bad = cw.clone();
                bad[flip] = !bad[flip];
                let out = c.decode(&bad).unwrap();
                assert_eq!(out.data, msg, "flip at {flip} not corrected");
                assert!(out.corrected_error);
            }
        }
    }

    #[test]
    fn corrects_single_bit_errors_h1511() {
        let c = HammingCode::h1511();
        let msg: Vec<bool> = (0..11).map(|i| i % 2 == 0).collect();
        let cw = c.encode(&msg).unwrap();
        for flip in 0..15 {
            let mut bad = cw.clone();
            bad[flip] = !bad[flip];
            let out = c.decode(&bad).unwrap();
            assert_eq!(out.data, msg);
        }
    }

    #[test]
    fn double_error_is_miscorrected_not_detected() {
        // A distance-3 code cannot detect double errors: the decoder produces a
        // wrong codeword without raising a flag.  This is the behaviour Eq. (2)
        // of the paper accounts for.
        let c = HammingCode::h74();
        let msg = vec![true, true, false, true];
        let cw = c.encode(&msg).unwrap();
        let mut bad = cw.clone();
        bad[0] = !bad[0];
        bad[3] = !bad[3];
        let out = c.decode(&bad).unwrap();
        assert!(!out.detected_uncorrectable);
        assert_ne!(out.data, msg);
    }

    #[test]
    fn all_codewords_have_min_distance_three_h74() {
        let c = HammingCode::h74();
        let codewords: Vec<Vec<bool>> = all_messages(4).map(|m| c.encode(&m).unwrap()).collect();
        for (i, a) in codewords.iter().enumerate() {
            for b in codewords.iter().skip(i + 1) {
                let dist = a.iter().zip(b).filter(|(x, y)| x != y).count();
                assert!(dist >= 3, "distance {dist} < 3");
            }
        }
    }

    #[test]
    fn wrong_lengths_are_rejected() {
        let c = HammingCode::h74();
        assert!(matches!(
            c.encode(&[true; 5]),
            Err(CodeError::WrongMessageLength {
                expected: 4,
                actual: 5
            })
        ));
        assert!(matches!(
            c.decode(&[true; 8]),
            Err(CodeError::WrongCodewordLength {
                expected: 7,
                actual: 8
            })
        ));
    }

    #[test]
    fn rate_is_highest_for_larger_codes() {
        let rates: Vec<f64> = (3..=8)
            .map(|m| HammingCode::new(m).unwrap().rate())
            .collect();
        for pair in rates.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }
}
