//! Uncoded pass-through — the "w/o ECC" transmission mode of the paper.

use crate::code::{check_codeword_len, check_message_len, BlockCode, CodeError, DecodeOutcome};

/// Identity "code": data bits are transmitted as-is.
///
/// Modelling the uncoded mode with the same [`BlockCode`] interface keeps the
/// interface, power and simulation layers free of special cases.
///
/// ```
/// use onoc_ecc_codes::{BlockCode, UncodedPassthrough};
///
/// let code = UncodedPassthrough::new(64);
/// assert_eq!(code.block_length(), 64);
/// assert!((code.communication_time_factor() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UncodedPassthrough {
    message_length: usize,
}

impl UncodedPassthrough {
    /// Creates an uncoded pass-through over `message_length` bits.
    ///
    /// # Panics
    ///
    /// Panics if `message_length` is zero.
    #[must_use]
    pub fn new(message_length: usize) -> Self {
        assert!(message_length > 0, "message length must be at least 1");
        Self { message_length }
    }
}

impl BlockCode for UncodedPassthrough {
    fn block_length(&self) -> usize {
        self.message_length
    }

    fn message_length(&self) -> usize {
        self.message_length
    }

    fn min_distance(&self) -> usize {
        1
    }

    fn name(&self) -> String {
        "w/o ECC".to_owned()
    }

    fn encode(&self, data: &[bool]) -> Result<Vec<bool>, CodeError> {
        check_message_len(self.message_length, data.len())?;
        Ok(data.to_vec())
    }

    fn decode(&self, received: &[bool]) -> Result<DecodeOutcome, CodeError> {
        check_codeword_len(self.message_length, received.len())?;
        Ok(DecodeOutcome::clean(received.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trip() {
        let c = UncodedPassthrough::new(16);
        let msg: Vec<bool> = (0..16).map(|i| i % 4 == 0).collect();
        assert_eq!(c.decode(&c.encode(&msg).unwrap()).unwrap().data, msg);
    }

    #[test]
    fn no_overhead() {
        let c = UncodedPassthrough::new(64);
        assert_eq!(c.parity_bits(), 0);
        assert_eq!(c.correctable_errors(), 0);
        assert!((c.rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn errors_pass_through_silently() {
        let c = UncodedPassthrough::new(4);
        let mut cw = c.encode(&[true, true, true, true]).unwrap();
        cw[2] = false;
        let out = c.decode(&cw).unwrap();
        assert_eq!(out.data, vec![true, true, false, true]);
        assert!(!out.corrected_error && !out.detected_uncorrectable);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_length_panics() {
        let _ = UncodedPassthrough::new(0);
    }

    #[test]
    fn wrong_lengths_rejected() {
        let c = UncodedPassthrough::new(4);
        assert!(c.encode(&[true; 3]).is_err());
        assert!(c.decode(&[true; 5]).is_err());
    }
}
