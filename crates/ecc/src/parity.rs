//! Single parity-check code (detection only, no correction).

use crate::code::{check_codeword_len, check_message_len, BlockCode, CodeError, DecodeOutcome};

/// A single parity-check code: `k` data bits plus one even-parity bit.
///
/// The code detects any odd number of errors but corrects none; it is
/// included as a detection-only baseline (useful together with
/// retransmission in the NoC simulator).
///
/// ```
/// use onoc_ecc_codes::{BlockCode, ParityCheckCode};
///
/// let code = ParityCheckCode::new(8)?;
/// assert_eq!(code.block_length(), 9);
/// assert_eq!(code.correctable_errors(), 0);
/// # Ok::<(), onoc_ecc_codes::CodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityCheckCode {
    message_length: usize,
}

impl ParityCheckCode {
    /// Creates a parity-check code over `message_length` data bits.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `message_length` is zero.
    pub fn new(message_length: usize) -> Result<Self, CodeError> {
        if message_length == 0 {
            return Err(CodeError::InvalidParameters {
                reason: "message length must be at least 1".to_owned(),
            });
        }
        Ok(Self { message_length })
    }

    fn parity(bits: &[bool]) -> bool {
        bits.iter().filter(|&&b| b).count() % 2 == 1
    }
}

impl BlockCode for ParityCheckCode {
    fn block_length(&self) -> usize {
        self.message_length + 1
    }

    fn message_length(&self) -> usize {
        self.message_length
    }

    fn min_distance(&self) -> usize {
        2
    }

    fn name(&self) -> String {
        format!("Parity({},{})", self.block_length(), self.message_length)
    }

    fn encode(&self, data: &[bool]) -> Result<Vec<bool>, CodeError> {
        check_message_len(self.message_length, data.len())?;
        let mut cw = data.to_vec();
        cw.push(Self::parity(data));
        Ok(cw)
    }

    fn decode(&self, received: &[bool]) -> Result<DecodeOutcome, CodeError> {
        check_codeword_len(self.block_length(), received.len())?;
        let (data, parity) = received.split_at(self.message_length);
        let detected = Self::parity(data) != parity[0];
        Ok(DecodeOutcome {
            data: data.to_vec(),
            corrected_error: false,
            detected_uncorrectable: detected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters() {
        let c = ParityCheckCode::new(64).unwrap();
        assert_eq!(c.block_length(), 65);
        assert_eq!(c.parity_bits(), 1);
        assert_eq!(c.min_distance(), 2);
        assert_eq!(c.correctable_errors(), 0);
    }

    #[test]
    fn zero_length_rejected() {
        assert!(ParityCheckCode::new(0).is_err());
    }

    #[test]
    fn clean_round_trip() {
        let c = ParityCheckCode::new(8).unwrap();
        let msg: Vec<bool> = (0..8).map(|i| i % 3 == 0).collect();
        let out = c.decode(&c.encode(&msg).unwrap()).unwrap();
        assert_eq!(out.data, msg);
        assert!(!out.detected_uncorrectable);
    }

    #[test]
    fn detects_single_errors() {
        let c = ParityCheckCode::new(8).unwrap();
        let msg: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
        let cw = c.encode(&msg).unwrap();
        for flip in 0..9 {
            let mut bad = cw.clone();
            bad[flip] = !bad[flip];
            assert!(c.decode(&bad).unwrap().detected_uncorrectable);
        }
    }

    #[test]
    fn misses_double_errors() {
        let c = ParityCheckCode::new(8).unwrap();
        let msg = vec![false; 8];
        let mut cw = c.encode(&msg).unwrap();
        cw[0] = !cw[0];
        cw[5] = !cw[5];
        assert!(!c.decode(&cw).unwrap().detected_uncorrectable);
    }
}
