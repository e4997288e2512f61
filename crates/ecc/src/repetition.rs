//! Repetition codes — the simplest possible baseline.
//!
//! A rate-1/r repetition code transmits each bit `r` times and decodes by
//! majority vote.  It is hopeless in terms of throughput but useful as a
//! sanity baseline in the design-space exploration: any sensible code should
//! dominate it on the power/performance Pareto front for the same BER target.

use crate::code::{check_codeword_len, check_message_len, BlockCode, CodeError, DecodeOutcome};

/// A bit-repetition code with odd repetition factor.
///
/// ```
/// use onoc_ecc_codes::{BlockCode, RepetitionCode};
///
/// let code = RepetitionCode::new(3, 4)?;
/// let cw = code.encode(&[true, false, true, true])?;
/// assert_eq!(cw.len(), 12);
/// # Ok::<(), onoc_ecc_codes::CodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepetitionCode {
    repetitions: usize,
    message_length: usize,
}

impl RepetitionCode {
    /// Creates a repetition code repeating each of `message_length` bits
    /// `repetitions` times.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `repetitions` is even or
    /// smaller than 3, or if `message_length` is zero.
    pub fn new(repetitions: usize, message_length: usize) -> Result<Self, CodeError> {
        if repetitions < 3 || repetitions.is_multiple_of(2) {
            return Err(CodeError::InvalidParameters {
                reason: format!("repetition factor must be odd and >= 3, got {repetitions}"),
            });
        }
        if message_length == 0 {
            return Err(CodeError::InvalidParameters {
                reason: "message length must be at least 1".to_owned(),
            });
        }
        Ok(Self {
            repetitions,
            message_length,
        })
    }

    /// Repetition factor `r`.
    #[must_use]
    pub fn repetitions(&self) -> usize {
        self.repetitions
    }
}

impl BlockCode for RepetitionCode {
    fn block_length(&self) -> usize {
        self.message_length * self.repetitions
    }

    fn message_length(&self) -> usize {
        self.message_length
    }

    fn min_distance(&self) -> usize {
        self.repetitions
    }

    fn name(&self) -> String {
        format!("Rep{}x{}", self.repetitions, self.message_length)
    }

    fn encode(&self, data: &[bool]) -> Result<Vec<bool>, CodeError> {
        check_message_len(self.message_length, data.len())?;
        let mut out = Vec::with_capacity(self.block_length());
        for &bit in data {
            out.extend(std::iter::repeat_n(bit, self.repetitions));
        }
        Ok(out)
    }

    fn decode(&self, received: &[bool]) -> Result<DecodeOutcome, CodeError> {
        check_codeword_len(self.block_length(), received.len())?;
        let mut data = Vec::with_capacity(self.message_length);
        let mut corrected = false;
        for chunk in received.chunks(self.repetitions) {
            let ones = chunk.iter().filter(|&&b| b).count();
            let majority = ones * 2 > self.repetitions;
            let unanimous = ones == 0 || ones == self.repetitions;
            if !unanimous {
                corrected = true;
            }
            data.push(majority);
        }
        Ok(DecodeOutcome {
            data,
            corrected_error: corrected,
            detected_uncorrectable: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters() {
        let c = RepetitionCode::new(3, 8).unwrap();
        assert_eq!(c.block_length(), 24);
        assert_eq!(c.min_distance(), 3);
        assert_eq!(c.correctable_errors(), 1);
        assert!((c.rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.name(), "Rep3x8");
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(RepetitionCode::new(2, 4).is_err());
        assert!(RepetitionCode::new(1, 4).is_err());
        assert!(RepetitionCode::new(3, 0).is_err());
        assert!(RepetitionCode::new(5, 1).is_ok());
    }

    #[test]
    fn majority_vote_corrects_single_error_per_group() {
        let c = RepetitionCode::new(3, 4).unwrap();
        let msg = vec![true, false, true, false];
        let mut cw = c.encode(&msg).unwrap();
        cw[1] = !cw[1]; // corrupt one copy of bit 0
        cw[9] = !cw[9]; // corrupt one copy of bit 3
        let out = c.decode(&cw).unwrap();
        assert_eq!(out.data, msg);
        assert!(out.corrected_error);
    }

    #[test]
    fn two_errors_in_same_group_flip_the_bit() {
        let c = RepetitionCode::new(3, 1).unwrap();
        let cw = c.encode(&[true]).unwrap();
        let mut bad = cw;
        bad[0] = false;
        bad[1] = false;
        assert_eq!(c.decode(&bad).unwrap().data, vec![false]);
    }

    #[test]
    fn rep5_corrects_two_errors_per_group() {
        let c = RepetitionCode::new(5, 2).unwrap();
        let msg = vec![true, false];
        let mut cw = c.encode(&msg).unwrap();
        cw[0] = !cw[0];
        cw[4] = !cw[4];
        assert_eq!(c.decode(&cw).unwrap().data, msg);
    }

    #[test]
    fn wrong_lengths_rejected() {
        let c = RepetitionCode::new(3, 4).unwrap();
        assert!(c.encode(&[true; 3]).is_err());
        assert!(c.decode(&[true; 11]).is_err());
    }
}
