//! Bit interleaving across wavelengths.
//!
//! The paper transmits one encoded sub-stream per wavelength (Section IV-B).
//! An optional improvement — evaluated in our ablation benches — is to
//! interleave each codeword across the N_W wavelengths so that a burst of
//! errors on one wavelength (e.g. caused by a thermally-drifted micro-ring)
//! is spread over many codewords and stays within the single-error
//! correction capability of the Hamming code.

/// A block interleaver writing row-by-row and reading column-by-column.
///
/// ```
/// use onoc_ecc_codes::interleave::BlockInterleaver;
///
/// let il = BlockInterleaver::new(4, 2)?;
/// let data = vec![true, false, true, true, false, false, true, false];
/// let interleaved = il.interleave(&data)?;
/// assert_eq!(il.deinterleave(&interleaved)?, data);
/// # Ok::<(), onoc_ecc_codes::interleave::InterleaveError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInterleaver {
    rows: usize,
    columns: usize,
}

/// Errors produced by the interleaver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterleaveError {
    /// Rows and columns must both be non-zero.
    ZeroDimension,
    /// The supplied data length does not equal `rows × columns`.
    WrongLength {
        /// Expected number of bits.
        expected: usize,
        /// Actual number of bits supplied.
        actual: usize,
    },
}

impl std::fmt::Display for InterleaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroDimension => write!(f, "interleaver dimensions must be non-zero"),
            Self::WrongLength { expected, actual } => {
                write!(f, "expected {expected} bits, got {actual}")
            }
        }
    }
}

impl std::error::Error for InterleaveError {}

impl BlockInterleaver {
    /// Creates a `rows × columns` block interleaver.
    ///
    /// In the wavelength-striping use case, `rows` is the number of
    /// wavelengths and `columns` the number of bits each wavelength carries
    /// per interleaving frame.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaveError::ZeroDimension`] when either dimension is 0.
    pub fn new(rows: usize, columns: usize) -> Result<Self, InterleaveError> {
        if rows == 0 || columns == 0 {
            return Err(InterleaveError::ZeroDimension);
        }
        Ok(Self { rows, columns })
    }

    /// Number of bits per frame.
    #[must_use]
    pub fn frame_bits(&self) -> usize {
        self.rows * self.columns
    }

    /// Interleaves one frame.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaveError::WrongLength`] when `data.len()` is not the
    /// frame size.
    pub fn interleave(&self, data: &[bool]) -> Result<Vec<bool>, InterleaveError> {
        self.check_len(data.len())?;
        let mut out = Vec::with_capacity(data.len());
        for column in 0..self.columns {
            for row in 0..self.rows {
                out.push(data[row * self.columns + column]);
            }
        }
        Ok(out)
    }

    /// Inverts [`BlockInterleaver::interleave`].
    ///
    /// # Errors
    ///
    /// Returns [`InterleaveError::WrongLength`] when `data.len()` is not the
    /// frame size.
    pub fn deinterleave(&self, data: &[bool]) -> Result<Vec<bool>, InterleaveError> {
        self.check_len(data.len())?;
        let mut out = vec![false; data.len()];
        let mut index = 0;
        for column in 0..self.columns {
            for row in 0..self.rows {
                out[row * self.columns + column] = data[index];
                index += 1;
            }
        }
        Ok(out)
    }

    /// Longest error burst (in interleaved-bit positions) that lands at most
    /// one error in any deinterleaved group of `columns` bits.
    #[must_use]
    pub fn burst_tolerance(&self) -> usize {
        self.rows
    }

    fn check_len(&self, len: usize) -> Result<(), InterleaveError> {
        if len == self.frame_bits() {
            Ok(())
        } else {
            Err(InterleaveError::WrongLength {
                expected: self.frame_bits(),
                actual: len,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_for_various_geometries() {
        for (rows, cols) in [(2, 3), (16, 7), (4, 71), (1, 5), (5, 1)] {
            let il = BlockInterleaver::new(rows, cols).unwrap();
            let data: Vec<bool> = (0..il.frame_bits()).map(|i| i % 3 == 0).collect();
            let round = il.deinterleave(&il.interleave(&data).unwrap()).unwrap();
            assert_eq!(round, data, "{rows}x{cols}");
        }
    }

    #[test]
    fn zero_dimension_rejected() {
        assert_eq!(
            BlockInterleaver::new(0, 4),
            Err(InterleaveError::ZeroDimension)
        );
        assert_eq!(
            BlockInterleaver::new(4, 0),
            Err(InterleaveError::ZeroDimension)
        );
    }

    #[test]
    fn wrong_length_rejected() {
        let il = BlockInterleaver::new(4, 4).unwrap();
        assert!(matches!(
            il.interleave(&[true; 15]),
            Err(InterleaveError::WrongLength {
                expected: 16,
                actual: 15
            })
        ));
        assert!(il.deinterleave(&[true; 17]).is_err());
    }

    #[test]
    fn burst_is_spread_across_rows() {
        // 4 "wavelengths" × 7 bits: a burst of 4 consecutive interleaved bits
        // must touch 4 distinct rows, i.e. at most one bit per codeword.
        let il = BlockInterleaver::new(4, 7).unwrap();
        let clean = vec![false; il.frame_bits()];
        let mut corrupted = il.interleave(&clean).unwrap();
        for bit in corrupted.iter_mut().take(4) {
            *bit = true;
        }
        let restored = il.deinterleave(&corrupted).unwrap();
        for row in 0..4 {
            let errors_in_row = (0..7).filter(|&c| restored[row * 7 + c]).count();
            assert!(errors_in_row <= 1, "row {row} got {errors_in_row} errors");
        }
        assert_eq!(il.burst_tolerance(), 4);
    }

    #[test]
    fn error_display() {
        assert!(InterleaveError::ZeroDimension
            .to_string()
            .contains("non-zero"));
        let e = InterleaveError::WrongLength {
            expected: 8,
            actual: 9,
        };
        assert!(e.to_string().contains("8"));
    }
}
