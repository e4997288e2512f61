//! Compact bit-vector used by the encoders, decoders and serializers.
//!
//! The workspace deliberately avoids pulling in an external `bitvec`-style
//! dependency; the codes used by the paper operate on blocks of at most a few
//! hundred bits, so a simple `Vec<u64>`-backed structure is more than enough
//! and keeps the dependency footprint at the pre-approved set.

/// A growable, indexable sequence of bits.
///
/// ```
/// use onoc_ecc_codes::bits::BitBlock;
///
/// let mut block = BitBlock::zeros(7);
/// block.set(2, true);
/// block.set(6, true);
/// assert_eq!(block.count_ones(), 2);
/// assert_eq!(block.to_bools(), vec![false, false, true, false, false, false, true]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BitBlock {
    words: Vec<u64>,
    len: usize,
}

impl BitBlock {
    /// Creates an empty bit block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a block of `len` zero bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a block from a slice of booleans.
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut block = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            block.set(i, b);
        }
        block
    }

    /// Creates a block holding the `len` least-significant bits of `value`,
    /// LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    #[must_use]
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits");
        let mut block = Self::zeros(len);
        for i in 0..len {
            block.set(i, (value >> i) & 1 == 1);
        }
        block
    }

    /// Creates a block from bytes, LSB-first within each byte.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut block = Self::zeros(bytes.len() * 8);
        for (byte_index, byte) in bytes.iter().enumerate() {
            for bit in 0..8 {
                block.set(byte_index * 8 + bit, (byte >> bit) & 1 == 1);
            }
        }
        block
    }

    /// Number of bits in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the block contains no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range ({})",
            self.len
        );
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Writes the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range ({})",
            self.len
        );
        let word = &mut self.words[index / 64];
        let mask = 1u64 << (index % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Flips the bit at `index` and returns its new value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn toggle(&mut self, index: usize) -> bool {
        let new = !self.get(index);
        self.set(index, new);
        new
    }

    /// Appends a bit at the end of the block.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, value);
    }

    /// Number of bits set to one.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance (number of differing bit positions) to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the two blocks have different lengths.
    #[must_use]
    pub fn hamming_distance(&self, other: &Self) -> usize {
        assert_eq!(
            self.len, other.len,
            "hamming distance requires equal lengths"
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Converts to a vector of booleans.
    #[must_use]
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Converts the first `min(len, 64)` bits to a `u64`, LSB first.
    #[must_use]
    pub fn to_u64(&self) -> u64 {
        let mut value = 0u64;
        for i in 0..self.len.min(64) {
            if self.get(i) {
                value |= 1 << i;
            }
        }
        value
    }

    /// Converts to a byte vector (LSB-first within each byte, zero padded).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = vec![0u8; self.len.div_ceil(8)];
        for i in 0..self.len {
            if self.get(i) {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        bytes
    }

    /// Iterator over the bits, LSB (index 0) first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Returns a sub-block of `count` bits starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the block length.
    #[must_use]
    pub fn slice(&self, start: usize, count: usize) -> Self {
        assert!(start + count <= self.len, "slice out of range");
        let mut out = Self::zeros(count);
        for i in 0..count {
            out.set(i, self.get(start + i));
        }
        out
    }

    /// Concatenates `other` after `self`.
    #[must_use]
    pub fn concat(&self, other: &Self) -> Self {
        let mut out = self.clone();
        for bit in other.iter() {
            out.push(bit);
        }
        out
    }

    /// XORs `other` into `self` bitwise.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "xor requires equal lengths");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }
}

impl FromIterator<bool> for BitBlock {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut block = Self::new();
        for bit in iter {
            block.push(bit);
        }
        block
    }
}

impl std::fmt::Display for BitBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for bit in self.iter() {
            write!(f, "{}", u8::from(bit))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let b = BitBlock::zeros(71);
        assert_eq!(b.len(), 71);
        assert_eq!(b.count_ones(), 0);
        assert!(!b.is_empty());
        assert!(BitBlock::new().is_empty());
    }

    #[test]
    fn set_get_toggle() {
        let mut b = BitBlock::zeros(130);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!(b.count_ones(), 3);
        assert!(!b.toggle(0));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn from_to_bools_round_trip() {
        let bits = vec![true, false, true, true, false, false, true];
        assert_eq!(BitBlock::from_bools(&bits).to_bools(), bits);
    }

    #[test]
    fn from_to_u64_round_trip() {
        let b = BitBlock::from_u64(0xDEAD_BEEF, 32);
        assert_eq!(b.to_u64(), 0xDEAD_BEEF);
        assert_eq!(b.len(), 32);
    }

    #[test]
    fn from_to_bytes_round_trip() {
        let bytes = vec![0xAB, 0xCD, 0x01, 0xFF];
        assert_eq!(BitBlock::from_bytes(&bytes).to_bytes(), bytes);
    }

    #[test]
    fn hamming_distance_counts_flips() {
        let a = BitBlock::from_u64(0b1010_1010, 8);
        let b = BitBlock::from_u64(0b1010_0010, 8);
        assert_eq!(a.hamming_distance(&b), 1);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn push_and_collect() {
        let b: BitBlock = (0..100).map(|i| i % 3 == 0).collect();
        assert_eq!(b.len(), 100);
        assert_eq!(b.count_ones(), 34);
    }

    #[test]
    fn slice_and_concat() {
        let b = BitBlock::from_u64(0b1111_0000, 8);
        let low = b.slice(0, 4);
        let high = b.slice(4, 4);
        assert_eq!(low.count_ones(), 0);
        assert_eq!(high.count_ones(), 4);
        assert_eq!(low.concat(&high), b);
    }

    #[test]
    fn xor_assign_clears_identical_blocks() {
        let a = BitBlock::from_u64(0b1011, 4);
        let mut c = a.clone();
        c.xor_assign(&a);
        assert_eq!(c.count_ones(), 0);
    }

    #[test]
    fn display_is_binary_string() {
        let b = BitBlock::from_bools(&[true, false, true]);
        assert_eq!(b.to_string(), "101");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let b = BitBlock::zeros(4);
        let _ = b.get(4);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn distance_with_mismatched_lengths_panics() {
        let _ = BitBlock::zeros(4).hamming_distance(&BitBlock::zeros(5));
    }
}
