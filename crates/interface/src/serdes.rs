//! Bit-true serializer / deserializer models.
//!
//! Section IV-C of the paper describes both as register pipelines whose depth
//! equals the parallel word size: the serializer loads a parallel word
//! through per-register input muxes and shifts bits out at F_mod; the
//! deserializer shifts incoming bits in and presents the reassembled word.
//! These models reproduce that behaviour cycle by cycle so that the NoC
//! simulator and the examples can push real bit streams through the link.

use onoc_ecc_codes::bits::BitBlock;

/// A parallel-in / serial-out register pipeline.
///
/// ```
/// use onoc_interface::serdes::Serializer;
///
/// let mut ser = Serializer::new(8);
/// ser.load(&[true, false, true, true, false, false, true, false]);
/// let stream: Vec<bool> = (0..8).map(|_| ser.shift_out().unwrap()).collect();
/// assert_eq!(stream, vec![true, false, true, true, false, false, true, false]);
/// assert!(ser.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Serializer {
    depth: usize,
    pipeline: Vec<bool>,
    cursor: usize,
    shifted_bits: u64,
}

impl Serializer {
    /// Creates a serializer with the given register depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "serializer depth must be non-zero");
        Self {
            depth,
            pipeline: Vec::new(),
            cursor: 0,
            shifted_bits: 0,
        }
    }

    /// Register depth (input word width).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Loads a parallel word into the pipeline registers.
    ///
    /// # Panics
    ///
    /// Panics if the word width does not match the register depth, or if a
    /// previous word has not been fully shifted out yet (the real hardware
    /// would overwrite in-flight data — a protocol violation we surface
    /// loudly).
    pub fn load(&mut self, word: &[bool]) {
        assert_eq!(
            word.len(),
            self.depth,
            "word width must match the serializer depth"
        );
        assert!(
            self.is_empty(),
            "serializer reloaded while {} bits are still in flight",
            self.pipeline.len() - self.cursor
        );
        self.pipeline = word.to_vec();
        self.cursor = 0;
    }

    /// Shifts one bit out at the modulation clock, or `None` when the
    /// pipeline is empty.
    pub fn shift_out(&mut self) -> Option<bool> {
        if self.cursor >= self.pipeline.len() {
            return None;
        }
        let bit = self.pipeline[self.cursor];
        self.cursor += 1;
        self.shifted_bits += 1;
        Some(bit)
    }

    /// `true` when every loaded bit has been shifted out.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cursor >= self.pipeline.len()
    }

    /// Total number of bits shifted out since construction.
    #[must_use]
    pub fn shifted_bits(&self) -> u64 {
        self.shifted_bits
    }

    /// Serializes a whole word in one call (load + shift until empty).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Serializer::load`].
    pub fn serialize_word(&mut self, word: &[bool]) -> Vec<bool> {
        self.load(word);
        let mut out = Vec::with_capacity(self.depth);
        while let Some(bit) = self.shift_out() {
            out.push(bit);
        }
        out
    }
}

/// A serial-in / parallel-out register pipeline.
///
/// ```
/// use onoc_interface::serdes::Deserializer;
///
/// let mut des = Deserializer::new(4);
/// for bit in [true, true, false, true] {
///     des.shift_in(bit);
/// }
/// assert_eq!(des.take_word(), Some(vec![true, true, false, true]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deserializer {
    depth: usize,
    pipeline: Vec<bool>,
    completed: Option<Vec<bool>>,
    received_bits: u64,
}

impl Deserializer {
    /// Creates a deserializer with the given register depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "deserializer depth must be non-zero");
        Self {
            depth,
            pipeline: Vec::with_capacity(depth),
            completed: None,
            received_bits: 0,
        }
    }

    /// Register depth (output word width).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Shifts one received bit in.  When the pipeline fills, the word becomes
    /// available through [`Deserializer::take_word`].
    ///
    /// # Panics
    ///
    /// Panics if a completed word has not been consumed yet.
    pub fn shift_in(&mut self, bit: bool) {
        assert!(
            self.completed.is_none(),
            "deserializer overrun: completed word not consumed"
        );
        self.pipeline.push(bit);
        self.received_bits += 1;
        if self.pipeline.len() == self.depth {
            self.completed = Some(std::mem::take(&mut self.pipeline));
        }
    }

    /// Takes the completed word, if any.
    pub fn take_word(&mut self) -> Option<Vec<bool>> {
        self.completed.take()
    }

    /// Number of bits currently buffered (not yet forming a full word).
    #[must_use]
    pub fn pending_bits(&self) -> usize {
        self.pipeline.len()
    }

    /// Total number of bits received since construction.
    #[must_use]
    pub fn received_bits(&self) -> u64 {
        self.received_bits
    }

    /// Deserializes a whole stream in one call.
    ///
    /// # Panics
    ///
    /// Panics if the stream length is not exactly the register depth.
    pub fn deserialize_stream(&mut self, stream: &[bool]) -> Vec<bool> {
        assert_eq!(
            stream.len(),
            self.depth,
            "stream length must match the deserializer depth"
        );
        for &bit in stream {
            self.shift_in(bit);
        }
        self.take_word().expect("a full word was just shifted in")
    }
}

/// Round-trips a [`BitBlock`] through a serializer/deserializer pair of the
/// given depth; used by the property tests to show the SER/DES chain is
/// bit-exact.
#[must_use]
pub fn serdes_round_trip(word: &BitBlock) -> BitBlock {
    let mut ser = Serializer::new(word.len());
    let mut des = Deserializer::new(word.len());
    let stream = ser.serialize_word(&word.to_bools());
    BitBlock::from_bools(&des.deserialize_stream(&stream))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializer_preserves_order() {
        let mut ser = Serializer::new(112);
        let word: Vec<bool> = (0..112).map(|i| i % 5 == 0).collect();
        assert_eq!(ser.serialize_word(&word), word);
        assert_eq!(ser.shifted_bits(), 112);
    }

    #[test]
    fn serializer_reports_empty_correctly() {
        let mut ser = Serializer::new(2);
        assert!(ser.is_empty());
        ser.load(&[true, false]);
        assert!(!ser.is_empty());
        assert_eq!(ser.shift_out(), Some(true));
        assert_eq!(ser.shift_out(), Some(false));
        assert_eq!(ser.shift_out(), None);
        assert!(ser.is_empty());
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn serializer_reload_mid_word_panics() {
        let mut ser = Serializer::new(4);
        ser.load(&[true; 4]);
        ser.shift_out();
        ser.load(&[false; 4]);
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn serializer_wrong_width_panics() {
        let mut ser = Serializer::new(4);
        ser.load(&[true; 5]);
    }

    #[test]
    fn deserializer_reassembles_words() {
        let mut des = Deserializer::new(71);
        let word: Vec<bool> = (0..71).map(|i| i % 3 == 1).collect();
        assert_eq!(des.deserialize_stream(&word), word);
        assert_eq!(des.received_bits(), 71);
        assert_eq!(des.pending_bits(), 0);
    }

    #[test]
    fn deserializer_pending_bits_grow_until_full() {
        let mut des = Deserializer::new(3);
        des.shift_in(true);
        des.shift_in(false);
        assert_eq!(des.pending_bits(), 2);
        assert!(des.take_word().is_none());
        des.shift_in(true);
        assert_eq!(des.take_word(), Some(vec![true, false, true]));
    }

    #[test]
    #[should_panic(expected = "overrun")]
    fn deserializer_overrun_panics() {
        let mut des = Deserializer::new(1);
        des.shift_in(true);
        des.shift_in(false);
    }

    #[test]
    fn round_trip_helper_is_identity() {
        let word = BitBlock::from_u64(0x1234_5678_9ABC_DEF0, 64);
        assert_eq!(serdes_round_trip(&word), word);
    }

    #[test]
    #[should_panic(expected = "depth must be non-zero")]
    fn zero_depth_serializer_panics() {
        let _ = Serializer::new(0);
    }
}
