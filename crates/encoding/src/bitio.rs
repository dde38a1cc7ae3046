//! Bit-granular I/O: [`BitVec`], [`BitWriter`] and [`BitReader`].
//!
//! Blackboard messages are counted in *bits*, not bytes, so the whole
//! workspace uses these types as the wire format. A [`BitVec`] is a compact
//! vector of bits; a [`BitWriter`] appends bits and whole integers; a
//! [`BitReader`] consumes them in the same order.

use std::fmt;

/// A growable, compact vector of bits stored LSB-first inside `u64` words.
///
/// # Example
///
/// ```
/// use bci_encoding::bitio::BitVec;
///
/// let mut v = BitVec::new();
/// v.push(true);
/// v.push(false);
/// v.push(true);
/// assert_eq!(v.len(), 3);
/// assert_eq!(v.get(0), Some(true));
/// assert_eq!(v.get(1), Some(false));
/// assert_eq!(v.iter().collect::<Vec<_>>(), vec![true, false, true]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit vector with room for `n` bits.
    pub fn with_capacity(n: usize) -> Self {
        BitVec {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    /// Creates a bit vector from a slice of bools.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = BitVec::with_capacity(bits.len());
        for &b in bits {
            v.push(b);
        }
        v
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        let off = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << off;
        }
        self.len += 1;
    }

    /// Returns bit `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<bool> {
        if i >= self.len {
            return None;
        }
        Some((self.words[i / 64] >> (i % 64)) & 1 == 1)
    }

    /// Appends all bits of `other`.
    pub fn extend_from(&mut self, other: &BitVec) {
        for b in other.iter() {
            self.push(b);
        }
    }

    /// Iterates over the bits in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { v: self, i: 0 }
    }

    /// Appends the bits packed LSB-first into `⌈len/8⌉` bytes: bit `i`
    /// lands in byte `i / 8` at position `i % 8`, and the unused high
    /// bits of a partial last byte are zero. This is the payload layout
    /// of both the [`Wire`](crate::wire::Wire) codec and blackboard
    /// transcripts. Works a backing word at a time.
    pub fn write_packed(&self, out: &mut Vec<u8>) {
        let full = self.len / 64;
        out.reserve(self.len.div_ceil(8));
        for w in &self.words[..full] {
            out.extend_from_slice(&w.to_le_bytes());
        }
        let tail = (self.len % 64).div_ceil(8);
        if tail > 0 {
            // Bits past `len` are never set, so the tail bytes are
            // already zero-padded.
            out.extend_from_slice(&self.words[full].to_le_bytes()[..tail]);
        }
    }

    /// Inverse of [`write_packed`](Self::write_packed): rebuilds `len`
    /// bits from exactly `⌈len/8⌉` LSB-first bytes. Returns `None` if
    /// `bytes` has any other length or a padding bit past `len` is set,
    /// so every accepted byte string is the canonical encoding of its
    /// value.
    pub fn from_packed(bytes: &[u8], len: usize) -> Option<BitVec> {
        if bytes.len() != len.div_ceil(8) {
            return None;
        }
        let used = len % 8;
        if used > 0 && bytes[bytes.len() - 1] >> used != 0 {
            return None;
        }
        let chunks = bytes.chunks_exact(8);
        let rest = chunks.remainder();
        let mut words: Vec<u64> = Vec::with_capacity(len.div_ceil(64));
        words.extend(chunks.map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))));
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            words.push(u64::from_le_bytes(last));
        }
        Some(BitVec { words, len })
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for b in self.iter() {
            write!(f, "{}", u8::from(b))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = BitVec::new();
        for b in iter {
            v.push(b);
        }
        v
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

/// Iterator over the bits of a [`BitVec`], produced by [`BitVec::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    v: &'a BitVec,
    i: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let b = self.v.get(self.i)?;
        self.i += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.v.len - self.i;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Appends bits and fixed- or variable-width integers to a [`BitVec`].
///
/// # Example
///
/// ```
/// use bci_encoding::bitio::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_bits(0b1011, 4);
/// let bits = w.into_bits();
/// let mut r = BitReader::new(&bits);
/// assert_eq!(r.read_bit(), Some(true));
/// assert_eq!(r.read_bits(4), Some(0b1011));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bits: BitVec,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends the `width` low bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, or if `value` does not fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} exceeds 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        for i in 0..width {
            self.bits.push((value >> i) & 1 == 1);
        }
    }

    /// Number of bits written so far.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Extracts the accumulated bits.
    pub fn into_bits(self) -> BitVec {
        self.bits
    }

    /// Borrows the accumulated bits.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }
}

/// Reads bits and integers from a [`BitVec`] in writing order.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bits: &'a BitVec,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit.
    pub fn new(bits: &'a BitVec) -> Self {
        BitReader { bits, pos: 0 }
    }

    /// Reads one bit, or `None` at end of input.
    pub fn read_bit(&mut self) -> Option<bool> {
        let b = self.bits.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Reads `width` bits as an LSB-first integer, or `None` if fewer remain.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read_bits(&mut self, width: u32) -> Option<u64> {
        assert!(width <= 64, "width {width} exceeds 64");
        if self.remaining() < width as usize {
            return None;
        }
        let mut v = 0u64;
        for i in 0..width {
            if self.bits.get(self.pos).expect("bounds checked") {
                v |= 1u64 << i;
            }
            self.pos += 1;
        }
        Some(v)
    }

    /// Bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Current read position in bits.
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bitvec() {
        let v = BitVec::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.get(0), None);
        assert_eq!(format!("{v:?}"), "BitVec[]");
    }

    #[test]
    fn push_and_get_across_word_boundary() {
        let mut v = BitVec::new();
        for i in 0..130 {
            v.push(i % 3 == 0);
        }
        assert_eq!(v.len(), 130);
        for i in 0..130 {
            assert_eq!(v.get(i), Some(i % 3 == 0), "bit {i}");
        }
        assert_eq!(v.get(130), None);
    }

    #[test]
    fn from_bools_round_trip() {
        let bools = [true, false, false, true, true];
        let v = BitVec::from_bools(&bools);
        assert_eq!(v.iter().collect::<Vec<_>>(), bools);
    }

    #[test]
    fn collect_and_extend() {
        let v: BitVec = [true, false].into_iter().collect();
        let mut w = BitVec::new();
        w.extend([false, true]);
        let mut joined = v.clone();
        joined.extend_from(&w);
        assert_eq!(
            joined.iter().collect::<Vec<_>>(),
            vec![true, false, false, true]
        );
    }

    #[test]
    fn display_is_bit_string() {
        let v = BitVec::from_bools(&[true, false, true]);
        assert_eq!(v.to_string(), "101");
    }

    #[test]
    fn writer_reader_round_trip_fixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0); // zero-width write is a no-op
        w.write_bits(42, 6);
        w.write_bit(true);
        w.write_bits(u64::MAX, 64);
        w.write_bits(7, 3);
        let bits = w.into_bits();
        assert_eq!(bits.len(), 6 + 1 + 64 + 3);

        let mut r = BitReader::new(&bits);
        assert_eq!(r.read_bits(6), Some(42));
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(3), Some(7));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn reader_refuses_overread_without_consuming() {
        let bits = BitVec::from_bools(&[true, true]);
        let mut r = BitReader::new(&bits);
        assert_eq!(r.read_bits(3), None);
        assert_eq!(r.remaining(), 2, "failed read must not consume bits");
        assert_eq!(r.read_bits(2), Some(0b11));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn writer_rejects_oversized_value() {
        let mut w = BitWriter::new();
        w.write_bits(8, 3);
    }

    #[test]
    fn exact_size_iterator() {
        let v = BitVec::from_bools(&[true, false, true, false]);
        let it = v.iter();
        assert_eq!(it.len(), 4);
    }
}
