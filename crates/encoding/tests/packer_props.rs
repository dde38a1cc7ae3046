//! Property tests (proptest) for the word-at-a-time LSB-first bit packer
//! behind `Wire for BitVec` and blackboard transcripts: for every length
//! from 0 to 300 bits it must write exactly the bytes of a bit-by-bit
//! reference packer, read them back losslessly, and refuse any byte
//! string with a padding bit set.

use bci_encoding::bitio::BitVec;
use bci_encoding::wire::{Wire, WireError};
use proptest::prelude::*;

/// Bit `i` goes to byte `i / 8` at position `i % 8`; a partial last byte
/// is zero-padded.
fn reference_pack(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &bit) in bits.iter().enumerate() {
        if bit {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

proptest! {
    #[test]
    fn packer_matches_the_bit_by_bit_reference(
        bits in prop::collection::vec(any::<bool>(), 0..=300)
    ) {
        let v = BitVec::from_bools(&bits);
        let expected = reference_pack(&bits);
        // The packer appends: bytes already in the buffer stay put.
        let mut packed = vec![0xEE];
        v.write_packed(&mut packed);
        prop_assert_eq!(packed[0], 0xEE);
        prop_assert_eq!(&packed[1..], &expected[..]);
        prop_assert_eq!(BitVec::from_packed(&packed[1..], bits.len()), Some(v.clone()));

        let mut wire = (bits.len() as u32).to_wire_bytes();
        wire.extend_from_slice(&expected);
        prop_assert_eq!(v.to_wire_bytes(), wire.clone());
        prop_assert_eq!(BitVec::from_wire_bytes(&wire), Ok(v));
    }

    #[test]
    fn set_padding_bits_are_rejected(
        bits in prop::collection::vec(any::<bool>(), 1..=300),
        pad in 0u32..8,
    ) {
        let used = bits.len() % 8;
        prop_assume!(used != 0);
        let mut bytes = reference_pack(&bits);
        // Set one padding bit past the last used one.
        let bit = used as u32 + pad % (8 - used as u32);
        *bytes.last_mut().unwrap() |= 1 << bit;
        prop_assert_eq!(BitVec::from_packed(&bytes, bits.len()), None);
        let mut wire = (bits.len() as u32).to_wire_bytes();
        wire.extend_from_slice(&bytes);
        prop_assert_eq!(
            BitVec::from_wire_bytes(&wire),
            Err(WireError::Invalid("bitvec padding"))
        );
    }

    #[test]
    fn wrong_byte_counts_are_rejected(
        bits in prop::collection::vec(any::<bool>(), 0..=300)
    ) {
        let mut bytes = reference_pack(&bits);
        bytes.push(0);
        prop_assert_eq!(BitVec::from_packed(&bytes, bits.len()), None);
        bytes.truncate(bytes.len().saturating_sub(2));
        if !bits.is_empty() {
            prop_assert_eq!(BitVec::from_packed(&bytes, bits.len()), None);
        }
    }
}
