//! Pins the exact transcript bits of the Theorem 2 DISJ protocol and the
//! batched UNION protocol.
//!
//! A batch's bit count is `1 + ⌈log₂ C(z, b)⌉` whatever subset index it
//! carries, so bit totals and rendered tables cannot catch a wrong rank.
//! These FNV-1a digests of the serialized boards can: they were recorded
//! with the downward Pascal-walk rank and must not move when the subset
//! codec is reimplemented.

use bci_protocols::{disj, union, workload};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a (64-bit).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(n, k, disj digest, union digest)` on the e19 grid.
const EXPECTED: [(usize, usize, u64, u64); 9] = [
    (256, 4, 0x77fc_85c4_4356_7c6d, 0xe61c_af93_243b_87d8),
    (256, 16, 0x2364_335e_b7f5_e242, 0xc3e3_5ca2_3f78_2aba),
    (256, 64, 0x8b8f_01c0_87ba_2603, 0x244e_df8f_f0e8_6e7b),
    (1024, 4, 0xa166_d468_1f4d_3e4a, 0x6617_aeb4_0e63_fee2),
    (1024, 16, 0x0f7c_1329_20e8_d768, 0xf21b_b225_4c30_5096),
    (1024, 64, 0x8bea_98d9_e99d_ab82, 0xaef0_4f3c_b6ef_7c12),
    (4096, 4, 0x09e6_8bc9_85e4_c4c5, 0xb4af_8837_bdbd_487c),
    (4096, 16, 0x806a_b00c_6a4b_e642, 0xf2d0_fdfd_71b5_84d0),
    (4096, 64, 0x076d_3851_f35f_2a3e, 0x1ae9_a8a7_4e5d_c41f),
];

#[test]
fn batched_boards_match_recorded_digests() {
    let mut actual = Vec::new();
    for &(n, k, _, _) in &EXPECTED {
        let mut rng = ChaCha8Rng::seed_from_u64((n * 1000 + k) as u64);
        let inputs = workload::planted_zero_cover(n, k, 0.0, &mut rng);
        let d = disj::batched::run(&inputs);
        assert!(d.output, "planted instances are disjoint");
        let u = union::batched::run(&inputs);
        actual.push((n, k, fnv1a(&d.board.to_bytes()), fnv1a(&u.board.to_bytes())));
    }
    assert_eq!(actual, EXPECTED, "board digests moved");
}
