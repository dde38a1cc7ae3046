//! Smoke tests for every experiment driver: run each with reduced
//! parameters and sanity-check the headline claim, so the code paths
//! behind `bci experiments run` are exercised by `cargo test`.

use broadcast_ic::core::experiments::*;

#[test]
fn e1_runs_and_batched_wins_at_low_k() {
    let rows = e1_disj_upper::run(&[(512, 4)], 1);
    assert!(rows[0].ratio > 1.5);
    assert!(!e1_disj_upper::render(&rows).is_empty());
}

#[test]
fn e2_runs_and_scales_logarithmically() {
    let rows = e2_and_cic::run(&[8, 64]);
    assert!(rows[1].cic > rows[0].cic);
    assert!(rows[1].cic < 2.0 * rows[0].cic, "log, not linear");
    assert!(!e2_and_cic::render(&rows).is_empty());
}

#[test]
fn e3_runs_and_points() {
    let rows = e3_pointing::run(&[(16, 1e-3)]);
    assert!(rows[0].report.pointing_mass > 0.95);
    assert!(!e3_pointing::render(&rows).is_empty());
}

#[test]
fn e4_runs_and_crosses_at_threshold() {
    let params = e4_omega_k::Params {
        k: 32,
        trials: 2000,
        ..Default::default()
    };
    let rows = e4_omega_k::run(&params, &[0.5, 1.0]);
    assert!(rows[0].exact > params.eps);
    assert_eq!(rows[1].exact, 0.0);
    assert!(!e4_omega_k::render(&params, &rows).is_empty());
}

#[test]
fn e5_runs_and_gap_grows() {
    let rows = e5_gap::run(&[64, 1024]);
    assert!(rows[1].report.ratio() > 5.0 * rows[0].report.ratio());
    assert!(!e5_gap::render(&rows).is_empty());
}

#[test]
fn e6_runs_with_full_agreement() {
    let rows = e6_sampling::run(&[(64, 0.5)], 50, 2);
    assert!(rows[0].agreement > 0.99);
    assert!(rows[0].mean_bits <= rows[0].bound + 1.0);
    assert!(!e6_sampling::render(&rows).is_empty());
}

#[test]
fn e7_runs_and_amortizes() {
    let params = e7_amortized::Params {
        k: 8,
        trials: 8,
        seed: 1,
    };
    let rows = e7_amortized::run(&params, &[1, 64]);
    assert!(rows[1].overhead < rows[0].overhead);
    assert!(!e7_amortized::render(&params, &rows).is_empty());
}

#[test]
fn e8_runs_with_exact_additivity() {
    let rows = e8_direct_sum::run();
    assert!(rows.iter().all(|r| r.rel_error() < 1e-9));
    assert!(!e8_direct_sum::render(&rows).is_empty());
}

#[test]
fn e9_runs_and_bounds_hold() {
    let rows = e9_divergence::run(&[(256, 0.5)]);
    assert!(rows[0].exact >= rows[0].bound_mid - 1e-9);
    assert!(!e9_divergence::render(&rows).is_empty());
}

#[test]
fn e10_runs_and_batching_helps() {
    let rows = e10_union::run(&[(1024, 4)], 3);
    assert!(rows[0].ratio > 1.5);
    assert!(!e10_union::render(&rows).is_empty());
}

#[test]
fn e11_runs_with_product_equality() {
    let rows = e11_internal::run(&[0.0, 0.25]);
    assert!(rows[0].gap().abs() < 1e-9);
    assert!(rows[1].gap() > 0.5);
    assert!(!e11_internal::render(&rows).is_empty());
}

#[test]
fn e12_runs_linear_in_s() {
    let rows = e12_sparse::run(&[(1 << 14, 32), (1 << 14, 128)], 10, 4);
    let growth = rows[1].hw_bits / rows[0].hw_bits;
    assert!((2.0..8.0).contains(&growth), "growth {growth}");
    assert!(!e12_sparse::render(&rows).is_empty());
}

#[test]
fn e14_runs_and_shows_the_round_tax() {
    let rows = e14_one_shot::run(&[8, 32], 12, 5);
    assert!(rows[1].one_shot_bits > 2.5 * rows[0].one_shot_bits);
    assert!(!e14_one_shot::render(&rows).is_empty());
}

#[test]
fn e13_runs_in_the_shannon_window() {
    let rows = e13_huffman::run(&[16, 64]);
    for r in &rows {
        assert!(r.huffman >= r.entropy - 1e-9 && r.huffman < r.entropy + 1.0);
    }
    assert!(!e13_huffman::render(&rows).is_empty());
}

#[test]
fn e16_profile_sums_and_decays() {
    let p = e16_profile::run(32);
    let total: f64 = p.per_round.iter().sum();
    assert!((total - p.total).abs() < 1e-12);
    assert!(p.per_round[0] > *p.per_round.last().unwrap());
    assert!(!e16_profile::render(&p, 5).is_empty());
}

#[test]
fn e17_tradeoff_is_monotone() {
    let rows = e17_error_tradeoff::run(10, &[0.0, 0.1, 0.5]);
    assert!(rows[0].cic > rows[1].cic && rows[1].cic > rows[2].cic);
    assert!(rows[2].error > rows[0].error);
    assert!(!e17_error_tradeoff::render(10, &rows).is_empty());
}

#[test]
fn e15_runs_and_block_coding_beats_huffman_on_sub_bit_sources() {
    let params = e15_block_coding::Params {
        trials: 10,
        ..Default::default()
    };
    let rows = e15_block_coding::run(&params, &[1, 512]);
    assert!(rows[1].arithmetic_per_symbol < rows[1].huffman_per_symbol);
    assert!(rows[1].arithmetic_per_symbol < rows[0].arithmetic_per_symbol);
    assert!(!e15_block_coding::render(&params, &rows).is_empty());
}
