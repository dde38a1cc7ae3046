//! Criterion bench: the encoding substrate — Elias codes, exact binomials,
//! and subset rank/unrank.

use bci_encoding::binomial::binomial;
use bci_encoding::bitio::{BitReader, BitWriter};
use bci_encoding::combinadic::SubsetCodec;
use bci_encoding::elias;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_elias(c: &mut Criterion) {
    c.bench_function("elias_gamma_roundtrip_1k_values", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for v in 1..=1000u64 {
                elias::gamma_encode(v, &mut w);
            }
            let bits = w.into_bits();
            let mut r = BitReader::new(&bits);
            let mut sum = 0u64;
            while let Some(v) = elias::gamma_decode(&mut r) {
                sum += v;
            }
            black_box(sum)
        })
    });
}

fn bench_binomial(c: &mut Criterion) {
    let mut group = c.benchmark_group("binomial_exact");
    for &(n, k) in &[(1000u64, 50u64), (10000, 100), (4095, 1024)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("C({n},{k})")),
            &(n, k),
            |b, &(n, k)| b.iter(|| black_box(binomial(n, k).bit_length())),
        );
    }
    group.finish();
}

fn bench_unrank(c: &mut Criterion) {
    let mut group = c.benchmark_group("subset_unrank");
    group.sample_size(20);
    let codec = SubsetCodec::new(2048, 128);
    let subset: Vec<u64> = (0..128u64).map(|i| i * 16 + 3).collect();
    let rank = codec.rank(&subset);
    group.bench_function("z2048_b128", |b| {
        b.iter(|| black_box(codec.unrank(&rank).len()))
    });
    group.finish();
}

/// Rank at the Theorem 2 batch shapes of e19's largest point (z = 4096,
/// b = z/k for k = 4, 16, 64).
fn bench_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("subset_rank");
    group.sample_size(20);
    for b in [1024u64, 256, 64] {
        let codec = SubsetCodec::new(4096, b);
        let subset: Vec<u64> = (0..b).map(|i| i * (4096 / b) + 1).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("z4096_b{b}")),
            &subset,
            |bench, subset| bench.iter(|| black_box(codec.rank(subset).bit_length())),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_elias,
    bench_binomial,
    bench_unrank,
    bench_rank
);
criterion_main!(benches);
