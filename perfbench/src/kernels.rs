//! The L0 kernel ledger: each fast numeric lane timed beside the
//! reference lane it replaced, on the inputs of the suite's critical
//! path, with the two lanes' results checked against each other.

use bci_blackboard::runner::derive_trial_seed;
use bci_compression::amortized::compress_nfold_modeled;
use bci_compression::sampling::{exchange, exchange_many, SamplerConfig};
use bci_core::experiments::e7_amortized::Params;
use bci_encoding::bitset::{BitSet, SparseBitSet};
use bci_info::dist::Dist;
use bci_lowerbound::hard_dist::HardDist;
use bci_protocols::{and_trees::sequential_and, sparse};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::measure::{median_time, Metrics};

/// Repetitions per lane; the median is reported.
const REPS: usize = 5;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Times every pair and records `kernels.<pair>.<lane>_ms`. Returns the
/// names of pairs whose lanes disagreed.
pub fn ledger(seed: u64, m: &mut Metrics) -> Vec<String> {
    let mut bad = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // Exact CIC of the hard distribution over all k prior slices:
    // per-slice evaluation vs the one-pass batched lane (E2).
    for k in [128usize, 512] {
        let tree = sequential_and(k);
        let mu = HardDist::new(k);
        let slices: Vec<Vec<f64>> = (0..k).map(|z| mu.priors_given_z(z)).collect();
        let (dense_s, dense) = median_time(REPS, || {
            slices
                .iter()
                .map(|p| tree.information_cost_product(p))
                .sum::<f64>()
        });
        let (batched_s, batched) = median_time(REPS, || {
            tree.information_cost_product_many(&slices)
                .iter()
                .sum::<f64>()
        });
        m.put(
            format!("kernels.cic_hard.dense_k{k}_ms"),
            dense_s * 1e3,
            "ms",
        );
        m.put(
            format!("kernels.cic_hard.batched_k{k}_ms"),
            batched_s * 1e3,
            "ms",
        );
        if !close(dense, batched) {
            bad.push(format!("cic_hard k={k}: {dense} vs {batched}"));
        }
    }

    // Lemma-7 sampling, 200 runs: per-seed `exchange` vs `exchange_many`
    // with its shared smoothed-ν table (E6).
    let universe = 4096;
    let mut probs = vec![(1.0 - 0.9) / (universe as f64 - 1.0); universe];
    probs[rng.random_range(0..universe)] = 0.9;
    let eta = Dist::new(probs).expect("normalized");
    let nu = Dist::uniform(universe);
    let config = SamplerConfig::default();
    let seeds: Vec<u64> = (0..200).map(|i| derive_trial_seed(seed, i)).collect();
    let (single_s, single) = median_time(REPS, || {
        seeds
            .iter()
            .map(|&s| exchange(&eta, &nu, &config, s))
            .collect::<Vec<_>>()
    });
    let (many_s, many) = median_time(REPS, || exchange_many(&eta, &nu, &config, &seeds));
    m.put("kernels.lemma7.single_200_ms", single_s * 1e3, "ms");
    m.put("kernels.lemma7.batched_200_ms", many_s * 1e3, "ms");
    let same = single.len() == many.len()
        && single.iter().zip(&many).all(|(a, b)| {
            (a.sender_sample, a.receiver_sample, a.bits, a.s)
                == (b.sender_sample, b.receiver_sample, b.bits, b.s)
        });
    if !same {
        bad.push("lemma7: batched exchanges differ from per-seed ones".into());
    }

    // Transcript distribution of sequential AND at k = 2048: dense
    // all-leaves evaluation vs the sparse walk (E13).
    let k = 2048;
    let tree = sequential_and(k);
    let mut x = vec![true; k];
    x[rng.random_range(0..k)] = false;
    let (dense_s, dense) = median_time(REPS, || tree.transcript_dist_given_input(&x));
    let (sparse_s, support) = median_time(REPS, || tree.transcript_support_given_input(&x));
    m.put(
        "kernels.tree_transcript.dense_k2048_ms",
        dense_s * 1e3,
        "ms",
    );
    m.put(
        "kernels.tree_transcript.sparse_k2048_ms",
        sparse_s * 1e3,
        "ms",
    );
    let nonzero = dense.iter().filter(|&&p| p > 0.0).count();
    if nonzero != support.len() || !support.iter().all(|&(leaf, p)| close(dense[leaf], p)) {
        bad.push("tree_transcript: sparse support differs from dense distribution".into());
    }

    // One Håstad–Wigderson run at n = 2^24, s = 128: dense BitSet lane
    // vs sparse lane (E12's heaviest point), on disjoint sets.
    let (n, s) = (1usize << 24, 128usize);
    let mut xs = SparseBitSet::new(n);
    let mut ys = SparseBitSet::new(n);
    while xs.len() < s {
        xs.insert(rng.random_range(0..n));
    }
    while ys.len() < s {
        let e = rng.random_range(0..n);
        if !xs.contains(e) {
            ys.insert(e);
        }
    }
    let xd = BitSet::from_elements(n, xs.iter());
    let yd = BitSet::from_elements(n, ys.iter());
    let hw_seed = derive_trial_seed(seed, 200);
    let (dense_s, dense) = median_time(REPS, || {
        sparse::run(&xd, &yd, &mut ChaCha8Rng::seed_from_u64(hw_seed))
    });
    let (sparse_s, lean) = median_time(REPS, || {
        sparse::run_sparse(&xs, &ys, &mut ChaCha8Rng::seed_from_u64(hw_seed))
    });
    m.put("kernels.hw.dense_n2e24_s128_ms", dense_s * 1e3, "ms");
    m.put("kernels.hw.sparse_n2e24_s128_ms", sparse_s * 1e3, "ms");
    if !(dense.output && lean.output) {
        bad.push("hw: a lane missed that the sets are disjoint".into());
    }

    // Theorem-3 amortized compression, modeled lane at n = 2^30 (E7).
    let params = Params::default();
    let tree = sequential_and(params.k);
    let priors = vec![1.0 - 1.0 / params.k as f64; params.k];
    let (modeled_s, report) = median_time(REPS, || {
        compress_nfold_modeled(
            &tree,
            &priors,
            1 << 30,
            params.trials,
            &mut ChaCha8Rng::seed_from_u64(derive_trial_seed(seed, 201)),
        )
    });
    m.put(
        "kernels.compress_nfold_modeled_n2e30_ms",
        modeled_s * 1e3,
        "ms",
    );
    // Theorem 3: at this many copies the per-copy cost has converged to
    // the information cost.
    let (per_copy, ic) = (report.per_copy_compressed(), report.ic_per_copy);
    let converged = (per_copy - ic).abs() <= 1e-3 * ic;
    if !converged {
        bad.push(format!(
            "compress_nfold_modeled: {per_copy} bits/copy, IC {ic}"
        ));
    }
    bad
}
