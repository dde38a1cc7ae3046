//! Property: a [`JobPool`] run is indistinguishable from the serial loop.
//!
//! For any worker count, batch size, queue capacity, grid size, and master
//! seed — and even with an artificially slowed job scrambling the
//! completion order — `pool.run(points, seed, job)` must return exactly
//! `points.iter().enumerate().map(|(i, p)| job(derive_trial_seed(seed, i), p))`
//! in point order. This is the contract that lets `bci experiments run
//! --workers N` promise byte-identical output for every `N`.

use std::time::Duration;

use broadcast_ic::blackboard::runner::derive_trial_seed;
use broadcast_ic::fabric::pool::{JobPool, PoolConfig};
use proptest::prelude::*;

fn pool(workers: usize, batch_size: usize, queue_capacity: usize) -> JobPool {
    JobPool::new(PoolConfig {
        workers,
        batch_size,
        queue_capacity,
        ..PoolConfig::default()
    })
}

/// The reference: what a serial sweep computes for point `i`.
fn serial<T>(points: &[u64], seed: u64, job: impl Fn(u64, &u64) -> T) -> Vec<T> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| job(derive_trial_seed(seed, i as u64), p))
        .collect()
}

/// A job whose output depends on both the derived seed and the point, so
/// any mix-up of seed↔point assignment or output order changes the result.
fn mixing_job(seed: u64, &point: &u64) -> (u64, u64) {
    (
        point,
        seed.rotate_left(17) ^ point.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

proptest! {
    #[test]
    fn pool_output_equals_serial_for_any_shape(
        points in prop::collection::vec(any::<u64>(), 0..40),
        workers in 1usize..9,
        batch_size in 1usize..8,
        queue_capacity in 1usize..5,
        seed in any::<u64>(),
    ) {
        let run = pool(workers, batch_size, queue_capacity)
            .run(&points, seed, &mixing_job);
        prop_assert_eq!(run.outputs, serial(&points, seed, mixing_job));
    }

    #[test]
    fn a_slow_job_cannot_reorder_outputs(
        points in prop::collection::vec(any::<u64>(), 1..16),
        workers in 2usize..6,
        slow_index in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
        // One job sleeps long enough that under FIFO result collection the
        // faster jobs would overtake it; outputs must still land in point
        // order with their own seeds.
        let slow = slow_index.index(points.len());
        let job = |s: u64, p: &u64| {
            if *p == points[slow] {
                std::thread::sleep(Duration::from_millis(3));
            }
            mixing_job(s, p)
        };
        let run = pool(workers, 1, 2).run(&points, seed, &job);
        prop_assert_eq!(run.outputs, serial(&points, seed, job));
    }
}

#[test]
fn worker_count_never_changes_outputs() {
    let points: Vec<u64> = (0..33).map(|i| i * 31 + 7).collect();
    let reference = serial(&points, 0xDE7E_0211, mixing_job);
    for workers in [1, 2, 3, 4, 8] {
        let run = pool(workers, 4, 2).run(&points, 0xDE7E_0211, &mixing_job);
        assert_eq!(run.outputs, reference, "workers = {workers}");
    }
}
