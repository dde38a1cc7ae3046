//! Fixed-bucket histograms.
//!
//! A [`Histogram`] counts `u64` samples into a fixed ladder of bucket upper
//! bounds plus one overflow bucket. Fixed bounds make histograms *mergeable*
//! — two histograms over the same ladder add bucket-wise, which is how
//! per-worker shards and multi-run aggregations combine without keeping raw
//! samples — at the cost of percentile resolution limited to bucket width.
//! Exact `min`/`max`/`sum` are tracked alongside, so the extremes stay
//! precise even when the distribution saturates the overflow bucket.

use crate::json::{obj, Json};

/// Bucket ladder for microsecond latencies: ~3 buckets per decade, 1µs–60s.
pub const LATENCY_US_BOUNDS: &[u64] = &[
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000, 30_000_000, 60_000_000,
];

/// Bucket ladder for multiplexed-coordinator turn latencies
/// (`mux.turn_latency_us`): finer than [`LATENCY_US_BOUNDS`] everywhere
/// below ~1s. Loopback turn service times live in the 10µs–10ms band,
/// but a loaded daemon queues turns into the 10–100ms band — the ladder
/// keeps sub-millisecond-scale resolution through that whole region
/// (≤25% bucket width up to 1s) while still reaching 60s so saturated
/// daemons don't dump everything in overflow.
pub const TURN_LATENCY_US_BOUNDS: &[u64] = &[
    1, 2, 5, 10, 15, 20, 30, 50, 75, 100, 150, 200, 300, 400, 500, 650, 800, 1_000, 1_250, 1_500,
    2_000, 2_500, 3_000, 4_000, 5_000, 6_500, 8_000, 10_000, 12_500, 15_000, 17_500, 20_000,
    25_000, 30_000, 35_000, 40_000, 50_000, 65_000, 80_000, 100_000, 125_000, 150_000, 200_000,
    250_000, 300_000, 400_000, 500_000, 650_000, 800_000, 1_000_000, 2_000_000, 5_000_000,
    10_000_000, 30_000_000, 60_000_000,
];

/// Bucket ladder for queue depths (batches waiting).
pub const QUEUE_DEPTH_BOUNDS: &[u64] = &[0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 256];

/// Bucket ladder for buffered byte counts (outbound write queues):
/// powers of four from 64 B through 64 MiB.
pub const QUEUE_BYTES_BOUNDS: &[u64] = &[
    0, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216, 67_108_864,
];

/// Bucket ladder for bit counts (powers of two up to 2³⁰).
pub const BITS_BOUNDS: &[u64] = &[
    0,
    1,
    2,
    4,
    8,
    16,
    32,
    64,
    128,
    256,
    512,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
];

/// Bucket ladder for rejection-sampling attempt counts.
pub const ATTEMPTS_BOUNDS: &[u64] = &[
    1,
    2,
    4,
    8,
    16,
    32,
    64,
    128,
    256,
    512,
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
];

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` counts samples `v` with `v <= bounds[i]` (and `v >
/// bounds[i-1]` for `i > 0`); one extra overflow bucket counts samples
/// beyond the last bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` counts; the last is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram over `bounds` (must be non-empty and
    /// strictly increasing).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// An empty histogram over [`LATENCY_US_BOUNDS`].
    pub fn latency_us() -> Self {
        Histogram::new(LATENCY_US_BOUNDS)
    }

    /// An empty histogram over [`QUEUE_DEPTH_BOUNDS`].
    pub fn queue_depth() -> Self {
        Histogram::new(QUEUE_DEPTH_BOUNDS)
    }

    /// An empty histogram over [`BITS_BOUNDS`].
    pub fn bits() -> Self {
        Histogram::new(BITS_BOUNDS)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .partition_point(|&b| b < value)
            .min(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples in the overflow bucket (beyond the last bound).
    pub fn overflow(&self) -> u64 {
        *self.counts.last().expect("overflow bucket")
    }

    /// The bucket bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries, overflow last).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Nearest-rank `p`-th percentile with within-bucket linear
    /// interpolation. The containing bucket's value range is narrowed to
    /// `[max(prev_bound + 1, min), min(bound, max)]`; when that range
    /// collapses to a single value (single-value buckets, or extremes
    /// pinning the bucket) the result is exact, otherwise the rank's
    /// fractional position inside the bucket interpolates the range. The
    /// overflow bucket reports the exact max. Returns 0 for an empty
    /// histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && before + c >= rank {
                let Some(&bound) = self.bounds.get(i) else {
                    return self.max; // overflow bucket: exact max
                };
                let floor = if i == 0 { 0 } else { self.bounds[i - 1] + 1 };
                let lo = floor.max(self.min);
                let hi = bound.min(self.max);
                if hi <= lo {
                    return hi;
                }
                let frac = (rank - before) as f64 / c as f64;
                return lo + (frac * (hi - lo) as f64).round() as u64;
            }
            before += c;
        }
        self.max
    }

    /// Adds `other`'s buckets into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the bucket ladders differ — merging histograms with
    /// different resolutions would silently corrupt percentiles.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "bucket ladders must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Reassembles a histogram from transported parts (wire decode, stored
    /// snapshots). `counts` must hold `bounds.len() + 1` entries (overflow
    /// last) summing to `count`; an empty histogram normalizes `min`/`max`
    /// back to their sentinel values so round-trips compare equal.
    pub fn from_parts(
        bounds: Vec<u64>,
        counts: Vec<u64>,
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Result<Self, String> {
        if bounds.is_empty() {
            return Err("histogram needs at least one bucket".into());
        }
        if !bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err("bucket bounds must be strictly increasing".into());
        }
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "expected {} bucket counts (incl. overflow), got {}",
                bounds.len() + 1,
                counts.len()
            ));
        }
        let total = counts
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c))
            .ok_or_else(|| "bucket counts overflow u64".to_owned())?;
        if total != count {
            return Err(format!("bucket counts sum to {total}, header says {count}"));
        }
        if count == 0 {
            return Ok(Histogram {
                bounds,
                counts,
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            });
        }
        if min > max {
            return Err(format!("min {min} exceeds max {max}"));
        }
        Ok(Histogram {
            bounds,
            counts,
            count,
            sum,
            min,
            max,
        })
    }

    /// The samples recorded since `prev` was captured, assuming `prev` is
    /// an earlier snapshot of this same histogram (counts only grow).
    /// Powers delta-aware live views (`bci top`): successive scrapes
    /// subtract to a per-window histogram. Window extremes are not
    /// recoverable from cumulative state, so the cumulative `min`/`max`
    /// are carried over — they only widen the percentile clamp.
    ///
    /// # Panics
    ///
    /// Panics if the bucket ladders differ.
    pub fn delta_since(&self, prev: &Histogram) -> Histogram {
        assert_eq!(self.bounds, prev.bounds, "bucket ladders must match");
        let counts: Vec<u64> = self
            .counts
            .iter()
            .zip(&prev.counts)
            .map(|(&a, &b)| a.saturating_sub(b))
            .collect();
        let count = self.count.saturating_sub(prev.count);
        Histogram {
            bounds: self.bounds.clone(),
            counts,
            count,
            sum: self.sum.saturating_sub(prev.sum),
            min: if count == 0 { u64::MAX } else { self.min },
            max: if count == 0 { 0 } else { self.max },
        }
    }

    /// Serializes as `{count, sum, min, max, buckets: [{le, n}...],
    /// overflow}` with zero-count buckets elided.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .bounds
            .iter()
            .zip(&self.counts)
            .filter(|&(_, &c)| c > 0)
            .map(|(&le, &c)| obj([("le", Json::UInt(le)), ("n", Json::UInt(c))]))
            .collect();
        obj([
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("min", Json::UInt(self.min())),
            ("max", Json::UInt(self.max)),
            ("buckets", Json::Arr(buckets)),
            ("overflow", Json::UInt(self.overflow())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new(&[10, 20]);
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn single_sample_lands_in_its_bucket() {
        let mut h = Histogram::new(&[10, 20, 30]);
        h.record(15);
        assert_eq!(h.count(), 1);
        assert_eq!(h.counts(), &[0, 1, 0, 0]);
        assert_eq!(h.min(), 15);
        assert_eq!(h.max(), 15);
        // Every percentile of one sample is that sample (clamped by max,
        // not the bucket bound 20).
        assert_eq!(h.percentile(1.0), 15);
        assert_eq!(h.percentile(50.0), 15);
        assert_eq!(h.percentile(100.0), 15);
    }

    #[test]
    fn boundary_values_are_inclusive_on_the_upper_bound() {
        let mut h = Histogram::new(&[10, 20]);
        h.record(10); // bucket 0: v <= 10
        h.record(11); // bucket 1
        h.record(20); // bucket 1
        assert_eq!(h.counts(), &[1, 2, 0]);
    }

    #[test]
    fn overflow_bucket_catches_the_tail_and_reports_exact_max() {
        let mut h = Histogram::new(&[10, 20]);
        h.record(5);
        h.record(1_000_000);
        h.record(2_000_000);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts(), &[1, 0, 2]);
        // p100 resolves to the exact max even though it sits past the ladder.
        assert_eq!(h.percentile(100.0), 2_000_000);
        assert_eq!(h.max(), 2_000_000);
        // Low percentiles resolve to the containing bucket's upper bound.
        assert_eq!(h.percentile(33.0), 10);
    }

    #[test]
    fn percentiles_follow_nearest_rank() {
        let mut h = Histogram::new(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        for v in 1..=100u64 {
            h.record(v / 10); // 0..=10, ~10 of each
        }
        assert_eq!(h.count(), 100);
        // Values: 9 zeros, ten each of 1..=9, one 10. Rank 50 falls in the
        // `<= 5` bucket (cumulative 49 at `<= 4`, 59 at `<= 5`).
        assert_eq!(h.percentile(50.0), 5);
        assert_eq!(h.percentile(95.0), 9);
        assert!(h.percentile(99.0) >= 9);
    }

    #[test]
    fn merge_adds_bucketwise_and_tracks_extremes() {
        let mut a = Histogram::new(&[10, 20]);
        let mut b = Histogram::new(&[10, 20]);
        a.record(5);
        a.record(15);
        b.record(15);
        b.record(99);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.counts(), &[1, 2, 1]);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 99);
        assert_eq!(a.sum(), 134);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::latency_us();
        a.record(42);
        let before = a.clone();
        a.merge(&Histogram::latency_us());
        assert_eq!(a, before);
    }

    #[test]
    #[should_panic(expected = "ladders must match")]
    fn merge_rejects_mismatched_ladders() {
        let mut a = Histogram::new(&[10]);
        a.merge(&Histogram::new(&[20]));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    fn interpolation_recovers_a_uniform_distribution() {
        let mut h = Histogram::new(&[100, 200, 300, 400]);
        for v in 1..=400u64 {
            h.record(v);
        }
        // 100 samples per bucket, uniformly spread: interpolated
        // percentiles land on (or within rounding of) the exact ranks.
        assert_eq!(h.percentile(25.0), 100);
        assert_eq!(h.percentile(50.0), 200);
        assert_eq!(h.percentile(95.0), 380);
        assert_eq!(h.percentile(99.0), 396);
        assert_eq!(h.percentile(100.0), 400);
    }

    #[test]
    fn interpolation_stays_inside_the_containing_bucket() {
        let mut h = Histogram::new(&[100, 200, 300]);
        for _ in 0..10 {
            h.record(150);
        }
        for _ in 0..10 {
            h.record(250);
        }
        for p in [10.0, 25.0, 50.0] {
            let v = h.percentile(p);
            assert!(
                (101..=200).contains(&v),
                "p{p} = {v} escaped the (100, 200] bucket"
            );
        }
        for p in [60.0, 75.0, 99.0] {
            let v = h.percentile(p);
            assert!(
                (201..=250).contains(&v),
                "p{p} = {v} escaped the (200, max] range"
            );
        }
    }

    #[test]
    fn single_value_buckets_stay_exact_under_interpolation() {
        // Unit-width buckets (queue depths): every bucket holds exactly one
        // representable value, so interpolation must return it exactly.
        let mut h = Histogram::new(&[0, 1, 2, 3]);
        for v in [0, 1, 1, 2] {
            h.record(v);
        }
        assert_eq!(h.percentile(25.0), 0);
        assert_eq!(h.percentile(50.0), 1);
        assert_eq!(h.percentile(75.0), 1);
        assert_eq!(h.percentile(100.0), 2);
    }

    #[test]
    fn extremes_clamp_the_interpolation_range() {
        // All mass in one wide bucket but min == max: exact answer.
        let mut h = Histogram::new(&[1_000, 1_000_000]);
        for _ in 0..50 {
            h.record(5_000);
        }
        for p in [1.0, 50.0, 99.9] {
            assert_eq!(h.percentile(p), 5_000);
        }
        // min/max narrow a wide bucket from both sides.
        let mut h = Histogram::new(&[1_000, 1_000_000]);
        h.record(2_000);
        h.record(400_000);
        assert!(h.percentile(50.0) >= 2_000);
        assert!(h.percentile(99.0) <= 400_000);
    }

    #[test]
    fn turn_latency_ladder_is_fine_through_one_second() {
        let bounds = TURN_LATENCY_US_BOUNDS;
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        // No bucket below 1s may grow more than 50% over its floor (2x at
        // the sub-100µs bottom, where absolute widths are tiny anyway) —
        // the old ladder's 10ms → 20ms → 50ms jumps made `bci load`
        // report p95 = p99 = 37653µs out of a single saturated bucket.
        for w in bounds.windows(2) {
            if w[1] > 1_000_000 {
                break;
            }
            if w[0] >= 100 {
                assert!(
                    (w[1] - w[0]) * 2 <= w[0],
                    "bucket ({}, {}] grows more than 50%",
                    w[0],
                    w[1]
                );
            } else if w[0] >= 10 {
                assert!(
                    w[1] <= w[0] * 2,
                    "bucket ({}, {}] more than doubles",
                    w[0],
                    w[1]
                );
            }
        }
        assert!(bounds.contains(&1_000_000), "ladder must mark the 1s line");
        assert_eq!(*bounds.last().expect("non-empty"), 60_000_000);
    }

    #[test]
    fn from_parts_round_trips_and_rejects_corruption() {
        let mut h = Histogram::new(&[10, 20]);
        h.record(5);
        h.record(15);
        h.record(99);
        let rebuilt = Histogram::from_parts(
            h.bounds().to_vec(),
            h.counts().to_vec(),
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
        )
        .expect("faithful parts reassemble");
        assert_eq!(rebuilt, h);

        let empty = Histogram::from_parts(vec![10, 20], vec![0, 0, 0], 0, 0, 0, 0)
            .expect("empty round-trip");
        assert_eq!(empty, Histogram::new(&[10, 20]));

        assert!(Histogram::from_parts(vec![], vec![0], 0, 0, 0, 0).is_err());
        assert!(Histogram::from_parts(vec![10, 10], vec![0, 0, 0], 0, 0, 0, 0).is_err());
        assert!(Histogram::from_parts(vec![10, 20], vec![0, 0], 0, 0, 0, 0).is_err());
        assert!(
            Histogram::from_parts(vec![10, 20], vec![1, 0, 0], 2, 5, 5, 5).is_err(),
            "count mismatch must be rejected"
        );
        assert!(
            Histogram::from_parts(vec![10, 20], vec![1, 0, 0], 1, 5, 9, 5).is_err(),
            "min > max must be rejected"
        );
    }

    #[test]
    fn delta_since_recovers_the_window() {
        let mut h = Histogram::new(&[10, 20]);
        h.record(5);
        let earlier = h.clone();
        h.record(15);
        h.record(15);
        let delta = h.delta_since(&earlier);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.counts(), &[0, 2, 0]);
        assert_eq!(delta.sum(), 30);
        let nothing = h.delta_since(&h.clone());
        assert!(nothing.is_empty());
        assert_eq!(nothing.min(), 0);
        assert_eq!(nothing.max(), 0);
    }

    #[test]
    fn json_shape_elides_empty_buckets() {
        let mut h = Histogram::new(&[10, 20]);
        h.record(25);
        h.record(3);
        let s = h.to_json().to_string();
        assert!(s.contains("\"count\":2"));
        assert!(s.contains("\"overflow\":1"));
        assert!(s.contains("{\"le\":10,\"n\":1}"));
        assert!(!s.contains("\"le\":20"), "empty bucket elided: {s}");
    }
}
