//! The [`Experiment`] trait and the registry of all 20 paper experiments.
//!
//! Every `e*_*` module implements [`Experiment`]: a stable id, a title and
//! context notes, a grid of opaque sweep [`Point`]s, a pure
//! [`run_point`](Experiment::run_point) producing one type-erased
//! [`PointResult`] per point, and a [`tables`](Experiment::tables) step
//! assembling the rendered tables from the results. Because points are
//! independent and each receives its own derived seed
//! ([`point_seed`]), a sweep can run on any executor — the serial loop in
//! [`run_grid`], the parallel `JobPool` in `bci-fabric`, or anything else —
//! and produce byte-identical tables as long as results are assembled in
//! point order.
//!
//! The seed scheme mirrors the fabric's session-seed derivation
//! (`derive_trial_seed`-style splitting): point `i` of an experiment with
//! master seed `s` computes with `point_seed(s, i)`, so no point's
//! randomness depends on how many points ran before it. Deterministic
//! experiments simply ignore the seed.
//!
//! Consumers: [`run_report`] is the one runner — it sweeps a grid on a
//! `JobPool` and assembles the [`Report`] that both `bci experiments run`
//! and `table_all` print — and the `bci experiments` CLI lists registry
//! entries directly.

use std::any::Any;
use std::ops::Range;

use bci_blackboard::runner::derive_trial_seed;
use bci_fabric::pool::{JobPool, PoolConfig};
use bci_telemetry::{Json, Recorder};

use crate::report::Report;
use crate::table::Table;

use super::*;

/// One opaque sweep point: its position in the experiment's grid plus a
/// human-readable label (`"n=1024, k=16"`). The experiment itself maps the
/// index back to its typed parameters, so executors never need to know
/// what a point means.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Point {
    index: usize,
    label: String,
}

impl Point {
    /// Creates a point at `index` with a display `label`.
    pub fn new(index: usize, label: impl Into<String>) -> Point {
        Point {
            index,
            label: label.into(),
        }
    }

    /// The point's position in the experiment's grid.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The human-readable parameter description.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// The type-erased output of one sweep point (one `Row`, a `Vec<Row>`, a
/// `Profile`, ... — whatever the experiment's typed driver produces).
#[derive(Debug)]
pub struct PointResult(Box<dyn Any + Send>);

impl PointResult {
    /// Wraps a typed per-point output.
    pub fn new<T: Any + Send>(value: T) -> PointResult {
        PointResult(Box::new(value))
    }

    /// Borrows the typed output.
    ///
    /// # Panics
    ///
    /// Panics if the result holds a different type — that is a bug in the
    /// experiment implementation (its `tables` must match its `run_point`),
    /// never a data-dependent condition.
    pub fn downcast<T: Any>(&self) -> &T {
        self.0
            .downcast_ref::<T>()
            .expect("PointResult type mismatch between run_point and tables")
    }
}

/// A rendered table with the preamble line printed above it (empty label =
/// no preamble).
pub type LabeledTable = (String, Table);

/// One paper experiment: identity, sweep grid, per-point computation, and
/// table assembly.
///
/// Implementations must keep `run_point` **pure per point**: the output may
/// depend only on the point and the seed handed in, never on which other
/// points ran or in what order. That property is what lets the suite run
/// grids in parallel with output byte-identical to the serial order.
pub trait Experiment: Sync {
    /// Short stable id (`"e1"` … `"e20"`), also the registry key.
    fn id(&self) -> &'static str;

    /// The headline printed above the tables.
    fn title(&self) -> &'static str;

    /// Free-form context lines printed under the title.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }

    /// Parameter metadata (seeds, trial counts, …), insertion-ordered.
    fn meta(&self) -> Vec<(&'static str, Json)> {
        Vec::new()
    }

    /// The experiment's canonical master seed (`EXPERIMENTS.md`
    /// parameters). Deterministic experiments keep the default.
    fn seed(&self) -> u64 {
        0
    }

    /// The default sweep grid as opaque points.
    fn grid(&self) -> Vec<Point>;

    /// Computes one point. `seed` is already split per point (see
    /// [`point_seed`]); deterministic experiments ignore it.
    fn run_point(&self, point: &Point, seed: u64) -> PointResult;

    /// Assembles the rendered tables from the per-point results, in point
    /// order.
    fn tables(&self, results: &[PointResult]) -> Vec<LabeledTable>;

    /// A variant of this experiment restricted to one communication
    /// model (`"blackboard"`, `"star"`, `"p2p"`), or `None` when the
    /// experiment has no lane for that model. Cross-model experiments
    /// (e19, e20) override this so `bci experiments run --topology`
    /// can emit a single model's columns; single-model experiments keep
    /// the default.
    fn with_topology(&self, _topology: &str) -> Option<Box<dyn Experiment>> {
        None
    }

    /// The trial-splitting hook: experiments whose points are Monte-Carlo
    /// aggregates over independent trials return `Some(self)` so executors
    /// can split a single heavy point across workers (see [`TrialSplit`]
    /// and [`run_grid_pooled`]). The default — indivisible points — is
    /// right for deterministic experiments and for randomized ones whose
    /// trials share one RNG stream.
    fn splitter(&self) -> Option<&dyn TrialSplit> {
        None
    }
}

/// Trial-level splitting for Monte-Carlo experiments: the contract that
/// lets one grid point's trials run on several workers without the output
/// depending on the split.
///
/// Implementations must derive trial `t`'s randomness from
/// `(point_seed, t)` **alone** (typically `derive_trial_seed(point_seed,
/// t)`, but any pure per-trial derivation qualifies) — never from which
/// other trials ran in the same chunk — and [`merge`](TrialSplit::merge)
/// must reassemble partial results in trial order into exactly the
/// [`PointResult`] that a whole-point
/// [`run_point`](Experiment::run_point) produces. Under that contract
/// every partition of `0..trials` yields byte-identical tables, so
/// executors are free to pick any fixed chunking (see
/// [`chunk`](TrialSplit::chunk)).
pub trait TrialSplit: Sync {
    /// The number of independent trials at `point`.
    fn trials(&self, point: &Point) -> u64;

    /// Trials per sub-job when an executor splits a point. Must be a fixed
    /// property of the experiment — **never derived from the worker
    /// count** — so the chunking, and therefore the merged output, is
    /// identical for every pool shape (CI byte-diffs `--workers 4` against
    /// `--workers 1`). The default [`TRIAL_CHUNK`] suits points whose
    /// per-trial work is substantial (e12's HW rounds); experiments with
    /// tens of thousands of cheap trials (e4) override it so per-job
    /// dispatch overhead doesn't swamp the trial work.
    fn chunk(&self) -> u64 {
        TRIAL_CHUNK
    }

    /// Runs trials `range` of `point`. Trial `t` computes under a seed
    /// derived from `(point_seed, t)` alone.
    fn run_range(&self, point: &Point, point_seed: u64, range: Range<u64>) -> PointResult;

    /// Merges [`run_range`](TrialSplit::run_range) partials — handed in
    /// covering `0..trials` in order, without gaps — into the point's
    /// result.
    fn merge(&self, point: &Point, parts: Vec<PointResult>) -> PointResult;
}

/// Default trials per sub-job for [`TrialSplit::chunk`]. Fixed — never
/// derived from the worker count — so the chunking, and therefore the
/// merged output, is identical for every pool shape (CI byte-diffs
/// `--workers 4` against `--workers 1`).
pub const TRIAL_CHUNK: u64 = 8;

/// The seed for point `index` of a sweep with master seed `master_seed` —
/// the same SplitMix-style derivation the fabric uses for session seeds,
/// so points are independent of execution order.
pub fn point_seed(master_seed: u64, index: usize) -> u64 {
    derive_trial_seed(master_seed, index as u64)
}

/// Runs an experiment's full default grid serially and assembles its
/// tables. The reference executor: any parallel executor must produce
/// byte-identical tables.
pub fn run_grid(exp: &dyn Experiment) -> Vec<LabeledTable> {
    let master = exp.seed();
    let results: Vec<PointResult> = exp
        .grid()
        .iter()
        .enumerate()
        .map(|(i, point)| exp.run_point(point, point_seed(master, i)))
        .collect();
    exp.tables(&results)
}

/// Runs an experiment's full default grid on a fabric [`JobPool`] and
/// returns the per-point results in point order.
///
/// Indivisible points run one job each; experiments exposing a
/// [`TrialSplit`] hook additionally split every point into
/// [`chunk`](TrialSplit::chunk)-trial sub-jobs, so the suite's largest
/// single point no longer bounds the achievable speedup. Either way the assembled results
/// are byte-identical to the serial [`run_grid`] for any worker count.
pub fn run_grid_pooled(exp: &dyn Experiment, pool: &JobPool, master_seed: u64) -> Vec<PointResult> {
    let grid = exp.grid();
    match exp.splitter() {
        None => {
            pool.run(&grid, master_seed, &|seed, point| {
                exp.run_point(point, seed)
            })
            .outputs
        }
        Some(split) => {
            let chunk_size = split.chunk();
            pool.run_chunked(
                &grid,
                master_seed,
                &|_, point| split.trials(point).div_ceil(chunk_size).max(1) as usize,
                &|point_seed, point, chunk| {
                    let trials = split.trials(point);
                    let lo = chunk as u64 * chunk_size;
                    let hi = (lo + chunk_size).min(trials);
                    split.run_range(point, point_seed, lo..hi)
                },
                &|_, point, parts| split.merge(point, parts),
            )
            .outputs
        }
    }
}

/// Builds the report for `exp`: runs its default grid under master `seed`
/// on a `workers`-wide [`JobPool`] and assembles the title, notes, meta and
/// tables. The one experiment runner — `bci experiments run` and
/// `table_all` both call it.
///
/// Point `i` computes under `point_seed(seed, i)`, and [`TrialSplit`]
/// experiments split each point into fixed-size trial chunks, so the
/// report — text and JSON — is byte-identical for any worker count,
/// including the serial `workers = 1`.
pub fn run_report(exp: &dyn Experiment, workers: usize, seed: u64) -> Report {
    let pool = JobPool::new(PoolConfig {
        workers,
        // Grid points (and trial chunks) are few and individually heavy;
        // schedule one per queue entry so a slow point never strands cheap
        // ones behind it.
        batch_size: 1,
        queue_capacity: 8,
        metric_prefix: "experiments",
        job_spans: true,
        recorder: Recorder::disabled(),
    });
    let results = run_grid_pooled(exp, &pool, seed);
    assemble(exp, &exp.tables(&results))
}

/// An experiment's identity plus its rendered tables as a [`Report`].
fn assemble(exp: &dyn Experiment, tables: &[LabeledTable]) -> Report {
    let mut report = Report::new(exp.id(), exp.title());
    report.notes = exp.notes();
    for (key, value) in exp.meta() {
        report = report.meta(key, value);
    }
    for (label, table) in tables {
        report.push_table(label.clone(), table);
    }
    report
}

/// Every experiment, in `EXPERIMENTS.md` order.
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 20] = [
        &e1_disj_upper::E1,
        &e2_and_cic::E2,
        &e3_pointing::E3,
        &e4_omega_k::E4,
        &e5_gap::E5,
        &e6_sampling::E6,
        &e7_amortized::E7,
        &e8_direct_sum::E8,
        &e9_divergence::E9,
        &e10_union::E10,
        &e11_internal::E11,
        &e12_sparse::E12,
        &e13_huffman::E13,
        &e14_one_shot::E14,
        &e15_block_coding::E15,
        &e16_profile::E16,
        &e17_error_tradeoff::E17,
        &e18_promise::E18,
        &e19_topology::E19::ALL,
        &e20_nih_and::E20::ALL,
    ];
    &REGISTRY
}

/// Looks an experiment up by id (`"e7"`).
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_in_experiments_order() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        let expected: Vec<String> = (1..=20).map(|i| format!("e{i}")).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn find_resolves_every_id_and_rejects_unknowns() {
        for exp in registry() {
            assert_eq!(find(exp.id()).map(|e| e.id()), Some(exp.id()));
        }
        assert!(find("e21").is_none());
        assert!(find("fabric").is_none());
    }

    #[test]
    fn every_grid_is_nonempty_with_dense_indices() {
        for exp in registry() {
            let grid = exp.grid();
            assert!(!grid.is_empty(), "{}", exp.id());
            for (i, p) in grid.iter().enumerate() {
                assert_eq!(p.index(), i, "{}", exp.id());
                assert!(!p.label().is_empty(), "{}", exp.id());
            }
        }
    }

    #[test]
    fn pooled_grid_matches_serial_including_trial_splits() {
        // e12, e4, and e6 expose the TrialSplit hook (points fan out into
        // chunk()-trial sub-jobs — e4 and e6 override the default chunk);
        // e16 does not (one job per point). All must render byte-identically
        // to the serial reference for any worker count.
        for id in ["e12", "e4", "e6", "e16"] {
            let exp = find(id).expect("registered");
            let serial = assemble(exp, &run_grid(exp)).render_text();
            for workers in [1usize, 3] {
                let pooled = run_report(exp, workers, exp.seed()).render_text();
                assert_eq!(serial, pooled, "{id} with {workers} workers");
            }
        }
    }

    #[test]
    fn point_seeds_split_like_fabric_sessions() {
        assert_eq!(point_seed(7, 0), derive_trial_seed(7, 0));
        assert_ne!(point_seed(7, 0), point_seed(7, 1));
        assert_ne!(point_seed(7, 0), point_seed(8, 0));
    }
}
