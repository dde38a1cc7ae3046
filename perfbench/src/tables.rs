//! The `tables` workload: regenerate all 20 registry reports and render
//! their text, serially (workers = 1) and on a 2-wide pool, and the
//! attribution of e19 — the suite's heaviest report — to its lanes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bci_bench::suite::report_for;
use bci_blackboard::runner::derive_trial_seed;
use bci_core::experiments::e19_topology::{default_grid, SEED, TRIALS};
use bci_core::experiments::registry::{point_seed, registry, Experiment};
use bci_fabric::pool::{JobPool, PoolConfig};
use bci_protocols::disj::{batched, disj_function};
use bci_protocols::msgpass::{P2pDisj, StarDisj};
use bci_protocols::workload;
use bci_telemetry::Recorder;
use bci_topology::run_routed;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::measure::{median, peak_rss_mb, percentile, timed, Metrics, Span};

/// Pool width of the parallel regeneration: the benchmark host's two
/// CPUs, as `table_all --workers 2` would use them.
pub const PAR_WORKERS: usize = 2;

/// What a regeneration is checked against: the registry, each report's
/// golden snapshot when one exists, and its expected text once known.
pub struct Suite {
    exps: &'static [&'static dyn Experiment],
    expected: Vec<Option<String>>,
    /// Reports that have a golden snapshot.
    pub goldens: usize,
    pub grid_points: usize,
}

/// Loads the registry and every report's golden snapshot.
fn load() -> Suite {
    let exps = registry();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../crates/bench/tests/golden");
    let expected: Vec<Option<String>> = exps
        .iter()
        .map(|e| std::fs::read_to_string(dir.join(format!("{}.txt", e.id()))).ok())
        .collect();
    let goldens = expected.iter().filter(|e| e.is_some()).count();
    Suite {
        exps,
        expected,
        goldens,
        grid_points: 0,
    }
}

/// What the program builds before its first report, timed as the
/// workload's set-up: the registry, every experiment's grid, and a pool of
/// each width configured as `report_for` configures it. Returns the number
/// of grid points.
fn program_setup() -> usize {
    let grid_points = registry().iter().map(|e| e.grid().len()).sum();
    for workers in [1, PAR_WORKERS] {
        std::hint::black_box(JobPool::new(PoolConfig {
            workers,
            batch_size: 1,
            queue_capacity: 8,
            metric_prefix: "experiments",
            job_spans: true,
            recorder: Recorder::disabled(),
        }));
    }
    grid_points
}

impl Suite {
    pub fn len(&self) -> usize {
        self.exps.len()
    }

    /// Checks one rendered report; the first text of a report without a
    /// golden becomes the text every later regeneration must repeat.
    fn check(&mut self, i: usize, text: Option<String>) -> bool {
        let Some(text) = text else {
            return false; // panicked
        };
        match &self.expected[i] {
            Some(expected) => *expected == text,
            None => {
                self.expected[i] = Some(text);
                true
            }
        }
    }
}

/// Every timing and check result of a regeneration loop.
#[derive(Debug, Default)]
pub struct TablesRun {
    /// Seconds of the program's set-up before the run and of a repeat of
    /// it before every pass, so the samples see the whole run's host
    /// conditions.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each serial full regeneration.
    pub serial_s: Vec<f64>,
    /// Wall seconds of each `PAR_WORKERS`-wide full regeneration.
    pub par_s: Vec<f64>,
    /// Per registry index, each serial regeneration's wall milliseconds.
    pub report_ms: Vec<Vec<f64>>,
    /// Peak resident memory once the serial passes are done, in MiB.
    pub serial_peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

fn render(exp: &dyn Experiment, workers: usize) -> Option<String> {
    catch_unwind(AssertUnwindSafe(|| report_for(exp, workers).render_text())).ok()
}

/// Regenerates the suite serially until 60 % of `budget` has passed, then
/// on the `PAR_WORKERS`-wide pool until all of it has (at least one pass
/// of each). Each pass visits the reports in an order drawn from `seed`;
/// the reports themselves use their canonical seeds, since their text is
/// what EXPERIMENTS.md holds.
pub fn run(seed: u64, budget: Duration, spans: &Recorder) -> (Suite, TablesRun) {
    let mut suite = load();
    let t = Instant::now();
    suite.grid_points = program_setup();
    let mut out = TablesRun {
        setup_s: vec![t.elapsed().as_secs_f64()],
        report_ms: vec![Vec::new(); suite.len()],
        ..TablesRun::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let start = Instant::now();
    for (workers, until) in [(1, budget.mul_f64(0.6)), (PAR_WORKERS, budget)] {
        let mut passes = 0;
        while passes == 0 || start.elapsed() < until {
            passes += 1;
            let t = Instant::now();
            std::hint::black_box(program_setup());
            out.setup_s.push(t.elapsed().as_secs_f64());
            let order = shuffled(suite.len(), &mut rng);
            let name = if workers == 1 {
                "suite.serial"
            } else {
                "suite.par"
            };
            let pass = Span::open(spans, None, name);
            for &i in &order {
                let exp = suite.exps[i];
                let (text, took) = timed(
                    spans,
                    Some(pass.id()),
                    &format!("core.{}", exp.id()),
                    || render(exp, workers),
                );
                if workers == 1 {
                    out.report_ms[i].push(took.as_secs_f64() * 1e3);
                }
                out.attempted += 1;
                if !suite.check(i, text) {
                    out.failed += 1;
                    eprintln!("tables: {} (workers {workers}) failed its check", exp.id());
                }
            }
            let wall = pass.close().as_secs_f64();
            if workers == 1 {
                out.serial_s.push(wall);
            } else {
                out.par_s.push(wall);
            }
        }
        if workers == 1 {
            out.serial_peak_rss_mb = peak_rss_mb();
        }
    }
    (suite, out)
}

fn shuffled(len: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
    v
}

impl TablesRun {
    /// Each report's median serial latency, in registry order.
    pub fn report_medians(&self) -> Vec<f64> {
        self.report_ms.iter().map(|v| median(v)).collect()
    }

    /// The end-to-end metrics: an operation is one report, regenerated
    /// serially. Peak memory is taken before the pool passes: how much
    /// the pool's worker threads add varies by a tenth from run to run
    /// with the allocator's per-thread arenas.
    pub fn end_to_end(&self, m: &mut Metrics) {
        let reports = self.report_ms.len() as f64;
        m.put("setup_s", median(&self.setup_s), "s");
        m.put("ops_per_s", reports / median(&self.serial_s), "1/s");
        let mut per_report = self.report_medians();
        m.put("op_p50_ms", median(&per_report), "ms");
        m.put("op_p99_ms", percentile(&mut per_report, 99.0), "ms");
        m.put("peak_rss_mb", self.serial_peak_rss_mb, "MB");
    }

    /// The tables layer rows: each report's serial cost, the suite walls
    /// and the pool's speed-up.
    pub fn layers(&self, suite: &Suite, m: &mut Metrics) {
        for (exp, ms) in suite.exps.iter().zip(self.report_medians()) {
            m.put(format!("core.{}_ms", exp.id()), ms, "ms");
        }
        m.put("core.grid_points", suite.grid_points as f64, "count");
        let (serial, par) = (median(&self.serial_s), median(&self.par_s));
        m.put("core.suite_s", serial, "s");
        m.put("fabric.suite_par_s", par, "s");
        m.put("fabric.pool_speedup", serial / par, "ratio");
    }
}

/// e19's lanes timed on e19's own grid and seeds, each trial exactly as
/// `e19_topology::run_trial` runs it: sample a planted disjoint instance,
/// run the Theorem-2 batched protocol on every trial, and on trial 0 the
/// star and ring protocols through the routed engine. Outputs and the
/// closed-form message-passing accounting are asserted as e19 does.
/// Returns `(inputs, batched, star, ring)` seconds for one sweep.
pub fn e19_lanes_once(spans: &Recorder) -> [f64; 4] {
    let mut lanes = [Duration::ZERO; 4];
    let sweep = Span::open(spans, None, "e19.lanes");
    for (i, &(n, k)) in default_grid().iter().enumerate() {
        let pseed = point_seed(SEED, i);
        for t in 0..TRIALS {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_trial_seed(pseed, t));
            let (inputs, took) = timed(spans, Some(sweep.id()), "protocols.e19_inputs", || {
                workload::planted_zero_cover(n, k, 0.0, &mut rng)
            });
            lanes[0] += took;
            assert!(disj_function(&inputs), "planted instances are disjoint");
            let (bt, took) = timed(spans, Some(sweep.id()), "protocols.disj_batched", || {
                batched::run(&inputs)
            });
            lanes[1] += took;
            assert!(bt.output, "Theorem-2 protocol finds the instance disjoint");
            if t == 0 {
                let (star, took) = timed(spans, Some(sweep.id()), "topology.star", || {
                    run_routed(&StarDisj::new(n, k), &inputs, &rng)
                });
                lanes[2] += took;
                let (ring, took) = timed(spans, Some(sweep.id()), "topology.ring", || {
                    run_routed(&P2pDisj::new(n, k), &inputs, &rng)
                });
                lanes[3] += took;
                assert!(star.output && ring.output, "message-passing lanes agree");
                assert_eq!(star.stats.total_bits, StarDisj::worst_case_bits(n, k));
                assert_eq!(ring.stats.total_bits, P2pDisj::worst_case_bits(n, k));
            }
        }
    }
    sweep.close();
    lanes.map(|d| d.as_secs_f64())
}

/// The e19 attribution rows: the median over `reps` sweeps of each lane,
/// and the share of e19's own report time (`e19_ms`) the lanes explain.
pub fn e19_layers(spans: &Recorder, reps: usize, e19_ms: f64, m: &mut Metrics) {
    let sweeps: Vec<[f64; 4]> = (0..reps).map(|_| e19_lanes_once(spans)).collect();
    let lane = |j: usize| median(&sweeps.iter().map(|s| s[j] * 1e3).collect::<Vec<_>>());
    let names = [
        "protocols.e19_inputs_ms",
        "protocols.disj_batched_ms",
        "topology.star_ms",
        "topology.ring_ms",
    ];
    let mut total = 0.0;
    for (j, name) in names.iter().enumerate() {
        let ms = lane(j);
        total += ms;
        m.put(*name, ms, "ms");
    }
    m.put("core.e19_attributed_frac", total / e19_ms, "ratio");
}
