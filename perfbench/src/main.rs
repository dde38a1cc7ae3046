//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tables|mux-saturated> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop driven from this one process, timed by
//! calling each crate's public functions from outside:
//!
//! * `tables` — regenerate all 20 registry reports and render their text,
//!   in serial passes and then in 2-worker passes; an operation is one
//!   report regenerated serially. Deterministic reports must equal their
//!   golden snapshots and every report must repeat its text on every pass
//!   and pool width.
//! * `mux-saturated` — 2 player threads on loopback against an in-process
//!   mux daemon, DISJ sessions at the default in-flight window (1024); an
//!   operation is one session. Each batch's transcript digests must equal
//!   the in-process replay's.
//!
//! The paced regime (window 16, where round trips and poll wake-ups set
//! latency) is a row of the traced window sweep, not a workload: its
//! latency follows the host scheduler's wake-up delay, which on a shared
//! 2-CPU host moved its p99 from 1.5 ms to 11 ms between runs.
//!
//! With `--trace 0` the run measures the workload untraced and prints the
//! end-to-end metrics. With `--trace 1` it measures the workload untraced
//! and then traced, and prints every per-layer metric: the tables layer
//! (each report, the pool), e19's lanes, the L0 kernel ledger, the
//! engine, codec and sampling costs under the daemon, the daemon's
//! per-session rows, the in-flight window sweep and the tracing overhead.
//! The benchmark's spans are kept in memory on a `bci_telemetry` recorder
//! and written to `.perfbench_out/<workload>-seed<n>.trace.jsonl`.
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod kernels;
mod measure;
mod mux;
mod tables;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use bci_mux::daemon::DEFAULT_MAX_INFLIGHT;
use bci_telemetry::{obj, Json, Recorder};

use measure::{peak_rss_mb, provenance, Metrics};

/// e19 lane sweeps per traced run; the median is reported.
const E19_REPS: usize = 3;

/// Sessions in the in-process request mix behind the engine, codec and
/// sampling rows.
const INPROCESS_SESSIONS: u64 = 4096;

/// How long a traced `tables` run drives the daemon for its mux layer
/// rows.
const TABLES_MUX_BUDGET: Duration = Duration::from_secs(2);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Tables,
    MuxSaturated,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "tables" => Some(Workload::Tables),
            "mux-saturated" => Some(Workload::MuxSaturated),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Tables => "tables",
            Workload::MuxSaturated => "mux-saturated",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <tables|mux-saturated> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run reports, before it is printed.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Checks outside the counted operations that failed.
    broken: Vec<String>,
    /// End-to-end metrics (untraced).
    e2e: Metrics,
    /// Per-layer metrics (traced runs only): the tables, e19 and kernel
    /// rows, then the mux rows, so every workload lists them in one order.
    layers: Metrics,
    mux_layers: Metrics,
    /// Lines naming each end-to-end quantity as users know it.
    report: Metrics,
}

/// End-to-end metrics whose traced/untraced difference is reported, with
/// whether higher is better. Each overhead row is the traced run's loss as
/// a share of the untraced value, so a positive row means tracing cost.
const OVERHEAD: [(&str, bool); 4] = [
    ("setup_s", false),
    ("ops_per_s", true),
    ("op_p50_ms", false),
    ("op_p99_ms", false),
];

fn run_tables(args: &Args, traced: bool, spans: &Recorder, out: &mut Outcome) -> Metrics {
    let budget = Duration::from_secs(args.seconds);
    let (suite, run) = tables::run(args.seed, budget, spans);
    if suite.goldens == 0 {
        out.broken.push("tables: no golden snapshots found".into());
    }
    out.attempted += run.attempted;
    out.failed += run.failed;
    let mut e2e = Metrics::default();
    run.end_to_end(&mut e2e);
    if traced {
        run.layers(&suite, &mut out.layers);
    } else {
        out.report
            .put("suite_s", measure::median(&run.serial_s), "s");
        out.report
            .put("suite_par_s", measure::median(&run.par_s), "s");
        out.report.put("peak_rss_with_pool_mb", peak_rss_mb(), "MB");
        out.report
            .put("samples.setups", run.setup_s.len() as f64, "count");
        out.report
            .put("samples.serial_passes", run.serial_s.len() as f64, "count");
        out.report
            .put("samples.par_passes", run.par_s.len() as f64, "count");
    }
    e2e
}

fn run_mux(args: &Args, traced: bool, spans: &Recorder, out: &mut Outcome) -> Metrics {
    let recorder = if traced {
        Recorder::metrics_only()
    } else {
        Recorder::disabled()
    };
    let budget = Duration::from_secs(args.seconds);
    let run = mux::run(DEFAULT_MAX_INFLIGHT, args.seed, budget, &recorder, spans);
    out.attempted += run.attempted();
    out.failed += run.failed();
    let mut e2e = Metrics::default();
    if run.batches.is_empty() {
        out.broken.push("mux: no batch ran".into());
        return e2e;
    }
    run.end_to_end(&mut e2e);
    if traced {
        layer_rows_mux(args.seed, &run, &recorder, out);
    } else {
        out.report
            .put("sessions_per_s", run.sessions_per_s(), "1/s");
        out.report.put("session_p50_ms", run.session_p50_ms(), "ms");
        out.report.put("session_p99_ms", run.session_p99_ms(), "ms");
        out.report
            .put("wire_bits_per_bit", run.wire_bits_per_bit(), "ratio");
        out.report
            .put("samples.batches", run.batches.len() as f64, "count");
        out.report
            .put("samples.sessions", run.attempted() as f64, "count");
    }
    e2e
}

/// The mux layer rows: costs under the daemon, then the daemon's own
/// per-session rows from a traced run.
fn layer_rows_mux(seed: u64, run: &mux::MuxRun, recorder: &Recorder, out: &mut Outcome) {
    match mux::inprocess_costs(INPROCESS_SESSIONS, seed) {
        Ok(costs) => {
            costs.layers(&mut out.mux_layers);
            run.layers(recorder, &costs, &mut out.mux_layers);
        }
        Err(e) => out.broken.push(format!("mux in-process costs: {e}")),
    }
}

/// Runs `f`, turning a panic into a failed check named `what`.
fn guarded(out: &mut Outcome, what: &str, f: impl FnOnce(&mut Outcome)) {
    let mut scratch = Outcome::default();
    match catch_unwind(AssertUnwindSafe(|| {
        f(&mut scratch);
        scratch
    })) {
        Ok(done) => {
            out.attempted += done.attempted;
            out.failed += done.failed;
            out.broken.extend(done.broken);
            out.layers.extend(done.layers);
            out.mux_layers.extend(done.mux_layers);
        }
        Err(_) => out.broken.push(format!("{what} panicked")),
    }
}

/// The per-layer rows every traced run reports besides its own workload's:
/// whichever of the tables and mux rows the workload did not produce,
/// e19's lanes, the kernel ledger and the window sweep.
fn shared_layers(args: &Args, spans: &Recorder, out: &mut Outcome) {
    let seed = args.seed;
    if args.workload != Workload::Tables {
        guarded(out, "tables layer", |o| {
            let (suite, run) = tables::run(seed, Duration::ZERO, spans);
            o.attempted += run.attempted;
            o.failed += run.failed;
            run.layers(&suite, &mut o.layers);
        });
    }
    let e19_ms = out.layers.get("core.e19_ms").unwrap_or(f64::NAN);
    guarded(out, "e19 lanes", |o| {
        tables::e19_layers(spans, E19_REPS, e19_ms, &mut o.layers)
    });
    guarded(out, "kernel ledger", |o| {
        let bad = kernels::ledger(seed, &mut o.layers);
        o.broken
            .extend(bad.into_iter().map(|b| format!("kernel ledger: {b}")));
    });
    if args.workload == Workload::Tables {
        guarded(out, "mux layer", |o| {
            let recorder = Recorder::metrics_only();
            let run = mux::run(
                DEFAULT_MAX_INFLIGHT,
                seed,
                TABLES_MUX_BUDGET,
                &recorder,
                spans,
            );
            o.attempted += run.attempted();
            o.failed += run.failed();
            if run.batches.is_empty() {
                o.broken.push("mux: no batch ran".into());
            } else {
                layer_rows_mux(seed, &run, &recorder, o);
            }
        });
    }
    guarded(out, "window sweep", |o| {
        let (attempted, failed) = mux::sweep(seed, spans, &mut o.mux_layers);
        o.attempted += attempted;
        o.failed += failed;
    });
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let loopback = workload != Workload::Tables || args.trace;
    let prov = provenance(workload.name(), args.seed, loopback);
    println!("provenance {prov}");

    let mut out = Outcome::default();
    let untraced = Recorder::disabled();
    out.e2e = match workload {
        Workload::Tables => run_tables(&args, false, &untraced, &mut out),
        _ => run_mux(&args, false, &untraced, &mut out),
    };

    if args.trace {
        let spans = Recorder::new();
        let traced = match workload {
            Workload::Tables => run_tables(&args, true, &spans, &mut out),
            _ => run_mux(&args, true, &spans, &mut out),
        };
        shared_layers(&args, &spans, &mut out);
        let mux_layers = std::mem::take(&mut out.mux_layers);
        out.layers.extend(mux_layers);
        for (name, higher_is_better) in OVERHEAD {
            if let (Some(on), Some(off)) = (traced.get(name), out.e2e.get(name)) {
                let loss = if higher_is_better {
                    1.0 - on / off
                } else {
                    on / off - 1.0
                };
                out.layers
                    .put(format!("trace.overhead.{name}"), loss, "ratio");
            }
        }
        let path = PathBuf::from(".perfbench_out").join(format!(
            "{}-seed{}.trace.jsonl",
            workload.name(),
            args.seed
        ));
        let events = spans.events_jsonl();
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| {
                std::fs::write(&path, format!("{}\n{events}", obj([("provenance", prov)])))
            });
        match written {
            Ok(()) => eprintln!(
                "wrote {} span events to {}",
                events.lines().count(),
                path.display()
            ),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.report.put("failed_frac", failed_frac, "ratio");
    for m in out
        .e2e
        .iter()
        .chain(out.report.iter())
        .chain(out.layers.iter())
    {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for b in &out.broken {
        eprintln!("check failed: {b}");
    }
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    let correct = out.failed == 0 && out.broken.is_empty() && out.attempted > 0;
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(out.attempted.max(1))),
        ("failed", Json::UInt(out.failed)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
