//! The execution-fabric scaling table (the `table_fabric` binary).
//!
//! Not a paper experiment — this benchmarks the `bci-fabric` session
//! scheduler itself (sessions/sec, latency percentiles, queue depth) across
//! worker counts and transports, so it lives outside the experiment
//! registry and `table_all`.

use std::time::Duration;

use bci_core::report::Report;
use bci_core::table::{f, Table};
use bci_fabric::driver::monte_carlo_fabric;
use bci_fabric::scheduler::SchedulerConfig;
use bci_fabric::session::FaultPlan;
use bci_fabric::transport::{ChannelTransport, InProcessTransport, Transport};
use bci_protocols::disj::broadcast::BroadcastDisj;
use bci_protocols::disj::disj_function;
use bci_protocols::workload;
use bci_telemetry::Json;
use rand::RngCore;

const FABRIC_N: usize = 256;
const FABRIC_K: usize = 4;
const FABRIC_SESSIONS: u64 = 512;
const FABRIC_SEED: u64 = 0xFAB;

fn fabric_row<T: Transport>(transport: &T, workers: usize) -> [String; 7] {
    let proto = BroadcastDisj::new(FABRIC_N, FABRIC_K);
    let config = SchedulerConfig {
        workers,
        batch_size: 32,
        queue_capacity: 8,
        deadline: Some(Duration::from_secs(30)),
        ..SchedulerConfig::default()
    };
    let report = monte_carlo_fabric(
        transport,
        &proto,
        &|rng: &mut dyn RngCore| workload::random_sets(FABRIC_N, FABRIC_K, 0.7, rng),
        &|inputs: &[_]| disj_function(inputs),
        FABRIC_SESSIONS,
        FABRIC_SEED,
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(report.report.trials, FABRIC_SESSIONS);
    let m = &report.metrics;
    [
        workers.to_string(),
        f(m.sessions_per_sec(), 1),
        format!("{:?}", m.latency_p50()),
        format!("{:?}", m.latency_p95()),
        format!("{:?}", m.latency_p99()),
        f(m.bits.mean(), 2),
        m.max_queue_depth.to_string(),
    ]
}

/// The execution-fabric scaling table: sessions/sec and latency percentiles
/// for both transports across worker counts, on a fixed `DISJ_{n,k}`
/// Monte-Carlo workload.
pub fn fabric() -> Report {
    let mut report = Report::new(
        "fabric",
        format!(
            "Fabric — DISJ_{{n={FABRIC_N}, k={FABRIC_K}}}, {FABRIC_SESSIONS} sessions per row, \
         seed {FABRIC_SEED:#x}"
        ),
    )
    .note("(bits/session is identical on every row: scheduling never changes transcripts)")
    .meta("n", Json::UInt(FABRIC_N as u64))
    .meta("k", Json::UInt(FABRIC_K as u64))
    .meta("sessions", Json::UInt(FABRIC_SESSIONS))
    .meta("seed", Json::UInt(FABRIC_SEED));
    for (name, rows) in [
        (
            "in-process transport:",
            [1usize, 2, 4, 8].map(|w| fabric_row(&InProcessTransport, w)),
        ),
        (
            "channel transport (one thread per player + sequencer):",
            [1usize, 2, 4, 8].map(|w| fabric_row(&ChannelTransport, w)),
        ),
    ] {
        let mut t = Table::new([
            "workers",
            "sessions/sec",
            "p50",
            "p95",
            "p99",
            "bits/session",
            "max queue",
        ]);
        for row in rows {
            t.row(row);
        }
        report.push_table(name, &t);
    }
    report
}
