//! Table generators and benchmarks for the broadcast-ic workspace.
//!
//! * `src/bin/table_all.rs` — prints every experiment table in
//!   `EXPERIMENTS.md` order; `--experiment <id>` restricts it to one
//!   registry id, `--workers N` runs grid points on an `N`-wide fabric job
//!   pool (output is byte-identical for every `N`), and `--json <path>`
//!   writes the schema-stable JSON report next to the text output (see
//!   [`bci_core::report`]). `bci experiments run <id>` prints the same
//!   bytes through the same runner.
//! * [`suite`] — canonical-seed reports for the registry experiments,
//!   through the one runner
//!   [`run_report`](bci_core::experiments::registry::run_report).
//! * [`fabric_table`] — the scheduler-scaling table behind `table_fabric`
//!   (not a paper experiment, so it is not in the registry).
//! * `benches/*.rs` — criterion micro/meso-benchmarks: protocol throughput,
//!   exact information-cost computation, the sampling protocol, the
//!   factorized-vs-brute-force and exact-vs-approximate-codec ablations, and
//!   the encoding substrate.

#![warn(missing_docs)]

pub mod fabric_table;
pub mod suite;
