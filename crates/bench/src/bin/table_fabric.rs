//! Prints the execution-fabric scaling table: sessions/sec and latency
//! percentiles for both transports across worker counts, on a fixed
//! `DISJ_{n,k}` Monte-Carlo workload. The bits/session column is identical
//! on every row — the fabric's determinism guarantee — and is printed so a
//! regression is visible at a glance.
//!
//! Accepts `--json <path>` for a machine-readable report.

fn main() {
    bci_core::report::emit(&bci_bench::fabric_table::fabric());
}
