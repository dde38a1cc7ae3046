//! Canonical-seed experiment reports and their golden snapshots.
//!
//! * [`suite`] — canonical-seed reports for the registry experiments,
//!   through the one runner
//!   [`run_report`](bci_core::experiments::registry::run_report).
//! * `tests/golden/` — byte snapshots of the deterministic reports,
//!   checked by `tests/golden_tables.rs`.
//!
//! `bci experiments run <id>|all [--workers N] [--json PATH]` is the front
//! end that prints these reports.

#![warn(missing_docs)]

pub mod suite;
