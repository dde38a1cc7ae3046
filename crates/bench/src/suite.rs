//! Canonical-seed [`Report`]s for the registry experiments.
//!
//! Every experiment lives in `bci-core`'s
//! [`registry`](bci_core::experiments::registry): identity, notes,
//! parameter metadata, sweep grid, and per-point computation, plus the one
//! runner [`run_report`] that sweeps a grid on a job pool and assembles its
//! [`Report`]. This module fixes the seed to each experiment's canonical
//! one, so the goldens regenerate the `EXPERIMENTS.md` tables.

use bci_core::experiments::registry::{run_report, Experiment};
use bci_core::report::Report;

/// Builds the report for one experiment under its canonical seed, running
/// its default grid on a `workers`-wide job pool. The report — text and
/// JSON — is byte-identical for any worker count (see [`run_report`]).
pub fn report_for(exp: &dyn Experiment, workers: usize) -> Report {
    run_report(exp, workers, exp.seed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bci_core::experiments::registry::find;
    use bci_core::report::SCHEMA;

    fn report(id: &str, workers: usize) -> Report {
        report_for(find(id).expect("registered"), workers)
    }

    #[test]
    fn cheap_reports_have_stable_identity_and_tables() {
        for (id, tables) in [("e2", 1), ("e8", 1), ("e16", 2), ("e17", 1)] {
            let report = report(id, 1);
            assert_eq!(report.experiment, id);
            assert!(!report.title.is_empty());
            assert_eq!(report.tables.len(), tables, "{}", report.experiment);
            for t in &report.tables {
                assert!(!t.columns.is_empty());
                assert!(!t.rows.is_empty());
                for row in &t.rows {
                    assert_eq!(row.len(), t.columns.len());
                }
            }
            let json = report.to_json().to_string();
            assert!(json.contains(SCHEMA), "{}", report.experiment);
        }
    }

    #[test]
    fn parallel_report_is_byte_identical_to_serial() {
        // e2 and e8 are cheap and exercise both the plain-table and the
        // per-point-result shapes; the full-suite equivalence is checked in
        // CI by diffing `bci experiments run all --workers 1` against
        // `--workers 4`.
        for id in ["e2", "e8"] {
            let serial = report(id, 1);
            let parallel = report(id, 4);
            assert_eq!(serial.render_text(), parallel.render_text(), "{id}");
            assert_eq!(
                serial.to_json().to_string(),
                parallel.to_json().to_string(),
                "{id}"
            );
        }
    }
}
