//! Canonical-seed [`Report`]s for the registry experiments.
//!
//! Every experiment lives in `bci-core`'s
//! [`registry`](bci_core::experiments::registry): identity, notes,
//! parameter metadata, sweep grid, and per-point computation, plus the one
//! runner [`run_report`] that sweeps a grid on a job pool and assembles its
//! [`Report`]. This module fixes the seed to each experiment's canonical
//! one, so `table_all` and the goldens regenerate the `EXPERIMENTS.md`
//! tables.

use bci_core::experiments::registry::{find, registry, run_report, Experiment};
use bci_core::report::Report;

/// Builds the report for one experiment under its canonical seed, running
/// its default grid on a `workers`-wide job pool. The report — text and
/// JSON — is byte-identical for any worker count (see [`run_report`]).
pub fn report_for(exp: &dyn Experiment, workers: usize) -> Report {
    run_report(exp, workers, exp.seed())
}

/// Builds the report for a registry id (`"e7"`), or `None` if no experiment
/// has that id.
pub fn report_by_id(id: &str, workers: usize) -> Option<Report> {
    find(id).map(|exp| report_for(exp, workers))
}

/// The experiment ids [`all`] emits, in order (= registry order).
pub fn suite_ids() -> Vec<&'static str> {
    registry().iter().map(|e| e.id()).collect()
}

/// Every experiment report in `EXPERIMENTS.md` order (without the fabric
/// scaling table, which is not an experiment in the paper's sense — see
/// [`crate::fabric_table`]).
pub fn all(workers: usize) -> Vec<Report> {
    registry()
        .iter()
        .map(|exp| report_for(*exp, workers))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bci_core::report::SCHEMA;

    #[test]
    fn cheap_reports_have_stable_identity_and_tables() {
        for (id, tables) in [("e2", 1), ("e8", 1), ("e16", 2), ("e17", 1)] {
            let report = report_by_id(id, 1).expect("registered");
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
        // CI by diffing `table_all --workers 1` against `--workers 4`.
        for id in ["e2", "e8"] {
            let serial = report_by_id(id, 1).expect("registered");
            let parallel = report_by_id(id, 4).expect("registered");
            assert_eq!(serial.render_text(), parallel.render_text(), "{id}");
            assert_eq!(
                serial.to_json().to_string(),
                parallel.to_json().to_string(),
                "{id}"
            );
        }
    }

    #[test]
    fn unknown_ids_are_rejected() {
        assert!(report_by_id("e21", 1).is_none());
        assert!(report_by_id("fabric", 1).is_none());
    }
}
