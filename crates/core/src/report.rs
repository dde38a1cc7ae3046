//! Schema-stable, machine-readable reports.
//!
//! Every registry experiment, the `bci netrun` wire-overhead sweep and the
//! `bci load` harness build a [`Report`] — title, note lines, parameter
//! metadata, and one or more labeled tables. [`emit_to`] prints the
//! familiar text rendering to stdout and, given a path, also writes the
//! same content as a JSON document with schema id [`SCHEMA`].
//! `bci experiments run all` aggregates every registry report into one
//! combined document with schema id [`SUITE_SCHEMA`] through
//! [`emit_all_to`].
//!
//! Reports deliberately contain no timing or host-specific fields, so the
//! same sweep always serializes to the same bytes — CI diffs the
//! `--workers 4` suite output against `--workers 1` with a plain byte
//! comparison.
//!
//! The JSON shape (stable; validated in CI):
//!
//! ```json
//! {
//!   "schema": "bci.bench.v1",
//!   "experiment": "e1",
//!   "title": "E1 — Theorem 2: ...",
//!   "notes": ["(hard disjoint instances: ...)"],
//!   "meta": {"seed": 225},
//!   "tables": [
//!     {"label": "", "columns": ["n", "k", "..."], "rows": [[4096, 16, "..."]]}
//!   ]
//! }
//! ```
//!
//! Numeric-looking cells are emitted as JSON numbers verbatim (no re-parsing
//! or rounding); everything else stays a string.

use bci_telemetry::{obj, Json};

use crate::table::Table;

/// Schema identifier of a single-experiment report document.
pub const SCHEMA: &str = "bci.bench.v1";

/// Schema identifier of the combined (`bci experiments run all`) report
/// document.
pub const SUITE_SCHEMA: &str = "bci.bench.suite.v1";

/// One experiment's full output: identity, context lines, parameters, and
/// its rendered tables.
#[derive(Debug, Clone)]
pub struct Report {
    /// Short stable id: `"e1"` … `"e20"`, `"netrun"`, `"fabric"`.
    pub experiment: String,
    /// The headline printed first.
    pub title: String,
    /// Free-form context lines printed under the title.
    pub notes: Vec<String>,
    /// Parameter metadata (seeds, trial counts, …), insertion-ordered.
    pub meta: Vec<(String, Json)>,
    /// The labeled tables.
    pub tables: Vec<ReportTable>,
}

/// A single table inside a [`Report`].
#[derive(Debug, Clone)]
pub struct ReportTable {
    /// Preamble line printed above the table; empty when there is none.
    pub label: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells; numeric-looking cells become JSON numbers.
    pub rows: Vec<Vec<Json>>,
}

impl Report {
    /// Starts an empty report for `experiment` with the given `title`.
    pub fn new(experiment: impl Into<String>, title: impl Into<String>) -> Report {
        Report {
            experiment: experiment.into(),
            title: title.into(),
            notes: Vec::new(),
            meta: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Appends a context line (builder-style).
    pub fn note(mut self, line: impl Into<String>) -> Report {
        self.notes.push(line.into());
        self
    }

    /// Appends a metadata entry (builder-style).
    pub fn meta(mut self, key: impl Into<String>, value: Json) -> Report {
        self.meta.push((key.into(), value));
        self
    }

    /// Appends a rendered [`Table`] under `label` (empty label = no
    /// preamble line).
    pub fn push_table(&mut self, label: impl Into<String>, table: &Table) {
        self.tables.push(ReportTable {
            label: label.into(),
            columns: table.headers().to_vec(),
            rows: table
                .rows()
                .iter()
                .map(|row| row.iter().map(|cell| Json::cell(cell)).collect())
                .collect(),
        });
    }

    /// Same as [`push_table`](Report::push_table), builder-style.
    pub fn with_table(mut self, label: impl Into<String>, table: &Table) -> Report {
        self.push_table(label, table);
        self
    }

    /// The human-readable rendering: title, notes, then each table behind
    /// its label.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        for table in &self.tables {
            out.push('\n');
            if !table.label.is_empty() {
                out.push_str(&table.label);
                out.push('\n');
            }
            let mut t = Table::new(table.columns.iter().map(String::as_str));
            for row in &table.rows {
                t.row(row.iter().map(render_cell));
            }
            out.push_str(&t.render());
        }
        out
    }

    /// The machine-readable rendering (schema [`SCHEMA`]).
    pub fn to_json(&self) -> Json {
        obj([
            ("schema", Json::str(SCHEMA)),
            ("experiment", Json::str(&self.experiment)),
            ("title", Json::str(&self.title)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            ("meta", Json::Obj(self.meta.clone())),
            (
                "tables",
                Json::Arr(
                    self.tables
                        .iter()
                        .map(|t| {
                            obj([
                                ("label", Json::str(&t.label)),
                                (
                                    "columns",
                                    Json::Arr(t.columns.iter().map(Json::str).collect()),
                                ),
                                (
                                    "rows",
                                    Json::Arr(
                                        t.rows.iter().map(|r| Json::Arr(r.clone())).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn render_cell(cell: &Json) -> String {
    match cell {
        Json::Str(s) => s.clone(),
        Json::Raw(s) => s.clone(),
        other => other.to_string(),
    }
}

/// The combined document for a suite of reports (schema [`SUITE_SCHEMA`]).
pub fn suite_json(reports: &[Report]) -> Json {
    obj([
        ("schema", Json::str(SUITE_SCHEMA)),
        ("count", Json::UInt(reports.len() as u64)),
        (
            "reports",
            Json::Arr(reports.iter().map(Report::to_json).collect()),
        ),
    ])
}

/// Prints `report` as text and, given a path, writes its JSON document
/// (schema [`SCHEMA`]) to it. Exits the process with an error message on
/// an unwritable path.
pub fn emit_to(report: &Report, json_path: Option<&str>) {
    write_doc(&report.render_text(), &report.to_json(), json_path);
}

/// Prints every report as text (separated by `=== <id> ===` headers) and,
/// given a path, writes the combined suite document (schema
/// [`SUITE_SCHEMA`]) to it.
pub fn emit_all_to(reports: &[Report], json_path: Option<&str>) {
    let mut text = String::new();
    for report in reports {
        text.push_str(&format!("=== {} ===\n\n", report.experiment.to_uppercase()));
        text.push_str(&report.render_text());
        text.push('\n');
    }
    write_doc(&text, &suite_json(reports), json_path);
}

fn write_doc(text: &str, json: &Json, path: Option<&str>) {
    print!("{text}");
    if let Some(path) = path {
        let mut doc = json.to_string();
        doc.push('\n');
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: cannot write JSON report to '{path}': {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut t = Table::new(["n", "bits"]);
        t.row(["4096".to_owned(), "12.5".to_owned()]);
        t.row(["8192".to_owned(), "n/a".to_owned()]);
        Report::new("e1", "E1 — sample")
            .note("(a context line)")
            .meta("seed", Json::UInt(225))
            .with_table("", &t)
    }

    #[test]
    fn json_document_is_schema_stable() {
        let json = sample().to_json().to_string();
        assert_eq!(
            json,
            "{\"schema\":\"bci.bench.v1\",\"experiment\":\"e1\",\"title\":\"E1 — sample\",\
             \"notes\":[\"(a context line)\"],\"meta\":{\"seed\":225},\
             \"tables\":[{\"label\":\"\",\"columns\":[\"n\",\"bits\"],\
             \"rows\":[[4096,12.5],[8192,\"n/a\"]]}]}"
        );
    }

    #[test]
    fn text_rendering_matches_the_classic_layout() {
        let text = sample().render_text();
        assert!(text.starts_with("E1 — sample\n(a context line)\n\n"));
        assert!(text.contains("4096"));
        assert!(text.contains("n/a"));
    }

    #[test]
    fn labels_appear_above_their_table() {
        let mut t = Table::new(["x"]);
        t.row(["1".to_owned()]);
        let r = Report::new("e4", "t").with_table("k = 16", &t);
        assert!(r.render_text().contains("\nk = 16\n"));
    }

    #[test]
    fn suite_document_wraps_reports() {
        let json = suite_json(&[sample(), sample()]).to_string();
        assert!(json.starts_with("{\"schema\":\"bci.bench.suite.v1\",\"count\":2,"));
        assert_eq!(json.matches("\"bci.bench.v1\"").count(), 2);
    }
}
