//! Measurement plumbing shared by every workload: the metric list the
//! result line is built from, order statistics, timed spans, process
//! counters read from `/proc`, and the run's provenance.

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use bci_telemetry::recorder::SpanToken;
use bci_telemetry::{obj, Json, Recorder, SpanKind};

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were recorded; names are unique.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} recorded twice"
        );
        self.0.push(Metric { name, value, unit });
    }

    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.put(m.name, m.value, m.unit);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    pub fn to_json(&self) -> Json {
        obj(self.0.iter().map(|m| {
            (
                m.name.clone(),
                obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        }))
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; sorts in place.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil().max(1.0) as usize;
    values[rank.min(values.len()) - 1]
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The median of `reps` timings of `f`, in seconds, plus its last result.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t0.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one repetition"))
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// One call into a layer, made by the benchmark and timed with a plain
/// clock. On a recorder that captures events it is also kept as a `job`
/// span whose attributes name it and its parent span, so
/// [`Recorder::events_jsonl`] writes the traced run's spans out at the
/// end; on [`Recorder::disabled`] only the clock runs.
pub struct Span<'a> {
    recorder: &'a Recorder,
    id: u64,
    token: SpanToken,
    start: Instant,
}

impl<'a> Span<'a> {
    pub fn open(recorder: &'a Recorder, parent: Option<u64>, name: &str) -> Self {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let attrs = if recorder.events_enabled() {
            let parent = parent.map_or(Json::Null, Json::UInt);
            vec![("name", Json::str(name)), ("parent", parent)]
        } else {
            Vec::new()
        };
        let token = recorder.span_start(SpanKind::Job, id, attrs);
        Span {
            recorder,
            id,
            token,
            start: Instant::now(),
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span; returns how long it was open.
    pub fn close(self) -> Duration {
        let took = self.start.elapsed();
        self.recorder
            .span_end(SpanKind::Job, self.id, self.token, Vec::new());
        took
    }
}

/// Times `f` as one span named `name` under `parent`.
pub fn timed<T>(
    recorder: &Recorder,
    parent: Option<u64>,
    name: &str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let span = Span::open(recorder, parent, name);
    let out = f();
    (out, span.close())
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time (user + system) this process has used so far, all threads
/// included, from `/proc/self/stat` (clock ticks of 10 ms).
pub fn cpu_time_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where the run's inputs and toolchain came from, for the output's
/// provenance line.
pub fn provenance(workload: &str, seed: u64, loopback: bool) -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let command: Vec<Json> = std::env::args().map(Json::str).collect();
    obj([
        ("workload", Json::str(workload)),
        ("seed", Json::UInt(seed)),
        ("nproc", Json::UInt(nproc() as u64)),
        ("rustc", rustc.map_or(Json::Null, Json::str)),
        ("git_rev", git_rev().map_or(Json::Null, Json::str)),
        ("command", Json::Arr(command)),
        ("date_utc", Json::str(utc_now())),
        ("loopback", Json::Bool(loopback)),
    ])
}

/// The commit checked out in the current directory, read from `.git`
/// directly so no parent directory's repository is consulted.
fn git_rev() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs()) as i64;
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    // Civil date from days since 1970-01-01 (proleptic Gregorian).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_time_s() >= 0.0);
        assert_eq!(utc_now().len(), 20);
    }
}
