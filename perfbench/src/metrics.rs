//! Result records, correctness failures and the summary statistics every
//! workload shares.

use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a successful run prints as its last line.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    /// Operations the run attempted (ingested files, discovery passes,
    /// submitted batches, restores), across timed and checking phases.
    pub attempted: u64,
    /// Of those, operations that returned an error.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// A correctness check (or a required program call) failed: the run exits
/// non-zero.
#[derive(Debug)]
pub struct Failure {
    pub message: String,
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure { message }
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::from(message.to_string())
    }
}

impl From<r2d2_lake::LakeError> for Failure {
    fn from(e: r2d2_lake::LakeError) -> Self {
        Failure::from(format!("program error: {e}"))
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::from(format!("benchmark I/O error: {e}"))
    }
}

/// Fail the run with a message when a correctness condition does not hold.
#[macro_export]
macro_rules! check {
    ($cond:expr, $($msg:tt)+) => {
        {
            let holds: bool = $cond;
            if !holds {
                return Err($crate::metrics::Failure::from(format!($($msg)+)));
            }
        }
    };
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            correct: true,
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    /// The result printed when a check failed: nothing measured counts.
    pub fn failed() -> Outcome {
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// One aligned `name value unit` line per metric, for the console.
    pub fn render(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut s = format!(
            "correct={} attempted={} failed={}\n",
            self.correct, self.attempted, self.failed
        );
        for m in &self.metrics {
            s.push_str(&format!(
                "  {:<width$}  {:>16.6}  {}\n",
                m.name, m.value, m.unit
            ));
        }
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which JSON cannot carry) become `null`, which
/// the consumer rejects as a malformed run.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    values.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Reset the peak-RSS high-water mark to the current RSS, so the peak
/// reported afterwards covers the program's work and not the benchmark's
/// own input generation. Best effort: without `/proc` the peak simply
/// includes generation.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(path),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

/// Copy the regular files of `from` (one level, as a persistence directory
/// holds them) into a fresh `to`, and make the copy durable, so that the
/// program's own fsyncs in a timed region do not also flush the copy.
pub fn copy_dir(from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
    remove_dir(to)?;
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            let dest = to.join(entry.file_name());
            std::fs::copy(entry.path(), &dest)?;
            std::fs::File::open(&dest)?.sync_all()?;
        }
    }
    std::fs::File::open(to)?.sync_all()
}

/// Remove `dir` if it exists and make the removal durable, for the same
/// reason as [`copy_dir`].
pub fn remove_dir(dir: &std::path::Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    }
    match dir.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::File::open(parent)?.sync_all(),
        _ => Ok(()),
    }
}
