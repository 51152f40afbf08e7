//! What a run hands back, the line the driver reads, and the result file
//! `--compare` reads.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::json::{push_num, push_str_lit};
use crate::metrics::unit_of;
use crate::stats::Summary;
use crate::trace::Span;

/// Everything one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
    /// Load threads: `clamp(nproc, 2, 4)`. Results with different values
    /// are not comparable.
    pub workers: usize,
    pub nproc: usize,
}

/// What a workload's run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub input_digest: String,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of this pass by name: end-to-end ones for an untraced
    /// run, per-layer ones for a traced run.
    pub metrics: Vec<(&'static str, f64)>,
    /// Quartiles, sample counts and counters behind the metrics.
    pub detail: Vec<(String, f64)>,
    /// Sanity lines: printed, never gated.
    pub sanity: Vec<String>,
    /// Recorded spans per arm (traced runs only).
    pub spans: Vec<(&'static str, Vec<Span>)>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Sets a metric that has no value yet (reads 0).
    pub fn set_if_unset(&mut self, name: &'static str, value: f64) {
        if self.metric(name) == 0.0 {
            self.set(name, value);
        }
    }

    /// Records a summarised value: the median as `name`, quartiles and
    /// sample count beside it.
    pub fn detail_summary(&mut self, name: &str, s: Summary) {
        self.detail.push((format!("{name}.median"), s.median));
        self.detail.push((format!("{name}.q1"), s.q1));
        self.detail.push((format!("{name}.q3"), s.q3));
        self.detail.push((format!("{name}.n"), s.n as f64));
    }

    pub fn check(&mut self, what: &str, holds: bool) {
        let verdict = if holds { "ok" } else { "DIFFERS" };
        self.sanity.push(format!("[{verdict}] {what}"));
    }
}

fn metrics_object(metrics: &[(&'static str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_lit(&mut out, name);
        out.push_str(": {\"value\": ");
        push_num(&mut out, *value);
        out.push_str(", \"unit\": ");
        push_str_lit(&mut out, unit_of(name));
        out.push('}');
    }
    out.push('}');
    out
}

/// The one line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn driver_line(result: &RunResult) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.attempted.max(1),
        result.failed,
        metrics_object(&result.metrics)
    )
}

pub fn result_path(opts: &Options) -> PathBuf {
    let pass = if opts.trace { "trace" } else { "run" };
    opts.out
        .join(format!("{pass}-{}-seed{}.json", opts.workload, opts.seed))
}

pub fn trace_path(opts: &Options) -> PathBuf {
    opts.out.join(format!("trace-{}.jsonl", opts.workload))
}

/// Writes the result file: the driver line's content plus everything needed
/// to interpret it (inputs, host, quartiles, sanity lines). It ends with
/// `"claim": null` — this benchmark defines names, it claims no gain.
pub fn write_result(path: &Path, opts: &Options, result: &RunResult) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    let mut field = |key: &str, value: String| {
        let _ = writeln!(out, "  \"{key}\": {value},");
    };
    let quoted = |s: &str| {
        let mut q = String::new();
        push_str_lit(&mut q, s);
        q
    };
    field("workload", quoted(&opts.workload));
    field("seed", opts.seed.to_string());
    field("seconds", opts.seconds.to_string());
    field("trace", opts.trace.to_string());
    field("quick", opts.quick.to_string());
    field("nproc", opts.nproc.to_string());
    field("workers", opts.workers.to_string());
    field("input_digest", quoted(&result.input_digest));
    field("correct", "true".into());
    field("attempted", result.attempted.to_string());
    field("failed", result.failed.to_string());
    field("metrics", metrics_object(&result.metrics));
    let mut detail = String::from("{");
    for (i, (name, value)) in result.detail.iter().enumerate() {
        if i > 0 {
            detail.push_str(", ");
        }
        push_str_lit(&mut detail, name);
        detail.push_str(": ");
        push_num(&mut detail, *value);
    }
    detail.push('}');
    field("detail", detail);
    let sanity: Vec<String> = result.sanity.iter().map(|s| quoted(s)).collect();
    field("sanity", format!("[{}]", sanity.join(", ")));
    out.push_str("  \"claim\": null\n}\n");
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))?;
    std::fs::write(path, out)
}

/// `VmHWM` of this process in MB: the peak resident set, read at exit.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            attempted: 10,
            failed: 1,
            ..RunResult::default()
        };
        r.set("p50_us", 1.25);
        r.set("setup_s", 0.5);
        r.set("p50_us", 1.5);
        let doc = json::parse(&driver_line(&r)).unwrap();
        let Value::Obj(map) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let p50 = doc.get("metrics").unwrap().get("p50_us").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("us"));
        assert_eq!(r.metric("setup_s"), 0.5);
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
