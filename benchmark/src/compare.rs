//! `--compare A B`: two directories of result files (each at least five
//! untraced runs per workload) side by side, one row per workload ×
//! end-to-end metric. This is the A/A check the bounds were derived from
//! and the table later changes paste.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::{summarize, Summary};

/// Fewest runs per workload a side needs for its quartiles to mean anything.
pub const MIN_RUNS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The spread between a side's own runs exceeds the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for one metric.
pub fn verdict(metric: &MetricDef, a: Summary, b: Summary) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    // Positive = B is worse, as a share of A's median.
    let worse_by = match metric.better {
        Better::Higher => (a.median - b.median) / a.median,
        Better::Lower => (b.median - a.median) / a.median,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `workload → metric → values`, from every untraced result file in `dir`.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        if doc.get("quick").and_then(Value::as_bool) != Some(false) {
            return Err(format!(
                "{}: a --quick run is a smoke test, not a measurement; refusing to compare it",
                path.display()
            ));
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let Some(Value::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{}: no metrics", path.display()));
        };
        let slot = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// Compares two result directories. Returns the table and whether any row
/// is `worse`.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<(String, bool), String> {
    let (a, b) = (load(a_dir)?, load(b_dir)?);
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<17} {:<17} {:>13} {:>22} {:>13} {:>22} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3 (n)", "B median", "B q1..q3 (n)", "bound"
    );
    let mut any_worse = false;
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            return Err(format!("{workload}: no runs in {}", b_dir.display()));
        };
        for metric in &END_TO_END {
            let values = |m: &BTreeMap<String, Vec<f64>>, dir: &Path| {
                let v = m.get(metric.name).cloned().unwrap_or_default();
                if v.len() < MIN_RUNS {
                    return Err(format!(
                        "{workload}/{}: {} runs in {}, need at least {MIN_RUNS}",
                        metric.name,
                        v.len(),
                        dir.display()
                    ));
                }
                Ok(summarize(&v))
            };
            let (sa, sb) = (values(a_metrics, a_dir)?, values(b_metrics, b_dir)?);
            let v = verdict(metric, sa, sb);
            any_worse |= v == Verdict::Worse;
            let iqr = |s: Summary| format!("{:.4}..{:.4} ({})", s.q1, s.q3, s.n);
            let _ = writeln!(
                table,
                "{:<17} {:<17} {:>13.4} {:>22} {:>13.4} {:>22} {:>6}  {}",
                workload,
                metric.name,
                sa.median,
                iqr(sa),
                sb.median,
                iqr(sb),
                metric.bound.unwrap_or(0.0),
                v.label()
            );
        }
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 5,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let ops = &END_TO_END[1];
        assert_eq!((ops.name, ops.bound), ("ops_per_s.base", Some(0.25)));
        assert_eq!(verdict(ops, tight(100.0), tight(80.0)), Verdict::Same);
        assert_eq!(verdict(ops, tight(100.0), tight(70.0)), Verdict::Worse);
        assert_eq!(verdict(ops, tight(100.0), tight(130.0)), Verdict::Better);
        let p50 = &END_TO_END[3];
        assert_eq!((p50.name, p50.better), ("p50_us", Better::Lower));
        assert_eq!(verdict(p50, tight(100.0), tight(130.0)), Verdict::Worse);
        assert_eq!(verdict(p50, tight(100.0), tight(70.0)), Verdict::Better);
        let noisy = Summary {
            median: 100.0,
            q1: 85.0,
            q3: 115.0,
            n: 5,
        };
        assert_eq!(verdict(p50, noisy, tight(150.0)), Verdict::Unresolved);
    }

    #[test]
    fn directories_are_compared_and_quick_runs_refused() {
        // Inside the package's git-ignored `out/`: nothing is written outside
        // the checkout.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-compare-{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        for dir in [&a, &b] {
            std::fs::create_dir_all(dir).unwrap();
        }
        let metrics = |scale: f64| {
            END_TO_END
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name,
                        100.0 * scale,
                        m.unit
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let file = |quick: bool, scale: f64| {
            format!(
                "{{\"workload\": \"w\", \"trace\": false, \"quick\": {quick}, \"metrics\": {{{}}}}}",
                metrics(scale)
            )
        };
        for i in 0..5 {
            let jitter = 1.0 + i as f64 * 0.001;
            std::fs::write(a.join(format!("run-w-seed{i}.json")), file(false, jitter)).unwrap();
            // B is 30 % higher everywhere: better throughput, worse memory.
            std::fs::write(
                b.join(format!("run-w-seed{i}.json")),
                file(false, 1.3 * jitter),
            )
            .unwrap();
        }
        // A traced result in the directory is skipped, not compared.
        std::fs::write(a.join("trace-w-seed0.json"), "{\"trace\": true}").unwrap();
        let (table, any_worse) = compare(&a, &b).unwrap();
        assert!(any_worse);
        let verdict_of = |metric: &str| {
            let line = table.lines().find(|l| l.contains(metric)).unwrap();
            line.split_whitespace().last().unwrap().to_string()
        };
        assert_eq!(verdict_of("ops_per_s.base"), "better");
        assert_eq!(verdict_of("peak_rss_mb"), "worse");
        let (_, aa_worse) = compare(&a, &a).unwrap();
        assert!(!aa_worse);

        std::fs::write(b.join("run-w-seed9.json"), file(true, 1.0)).unwrap();
        assert!(compare(&a, &b).unwrap_err().contains("--quick"));
        std::fs::remove_file(b.join("run-w-seed9.json")).unwrap();
        std::fs::remove_file(b.join("run-w-seed4.json")).unwrap();
        assert!(compare(&a, &b).unwrap_err().contains("need at least 5"));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
