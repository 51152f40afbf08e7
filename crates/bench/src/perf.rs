//! Shared machinery of the two perf ledgers, `BENCH_async.json`
//! (`bench_async`) and `BENCH_service.json` (`bench_service`). Both report
//! the same record shape and write the same hand-rolled JSON (the ledger
//! must not depend on a serde vendored stub). This module holds the common
//! pieces:
//!
//! * [`resident_bytes`] — the `/proc` RSS reader behind the blocked-
//!   consumer footprint probes;
//! * [`LatencyHistogram`] — a fixed-bucket log-linear histogram for
//!   latency percentiles (p50/p99/p999): the open-loop service bench
//!   reports tails, not just means, because tail latency is where overload
//!   shows first;
//! * [`Record`] / [`write_json`] — one ledger row and the writer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One measurement row of a perf ledger.
#[derive(Clone, Debug)]
pub struct Record {
    /// Probe name, `group/threads/variant` by convention.
    pub name: String,
    /// Worker threads involved.
    pub threads: usize,
    /// Operations (lock acquisitions, commits, wakes…) per second.
    pub ops_per_s: f64,
    /// Nanoseconds per operation (latency probes only).
    pub ns_per_op: Option<f64>,
    /// Resident memory per operation unit, bytes — e.g. RSS per blocked
    /// consumer in `bench_async`'s footprint probes (`None` elsewhere).
    pub bytes_per_op: Option<f64>,
    /// Median latency, nanoseconds (histogram probes only).
    pub p50_ns: Option<f64>,
    /// 99th-percentile latency, nanoseconds (histogram probes only).
    pub p99_ns: Option<f64>,
    /// 99.9th-percentile latency, nanoseconds (histogram probes only).
    pub p999_ns: Option<f64>,
    /// Wall-clock length of the measurement window, seconds.
    pub wall_s: f64,
}

impl Default for Record {
    /// An empty row: every optional signal absent, numerics zero. Ledger
    /// bins fill in what their probe measures and leave the rest with
    /// `..Record::default()`.
    fn default() -> Self {
        Record {
            name: String::new(),
            threads: 0,
            ops_per_s: 0.0,
            ns_per_op: None,
            bytes_per_op: None,
            p50_ns: None,
            p99_ns: None,
            p999_ns: None,
            wall_s: 0.0,
        }
    }
}

/// Number of linear sub-buckets per power of two: 2⁴ = 16 gives ≤ 6.25%
/// relative quantization error, plenty under run-to-run noise.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Covered octaves above the linear head: values up to 2⁴⁰ ns (~18 min)
/// resolve; anything larger clamps into the last bucket.
const OCTAVES: usize = 40;
const BUCKETS: usize = (OCTAVES + 1) * SUB;

/// A fixed-bucket log-linear latency histogram (HdrHistogram-style):
/// constant memory, lock-free concurrent recording, percentile queries.
///
/// Values are nanoseconds. Buckets are linear (width 1 ns) up to 16 ns,
/// then 16 linear sub-buckets per power of two — so every recorded value
/// lands in a bucket whose width is at most 1/16 of its magnitude, which
/// bounds the relative error of any percentile report to ~6%. Recording is
/// one relaxed `fetch_add`; threads share a histogram without coordination
/// and [`merge`](LatencyHistogram::merge) combines per-worker histograms.
///
/// # Examples
///
/// ```
/// use shrink_bench::perf::LatencyHistogram;
///
/// let h = LatencyHistogram::new();
/// for ns in [100, 200, 300, 10_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.percentile(50.0).unwrap();
/// assert!(p50 >= 150.0 && p50 <= 320.0);
/// assert!(h.percentile(99.9).unwrap() >= 9_000.0);
/// ```
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram. Allocates its full fixed bucket array (~5 KiB).
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let octave = (msb - SUB_BITS + 1).min(OCTAVES as u32);
        let shift = msb - SUB_BITS;
        let sub = ((ns >> shift) as usize) & (SUB - 1);
        (octave as usize * SUB + sub).min(BUCKETS - 1)
    }

    /// The inclusive upper bound of bucket `i` — what percentile queries
    /// report, so a reported quantile is never below the true one.
    fn bucket_high(i: usize) -> f64 {
        if i < SUB {
            return i as f64;
        }
        let octave = (i / SUB) as u32;
        let sub = (i % SUB) as u64;
        let shift = octave - 1;
        (((SUB as u64 + sub + 1) << shift) - 1) as f64
    }

    /// Records one latency sample, in nanoseconds.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one latency sample given as a [`Duration`].
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The largest recorded sample, exact (not bucket-quantized), in
    /// nanoseconds. Zero when empty.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// The latency at percentile `q` (e.g. `50.0`, `99.0`, `99.9`), in
    /// nanoseconds, or `None` when no samples were recorded.
    ///
    /// Reports the upper bound of the bucket holding the `⌈q·n⌉`-th sample
    /// (capped by the exact recorded maximum), so the report errs high by
    /// at most one bucket width — never optimistic about the tail.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(Self::bucket_high(i).min(self.max_ns() as f64));
            }
        }
        Some(self.max_ns() as f64)
    }

    /// Adds every sample of `other` into `self` (per-worker histograms are
    /// merged into one report; the exact max is carried over too).
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Fills a [`Record`]'s `p50_ns`/`p99_ns`/`p999_ns` cells from this
    /// histogram (all `None` when empty).
    pub fn fill_record(&self, record: &mut Record) {
        record.p50_ns = self.percentile(50.0);
        record.p99_ns = self.percentile(99.0);
        record.p999_ns = self.percentile(99.9);
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("p50_ns", &self.percentile(50.0))
            .field("p99_ns", &self.percentile(99.0))
            .field("p999_ns", &self.percentile(99.9))
            .field("max_ns", &self.max_ns())
            .finish()
    }
}

/// Median of a sample set (sorts in place). `NaN` on an empty slice.
///
/// The ledger benches report medians rather than means so one
/// pathological window on an oversubscribed container cannot skew a row.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Resident set size of this process, in bytes, from `/proc/self/status`
/// (`VmRSS`). The footprint probes (`bench_async`) difference it around a
/// population of blocked waiters; note it counts touched pages only, so a
/// thread's 8 MiB stack shows up as just the few pages it dirtied.
pub fn resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Writes a perf ledger. Hand-rolled JSON: the ledger must not depend on a
/// serde vendored stub.
///
/// # Panics
///
/// Panics if `path` cannot be written.
pub fn write_json(path: &str, bench: &str, quick: bool, records: &[Record]) {
    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "null".into()
        }
    }
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"bench\": \"{bench}\",\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!(
        "  \"host\": {{\"cores\": {}, \"os\": \"{}\", \"arch\": \"{}\"}},\n",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::consts::OS,
        std::env::consts::ARCH
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"ops_per_s\": {}, \"ns_per_op\": {}, \"bytes_per_op\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"wall_s\": {}}}{}\n",
            r.name,
            r.threads,
            num(r.ops_per_s),
            r.ns_per_op.map_or("null".into(), num),
            r.bytes_per_op.map_or("null".into(), |v| format!("{v:.1}")),
            r.p50_ns.map_or("null".into(), num),
            r.p99_ns.map_or("null".into(), num),
            r.p999_ns.map_or("null".into(), num),
            num(r.wall_s),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write perf ledger");
    println!("# ledger written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_json_is_well_formed_enough() {
        let dir = std::env::temp_dir().join(format!("perf_ledger_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.json");
        let records = vec![Record {
            name: "probe/1/variant".into(),
            threads: 1,
            ops_per_s: 10.0,
            ns_per_op: Some(1.5),
            bytes_per_op: Some(291.0),
            p99_ns: Some(1234.0),
            wall_s: 0.1,
            ..Record::default()
        }];
        write_json(path.to_str().unwrap(), "test", true, &records);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"test\""));
        assert!(body.contains("\"probe/1/variant\""));
        assert!(body.contains("\"bytes_per_op\": 291.0"));
        assert!(body.contains("\"p99_ns\": 1234.000"));
        assert!(body.contains("\"p50_ns\": null"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn histogram_percentiles_are_monotone_and_bucket_accurate() {
        let h = LatencyHistogram::new();
        // 10000 samples at 1 µs, 10 at 1 ms, 1 at 100 ms: a classic
        // bimodal-with-outlier latency profile.
        for _ in 0..10_000 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        h.record(100_000_000);
        assert_eq!(h.count(), 10_011);
        let p50 = h.percentile(50.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        let p999 = h.percentile(99.9).unwrap();
        // ≤ 6.25% quantization error, always erring high.
        assert!((1_000.0..=1_070.0).contains(&p50), "p50 = {p50}");
        assert!((1_000.0..=1_070.0).contains(&p99), "p99 = {p99}");
        assert!((1_000_000.0..=1_070_000.0).contains(&p999), "p999 = {p999}");
        assert!(p50 <= p99 && p99 <= p999, "percentiles must be monotone");
        assert_eq!(h.max_ns(), 100_000_000, "max is exact, not quantized");
        assert_eq!(h.percentile(100.0), Some(100_000_000.0));
    }

    #[test]
    fn histogram_is_empty_safe_and_mergeable() {
        let a = LatencyHistogram::new();
        assert_eq!(a.percentile(50.0), None);
        let mut r = Record::default();
        a.fill_record(&mut r);
        assert_eq!(r.p50_ns, None);
        let b = LatencyHistogram::new();
        b.record(500);
        b.record(700);
        a.merge(&b);
        a.record(900);
        assert_eq!(a.count(), 3);
        let p50 = a.percentile(50.0).unwrap();
        assert!((700.0..=750.0).contains(&p50), "p50 = {p50}");
        a.fill_record(&mut r);
        assert!(r.p50_ns.is_some() && r.p99_ns.is_some() && r.p999_ns.is_some());
    }

    #[test]
    fn histogram_head_is_exact_and_durations_convert() {
        let h = LatencyHistogram::new();
        // The linear head (< 16 ns) is exact to the nanosecond.
        for ns in 0..16 {
            h.record(ns);
        }
        assert_eq!(h.percentile(100.0), Some(15.0));
        h.record_duration(Duration::from_micros(3));
        assert_eq!(h.max_ns(), 3_000);
    }
}
