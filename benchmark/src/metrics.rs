//! The names every later performance claim uses: workloads, end-to-end
//! metrics (with their regression bounds) and per-layer metrics. The same
//! tables are in `../BENCHMARK.json`; a test keeps the two equal.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric definition. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before a change is rejected;
/// per-layer metrics have none.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// `(name, why)` of the five workloads.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "rbtree_lowcont",
        "16384-key tree, 80% read-only lookups: conflicts ~absent, so begin/read/validate/commit and Shrink's hooks do all the work",
    ),
    (
        "rbtree_hot",
        "64-key tree, 100% updates: conflict detection, contention manager, rollback, backoff and Shrink's prediction do the work, the read-only path none",
    ),
    (
        "sb7_write",
        "STMBench7 write-dominated: long transactions with large read/write sets, so per-access cost outweighs begin/commit",
    ),
    (
        "handoff_pingpong",
        "one token between two blocking queues: every hop is a waitlist park plus a commit-side wake and nothing else",
    ),
    (
        "service_steady",
        "sharded store at a fixed 8000 requests/s open loop: cross-shard escrow, two-runtime selects and Zipf hot keys with real work in the body",
    ),
];

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s.base", "1/s", Higher, 0.25),
    e2e("ops_per_s.shrink", "1/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer the workload does not exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 59] = [
    layer("stm.runtime.empty_tx_ns", "ns", Lower),
    layer("stm.runtime.empty_ro_ns", "ns", Lower),
    layer("stm.runtime.overhead_ns", "ns", Lower),
    layer("stm.runtime.attempts_per_commit.base", "ratio", Lower),
    layer("stm.runtime.attempts_per_commit.shrink", "ratio", Lower),
    layer("stm.runtime.wasted_body_share", "share", Lower),
    layer("stm.txn.read_ns", "ns", Lower),
    layer("stm.txn.write_ns", "ns", Lower),
    layer("stm.txn.scan8_ns", "ns", Lower),
    layer("stm.txn.scan32_ns", "ns", Lower),
    layer("stm.txn.scan128_ns", "ns", Lower),
    layer("stm.readtx.read_ns", "ns", Lower),
    layer("stm.readtx.scan32_ns", "ns", Lower),
    layer("stm.readtx.revalidations_per_commit", "ratio", Lower),
    layer("stm.clock.tick_ns", "ns", Lower),
    layer("stm.clock.tick_contended_ns", "ns", Lower),
    layer("stm.orec.lock_unlock_ns", "ns", Lower),
    layer("stm.orec.acquires_per_commit", "ratio", Lower),
    layer("stm.tvar.snapshot_ns", "ns", Lower),
    layer("stm.tvar.snapshot_boxed_ns", "ns", Lower),
    layer("stm.waitlist.hop_us", "us", Lower),
    layer("stm.waitlist.parks_per_hop", "ratio", Lower),
    layer("stm.waitlist.changed_before_park_share", "share", Higher),
    layer("stm.waitlist.wasted_wake_share", "share", Lower),
    layer("stm.registry.book_us_p50", "us", Lower),
    layer("stm.registry.select_parks_per_booking", "ratio", Lower),
    layer("stm.future.async_tx_ns", "ns", Lower),
    layer("core.shrink.hook_ns", "ns", Lower),
    layer("core.ats.hook_ns", "ns", Lower),
    layer("core.pool.hook_ns", "ns", Lower),
    layer("core.serializer.hook_ns", "ns", Lower),
    layer("core.shrink.tax_share", "share", Lower),
    layer("core.shrink.serialized_share", "share", Lower),
    layer("core.shrink.checks_per_commit", "ratio", Lower),
    layer("core.shrink.read_accuracy", "share", Higher),
    layer("core.shrink.write_accuracy", "share", Higher),
    layer("core.bloom.insert_ns", "ns", Lower),
    layer("core.bloom.contains_ns", "ns", Lower),
    layer("core.serial_lock.acquire_release_ns", "ns", Lower),
    layer("workloads.rbtree.get_ns", "ns", Lower),
    layer("workloads.rbtree.insert_ns", "ns", Lower),
    layer("workloads.rbtree.remove_ns", "ns", Lower),
    layer("workloads.sb7.step_us_p50", "us", Lower),
    layer("workloads.sb7.step_us_p99", "us", Lower),
    layer("workloads.op_p99_us.base", "us", Lower),
    layer("workloads.op_p99_us.shrink", "us", Lower),
    layer("workloads.service.read_us_p50", "us", Lower),
    layer("workloads.service.update_us_p50", "us", Lower),
    layer("workloads.service.transfer_us_p50", "us", Lower),
    layer("workloads.service.booking_us_p50", "us", Lower),
    layer("workloads.service.call_us_p99", "us", Lower),
    layer("workloads.service.latency_us_p99", "us", Lower),
    layer("workloads.service.queue_wait_us_p99", "us", Lower),
    layer("workloads.service.gen_late_us_p99", "us", Lower),
    layer("workloads.service.aborts_per_request", "ratio", Lower),
    layer("vendor.parking_lot.mutex_ns", "ns", Lower),
    layer("vendor.parking_lot.eventcount_hop_us", "us", Lower),
    layer("vendor.crossbeam.pin_ns", "ns", Lower),
    layer("trace.overhead_share", "share", Lower),
];

/// The unit of a metric by name (end-to-end first, then per-layer).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// `--list`: every workload and metric name, one per line, tab-separated
/// from its kind and attributes.
pub fn list() -> String {
    let mut out = String::new();
    for (name, why) in WORKLOADS {
        out.push_str(&format!("workload\t{name}\t{why}\n"));
    }
    for m in END_TO_END {
        out.push_str(&format!(
            "end_to_end\t{}\t{}\t{}\t{}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.unwrap_or(0.0)
        ));
    }
    for m in PER_LAYER {
        out.push_str(&format!(
            "per_layer\t{}\t{}\t{}\n",
            m.name,
            m.unit,
            m.better.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn listed(kind: &str) -> Vec<Vec<String>> {
        list()
            .lines()
            .map(|l| l.split('\t').map(str::to_string).collect::<Vec<_>>())
            .filter(|f| f[0] == kind)
            .collect()
    }

    #[test]
    fn list_equals_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark directory");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

        let workloads: Vec<Vec<String>> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| vec!["workload".into(), field(w, "name"), field(w, "why")])
            .collect();
        assert_eq!(listed("workload"), workloads);

        let e2e: Vec<Vec<String>> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                vec![
                    "end_to_end".into(),
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Value::as_f64).unwrap().to_string(),
                ]
            })
            .collect();
        assert_eq!(listed("end_to_end"), e2e);

        let layers: Vec<Vec<String>> = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                vec![
                    "per_layer".into(),
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                ]
            })
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "{name:?} breaks [A-Za-z0-9][A-Za-z0-9_.-]*");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
