//! Helpers shared by the integration suites. Each suite compiles this
//! module on its own and uses only part of it.
#![allow(dead_code)]

use shrink::prelude::SchedulerKind;

/// Stress scaling: 1 in normal runs, 4 under `SHRINK_STRESS=1`.
pub fn stress_factor() -> usize {
    match std::env::var("SHRINK_STRESS") {
        Ok(v) if !v.is_empty() && v != "0" => 4,
        _ => 1,
    }
}

/// The five schedulers, each with its default configuration.
pub fn all_schedulers() -> [SchedulerKind; 5] {
    [
        SchedulerKind::Noop,
        SchedulerKind::shrink_default(),
        SchedulerKind::ats_default(),
        SchedulerKind::Pool,
        SchedulerKind::Serializer(Default::default()),
    ]
}
