//! Value-level scheduler selection, for benchmark harnesses and CLIs.

use std::fmt;
use std::sync::Arc;

use shrink_stm::{NoopScheduler, TxScheduler};

use crate::ats::Ats;
use crate::pool::Pool;
use crate::serializer::{Serializer, SerializerConfig};
use crate::shrink::{Shrink, ShrinkConfig};

/// A scheduler choice plus its configuration, as a plain value.
///
/// # Examples
///
/// ```
/// use shrink_core::SchedulerKind;
/// use shrink_stm::TmRuntime;
///
/// let rt = TmRuntime::builder()
///     .scheduler_arc(SchedulerKind::Pool.build())
///     .build();
/// assert_eq!(rt.scheduler_name(), "pool");
/// ```
#[derive(Clone, Debug, Default)]
pub enum SchedulerKind {
    /// No scheduling policy — the base TM.
    #[default]
    Noop,
    /// The Shrink prediction-based scheduler.
    Shrink(ShrinkConfig),
    /// Adaptive transaction scheduling.
    Ats,
    /// Serialize every contended thread.
    Pool,
    /// CAR-STM-style schedule-after-conflict.
    Serializer(SerializerConfig),
}

impl SchedulerKind {
    /// Shrink with default (paper) parameters.
    pub fn shrink_default() -> Self {
        SchedulerKind::Shrink(ShrinkConfig::default())
    }

    /// ATS, whose parameters are fixed constants: the same value as
    /// [`SchedulerKind::Ats`], spelled like
    /// [`shrink_default`](Self::shrink_default).
    pub fn ats_default() -> Self {
        SchedulerKind::Ats
    }

    /// Instantiates the scheduler.
    pub fn build(&self) -> Arc<dyn TxScheduler> {
        match self {
            SchedulerKind::Noop => Arc::new(NoopScheduler),
            SchedulerKind::Shrink(cfg) => Arc::new(Shrink::new(cfg.clone())),
            SchedulerKind::Ats => Arc::new(Ats::new()),
            SchedulerKind::Pool => Arc::new(Pool::new()),
            SchedulerKind::Serializer(cfg) => Arc::new(Serializer::new(*cfg)),
        }
    }

    /// The stable label used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Noop => "base",
            SchedulerKind::Shrink(_) => "shrink",
            SchedulerKind::Ats => "ats",
            SchedulerKind::Pool => "pool",
            SchedulerKind::Serializer(_) => "serializer",
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_its_named_scheduler() {
        let cases = [
            (SchedulerKind::Noop, "noop"),
            (SchedulerKind::shrink_default(), "shrink"),
            (SchedulerKind::ats_default(), "ats"),
            (SchedulerKind::Pool, "pool"),
            (
                SchedulerKind::Serializer(SerializerConfig::default()),
                "serializer",
            ),
        ];
        for (kind, expected) in cases {
            assert_eq!(kind.build().name(), expected);
        }
    }

    #[test]
    fn labels_are_bench_friendly() {
        assert_eq!(SchedulerKind::Noop.label(), "base");
        assert_eq!(SchedulerKind::Pool.to_string(), "pool");
    }
}
