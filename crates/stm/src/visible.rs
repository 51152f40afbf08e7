//! The *visible writes* oracle.
//!
//! The paper integrates Shrink only with TMs that use visible writes: "a TM
//! uses visible writes if all threads know whenever a particular thread
//! writes to an address". This trait is that knowledge, abstracted away from
//! the concrete lock-table representation so schedulers can be tested with
//! scripted oracles.

use crate::thread::ThreadId;
use crate::varid::VarId;

/// Read-only view of which addresses are currently write-locked and by whom.
///
/// Implemented by the runtime's ownership-record table; schedulers query it
/// on transaction start to decide whether a predicted access set is *free*.
pub trait VisibleWrites: Send + Sync {
    /// True if `var` is currently being written by a thread other than `me`.
    fn is_written_by_other(&self, var: VarId, me: ThreadId) -> bool;

    /// The thread currently writing `var`, if any.
    fn writer_of(&self, var: VarId) -> Option<ThreadId>;
}

/// A scripted oracle for scheduler unit tests: the set of (var, writer)
/// pairs is fixed at construction.
#[derive(Debug, Clone, Default)]
pub struct StaticWrites {
    entries: Vec<(VarId, ThreadId)>,
}

impl StaticWrites {
    /// Creates an oracle with no writers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `writer` to be writing `var`.
    pub fn with_writer(mut self, var: VarId, writer: ThreadId) -> Self {
        self.entries.push((var, writer));
        self
    }
}

impl VisibleWrites for StaticWrites {
    fn is_written_by_other(&self, var: VarId, me: ThreadId) -> bool {
        self.entries.iter().any(|&(v, w)| v == var && w != me)
    }

    fn writer_of(&self, var: VarId) -> Option<ThreadId> {
        self.entries
            .iter()
            .find(|&&(v, _)| v == var)
            .map(|&(_, w)| w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_oracle_reports_scripted_writers() {
        let v1 = VarId::from_u64(1);
        let v2 = VarId::from_u64(2);
        let w = ThreadId::from_u16(4);
        let oracle = StaticWrites::new().with_writer(v1, w);
        assert!(oracle.is_written_by_other(v1, ThreadId::from_u16(1)));
        assert!(
            !oracle.is_written_by_other(v1, w),
            "own write is not a conflict"
        );
        assert!(!oracle.is_written_by_other(v2, ThreadId::from_u16(1)));
        assert_eq!(oracle.writer_of(v1), Some(w));
        assert_eq!(oracle.writer_of(v2), None);
    }
}
