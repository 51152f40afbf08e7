//! Transactional variables.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cell::ValueCell;
use crate::varid::VarId;

/// Marker trait for types that can live in a [`TVar`].
///
/// Blanket-implemented; listed explicitly so the requirements show up in
/// one place: values are cloned out by `read`, sent across threads by the
/// commit protocol, and (on the boxed storage path) destroyed by deferred
/// epoch reclamation, possibly on another thread.
pub trait TxValue: Clone + Send + Sync + 'static {}

impl<T: Clone + Send + Sync + 'static> TxValue for T {}

pub(crate) struct TVarInner<T> {
    pub(crate) id: VarId,
    pub(crate) cell: ValueCell<T>,
    /// Id of the [`TmRuntime`](crate::TmRuntime) this variable is bound to;
    /// 0 until the first transactional access binds it. Orec striping and
    /// retry waitlists are per-runtime, so a variable used through two
    /// runtimes would validate against the wrong orec table and park on a
    /// waitlist no committer ever notifies — transactional paths check this
    /// stamp and reject foreign access with a typed error instead.
    owner: AtomicU64,
}

impl<T> TVarInner<T> {
    /// Binds the variable to runtime `rt` if unbound, or checks the stamp.
    /// `Err` carries the owning runtime's id on a cross-runtime access.
    #[inline]
    pub(crate) fn bind_owner(&self, rt: u64) -> Result<(), u64> {
        let cur = self.owner.load(Ordering::Relaxed);
        if cur == rt {
            return Ok(());
        }
        if cur == 0 {
            return match self
                .owner
                .compare_exchange(0, rt, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => Ok(()),
                Err(actual) if actual == rt => Ok(()),
                Err(actual) => Err(actual),
            };
        }
        Err(cur)
    }

    /// The bound runtime id, if any.
    pub(crate) fn owner_id(&self) -> Option<u64> {
        match self.owner.load(Ordering::Relaxed) {
            0 => None,
            id => Some(id),
        }
    }
}

/// A transactional variable: a shared cell readable and writable inside
/// transactions.
///
/// `TVar<T>` is a cheap handle (an `Arc` internally); clone it freely to
/// share between threads. A read that needs only part of a large payload —
/// a length, a field, a membership test — should use
/// [`read_with`](crate::Tx::read_with), which runs a closure on the value
/// in place instead of cloning it out as [`read`](crate::Tx::read) does.
///
/// Three read paths, in increasing consistency: [`TVar::snapshot`] (latest
/// committed value, no cross-variable consistency),
/// [`TmRuntime::read_only`](crate::TmRuntime::read_only) (consistent
/// multi-variable snapshot, lock-free, no locks taken), and a full
/// [`TmRuntime::run`](crate::TmRuntime::run) transaction (consistent and
/// composable with writes/blocking).
///
/// # Examples
///
/// ```
/// use shrink_stm::{TmRuntime, TVar};
///
/// let rt = TmRuntime::new();
/// let acc_a = TVar::new(100i64);
/// let acc_b = TVar::new(0i64);
///
/// // Transfer 30 from A to B, atomically.
/// rt.run(|tx| {
///     let a = tx.read(&acc_a)?;
///     let b = tx.read(&acc_b)?;
///     tx.write(&acc_a, a - 30)?;
///     tx.write(&acc_b, b + 30)
/// });
///
/// assert_eq!(acc_a.snapshot(), 70);
/// assert_eq!(acc_b.snapshot(), 30);
/// ```
pub struct TVar<T> {
    pub(crate) inner: Arc<TVarInner<T>>,
}

impl<T: TxValue> TVar<T> {
    /// Creates a new transactional variable holding `value`.
    pub fn new(value: T) -> Self {
        TVar {
            inner: Arc::new(TVarInner {
                id: VarId::fresh(),
                cell: ValueCell::new(value),
                owner: AtomicU64::new(0),
            }),
        }
    }

    /// Id of the [`TmRuntime`](crate::TmRuntime) this variable is bound to,
    /// or `None` before its first transactional access. Diagnostic companion
    /// to the [`TmError::ForeignTVar`](crate::TmError::ForeignTVar)
    /// contract: a variable binds to the first runtime that reads or writes
    /// it transactionally and every later access must come through that
    /// runtime ([`TVar::snapshot`] stays runtime-free).
    pub fn owner_runtime(&self) -> Option<u64> {
        self.inner.owner_id()
    }

    /// The stable identifier of this variable (the "address" that schedulers
    /// predict and the orec table stripes on).
    pub fn id(&self) -> VarId {
        self.inner.id
    }

    /// Reads the latest installed value *outside* any transaction.
    ///
    /// This is atomic for the single variable but provides no consistency
    /// across variables; use a transaction for multi-variable reads. Intended
    /// for post-run verification and monitoring.
    ///
    /// The read is lock-free on both storage paths: a seqlock word copy for
    /// small dropless types, an epoch-pinned atomic pointer load otherwise
    /// (see DESIGN.md §7). No mutex or rwlock is acquired.
    pub fn snapshot(&self) -> T {
        self.inner.cell.load()
    }

    /// True when this variable's values live inline in the cell (seqlock
    /// fast path: no heap indirection or epoch pin on reads). Diagnostic,
    /// for tests and benchmarks asserting which read path a type takes.
    pub fn uses_inline_storage(&self) -> bool {
        self.inner.cell.is_inline()
    }
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TVar({})", self.inner.id)
    }
}

impl<T: TxValue + Default> Default for TVar<T> {
    fn default() -> Self {
        TVar::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tvar_holds_value_and_fresh_id() {
        let a = TVar::new(5u32);
        let b = TVar::new(6u32);
        assert_eq!(a.snapshot(), 5);
        assert_eq!(b.snapshot(), 6);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn clones_share_identity_and_storage() {
        let a = TVar::new(String::from("x"));
        let b = a.clone();
        assert_eq!(a.id(), b.id());
        a.inner.cell.store(String::from("y"));
        assert_eq!(b.snapshot(), "y");
    }

    #[test]
    fn default_uses_value_default() {
        let v: TVar<u64> = TVar::default();
        assert_eq!(v.snapshot(), 0);
    }

    #[test]
    fn debug_shows_id() {
        let v = TVar::new(1u8);
        assert!(format!("{v:?}").starts_with("TVar(v"));
    }

    #[test]
    fn storage_path_matches_payload_shape() {
        assert!(TVar::new(0u64).uses_inline_storage());
        assert!(TVar::new((1u64, 2u64)).uses_inline_storage());
        assert!(!TVar::new(String::new()).uses_inline_storage());
        assert!(!TVar::new(vec![0u8; 4]).uses_inline_storage());
    }

    #[test]
    fn tvar_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TVar<u64>>();
        assert_send_sync::<TVar<Vec<String>>>();
    }
}
