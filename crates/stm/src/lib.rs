//! # shrink-stm — an STM substrate with visible writes and pluggable schedulers
//!
//! This crate is the transactional-memory substrate of the *Shrink*
//! reproduction ("Preventing versus Curing: Avoiding Conflicts in
//! Transactional Memories", PODC 2009). It provides:
//!
//! * a word-based software transactional memory built on ownership records
//!   with **visible writes** — any thread can ask which thread is currently
//!   writing an address, which is the facility prediction-based schedulers
//!   need;
//! * two conflict-handling backends modelled after the STMs the paper
//!   evaluates: [`BackendKind::Swiss`] (SwissTM-like lazy read/write conflict
//!   resolution with a two-phase contention manager) and
//!   [`BackendKind::Tiny`] (TinySTM-like encounter-time locking with bounded
//!   busy-waiting);
//! * both waiting policies the paper compares ([`WaitPolicy::Preemptive`]
//!   and [`WaitPolicy::Busy`]);
//! * the scheduler hook interface ([`sched::TxScheduler`]) through which the
//!   Shrink, ATS, Pool and Serializer policies of the companion
//!   `shrink-core` crate plug in;
//! * composable blocking ([`Tx::retry`] / [`Tx::or_else`] /
//!   [`atomically`]): transactions that wait for a predicate over `TVar`s
//!   park on per-stripe commit event counts instead of abort-spinning, and
//!   alternatives roll back only their own branch (DESIGN.md §9);
//! * lock-free read-only transactions
//!   ([`TmRuntime::read_only`](runtime::TmRuntime::read_only)): declared
//!   readers snapshot the clock once and validate per read with **zero orec
//!   writes, zero commit ticket, zero waitlist registration** — they never
//!   abort a writer and are invisible to the schedulers (DESIGN.md §10).
//!   Read-path code generic over [`TxRead`] runs on both paths;
//! * async transactions ([`atomically_async`] / [`future::TxFuture`]): the
//!   same synchronous bodies run as futures — a blocked [`Tx::retry`]
//!   suspends the task with a `Waker`-backed parker on the same per-stripe
//!   waitlists instead of parking a thread, so 100k+ blocked consumers fit
//!   on a handful of executor workers (DESIGN.md §12);
//! * cross-runtime blocking ([`retry_select`] and the [`select`] module):
//!   a select over arms bound to *different* runtimes parks one parker
//!   across all their waitlists — the deliberate-sharing counterpart of
//!   the accidental-sharing [`TmError::ForeignTVar`] refusal
//!   (DESIGN.md §13). `run` is the same thread-side wait loop with one
//!   arm.
//!
//! ## Quick start
//!
//! ```
//! use shrink_stm::{TmRuntime, TVar};
//!
//! let rt = TmRuntime::new();
//! let x = TVar::new(1u64);
//! let y = TVar::new(2u64);
//!
//! let sum = rt.run(|tx| {
//!     let a = tx.read(&x)?;
//!     let b = tx.read(&y)?;
//!     tx.write(&y, a + b)?;
//!     Ok(a + b)
//! });
//! assert_eq!(sum, 3);
//! assert_eq!(y.snapshot(), 3);
//! ```
//!
//! ## Architecture
//!
//! ```text
//! TmRuntime ── GlobalClock          (TL2-style timestamps)
//!      │   ├── OrecTable            (striped versioned write locks, visible writes)
//!      │   ├── ThreadRegistry       (ThreadTable of ThreadCtx: kill flags, counters)
//!      │   └── Arc<dyn TxScheduler> (policy hooks; NoopScheduler by default)
//!      ├── run(body) ──────────────► Tx (read/write/commit protocol)
//!      └── read_only(body) ────────► ReadTx (lock-free snapshot reads)
//! TVar<T> ── ValueCell<T>           (lock-free snapshots: inline seqlock
//!      │                             for small dropless types, epoch-
//!      └── reclaimed box otherwise; see DESIGN.md §7)
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backoff;
pub mod cell;
pub mod clock;
pub mod config;
pub mod epoch;
pub mod error;
pub mod faults;
pub mod future;
mod log;
pub mod orec;
pub mod runtime;
pub mod sched;
pub mod select;
pub mod stats;
pub mod tarray;
pub mod thread;
pub mod tvar;
pub mod txn;
pub mod varid;
pub mod visible;
pub mod waitlist;

pub use config::{BackendKind, TmConfig, WaitPolicy};
pub use epoch::{AttemptEpochs, EpochTable, EpochWaitOutcome, NoEpochs};
pub use error::{Abort, AbortReason, TmError, TxResult};
pub use faults::{FaultKind, FaultSite};
pub use future::{atomically_async, TxFuture};
pub use runtime::{atomically, quiesce, TmBuilder, TmRuntime};
pub use sched::{AttemptEnd, NoopScheduler, SchedCtx, TxScheduler};
pub use select::{retry_select, retry_select_deadline, select_stats, SelectArm, SelectStats};
pub use stats::{ThreadStats, TmStats};
pub use tarray::TArray;
pub use thread::{ThreadId, ThreadTable};
pub use tvar::{TVar, TxValue};
pub use txn::{ReadTx, Tx, TxRead};
pub use varid::VarId;
pub use visible::{StaticWrites, VisibleWrites};
pub use waitlist::RetryStats;
