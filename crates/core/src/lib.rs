//! # shrink-core — prediction-based transaction scheduling
//!
//! This crate implements the scheduling contribution of *"Preventing versus
//! Curing: Avoiding Conflicts in Transactional Memories"* (PODC 2009) on top
//! of the [`shrink-stm`](shrink_stm) substrate:
//!
//! * [`Shrink`] — the paper's scheduler: Bloom-filter temporal-locality
//!   read-set prediction, aborted-write-set write prediction, per-thread
//!   success rates, and the *serialization affinity* heuristic;
//! * [`Ats`] — adaptive transaction scheduling (Yoo & Lee), the paper's
//!   representative of coarse reactive serialization;
//! * [`Pool`] — serialize every contended thread, the paper's measurement
//!   baseline for the cost/benefit of serialization;
//! * [`Serializer`] — CAR-STM-style schedule-after-conflict.
//!
//! All schedulers plug into any [`TmRuntime`](shrink_stm::TmRuntime) via
//! [`TmBuilder::scheduler`](shrink_stm::runtime::TmBuilder::scheduler); pick
//! one dynamically with [`SchedulerKind`].
//!
//! ```
//! use shrink_core::{Shrink, ShrinkConfig};
//! use shrink_stm::{TmRuntime, TVar};
//! use std::sync::Arc;
//!
//! let shrink = Arc::new(Shrink::new(ShrinkConfig::default()));
//! let rt = TmRuntime::builder().scheduler_arc(shrink.clone()).build();
//!
//! let v = TVar::new(0u64);
//! rt.run(|tx| tx.modify(&v, |x| x + 1));
//!
//! println!("prediction stats: {:?}", shrink.prediction_stats());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ats;
pub mod bloom;
pub mod kind;
pub mod pool;
pub mod serial_lock;
pub mod serializer;
pub mod shrink;
pub mod slots;
#[cfg(test)]
mod testkit;

pub use ats::Ats;
pub use bloom::{BloomFilter, BloomRing};
pub use kind::SchedulerKind;
pub use pool::Pool;
pub use serial_lock::SerialLock;
pub use serializer::{Serializer, SerializerConfig, SerializerWaitStats};
pub use shrink::{PredictionStats, Shrink, ShrinkConfig};
pub use slots::ThreadSlots;
