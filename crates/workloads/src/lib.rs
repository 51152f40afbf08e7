//! # shrink-workloads — the paper's benchmarks, ported
//!
//! Rust ports of the workloads the paper evaluates Shrink on, all running
//! against the [`shrink-stm`](shrink_stm) runtime:
//!
//! * [`rbtree`] — the red-black-tree microbenchmark (integer range 16384,
//!   20 % / 70 % updates);
//! * [`stmbench7`] — a structurally faithful, scaled STMBench7: the CAD
//!   object graph with traversal / operation / structural-modification
//!   mixes in read-dominated, read-write and write-dominated flavours;
//! * [`stamp`] — analogues of all ten STAMP configurations (bayes, genome,
//!   intruder, kmeans ×2, labyrinth, ssca2, vacation ×2, yada) preserving
//!   each application's transactional access pattern;
//! * [`queue`] — blocking bounded queues built on the composable
//!   `retry`/`or_else` API (DESIGN.md §9), usable from threads and async
//!   tasks alike;
//! * [`harness`] — the time-boxed committed-tx/s measurement used by every
//!   figure;
//! * [`service`] — the production-shaped scenario: a sharded transactional
//!   KV/booking store (one runtime per shard, four-phase escrow transfers
//!   with exact cross-shard conservation, cross-runtime booking selects)
//!   under an open-loop Zipfian/bursty traffic generator that measures
//!   latency from scheduled arrival (DESIGN.md §13).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod harness;
pub mod queue;
pub mod rbtree;
pub mod service;
pub mod stamp;
pub mod stmbench7;

pub use harness::{run_fixed_steps, run_throughput, RunConfig, RunOutcome, TxWorkload};
pub use queue::TxQueue;
pub use rbtree::{RbTreeWorkload, TxRbTree};
pub use service::{
    build_schedule, run_open_loop, BookingOutcome, Request, RequestKind, RequestMix, ShardedStore,
    TrafficConfig, TrafficReport, TransferEntry,
};
