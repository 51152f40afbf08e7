//! A sharded transactional KV/booking service under open-loop traffic.
//!
//! Every other workload in this crate is *paper-shaped*: a fixed set of
//! threads in a closed loop, measured by throughput alone. This module is
//! the production-shaped scenario the ROADMAP calls for — the regime where
//! the paper says prevention beats curing is **overload**, and overload
//! only exists under an *open* arrival process, where requests keep
//! arriving whether or not the server keeps up and the cost shows first in
//! tail latency.
//!
//! Two pieces:
//!
//! * [`store`] — a [`ShardedStore`]: one `TmRuntime` per shard, keys
//!   partitioned round-robin, a typed cross-shard transfer protocol with
//!   **exact** conservation on audited global snapshots (escrow accounting
//!   and a freeze-gated audit; see the module docs for the impossibility
//!   argument that forces this design), and a cross-shard booking flow
//!   built on the cross-runtime [`retry_select`] registry;
//! * [`traffic`] — an open-loop generator: thousands of simulated clients
//!   with Zipfian key popularity and bursty exponential inter-arrival
//!   produce a pre-computed arrival schedule; a bounded worker pool serves
//!   it, and each request's latency is measured from its *scheduled
//!   arrival* (not service start), so queueing delay under overload is in
//!   the number — the open-loop discipline that makes p99 honest.
//!
//! The benchmark of record's `service_steady` workload measures the
//! steady-state regime; `bench_service` drives the overload sweep (all five
//! schedulers at multiples of calibrated capacity, which no `BENCHMARK.json`
//! cell covers yet) and writes the p50/p99/p999 ledger `BENCH_service.json`;
//! `tests/service.rs` hammers the conservation audit mid-flight across the
//! scheduler × wait-policy matrix.
//!
//! [`ShardedStore`]: store::ShardedStore
//! [`retry_select`]: shrink_stm::retry_select

pub mod store;
pub mod traffic;

pub use store::{BookingOutcome, ShardedStore, TransferEntry};
pub use traffic::{
    build_schedule, run_open_loop, Request, RequestKind, RequestMix, TrafficConfig, TrafficReport,
};
