//! End-to-end workload audits: every benchmark port runs concurrently
//! under both backends with the Shrink scheduler and passes its own
//! consistency verification.

mod common;

use std::sync::Arc;

use common::all_schedulers;
use shrink::prelude::*;
use shrink::workloads::harness::run_fixed_steps;
use shrink::workloads::stamp;
use shrink::workloads::stmbench7::{Sb7Config, Sb7Mix, Sb7Workload};
use shrink::workloads::RbTreeWorkload;

fn runtime(backend: BackendKind) -> TmRuntime {
    TmRuntime::builder()
        .backend(backend)
        .scheduler_arc(SchedulerKind::shrink_default().build())
        .build()
}

#[test]
fn every_stamp_config_verifies_on_swiss_with_shrink() {
    for name in stamp::STAMP_NAMES {
        let rt = runtime(BackendKind::Swiss);
        let w = stamp::build(name, &rt);
        run_fixed_steps(&rt, &w, 3, 40, 0xA11CE);
        w.verify(&rt)
            .unwrap_or_else(|e| panic!("{name} (swiss/shrink) failed: {e}"));
    }
}

#[test]
fn every_stamp_config_verifies_on_tiny_with_shrink() {
    for name in stamp::STAMP_NAMES {
        let rt = runtime(BackendKind::Tiny);
        let w = stamp::build(name, &rt);
        run_fixed_steps(&rt, &w, 3, 40, 0xB0B);
        w.verify(&rt)
            .unwrap_or_else(|e| panic!("{name} (tiny/shrink) failed: {e}"));
    }
}

#[test]
fn stmbench7_mixes_verify_on_both_backends() {
    for backend in [BackendKind::Swiss, BackendKind::Tiny] {
        for mix in Sb7Mix::all() {
            let rt = runtime(backend);
            let w: Arc<dyn TxWorkload> = Arc::new(Sb7Workload::new(&rt, Sb7Config::tiny(), mix));
            run_fixed_steps(&rt, &w, 3, 60, 7);
            w.verify(&rt)
                .unwrap_or_else(|e| panic!("stmbench7 {mix} on {backend} failed: {e}"));
        }
    }
}

#[test]
fn rbtree_workload_verifies_under_heavy_updates() {
    for backend in [BackendKind::Swiss, BackendKind::Tiny] {
        let rt = runtime(backend);
        let w: Arc<dyn TxWorkload> = Arc::new(RbTreeWorkload::new(&rt, 512, 70));
        run_fixed_steps(&rt, &w, 4, 200, 99);
        w.verify(&rt)
            .unwrap_or_else(|e| panic!("rbtree on {backend} failed: {e}"));
    }
}

#[test]
fn stamp_runs_under_every_scheduler_on_one_representative() {
    // `intruder` has the hot queue — the scheduler-sensitive case.
    for kind in all_schedulers() {
        let rt = TmRuntime::builder()
            .backend(BackendKind::Swiss)
            .scheduler_arc(kind.build())
            .build();
        let w = stamp::build("intruder", &rt);
        run_fixed_steps(&rt, &w, 3, 60, 5);
        w.verify(&rt)
            .unwrap_or_else(|e| panic!("intruder under {} failed: {e}", kind.label()));
    }
}
