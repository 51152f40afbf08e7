//! The scheduler hook contract, as a driver × outcome matrix: through every
//! transaction entry point and for every way an attempt can end, each
//! `before_start` is closed by exactly one `on_finish` carrying the expected
//! [`AttemptEnd`], the access sets handed over match what the attempt did,
//! and the runtime's statistics agree with what the hooks saw.

use std::collections::HashSet;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use shrink::prelude::*;
use shrink::stm::{
    retry_select, AttemptEnd, ReadTx, SchedCtx, SelectArm, ThreadId, TmError, VarId,
};

/// How a recorded bracket was closed. `Cancelled` is an `Abandoned` report
/// that arrived with no bracket open (a suspended future was dropped).
#[derive(Clone, Debug, PartialEq)]
enum End {
    Committed,
    Aborted(AbortReason),
    RetryWait,
    Abandoned,
    Cancelled,
}

#[derive(Clone, Debug)]
struct Finish {
    thread: ThreadId,
    kind: TxnKind,
    end: End,
    reads: Vec<VarId>,
    writes: Vec<VarId>,
}

/// Records every hook call. Never panics inside a hook (hooks also run
/// during unwinding); contract breaches are collected in `violations`.
#[derive(Debug, Default)]
struct RecordingScheduler {
    /// The thread of every `before_start`, in order.
    starts: Mutex<Vec<ThreadId>>,
    /// Threads with a bracket open right now — the in-flight attempts.
    open: Mutex<HashSet<ThreadId>>,
    finishes: Mutex<Vec<Finish>>,
    violations: Mutex<Vec<String>>,
}

impl RecordingScheduler {
    fn count(&self, end: &End, kind: TxnKind) -> u64 {
        let finishes = self.finishes.lock();
        finishes
            .iter()
            .filter(|f| f.end == *end && f.kind == kind)
            .count() as u64
    }

    fn aborts(&self) -> u64 {
        let finishes = self.finishes.lock();
        finishes
            .iter()
            .filter(|f| matches!(f.end, End::Aborted(_)))
            .count() as u64
    }

    /// Every bracket closed, nothing breached, and the runtime's own
    /// counters agree with the hooks.
    fn assert_settled(&self, rt: &TmRuntime, label: &str) {
        assert_eq!(*self.violations.lock(), Vec::<String>::new(), "{label}");
        assert!(self.open.lock().is_empty(), "{label}: in flight");
        let closed = self
            .finishes
            .lock()
            .iter()
            .filter(|f| f.end != End::Cancelled)
            .count() as u64;
        assert_eq!(
            self.starts.lock().len() as u64,
            closed,
            "{label}: every start completes exactly once"
        );
        let stats = rt.stats();
        let rw = TxnKind::ReadWrite;
        assert_eq!(
            stats.commits,
            self.count(&End::Committed, rw),
            "{label}: commits"
        );
        assert_eq!(stats.aborts, self.aborts(), "{label}: aborts");
        assert_eq!(
            stats.retry_waits,
            self.count(&End::RetryWait, rw),
            "{label}: retry waits"
        );
        assert_eq!(
            stats.ro_commits,
            self.count(&End::Committed, TxnKind::ReadOnly),
            "{label}: read-only commits"
        );
    }
}

impl TxScheduler for RecordingScheduler {
    fn before_start(&self, ctx: &SchedCtx<'_>) {
        self.starts.lock().push(ctx.thread);
        if !self.open.lock().insert(ctx.thread) {
            self.violations
                .lock()
                .push(format!("{:?}: before_start inside a bracket", ctx.thread));
        }
    }

    fn on_finish(
        &self,
        ctx: &SchedCtx<'_>,
        end: AttemptEnd<'_>,
        reads: &[VarId],
        writes: &[VarId],
    ) {
        let was_open = self.open.lock().remove(&ctx.thread);
        let end = match end {
            AttemptEnd::Committed => End::Committed,
            AttemptEnd::Aborted(abort) => End::Aborted(abort.reason()),
            AttemptEnd::RetryWait => End::RetryWait,
            AttemptEnd::Abandoned if was_open => End::Abandoned,
            AttemptEnd::Abandoned => End::Cancelled,
        };
        if !was_open && end != End::Cancelled {
            self.violations
                .lock()
                .push(format!("{:?}: {end:?} without before_start", ctx.thread));
        }
        if end == End::Aborted(AbortReason::Retry) {
            self.violations
                .lock()
                .push("a retry must end as RetryWait, not Aborted".into());
        }
        let unique: HashSet<&VarId> = writes.iter().collect();
        if unique.len() != writes.len() {
            self.violations
                .lock()
                .push(format!("duplicate in write set {writes:?}"));
        }
        self.finishes.lock().push(Finish {
            thread: ctx.thread,
            kind: ctx.kind,
            end,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        });
    }

    fn name(&self) -> &str {
        "recording"
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Driver {
    Run,
    RunBudgeted,
    RunWithDeadline,
    RunOrElse,
    RetrySelect,
    Async,
    ReadOnly,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Outcome {
    Commit,
    /// A concurrent commit invalidates the first attempt's read set.
    ConflictAbort,
    /// The body calls `restart` once.
    Restart,
    /// The body retries on a closed gate.
    Retry,
    ForeignTVar,
    BodyPanic,
    DroppedWhileSuspended,
}

const OUTCOMES: [Outcome; 7] = [
    Outcome::Commit,
    Outcome::ConflictAbort,
    Outcome::Restart,
    Outcome::Retry,
    Outcome::ForeignTVar,
    Outcome::BodyPanic,
    Outcome::DroppedWhileSuspended,
];

/// What the subject thread's bracket closings must look like.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Want {
    Committed,
    /// Aborted by a validation failure.
    Conflict,
    Restart,
    RetryWait,
    Abandoned,
    Cancelled,
}

impl Want {
    fn matches(self, end: &End) -> bool {
        use AbortReason::{CommitValidation, ReadValidation, UserRestart};
        match self {
            Want::Committed => *end == End::Committed,
            Want::Conflict => {
                matches!(end, End::Aborted(CommitValidation | ReadValidation))
            }
            Want::Restart => *end == End::Aborted(UserRestart),
            Want::RetryWait => *end == End::RetryWait,
            Want::Abandoned => *end == End::Abandoned,
            Want::Cancelled => *end == End::Cancelled,
        }
    }
}

/// How the driver call itself came back.
#[derive(Debug, PartialEq)]
enum Ran {
    Value(u64),
    Error(TmError),
    Panicked,
    Dropped,
}

/// The expected bracket closings of one matrix cell, or `None` where the
/// entry point cannot produce the outcome (read-only transactions cannot
/// `retry`; only a future can be dropped while suspended).
fn expected(driver: Driver, outcome: Outcome) -> Option<Vec<Want>> {
    use Want::*;
    let read_only = driver == Driver::ReadOnly;
    Some(match outcome {
        Outcome::Commit => vec![Committed],
        // Read-only restarts are internal: one bracket per transaction.
        Outcome::ConflictAbort | Outcome::Restart if read_only => vec![Committed],
        Outcome::ConflictAbort => vec![Conflict, Committed],
        Outcome::Restart => vec![Restart, Committed],
        Outcome::Retry => match driver {
            Driver::ReadOnly => return None,
            // The gate never opens: the budget allows two rounds; the
            // deadline at least one.
            Driver::RunBudgeted => vec![RetryWait, RetryWait],
            Driver::RunWithDeadline => vec![RetryWait],
            _ => vec![RetryWait, Committed],
        },
        Outcome::ForeignTVar | Outcome::BodyPanic => vec![Abandoned],
        Outcome::DroppedWhileSuspended if driver == Driver::Async => {
            vec![RetryWait, Cancelled]
        }
        Outcome::DroppedWhileSuspended => return None,
    })
}

/// One matrix cell: a fresh recorded runtime and the variables its body
/// touches.
struct Cell {
    driver: Driver,
    outcome: Outcome,
    rt: TmRuntime,
    recorder: Arc<RecordingScheduler>,
    a: TVar<u64>,
    b: TVar<u64>,
    gate: TVar<u64>,
    /// Bound to another runtime.
    foreign: TVar<u64>,
}

impl Cell {
    fn new(driver: Driver, outcome: Outcome) -> Self {
        let recorder = Arc::new(RecordingScheduler::default());
        let rt = TmRuntime::builder()
            .scheduler_arc(recorder.clone())
            // A round that times out is a lost wakeup: make it show up as
            // an extra RetryWait, except where the gate never opens.
            .retry_wait(match driver {
                Driver::RunBudgeted | Driver::RunWithDeadline => Duration::from_millis(1),
                _ => Duration::from_secs(30),
            })
            .build();
        let foreign = TVar::new(0u64);
        TmRuntime::new().run(|tx| tx.write(&foreign, 1));
        Cell {
            driver,
            outcome,
            rt,
            recorder,
            a: TVar::new(0),
            b: TVar::new(0),
            gate: TVar::new(0),
            foreign,
        }
    }

    /// Commits `value` to `vars` from another thread of this runtime.
    fn commit_elsewhere(&self, vars: &[&TVar<u64>], value: u64) {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                self.rt
                    .run(|tx| vars.iter().try_for_each(|v| tx.write(v, value)));
            });
        });
    }

    /// Opens the gate from another thread once the subject is registered on
    /// the retry waitlist.
    fn open_gate_when_parked(&self) {
        while self.rt.retry_waiters() == 0 {
            std::thread::yield_now();
        }
        self.commit_elsewhere(&[&self.gate], 1);
    }

    /// The read-write body: reads `a`, writes `b` twice, reads its own
    /// write, takes the outcome's turn, reads `a` again.
    fn rw_body(&self, tx: &mut Tx<'_>, first: &mut bool) -> TxResult<u64> {
        let x = tx.read(&self.a)?;
        tx.write(&self.b, x + 1)?;
        tx.write(&self.b, x + 2)?;
        let y = tx.read(&self.b)?;
        let first = std::mem::replace(first, false);
        match self.outcome {
            Outcome::ConflictAbort if first => self.commit_elsewhere(&[&self.a], 5),
            Outcome::Restart if first => return tx.restart(),
            Outcome::Retry | Outcome::DroppedWhileSuspended if tx.read(&self.gate)? == 0 => {
                return tx.retry();
            }
            Outcome::ForeignTVar => {
                tx.read(&self.foreign)?;
            }
            Outcome::BodyPanic => panic!("body panic (expected by the contract matrix)"),
            _ => {}
        }
        tx.read(&self.a)?;
        Ok(y)
    }

    fn ro_body(&self, tx: &mut ReadTx<'_>, first: &mut bool) -> TxResult<u64> {
        let x = tx.read(&self.a)?;
        let first = std::mem::replace(first, false);
        match self.outcome {
            Outcome::ConflictAbort if first => {
                // `b` moves past the snapshot, `a` moves under it: the
                // extension `b` triggers fails validation.
                self.commit_elsewhere(&[&self.a, &self.b], 5);
                tx.read(&self.b)?;
            }
            Outcome::Restart if first => return tx.restart(),
            Outcome::ForeignTVar => {
                tx.read(&self.foreign)?;
            }
            Outcome::BodyPanic => panic!("body panic (expected by the contract matrix)"),
            _ => {}
        }
        Ok(x + 2)
    }

    fn drive(&self) -> Ran {
        let mut first = true;
        let mut body = |tx: &mut Tx<'_>| self.rw_body(tx, &mut first);
        let blocks = self.outcome == Outcome::Retry;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                if blocks
                    && !matches!(
                        self.driver,
                        Driver::RunBudgeted | Driver::RunWithDeadline | Driver::Async
                    )
                {
                    scope.spawn(|| self.open_gate_when_parked());
                }
                match self.driver {
                    Driver::Run => Ok(self.rt.run(body)),
                    Driver::RunBudgeted => self.rt.run_budgeted(2, body).map_err(Some),
                    Driver::RunWithDeadline => self
                        .rt
                        .run_with_deadline(Instant::now() + Duration::from_millis(20), body)
                        .map_err(Some),
                    Driver::RunOrElse => Ok(self.rt.run_or_else(body, |tx| tx.retry())),
                    Driver::RetrySelect => {
                        Ok(retry_select(&mut [SelectArm::new(&self.rt, body)]).1)
                    }
                    Driver::Async => self.drive_async(&mut body),
                    Driver::ReadOnly => {
                        let mut first = true;
                        Ok(self.rt.read_only(|tx| self.ro_body(tx, &mut first)))
                    }
                }
            })
        }));
        match ran {
            Ok(Ok(value)) => Ran::Value(value),
            Ok(Err(Some(err))) => Ran::Error(err),
            Ok(Err(None)) => Ran::Dropped,
            Err(_) => Ran::Panicked,
        }
    }

    /// Polls the future by hand: to completion, or — for the cancellation
    /// outcome — until it suspends, then drops it (`Err(None)`).
    fn drive_async(
        &self,
        body: &mut dyn FnMut(&mut Tx<'_>) -> TxResult<u64>,
    ) -> Result<u64, Option<TmError>> {
        struct NoopWake;
        impl Wake for NoopWake {
            fn wake(self: Arc<Self>) {}
        }
        let waker = Waker::from(Arc::new(NoopWake));
        let mut cx = Context::from_waker(&waker);
        let mut fut = atomically_async(&self.rt, body);
        loop {
            match Pin::new(&mut fut).poll(&mut cx) {
                Poll::Ready(value) => return Ok(value),
                Poll::Pending if self.outcome == Outcome::DroppedWhileSuspended => {
                    assert!(self.rt.retry_waiters() > 0, "suspended, not spinning");
                    drop(fut);
                    assert_eq!(self.rt.retry_waiters(), 0, "cancellation deregisters");
                    return Err(None);
                }
                Poll::Pending => self.open_gate_when_parked(),
            }
        }
    }

    fn check(&self, want: &[Want]) {
        let label = format!("{:?} × {:?}", self.driver, self.outcome);
        let ran = self.drive();

        // How the call itself came back.
        let fallible = matches!(self.driver, Driver::RunBudgeted | Driver::RunWithDeadline);
        match (self.outcome, self.driver) {
            (Outcome::BodyPanic, _) => assert_eq!(ran, Ran::Panicked, "{label}"),
            (Outcome::ForeignTVar, _) if fallible => {
                assert!(
                    matches!(ran, Ran::Error(TmError::ForeignTVar { .. })),
                    "{label}: {ran:?}"
                );
            }
            (Outcome::ForeignTVar, _) => assert_eq!(ran, Ran::Panicked, "{label}"),
            (Outcome::DroppedWhileSuspended, _) => assert_eq!(ran, Ran::Dropped, "{label}"),
            (Outcome::Retry, Driver::RunBudgeted) => assert_eq!(
                ran,
                Ran::Error(TmError::RetryLimitExceeded { attempts: 2 }),
                "{label}"
            ),
            (Outcome::Retry, Driver::RunWithDeadline) => {
                assert!(
                    matches!(ran, Ran::Error(TmError::RetryTimeout { .. })),
                    "{label}: {ran:?}"
                );
            }
            _ => assert_eq!(ran, Ran::Value(self.a.snapshot() + 2), "{label}"),
        }

        // The subject thread opened the first bracket; helper threads
        // (conflicting writer, gate opener) only ever commit.
        let finishes = self.recorder.finishes.lock().clone();
        let subject = self.recorder.starts.lock()[0];
        let (mine, others): (Vec<_>, Vec<_>) = finishes.iter().partition(|f| f.thread == subject);
        assert!(others.iter().all(|f| f.end == End::Committed), "{label}");
        let ends: Vec<&End> = mine.iter().map(|f| &f.end).collect();
        if (self.outcome, self.driver) == (Outcome::Retry, Driver::RunWithDeadline) {
            // 1 ms rounds until the 20 ms deadline: at least one.
            assert!(
                !ends.is_empty() && ends.iter().all(|e| **e == End::RetryWait),
                "{label}: {ends:?}"
            );
        } else {
            assert_eq!(ends.len(), want.len(), "{label}: {ends:?}");
            for (want, end) in want.iter().zip(&ends) {
                assert!(want.matches(end), "{label}: wanted {want:?}, got {ends:?}");
            }
        }

        // The access sets: one read entry per dynamic read (the read of the
        // attempt's own write included), a duplicate-free write set.
        let (a, b, gate) = (self.a.id(), self.b.id(), self.gate.id());
        let gated = matches!(
            self.outcome,
            Outcome::Retry | Outcome::DroppedWhileSuspended
        );
        for f in &mine {
            let read_only = self.driver == Driver::ReadOnly;
            assert_eq!(
                f.kind,
                if read_only {
                    TxnKind::ReadOnly
                } else {
                    TxnKind::ReadWrite
                },
                "{label}"
            );
            let (reads, writes) = match &f.end {
                _ if read_only => (vec![], vec![]),
                End::Committed if gated => (vec![a, b, gate, a], vec![b]),
                End::Committed => (vec![a, b, a], vec![b]),
                // `or_else` rolled the first branch's writes back before
                // its alternative retried too.
                End::RetryWait if self.driver == Driver::RunOrElse => (vec![a, b, gate], vec![]),
                End::RetryWait => (vec![a, b, gate], vec![b]),
                End::Aborted(_) => (vec![a, b], vec![b]),
                End::Abandoned | End::Cancelled => (vec![], vec![]),
            };
            assert_eq!(f.reads, reads, "{label}: reads of {:?}", f.end);
            assert_eq!(f.writes, writes, "{label}: writes of {:?}", f.end);
        }

        self.recorder.assert_settled(&self.rt, &label);
        if self.driver == Driver::ReadOnly && self.outcome == Outcome::ConflictAbort {
            assert!(
                self.rt.stats().ro_revalidations >= 1,
                "{label}: restarted inside"
            );
        }
        // The runtime stays usable on the subject thread after every cell.
        self.rt.run(|tx| tx.modify(&self.a, |x| x + 1));
    }
}

/// Runs every applicable outcome through `driver`; `cells` pins how many
/// that is (seven, minus the cancellation only a future has, minus the
/// `retry` a read-only transaction lacks).
fn check_driver(driver: Driver, cells: usize) {
    let applicable: Vec<_> = OUTCOMES
        .into_iter()
        .filter_map(|outcome| Some((outcome, expected(driver, outcome)?)))
        .collect();
    assert_eq!(applicable.len(), cells, "{driver:?}");
    for (outcome, want) in applicable {
        Cell::new(driver, outcome).check(&want);
    }
}

#[test]
fn run_closes_every_outcome_with_one_on_finish() {
    check_driver(Driver::Run, 6);
}

#[test]
fn run_budgeted_closes_every_outcome_with_one_on_finish() {
    check_driver(Driver::RunBudgeted, 6);
}

#[test]
fn run_with_deadline_closes_every_outcome_with_one_on_finish() {
    check_driver(Driver::RunWithDeadline, 6);
}

#[test]
fn run_or_else_closes_every_outcome_with_one_on_finish() {
    check_driver(Driver::RunOrElse, 6);
}

#[test]
fn retry_select_closes_every_outcome_with_one_on_finish() {
    check_driver(Driver::RetrySelect, 6);
}

#[test]
fn atomically_async_closes_every_outcome_with_one_on_finish() {
    check_driver(Driver::Async, 7);
}

#[test]
fn read_only_closes_every_outcome_with_one_on_finish() {
    check_driver(Driver::ReadOnly, 5);
}

#[test]
fn hook_counts_match_under_concurrency() {
    let recorder = Arc::new(RecordingScheduler::default());
    let rt = TmRuntime::builder().scheduler_arc(recorder.clone()).build();
    let v = TVar::new(0u64);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let rt = rt.clone();
            let v = v.clone();
            std::thread::spawn(move || {
                for _ in 0..250 {
                    rt.run(|tx| tx.modify(&v, |x| x + 1));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(v.snapshot(), 1000);
    assert_eq!(recorder.count(&End::Committed, TxnKind::ReadWrite), 1000);
    recorder.assert_settled(&rt, "4 × 250 increments");
}
