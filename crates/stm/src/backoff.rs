//! Bounded waiting and retry backoff, parameterized by [`WaitPolicy`].

use std::hint;
use std::thread;
use std::time::Duration;

use crate::config::WaitPolicy;

/// Pause units after which [`WaitPolicy::Parked`] escalates from spinning
/// to yielding.
const PARK_SPIN_UNTIL: u32 = 64;
/// Pause units after which [`WaitPolicy::Parked`] starts interleaving naps
/// into the yields.
const PARK_YIELD_UNTIL: u32 = 192;
/// Past the yield phase, every `PARK_NAP_EVERY`-th pause unit is a nap and
/// the rest stay yields. The bounded conflict-wait loops in `txn.rs` count
/// pause units against spin-calibrated budgets (`READ_SPIN_BUDGET`,
/// `LOCK_SPIN_BUDGET`, …); naps on every unit would inflate those windows
/// ~1000× (e.g. a 2048-unit lock wait becoming ~40 ms). Interleaving keeps
/// a budgeted wait within roughly an order of magnitude of its yield-policy
/// duration while still releasing the core at a duty cycle a pure yield
/// loop never does.
const PARK_NAP_EVERY: u32 = 64;
/// Nap length once a parked waiter starts sleeping. Short enough that a
/// committing stripe owner (microseconds of work) is never over-waited by
/// much; long enough to actually leave the run queue.
pub(crate) const PARK_NAP: Duration = Duration::from_micros(20);

/// True when [`pause`] under [`WaitPolicy::Parked`] would serve this
/// iteration as a nap rather than a spin or yield. The bounded conflict
/// waits in `txn.rs` upgrade exactly these units into epoch-waits on the
/// stripe owner (same [`PARK_NAP`] deadline, but woken the moment the owner
/// finishes — see DESIGN.md §8.5).
pub(crate) fn parked_nap_due(iteration: u32) -> bool {
    iteration >= PARK_YIELD_UNTIL && iteration % PARK_NAP_EVERY == 0
}

/// Pauses once according to the waiting policy.
///
/// Under [`WaitPolicy::Preemptive`], every `YIELD_EVERY` pauses the thread
/// yields the processor so a preempted lock holder can run — the behaviour
/// SwissTM's "preemptive waiting" flag enables. Under [`WaitPolicy::Busy`]
/// the thread only executes a spin hint, reproducing busy waiting. Under
/// [`WaitPolicy::Parked`] the thread escalates spin → yield → periodic
/// naps: a yielding thread is still runnable (on an overloaded box it is
/// scheduled again just to poll), while a napping one frees its core for
/// the holder. Naps are interleaved, not continuous, so callers that count
/// pause units against a spin-calibrated budget (the bounded conflict
/// waits in `txn.rs`) keep windows of the same order of magnitude.
#[inline]
pub fn pause(policy: WaitPolicy, iteration: u32) {
    const YIELD_EVERY: u32 = 64;
    match policy {
        WaitPolicy::Preemptive => {
            if iteration % YIELD_EVERY == YIELD_EVERY - 1 {
                thread::yield_now();
            } else {
                hint::spin_loop();
            }
        }
        WaitPolicy::Busy => hint::spin_loop(),
        WaitPolicy::Parked => {
            if iteration < PARK_SPIN_UNTIL {
                hint::spin_loop();
            } else if iteration < PARK_YIELD_UNTIL || iteration % PARK_NAP_EVERY != 0 {
                thread::yield_now();
            } else {
                thread::sleep(PARK_NAP);
            }
        }
    }
}

/// Pause units of busy work (spins/yields) a single backoff may burn before
/// the remainder is converted into one sleep. `2^8`: comfortably above the
/// common case (ceiling 10 ⇒ ≤ 1024 spins, i.e. only the worst quartile of
/// jitter draws ever sleeps).
const BACKOFF_BUSY_CAP: u64 = 1 << 8;
/// Approximate cost of one spin-loop pause unit, used to convert capped-off
/// busy work into an equivalent sleep.
const NANOS_PER_UNIT: u64 = 25;
/// Longest backoff sleep.
const MAX_BACKOFF_SLEEP: Duration = Duration::from_millis(2);
/// Consecutive aborts after which the retry backoff stops growing: at most
/// `2^BACKOFF_CEILING` pause units.
const BACKOFF_CEILING: u32 = 10;

/// Waits between transaction retries after an abort.
///
/// Exponential in the number of consecutive aborts, capped at
/// `2^BACKOFF_CEILING` pause units, with a cheap multiplicative-hash jitter
/// so threads that abort together do not retry in lockstep.
///
/// For [`WaitPolicy::Preemptive`] and [`WaitPolicy::Parked`] the *busy*
/// portion is additionally capped at [`BACKOFF_BUSY_CAP`] pause units; the
/// excess is served as a single bounded sleep, so an abort storm backs off
/// without pegging cores. [`WaitPolicy::Busy`] is deliberately exempt: it
/// is the paper's pathological baseline (Figures 8–11 measure precisely
/// what un-parked waiting costs), so its backoff must keep burning the
/// core like the original TinySTM busy-wait did.
pub fn retry_backoff(policy: WaitPolicy, consecutive_aborts: u32, seed: u64) {
    let exp = consecutive_aborts.min(BACKOFF_CEILING);
    let max = 1u64 << exp;
    // xorshift-style jitter; avoids pulling a full RNG onto the abort path.
    let mut x = seed
        .wrapping_add(consecutive_aborts as u64)
        .wrapping_mul(0x2545_F491_4F6C_DD1D);
    x ^= x >> 33;
    let units = (x % max) + 1;
    let busy = match policy {
        WaitPolicy::Busy => units,
        WaitPolicy::Preemptive | WaitPolicy::Parked => units.min(BACKOFF_BUSY_CAP),
    };
    for i in 0..busy {
        pause(policy, i as u32);
    }
    let excess = units - busy;
    if excess > 0 {
        let nanos = (excess * NANOS_PER_UNIT).min(MAX_BACKOFF_SLEEP.as_nanos() as u64);
        thread::sleep(Duration::from_nanos(nanos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn pause_terminates_under_all_policies() {
        for i in 0..256 {
            pause(WaitPolicy::Preemptive, i);
            pause(WaitPolicy::Busy, i);
            pause(WaitPolicy::Parked, i);
        }
    }

    #[test]
    fn backoff_terminates_even_at_ceiling() {
        retry_backoff(WaitPolicy::Busy, 100, 42);
        retry_backoff(WaitPolicy::Preemptive, 0, 42);
        retry_backoff(WaitPolicy::Parked, 100, 42);
    }

    #[test]
    fn capped_backoff_is_time_bounded_under_abort_storms() {
        // At the ceiling every policy except Busy must come back in
        // BUSY_CAP pauses + one ≤ 2 ms sleep. Allow generous slack for a
        // loaded CI box.
        for policy in [WaitPolicy::Preemptive, WaitPolicy::Parked] {
            let start = Instant::now();
            for storm in 0..16 {
                retry_backoff(policy, 24 + storm, 7 + storm as u64);
            }
            assert!(
                start.elapsed() < Duration::from_millis(500),
                "{policy}: 16 capped backoffs must stay well under 16×(cap+2ms)"
            );
        }
    }
}
