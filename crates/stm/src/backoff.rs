//! Bounded waiting and retry backoff, parameterized by [`WaitPolicy`]: the
//! paper's two policies, preemptive (yield now and then) and busy (spin).

use std::hint;
use std::thread;
use std::time::Duration;

use crate::config::WaitPolicy;

/// Pauses once according to the waiting policy.
///
/// Under [`WaitPolicy::Preemptive`], every `YIELD_EVERY` pauses the thread
/// yields the processor so a preempted lock holder can run — the behaviour
/// SwissTM's "preemptive waiting" flag enables. Under [`WaitPolicy::Busy`]
/// the thread only executes a spin hint, reproducing busy waiting.
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
/// For [`WaitPolicy::Preemptive`] the *busy* portion is additionally capped at `BACKOFF_BUSY_CAP` pause units; the
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
        WaitPolicy::Preemptive => units.min(BACKOFF_BUSY_CAP),
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
        }
    }

    #[test]
    fn backoff_terminates_even_at_ceiling() {
        retry_backoff(WaitPolicy::Busy, 100, 42);
        retry_backoff(WaitPolicy::Preemptive, 0, 42);
        retry_backoff(WaitPolicy::Preemptive, 100, 42);
    }

    #[test]
    fn capped_backoff_is_time_bounded_under_abort_storms() {
        // At the ceiling Preemptive must come back in BUSY_CAP pauses + one
        // ≤ 2 ms sleep. Allow generous slack for a loaded CI box.
        let start = Instant::now();
        for storm in 0..16 {
            retry_backoff(WaitPolicy::Preemptive, 24 + storm, 7 + storm as u64);
        }
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "16 capped backoffs must stay well under 16×(cap+2ms)"
        );
    }
}
