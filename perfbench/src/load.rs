//! Load schedules and their accounting.
//!
//! An open loop models independent users: request `i` on a connection
//! is due at `start + i * interval` whatever happened to request `i-1`.
//! One connection carries one request at a time, so when the server
//! stalls the connection falls behind its schedule: later requests go
//! out late, and their latency is timed from when they were *due*, which
//! charges them the wait the stall imposed. A request still unsent when
//! its phase ends is counted as unsent, never silently dropped.
//!
//! A closed loop models callers that each wait for a reply: the next
//! request goes out when the previous one completes, and latency is
//! timed from the send.
//!
//! Both loops run against a [`Clock`] so the accounting can be tested
//! with a synthetic clock and a synthetic stall.

use std::time::{Duration, Instant};

/// Time source for the loops, in nanoseconds since an epoch.
pub trait Clock {
    /// Current time.
    fn now(&mut self) -> u64;
    /// Blocks until `t` (returns at once if `t` has passed).
    fn wait_until(&mut self, t: u64);
}

/// The host's monotonic clock.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, t: u64) {
        // Sleep most of the gap, spin the last stretch: sleep overshoot
        // would otherwise show up as generator lateness.
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            let gap = t - now;
            if gap > 200_000 {
                std::thread::sleep(Duration::from_nanos(gap - 150_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// When it was due (open loop) or sent (closed loop).
    pub due: u64,
    /// When it was sent.
    pub sent: u64,
    /// When its response arrived (or the call failed).
    pub done: u64,
    /// Whether the call succeeded and its answer was correct.
    pub ok: bool,
}

impl Sample {
    /// Latency timed from the due time.
    pub fn latency(&self) -> u64 {
        self.done - self.due
    }

    /// How far behind schedule the generator sent it.
    pub fn late(&self) -> u64 {
        self.sent - self.due
    }
}

/// What one connection did in one phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseLog {
    /// Requests sent, in order.
    pub samples: Vec<Sample>,
    /// Requests due before the phase ended but never sent.
    pub unsent: u64,
}

impl PhaseLog {
    /// Sent requests whose call failed or whose answer was wrong.
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Appends another connection's log.
    pub fn merge(&mut self, other: PhaseLog) {
        self.samples.extend(other.samples);
        self.unsent += other.unsent;
    }

    /// Successful requests per second, from the first send to the last
    /// completion.
    pub fn ok_rate(&self) -> f64 {
        let first = self.samples.iter().map(|s| s.sent).min().unwrap_or(0);
        let last = self.samples.iter().map(|s| s.done).max().unwrap_or(0);
        let ok = self.samples.iter().filter(|s| s.ok).count();
        ok as f64 * 1e9 / last.saturating_sub(first).max(1) as f64
    }

    /// Latencies of successful requests, in nanoseconds.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().filter(|s| s.ok).map(|s| s.latency() as f64).collect()
    }
}

/// Open loop: request `i` is due at `start + i * interval`; due times at
/// or after `end` are outside the phase. `call(clock, i)` performs
/// request `i` and returns whether it succeeded.
pub fn open_loop<C: Clock>(
    clock: &mut C,
    start: u64,
    interval: u64,
    end: u64,
    mut call: impl FnMut(&mut C, u64) -> bool,
) -> PhaseLog {
    assert!(interval > 0, "open loop needs a positive interval");
    let due_in_phase = end.saturating_sub(start).div_ceil(interval);
    let mut log = PhaseLog::default();
    for i in 0..due_in_phase {
        let due = start + i * interval;
        clock.wait_until(due);
        let sent = clock.now();
        if sent >= end {
            log.unsent = due_in_phase - i;
            break;
        }
        let ok = call(clock, i);
        log.samples.push(Sample { due, sent, done: clock.now(), ok });
    }
    log
}

/// Closed loop: back-to-back requests until `end`.
pub fn closed_loop<C: Clock>(
    clock: &mut C,
    end: u64,
    mut call: impl FnMut(&mut C, u64) -> bool,
) -> PhaseLog {
    let mut log = PhaseLog::default();
    let mut i = 0;
    loop {
        let sent = clock.now();
        if sent >= end {
            return log;
        }
        let ok = call(clock, i);
        log.samples.push(Sample { due: sent, sent, done: clock.now(), ok });
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    /// A clock that only moves when told to.
    struct FakeClock(u64);

    impl Clock for FakeClock {
        fn now(&mut self) -> u64 {
            self.0
        }
        fn wait_until(&mut self, t: u64) {
            self.0 = self.0.max(t);
        }
    }

    const US: u64 = 1_000;

    #[test]
    fn steady_service_is_on_time() {
        let mut c = FakeClock(0);
        let log = open_loop(&mut c, 0, 1_000 * US, 100_000 * US, |c, _| {
            c.0 += 50 * US;
            true
        });
        assert_eq!(log.samples.len(), 100);
        assert_eq!((log.unsent, log.failed()), (0, 0));
        assert!(log.samples.iter().all(|s| s.latency() == 50 * US && s.late() == 0));
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_due_behind_it() {
        // 1 ms schedule, 100 us service, request 10 stalls for 20 ms.
        let mut c = FakeClock(0);
        let log = open_loop(&mut c, 0, 1_000 * US, 100_000 * US, |c, i| {
            c.0 += if i == 10 { 20_000 * US } else { 100 * US };
            true
        });
        // Request 10 is sent at 10 ms and done at 30 ms. Requests 11..=29
        // were due at 11..=29 ms; each is sent when its predecessor
        // finishes, 100 us apart from 30 ms on.
        let lat: Vec<u64> = log.samples.iter().map(Sample::latency).collect();
        assert_eq!(lat[10], 20_000 * US);
        assert_eq!(lat[11], (30_100 - 11_000) * US);
        assert_eq!(lat[29], (31_900 - 29_000) * US);
        // Request 32 still goes out 100 us late; 33 is the first on time.
        assert_eq!(log.samples[32].late(), 100 * US);
        assert_eq!(log.samples[33].late(), 0);
        assert_eq!(log.samples.len(), 100);
        assert_eq!((log.unsent, log.failed()), (0, 0));
        let s = Summary::of(&log.latencies()).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, (100 * US) as f64);
        assert_eq!(s.p99, (19_100 * US) as f64);
        // p90 is request 20: due at 20 ms, done at 31 ms.
        assert_eq!(s.tail, Some((90.0, (11_000 * US) as f64)));
    }

    #[test]
    fn requests_due_after_a_stall_that_outlasts_the_phase_are_unsent() {
        // Request 5 never returns before the phase ends at 10 ms.
        let mut c = FakeClock(0);
        let log = open_loop(&mut c, 0, 1_000 * US, 10_000 * US, |c, i| {
            c.0 += if i == 5 { 50_000 * US } else { 10 * US };
            i != 5
        });
        assert_eq!(log.samples.len(), 6);
        assert_eq!(log.unsent, 4, "requests due at 6..=9 ms were never sent");
        assert_eq!(log.failed(), 1);
        assert_eq!(log.latencies().len(), 5);
    }

    #[test]
    fn closed_loop_runs_back_to_back_until_the_end() {
        let mut c = FakeClock(0);
        let log = closed_loop(&mut c, 1_000 * US, |c, _| {
            c.0 += 300 * US;
            true
        });
        assert_eq!(log.samples.len(), 4);
        assert!(log.samples.iter().all(|s| s.latency() == 300 * US));
        assert!((log.ok_rate() - 4.0 / 1.2e-3).abs() < 1e-6);
    }
}
