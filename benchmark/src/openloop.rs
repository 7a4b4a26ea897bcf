//! Open-loop load: a seeded Poisson send schedule and the generator loop
//! that follows it whatever the system under test does.
//!
//! Every request is timed **from when it was due**, not from when it was
//! sent: when a stall delays the generator, the requests that queued up
//! behind the stall carry the wait it imposed on them. How late the
//! generator itself ran is reported beside the latencies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Due times (ns from the start of the slice) of a Poisson process of
/// `rate_hz` arrivals per second, covering `horizon_ns`. The same seed
/// gives the same schedule.
pub fn poisson_schedule(seed: u64, rate_hz: f64, horizon_ns: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mean_gap_ns = 1e9 / rate_hz;
    let mut due = Vec::with_capacity((horizon_ns as f64 / mean_gap_ns * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1-u is in (0, 1], so ln is finite.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() * mean_gap_ns;
        if t >= horizon_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// What the generator loop drives: the system under test, seen as
/// "send request `idx`" and "which requests have completed".
pub trait Backend {
    /// Whether the harness has what it needs to send request `idx` now
    /// (a free flow). While it has not, the request waits, and the wait
    /// counts into its latency: running out of pool is the harness's
    /// limit, not a failure of the system under test.
    fn ready(&self, idx: usize) -> bool;
    /// Sends request `idx`. `false` means the system refused it and it
    /// will never complete.
    fn send(&mut self, idx: usize) -> bool;
    /// Appends the indices of requests observed complete since the last
    /// call.
    fn poll(&mut self, done: &mut Vec<usize>);
}

#[derive(Debug, Default)]
pub struct OpenLoopResult {
    /// Requests whose due time fell inside the slice.
    pub attempted: u64,
    /// Requests the backend refused.
    pub refused: u64,
    /// Requests still incomplete (or never sent, the system having
    /// stopped) when the drain budget ran out.
    pub lost: u64,
    /// Due time → observed completion, one per completed request (ns).
    pub latency_ns: Vec<u64>,
    /// Due time → actual send, one per request sent (ns).
    pub late_ns: Vec<u64>,
    /// When the last completion was observed (ns from the slice start).
    pub end_ns: u64,
}

/// Follows `schedule` (due times relative to the first `clock()` read):
/// sends each request as soon as it is due (and the backend is ready for
/// it), polls for completions in between, and gives up on whatever is
/// still incomplete once nothing has moved for `drain_ns`: after the last
/// send, or while a due request waits for the backend to become ready.
pub fn drive(
    schedule: &[u64],
    clock: &mut impl FnMut() -> u64,
    backend: &mut impl Backend,
    drain_ns: u64,
) -> OpenLoopResult {
    let t0 = clock();
    let mut res = OpenLoopResult {
        attempted: schedule.len() as u64,
        latency_ns: Vec::with_capacity(schedule.len()),
        late_ns: Vec::with_capacity(schedule.len()),
        ..OpenLoopResult::default()
    };
    let mut outstanding = 0u64;
    let mut done = Vec::new();
    let mut next = 0;
    let mut deadline = u64::MAX;
    loop {
        let now = clock() - t0;
        backend.poll(&mut done);
        for idx in done.drain(..) {
            res.latency_ns.push(now.saturating_sub(schedule[idx]));
            res.end_ns = now;
            outstanding -= 1;
        }
        if next < schedule.len() {
            if now >= schedule[next] && !backend.ready(next) {
                if now - schedule[next] >= drain_ns {
                    res.lost = outstanding + (schedule.len() - next) as u64;
                    res.end_ns = now;
                    return res;
                }
            } else if now >= schedule[next] {
                res.late_ns.push(now - schedule[next]);
                if backend.send(next) {
                    outstanding += 1;
                } else {
                    res.refused += 1;
                }
                next += 1;
                if next == schedule.len() {
                    deadline = now + drain_ns;
                }
            }
        } else if outstanding == 0 || now >= deadline {
            res.lost = outstanding;
            res.end_ns = res.end_ns.max(now.min(deadline));
            return res;
        }
        // Yield rather than spin: when the machine has no spare core the
        // generator must not hold one against the system under test.
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(42, 20_000.0, 100_000_000);
        let b = poisson_schedule(42, 20_000.0, 100_000_000);
        let c = poisson_schedule(43, 20_000.0, 100_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times are sorted");
        assert!(*a.last().unwrap() < 100_000_000);
        // 20 000/s over 0.1 s: 2 000 expected, sd ~45.
        assert!((1_700..2_300).contains(&a.len()), "{} arrivals", a.len());
    }

    /// A fake system: each request completes `service` ns after it was
    /// sent; sending request `stall_at` blocks the generator for `stall`
    /// ns (the injected stall). The clock advances 100 ns per read.
    struct Fake {
        now: Rc<Cell<u64>>,
        service: u64,
        stall_at: usize,
        stall: u64,
        inflight: Vec<(usize, u64)>,
        refuse: Option<usize>,
        /// Requests the fake pool can hold in flight.
        pool: usize,
    }

    impl Backend for Fake {
        fn ready(&self, _idx: usize) -> bool {
            self.inflight.len() < self.pool
        }
        fn send(&mut self, idx: usize) -> bool {
            if self.refuse == Some(idx) {
                return false;
            }
            if idx == self.stall_at {
                self.now.set(self.now.get() + self.stall);
            }
            self.inflight.push((idx, self.now.get() + self.service));
            true
        }
        fn poll(&mut self, done: &mut Vec<usize>) {
            let now = self.now.get();
            self.inflight.retain(|&(idx, at)| {
                if at <= now {
                    done.push(idx);
                }
                at > now
            });
        }
    }

    #[test]
    fn latency_counts_from_due_time_under_a_stall() {
        // Ten requests due every 10 us; sending #3 stalls for 1 ms.
        let schedule: Vec<u64> = (1..=10).map(|i| i * 10_000).collect();
        let now = Rc::new(Cell::new(0u64));
        let mut fake = Fake {
            now: Rc::clone(&now),
            service: 1_000,
            stall_at: 3,
            stall: 1_000_000,
            inflight: Vec::new(),
            refuse: Some(9),
            pool: usize::MAX,
        };
        let tick = Rc::clone(&now);
        let mut clock = move || {
            tick.set(tick.get() + 100);
            tick.get()
        };
        let res = drive(&schedule, &mut clock, &mut fake, 5_000_000);
        assert_eq!((res.attempted, res.refused, res.lost), (10, 1, 0));
        assert_eq!(res.latency_ns.len(), 9);
        assert_eq!(res.late_ns.len(), 10);
        // Before the stall the generator is on time (within its polling
        // step) and latency is about the service time.
        assert!(
            res.late_ns[..3].iter().all(|&l| l < 300),
            "{:?}",
            res.late_ns
        );
        assert!(
            res.latency_ns[..3].iter().all(|&l| l < 1_500),
            "{:?}",
            res.latency_ns
        );
        // Request 4 was due 10 us into a 1 ms stall: sent ~990 us late,
        // and its latency includes that wait although the backend served
        // it in 1 us. Timing from the send would have hidden the stall.
        assert!(res.late_ns[4] > 980_000, "{:?}", res.late_ns);
        let worst = *res.latency_ns.iter().max().unwrap();
        assert!(worst > 980_000, "{:?}", res.latency_ns);
        // The backlog drains in order, so lateness shrinks again.
        assert!(res.late_ns[8] < res.late_ns[4]);
    }

    #[test]
    fn stragglers_are_lost_after_the_drain_budget() {
        let schedule = vec![1_000, 2_000];
        let now = Rc::new(Cell::new(0u64));
        let mut fake = Fake {
            now: Rc::clone(&now),
            service: u64::MAX / 2,
            stall_at: usize::MAX,
            stall: 0,
            inflight: Vec::new(),
            refuse: None,
            pool: usize::MAX,
        };
        let tick = Rc::clone(&now);
        let mut clock = move || {
            tick.set(tick.get() + 100);
            tick.get()
        };
        let res = drive(&schedule, &mut clock, &mut fake, 50_000);
        assert_eq!((res.attempted, res.lost, res.latency_ns.len()), (2, 2, 0));
    }

    #[test]
    fn a_full_pool_delays_requests_instead_of_failing_them() {
        // Five requests due 1 us apart, 100 us of service, a pool of two:
        // the third must wait for the first to finish.
        let schedule: Vec<u64> = (1..=5).map(|i| i * 1_000).collect();
        let now = Rc::new(Cell::new(0u64));
        let mut fake = Fake {
            now: Rc::clone(&now),
            service: 100_000,
            stall_at: usize::MAX,
            stall: 0,
            inflight: Vec::new(),
            refuse: None,
            pool: 2,
        };
        let tick = Rc::clone(&now);
        let mut clock = move || {
            tick.set(tick.get() + 100);
            tick.get()
        };
        let res = drive(&schedule, &mut clock, &mut fake, 5_000_000);
        assert_eq!((res.attempted, res.refused, res.lost), (5, 0, 0));
        assert_eq!(res.latency_ns.len(), 5);
        assert!(
            res.late_ns[1] < 300 && res.late_ns[2] > 95_000,
            "{:?}",
            res.late_ns
        );
        // The wait for the pool is inside the latency: two service times.
        assert!(res.latency_ns[2] > 195_000, "{:?}", res.latency_ns);

        // A system that has stopped does not hang the generator: what was
        // sent and what never could be are all lost.
        fake.service = u64::MAX / 2;
        let res = drive(&schedule, &mut clock, &mut fake, 50_000);
        assert_eq!((res.attempted, res.lost, res.latency_ns.len()), (5, 5, 0));
    }
}
