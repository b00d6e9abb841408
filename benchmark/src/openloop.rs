//! An open-loop load generator and server loop.
//!
//! Requests fall due on a fixed schedule whatever the server is doing.
//! The schedule itself is the generator: each worker takes the next
//! request in due order, waits for its due time if it is early, and
//! serves it. A request that falls due while every worker is busy waits
//! in the queue, and that wait is part of its latency, because latency
//! is timed from the due time, not from when a worker picked it up.
//! No thread beyond the workers exists, so the generator never competes
//! with them for a CPU.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How the server answered one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Served a result.
    Ok,
    /// Refused by design (admission shed a known runaway, or a runaway's
    /// budget tripped).
    Refused,
    /// Errored, or answered something other than what it should have.
    Failed,
}

/// The timeline of one request, in seconds from the start of the loop.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub due_s: f64,
    /// Time spent due but unclaimed because every worker was busy.
    pub queue_wait_s: f64,
    /// How late an idle worker woke for the due time (generator lag).
    /// `None` when the request was already due when a worker took it.
    pub lag_s: Option<f64>,
    pub service_s: f64,
    pub finish_s: f64,
    pub answer: Answer,
}

impl Timing {
    /// Latency as the client sees it: from the due time to the answer.
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.due_s
    }
}

/// Lead time before the first due time, so every worker is parked at the
/// schedule when it starts.
const LEAD: Duration = Duration::from_millis(2);
/// A waiting worker sleeps until this close to the due time, then spins,
/// so wake-up lag does not depend on the kernel's timer slack.
const SPIN: Duration = Duration::from_micros(200);

fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Collects answers to requests a handler deferred: a request that waits
/// on work already in flight for another request does not hold a worker,
/// and whoever finishes that work answers it here.
pub struct Completions {
    done: Mutex<Vec<(usize, Instant, Answer)>>,
}

impl Completions {
    /// Answers request `i` now.
    pub fn complete(&self, i: usize, answer: Answer) {
        let at = Instant::now();
        self.done
            .lock()
            .expect("a worker panicked while recording a completion")
            .push((i, at, answer));
    }
}

/// What a worker knows about a request it took.
struct Taken {
    due_s: f64,
    queue_wait_s: f64,
    lag_s: Option<f64>,
    began: Instant,
}

/// Serves requests due at `due_s` (ascending seconds from the start) on
/// `workers` threads and returns each request's timeline, in input order.
/// The handler answers a request by returning `Some`, or returns `None`
/// after arranging for a later [`Completions::complete`] call.
pub fn run<H>(due_s: &[f64], workers: usize, handler: H) -> Vec<Timing>
where
    H: Fn(usize, &Completions) -> Option<Answer> + Sync,
{
    assert!(
        due_s.windows(2).all(|w| w[0] <= w[1]),
        "due times must ascend"
    );
    let start = Instant::now() + LEAD;
    let cursor = AtomicUsize::new(0);
    let completions = Completions {
        done: Mutex::new(Vec::new()),
    };
    let taken: Vec<Vec<(usize, Taken)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                let (cursor, handler, completions) = (&cursor, &handler, &completions);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&due) = due_s.get(i) else { break };
                        let due_at = start + Duration::from_secs_f64(due);
                        let now = Instant::now();
                        let t = if now < due_at {
                            wait_until(due_at);
                            let began = Instant::now();
                            Taken {
                                due_s: due,
                                queue_wait_s: 0.0,
                                lag_s: Some((began - due_at).as_secs_f64()),
                                began,
                            }
                        } else {
                            Taken {
                                due_s: due,
                                queue_wait_s: (now - due_at).as_secs_f64(),
                                lag_s: None,
                                began: now,
                            }
                        };
                        out.push((i, t));
                        if let Some(answer) = handler(i, completions) {
                            completions.complete(i, answer);
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<Taken>> = (0..due_s.len()).map(|_| None).collect();
    for (i, t) in taken.into_iter().flatten() {
        slots[i] = Some(t);
    }
    let mut timings: Vec<Option<Timing>> = vec![None; due_s.len()];
    let done = completions
        .done
        .into_inner()
        .expect("a worker panicked while recording a completion");
    for (i, at, answer) in done {
        let t = slots[i].as_ref().expect("only taken requests complete");
        assert!(timings[i].is_none(), "request {i} answered twice");
        timings[i] = Some(Timing {
            due_s: t.due_s,
            queue_wait_s: t.queue_wait_s,
            lag_s: t.lag_s,
            service_s: (at - t.began).as_secs_f64(),
            finish_s: at.saturating_duration_since(start).as_secs_f64(),
            answer,
        });
    }
    timings
        .into_iter()
        .enumerate()
        .map(|(i, t)| t.unwrap_or_else(|| panic!("request {i} was never answered")))
        .collect()
}

/// Requests due by `end_s` that had not finished by then.
pub fn backlog_at(timings: &[Timing], end_s: f64) -> usize {
    timings
        .iter()
        .filter(|t| t.due_s <= end_s && t.finish_s > end_s)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_handler_charges_its_stall_to_the_requests_queued_behind_it() {
        // One worker, a request due every millisecond, and the first
        // handler call stalls for 60 ms. FIFO order means request k
        // cannot start before the stall ends, so its latency (from its
        // due time) must include the rest of the stall.
        let stall = 0.060;
        let due: Vec<f64> = (0..40).map(|k| k as f64 * 0.001).collect();
        let timings = run(&due, 1, |i, _| {
            if i == 0 {
                std::thread::sleep(Duration::from_secs_f64(stall));
            }
            Some(Answer::Ok)
        });
        assert!(timings[0].service_s >= stall);
        for (k, t) in timings.iter().enumerate().skip(1) {
            let owed = stall - k as f64 * 0.001;
            assert!(
                t.latency_s() >= owed,
                "request {k}: latency {} < remaining stall {owed}",
                t.latency_s()
            );
            assert!(t.queue_wait_s >= owed - 1e-3, "request {k} queue wait");
            assert!(t.lag_s.is_none(), "request {k} was queued, not waited for");
        }
        assert!(backlog_at(&timings, 0.030) >= 29);
    }

    #[test]
    fn no_request_is_served_before_it_is_due() {
        let due: Vec<f64> = (0..20).map(|k| k as f64 * 0.002).collect();
        let timings = run(&due, 2, |_, _| Some(Answer::Ok));
        for t in &timings {
            assert!(t.finish_s - t.service_s >= t.due_s - 1e-9);
        }
    }

    #[test]
    fn a_deferred_request_is_timed_until_it_is_answered() {
        // Request 0 is parked; request 1's handler answers both.
        let due = [0.0, 0.010];
        let timings = run(&due, 1, |i, done| {
            if i == 1 {
                done.complete(0, Answer::Ok);
                return Some(Answer::Ok);
            }
            None
        });
        assert!(timings[0].finish_s >= 0.010);
        assert!(timings[0].latency_s() >= 0.010);
        let t = &timings[0];
        let parts = t.queue_wait_s + t.lag_s.unwrap_or(0.0) + t.service_s;
        assert!((parts - t.latency_s()).abs() < 1e-6, "{t:?}");
        assert!(timings[1].latency_s() < timings[0].latency_s());
    }
}
