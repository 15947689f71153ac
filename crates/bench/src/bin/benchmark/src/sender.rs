//! A bounded open-loop sender: requests go out on a fixed schedule from
//! at most [`MAX_THREADS`] threads, each with one request in flight.
//!
//! Latency is timed from the moment a request was *due*, not from when
//! it was sent, so a stall that delays later requests shows up in their
//! latency instead of disappearing (no coordinated omission); how late
//! each request actually left is reported separately. Unlike an
//! unbounded sender (a thread per request), the load generator itself
//! never needs more threads or connections than the box has cores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on sender threads (and so on concurrent connections).
pub const MAX_THREADS: usize = 2;

/// One finished request.
#[derive(Clone, Debug)]
pub struct Sent<R> {
    /// Index into the plan.
    pub index: usize,
    /// Seconds from the due time to completion.
    pub latency_s: f64,
    /// Seconds from the due time to the moment it was sent.
    pub late_s: f64,
    pub result: R,
}

/// Sends `plan[i]` at `start + due[i]` (due offsets ascending) from
/// `threads` threads and returns every request's outcome, in plan
/// order. `send(item, thread)` performs one request; `check(item,
/// response)` then runs on the same thread outside the latency clock
/// (its cost still delays that thread's next request, which the due-time
/// accounting charges to that request).
pub fn run<T: Sync, R, C: Send>(
    plan: &[(Duration, T)],
    threads: usize,
    send: impl Fn(&T, usize) -> R + Sync,
    check: impl Fn(&T, R) -> C + Sync,
) -> Vec<Sent<C>> {
    let threads = threads.clamp(1, MAX_THREADS);
    // A plain work index: the plan itself is shared read-only.
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut sent: Vec<Sent<C>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|thread| {
                let (next, send, check) = (&next, &send, &check);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some((due, item)) = plan.get(index) else {
                            return mine;
                        };
                        let due = start + *due;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent_at = Instant::now();
                        let response = send(item, thread);
                        let done = Instant::now();
                        mine.push(Sent {
                            index,
                            latency_s: done.saturating_duration_since(due).as_secs_f64(),
                            late_s: sent_at.saturating_duration_since(due).as_secs_f64(),
                            result: check(item, response),
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a sender thread panicked"))
            .collect()
    });
    sent.sort_by_key(|s| s.index);
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    const STALL: Duration = Duration::from_millis(40);

    /// A local HTTP listener that holds every response for [`STALL`].
    fn stalling_listener() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                std::thread::spawn(move || {
                    let mut head = [0u8; 1024];
                    let _ = stream.read(&mut head);
                    std::thread::sleep(STALL);
                    let _ = stream.write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
                    );
                });
            }
        });
        addr
    }

    #[test]
    fn latency_counts_from_the_due_time_through_a_stall() {
        let addr = stalling_listener();
        // Six requests all due at once, two threads: at most two are in
        // flight, each held for STALL, so the k-th completion (sorted)
        // cannot come before ⌈k/2⌉ stalls — and since latency is timed
        // from the due time, the queueing shows in it.
        let plan: Vec<(Duration, ())> = (0..6).map(|_| (Duration::ZERO, ())).collect();
        let sent = run(
            &plan,
            2,
            |_, _| crate::http::get(&addr, "/v1/health").map(|r| r.status),
            |_, status| status,
        );
        assert_eq!(sent.len(), 6);
        assert!(sent.iter().all(|s| matches!(s.result, Ok(200))));
        let mut latency: Vec<f64> = sent.iter().map(|s| s.latency_s).collect();
        let mut late: Vec<f64> = sent.iter().map(|s| s.late_s).collect();
        latency.sort_by(f64::total_cmp);
        late.sort_by(f64::total_cmp);
        let stall = STALL.as_secs_f64();
        for k in 0..6 {
            assert!(
                latency[k] >= (k / 2 + 1) as f64 * stall,
                "completion {k} at {:.3}s: faster than two connections allow",
                latency[k]
            );
            assert!(
                late[k] >= (k / 2) as f64 * stall,
                "request {k} left too early"
            );
            assert!(latency[k] < late[k] + 10.0 * stall);
        }
        // The latency of each request covers its own wait to be sent.
        assert!(sent.iter().all(|s| s.latency_s >= s.late_s + stall));
    }

    #[test]
    fn requests_never_leave_before_they_are_due() {
        let plan: Vec<(Duration, usize)> = (0..5)
            .map(|i| (Duration::from_millis(10 * i as u64), i))
            .collect();
        let start = Instant::now();
        let sent = run(
            &plan,
            2,
            |&i, thread| (i, thread, start.elapsed()),
            |_, r| r,
        );
        for s in &sent {
            let (i, thread, at) = s.result;
            assert_eq!(i, s.index);
            assert!(thread < 2);
            assert!(at >= Duration::from_millis(10 * i as u64));
        }
        // More threads than the bound allows: still two.
        let sent = run(&plan, 8, |_, thread| thread, |_, thread| thread);
        assert!(sent.iter().all(|s| s.result < MAX_THREADS));
    }
}
