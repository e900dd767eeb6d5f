//! Load generators: a closed loop (each client sends its next request when
//! the previous one completes) and an open loop (requests are due on a fixed
//! schedule whether or not the system keeps up).
//!
//! Both take the operation as two closures: `run` is timed, `check` verifies
//! what `run` returned and is not. Request `k` is the same request on every
//! run: with `c` clients, client `t` issues requests `t, t + c, t + 2c, …`.

use std::time::{Duration, Instant};

use crate::spans::{OpScope, SpanLog};
use crate::stats;

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, seconds after the phase began.
    pub end_s: f64,
    /// Closed loop: call to return. Open loop: due time to return.
    pub latency_ms: f64,
    /// Open loop only: how long after its due time the request was sent.
    pub late_ms: f64,
}

/// What one phase measured.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Length of the measured interval in seconds.
    pub span_s: f64,
    pub logs: Vec<SpanLog>,
}

impl Phase {
    /// Percentile `wanted` of the latencies in milliseconds, as the median
    /// over up to five time slices of the phase.
    pub fn latency_ms(&self, wanted: f64) -> f64 {
        let timeline: Vec<(f64, f64)> = self
            .samples
            .iter()
            .map(|s| (s.end_s, s.latency_ms))
            .collect();
        stats::sliced_percentile(&timeline, wanted, 5)
    }

    /// Completions per second, each request counting `weight`, in each window
    /// of about `width_s` seconds the phase divides into.
    pub fn window_rates(&self, weight: f64, width_s: f64) -> Vec<f64> {
        let ends: Vec<f64> = self.samples.iter().map(|s| s.end_s).collect();
        stats::window_rates(&ends, weight, self.span_s, self.windows(width_s))
    }

    fn windows(&self, width_s: f64) -> usize {
        ((self.span_s / width_s).round() as usize).max(1)
    }

    /// Completions per second, each request counting `weight`: the median
    /// over `windows` equal slices of the phase.
    pub fn rate(&self, weight: f64, windows: usize) -> f64 {
        let ends: Vec<f64> = self.samples.iter().map(|s| s.end_s).collect();
        stats::median(&stats::window_rates(&ends, weight, self.span_s, windows))
    }
}

/// Where the spans of a phase go: `None` records nothing.
#[derive(Clone, Copy)]
pub struct Tracing {
    pub epoch: Option<Instant>,
    /// Offset for thread numbers, so logs of different phases stay apart.
    pub first_thread: u64,
}

impl Tracing {
    #[cfg(test)]
    pub fn off() -> Self {
        Tracing {
            epoch: None,
            first_thread: 0,
        }
    }

    fn log(&self, thread: usize) -> SpanLog {
        SpanLog::of_run(self.epoch, self.first_thread + thread as u64)
    }
}

fn join_clients<T: Send>(clients: usize, body: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let body = &body;
                s.spawn(move || body(t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generating thread panicked"))
            .collect()
    })
}

struct ClientResult {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    log: SpanLog,
}

fn gather(results: Vec<ClientResult>, span_s: f64) -> Phase {
    let mut phase = Phase {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        span_s,
        logs: Vec::new(),
    };
    for r in results {
        phase.samples.extend(r.samples);
        phase.attempted += r.attempted;
        phase.failed += r.failed;
        phase.logs.push(r.log);
    }
    phase
}

/// Closed loop: `clients` threads issue requests back to back for
/// `duration`. A request that began inside the interval is completed and
/// counted.
pub fn closed_loop<R>(
    name: &'static str,
    clients: usize,
    duration: Duration,
    tracing: Tracing,
    run: impl Fn(u64, &mut OpScope<'_>) -> R + Sync,
    check: impl Fn(u64, R) -> bool + Sync,
) -> Phase {
    let begin = Instant::now();
    let results = join_clients(clients, |t| {
        let mut out = ClientResult {
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            log: tracing.log(t),
        };
        let mut k = t as u64;
        loop {
            let start = Instant::now();
            if start.duration_since(begin) >= duration {
                return out;
            }
            let result = out.log.op(name, |scope| run(k, scope));
            let end = Instant::now();
            out.attempted += 1;
            if check(k, result) {
                out.samples.push(Sample {
                    end_s: end.duration_since(begin).as_secs_f64(),
                    latency_ms: end.duration_since(start).as_secs_f64() * 1e3,
                    late_ms: 0.0,
                });
            } else {
                out.failed += 1;
            }
            k += clients as u64;
        }
    });
    gather(results, duration.as_secs_f64())
}

/// When request `k` of an open loop at `rate` requests per second is due,
/// after the phase began: a fixed interval apart, whatever the system does.
pub fn due(k: u64, rate: f64) -> Duration {
    Duration::from_secs_f64(k as f64 / rate)
}

/// The two times an open loop reports for one request: its latency, from
/// when it was *due* (so the wait a stall imposes on later requests counts),
/// and how late the generator sent it.
pub fn open_loop_times(due: Duration, sent: Duration, done: Duration) -> (Duration, Duration) {
    (done.saturating_sub(due), sent.saturating_sub(due))
}

/// Waits by yielding, never by sleeping: a sender that sleeps lets its
/// processor go idle between requests, and how long an idle (virtual)
/// processor takes to wake varies from run to run by more than the requests
/// take. Yielding keeps it awake and still hands it to any thread of the
/// program that has work.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

/// Open loop: `floor(rate × duration)` requests, request `k` due at
/// `k / rate`, sent by sender `k mod senders`. A sender that is still busy
/// when a request falls due sends it as soon as it is free, late; every
/// scheduled request is sent, so an overloaded phase runs past `duration`.
pub fn open_loop<R>(
    name: &'static str,
    senders: usize,
    rate: f64,
    duration: Duration,
    tracing: Tracing,
    run: impl Fn(u64, &mut OpScope<'_>) -> R + Sync,
    check: impl Fn(u64, R) -> bool + Sync,
) -> Phase {
    let total = (rate * duration.as_secs_f64()).floor() as u64;
    let begin = Instant::now();
    let results = join_clients(senders, |t| {
        let mut out = ClientResult {
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            log: tracing.log(t),
        };
        let mut k = t as u64;
        while k < total {
            let due_at = due(k, rate);
            wait_until(begin + due_at);
            let sent = begin.elapsed();
            let result = out.log.op(name, |scope| run(k, scope));
            let done = begin.elapsed();
            out.attempted += 1;
            if check(k, result) {
                let (latency, late) = open_loop_times(due_at, sent, done);
                out.samples.push(Sample {
                    end_s: done.as_secs_f64(),
                    latency_ms: latency.as_secs_f64() * 1e3,
                    late_ms: late.as_secs_f64() * 1e3,
                });
            } else {
                out.failed += 1;
            }
            k += senders as u64;
        }
        out
    });
    gather(results, duration.as_secs_f64())
}

/// Whether an open-loop phase kept up: the requests due in its last tenth
/// were sent, at the median, no later than `limit_ms`. A growing backlog
/// shows as lateness that rises through the phase.
pub fn backlog_bounded(phase: &Phase, limit_ms: f64) -> bool {
    let mut by_end: Vec<&Sample> = phase.samples.iter().collect();
    by_end.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    let tail = &by_end[by_end.len() - (by_end.len() / 10).max(1).min(by_end.len())..];
    let late: Vec<f64> = tail.iter().map(|s| s.late_ms).collect();
    !late.is_empty() && stats::median(&late) <= limit_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_due_a_fixed_interval_apart() {
        assert_eq!(due(0, 100.0), Duration::ZERO);
        assert_eq!(due(1, 100.0), Duration::from_millis(10));
        assert_eq!(due(250, 100.0), Duration::from_millis(2500));
    }

    #[test]
    fn latency_runs_from_the_due_time_and_lateness_is_reported() {
        let ms = Duration::from_millis;
        // Due at 10, sent on time, done at 14: latency 4, not late.
        assert_eq!(open_loop_times(ms(10), ms(10), ms(14)), (ms(4), ms(0)));
        // Due at 10 but the sender was stalled until 30 and finished at 34:
        // the caller waited 24 ms, 20 of them before the request was sent.
        assert_eq!(open_loop_times(ms(10), ms(30), ms(34)), (ms(24), ms(20)));
    }

    #[test]
    fn a_stall_delays_later_requests_in_the_open_loop_but_not_the_closed() {
        // One sender at 100 requests/s; request 0 takes 50 ms, the rest are
        // instant. Requests 1..4 fall due during the stall.
        let stall = |k: u64, _: &mut OpScope<'_>| {
            if k == 0 {
                std::thread::sleep(Duration::from_millis(50));
            }
        };
        let phase = open_loop(
            "t",
            1,
            100.0,
            Duration::from_millis(100),
            Tracing::off(),
            stall,
            |_, ()| true,
        );
        assert_eq!(phase.attempted, 10);
        assert_eq!(phase.samples.len(), 10);
        let s = &phase.samples;
        assert!(s[0].latency_ms >= 50.0 && s[0].late_ms < 5.0);
        // Request 1 was due at 10 ms and could not be sent before 50 ms.
        assert!(s[1].late_ms >= 39.0, "late {}", s[1].late_ms);
        assert!(s[1].latency_ms >= s[1].late_ms);
        // Request 4 was due at 40 ms: at least 10 ms late.
        assert!(s[4].late_ms >= 9.0, "late {}", s[4].late_ms);

        let closed = closed_loop(
            "t",
            1,
            Duration::from_millis(80),
            Tracing::off(),
            stall,
            |_, ()| true,
        );
        // The closed loop times each call on its own: only request 0 is slow.
        assert!(closed.samples[0].latency_ms >= 50.0);
        assert!(closed.samples[1..].iter().all(|s| s.latency_ms < 40.0));
    }

    #[test]
    fn clients_split_the_request_numbers_and_failures_are_counted() {
        let phase = closed_loop(
            "t",
            2,
            Duration::from_millis(30),
            Tracing::off(),
            |k, _| {
                std::thread::sleep(Duration::from_millis(1));
                k
            },
            |k, got| {
                assert_eq!(k, got);
                k % 2 == 0
            },
        );
        // Client 0 issues the even requests, client 1 the odd ones.
        assert!(phase.attempted >= 4);
        assert_eq!(phase.samples.len() as u64 + phase.failed, phase.attempted);
        assert!(phase.failed > 0 && !phase.samples.is_empty());
    }

    #[test]
    fn a_slow_stretch_moves_the_windows_it_hits_and_not_the_good_quartile() {
        // Two seconds at 100 requests/s and 2 ms each; during the second half
        // of the first second the system is half as fast.
        let mut phase = Phase {
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            span_s: 2.0,
            logs: Vec::new(),
        };
        let mut t = 0.0;
        while t < 2.0 {
            let slow = (0.5..1.0).contains(&t);
            t += if slow { 0.02 } else { 0.01 };
            phase.samples.push(Sample {
                end_s: t,
                latency_ms: if slow { 4.0 } else { 2.0 },
                late_ms: 0.0,
            });
        }
        let mut rates = phase.window_rates(1.0, 0.25);
        assert_eq!(rates.len(), 8);
        stats::sort(&mut rates);
        // Two of eight windows are slow: the quartile on the good side is not.
        assert!(
            (stats::percentile_sorted(&rates, 75.0) - 100.0).abs() < 1.0,
            "{rates:?}"
        );
        assert!((rates[0] - 50.0).abs() < 1.0, "{rates:?}");
    }

    #[test]
    fn a_backlog_that_grows_is_detected() {
        let sample = |end_s: f64, late_ms: f64| Sample {
            end_s,
            latency_ms: late_ms + 1.0,
            late_ms,
        };
        let mut phase = Phase {
            samples: Vec::new(),
            attempted: 100,
            failed: 0,
            span_s: 1.0,
            logs: Vec::new(),
        };
        phase.samples = (0..100).map(|i| sample(i as f64 / 100.0, 0.1)).collect();
        assert!(backlog_bounded(&phase, 5.0));
        phase.samples = (0..100)
            .map(|i| sample(i as f64 / 100.0, i as f64))
            .collect();
        assert!(!backlog_bounded(&phase, 5.0));
    }
}
