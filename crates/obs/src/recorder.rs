//! Flight recorder: a fixed-capacity ring of periodic metric snapshots.
//!
//! Point-in-time counters answer "how many"; the recorder answers *rate* and
//! *trend* questions — "is `milvus_exec_queue_depth` saturated over the last
//! window?", "what was the search p99 in the last minute?" — by retaining a
//! bounded history of whole-registry snapshots ([`WindowFrame`]s) and
//! deriving per-window deltas, rates, and quantiles from bucket differences.
//!
//! Design constraints:
//!
//! - **Lock-light.** The hot path (metric recording) is untouched: the
//!   recorder only *reads* the registry, at tick time, under its own ring
//!   mutex. Nothing on the query path ever waits on the recorder.
//! - **Test-drivable and virtual-clock-compatible.** [`FlightRecorder::tick`]
//!   stamps frames with process uptime; [`FlightRecorder::tick_at`] accepts
//!   an explicit timestamp so tests driving a simulated network can stamp
//!   frames with `SimNet::virtual_time()` and stay fully deterministic.
//!   Nothing ticks implicitly — an HTTP `GET /debug/timeseries` serves
//!   whatever frames exist, it never records one.
//! - **Fixed capacity.** The ring holds [`FlightRecorder::DEFAULT_CAPACITY`]
//!   frames by default; pushing past capacity drops the oldest frame.
//!
//! Windowed histogram quantiles come from *bucket diffs*: subtracting an
//! older frame's per-bucket counts from the newest frame's yields the
//! histogram of exactly the observations recorded inside that window, on
//! which the usual interpolated p50/p95/p99 are computed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::{registry, HistogramSnapshot, MetricsSnapshot};

/// The process start, fixed on first use; frame timestamps from
/// [`FlightRecorder::tick`] are microseconds since this instant.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process epoch (first call wins the epoch).
pub fn uptime_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// One recorded window boundary: a full registry snapshot plus the
/// timestamp it was taken at (µs since process epoch, or virtual time when
/// recorded via [`FlightRecorder::tick_at`]).
#[derive(Debug, Clone)]
pub struct WindowFrame {
    /// Frame timestamp in microseconds. Monotone within one clock domain.
    pub at_us: u64,
    /// Every counter/gauge/histogram series at `at_us`.
    pub snapshot: MetricsSnapshot,
}

/// Fixed-capacity ring of [`WindowFrame`]s.
pub struct FlightRecorder {
    capacity: AtomicUsize,
    ring: Mutex<VecDeque<Arc<WindowFrame>>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Default ring capacity: at a 1s tick this retains roughly a minute of
    /// history, which covers the health window and dashboard sparklines
    /// while keeping the ring a few MB even with many series.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// A recorder retaining at most `capacity` frames (floored at 2 — one
    /// frame can never define a window).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: AtomicUsize::new(capacity.max(2)),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Current ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Replace the ring capacity (floored at 2), trimming old frames.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(2);
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut ring = self.ring.lock().expect("flight recorder lock");
        while ring.len() > capacity {
            ring.pop_front();
        }
    }

    /// Record a frame stamped with process uptime. Returns the timestamp.
    pub fn tick(&self) -> u64 {
        let at = uptime_us();
        self.tick_at(at);
        at
    }

    /// Record a frame with an explicit timestamp — the virtual-clock entry
    /// point (`recorder.tick_at(net.virtual_time().as_micros() as u64)`).
    /// Timestamps are taken as given; mixing clock domains in one ring makes
    /// the *rates* meaningless but deltas and windowed quantiles stay exact.
    pub fn tick_at(&self, at_us: u64) {
        let frame = Arc::new(WindowFrame { at_us, snapshot: registry().snapshot() });
        let capacity = self.capacity();
        let mut ring = self.ring.lock().expect("flight recorder lock");
        while ring.len() >= capacity {
            ring.pop_front();
        }
        ring.push_back(frame);
    }

    /// Frames currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight recorder lock").len()
    }

    /// True when no frame has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent frame, if any.
    pub fn newest(&self) -> Option<Arc<WindowFrame>> {
        self.ring.lock().expect("flight recorder lock").back().cloned()
    }

    /// Drop all frames (tests).
    pub fn clear(&self) {
        self.ring.lock().expect("flight recorder lock").clear();
    }

    /// Copy of the ring as a queryable report, oldest frame first.
    pub fn report(&self) -> TimeSeriesReport {
        TimeSeriesReport {
            frames: self.ring.lock().expect("flight recorder lock").iter().cloned().collect(),
            capacity: self.capacity(),
        }
    }

    /// Spawn a background thread ticking every `interval` until the returned
    /// driver is dropped. Production convenience; tests tick explicitly.
    pub fn start_periodic(&'static self, interval: Duration) -> RecorderDriver {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("milvus-flight-recorder".into())
            .spawn(move || {
                while !flag.load(Ordering::SeqCst) {
                    std::thread::sleep(interval);
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    self.tick();
                }
            })
            .expect("spawn flight recorder thread");
        RecorderDriver { stop, handle: Some(handle) }
    }
}

/// Handle owning the periodic tick thread; dropping it stops the ticks.
pub struct RecorderDriver {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for RecorderDriver {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The process-global flight recorder `Milvus::timeseries()` and
/// `GET /debug/timeseries` read from.
pub fn flight_recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(FlightRecorder::default)
}

/// An immutable copy of the recorder ring with the windowed-derivation
/// helpers. `lookback` counts windows back from the newest frame: 1 is the
/// most recent window (newest vs. previous frame), `len()-1` spans the whole
/// ring. Lookbacks past the oldest frame clamp to the oldest.
#[derive(Clone)]
pub struct TimeSeriesReport {
    /// Retained frames, oldest first.
    pub frames: Vec<Arc<WindowFrame>>,
    /// Ring capacity at snapshot time.
    pub capacity: usize,
}

impl TimeSeriesReport {
    /// Frames retained.
    pub fn windows(&self) -> usize {
        self.frames.len()
    }

    /// The newest and the `lookback`-older frame, when both exist.
    fn pair(&self, lookback: usize) -> Option<(&WindowFrame, &WindowFrame)> {
        let newest = self.frames.last()?;
        if self.frames.len() < 2 {
            return None;
        }
        let idx = (self.frames.len() - 1).saturating_sub(lookback.max(1));
        Some((&self.frames[idx], newest))
    }

    /// Window span in microseconds (0 when fewer than two frames exist or
    /// the timestamps are not increasing).
    pub fn window_us(&self, lookback: usize) -> u64 {
        self.pair(lookback).map_or(0, |(a, b)| b.at_us.saturating_sub(a.at_us))
    }

    /// Counter increase across the window (0 with fewer than two frames).
    pub fn counter_delta(&self, name: &str, label: &str, lookback: usize) -> u64 {
        self.pair(lookback).map_or(0, |(a, b)| {
            b.snapshot.counter(name, label).saturating_sub(a.snapshot.counter(name, label))
        })
    }

    /// Counter rate in events/second across the window; 0 when the window
    /// has no duration (virtual clocks that did not advance included).
    pub fn counter_rate_per_sec(&self, name: &str, label: &str, lookback: usize) -> f64 {
        let dt_us = self.window_us(lookback);
        if dt_us == 0 {
            return 0.0;
        }
        self.counter_delta(name, label, lookback) as f64 / (dt_us as f64 / 1e6)
    }

    /// The histogram of exactly the observations recorded inside the
    /// window: newest frame's buckets minus the older frame's, per bucket.
    /// Empty (count 0) with fewer than two frames.
    pub fn windowed_histogram(&self, name: &str, label: &str, lookback: usize) -> HistogramSnapshot {
        self.pair(lookback).map_or_else(HistogramSnapshot::default, |(a, b)| {
            b.snapshot.histogram(name, label).saturating_diff(&a.snapshot.histogram(name, label))
        })
    }

    /// Interpolated quantile of the windowed histogram, in microseconds.
    pub fn windowed_quantile_us(&self, name: &str, label: &str, lookback: usize, q: f64) -> f64 {
        self.windowed_histogram(name, label, lookback).quantile_us(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{render_prometheus, BUCKET_BOUNDS_US};

    /// The bucket index an observation of `us` lands in (last = +Inf).
    fn bucket_of(us: f64) -> usize {
        BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b as f64)
            .unwrap_or(BUCKET_BOUNDS_US.len())
    }

    #[test]
    fn empty_window_yields_empty_histogram_and_zero_quantiles() {
        let rec = FlightRecorder::with_capacity(8);
        // No frames at all.
        let r = rec.report();
        assert_eq!(r.windows(), 0);
        assert_eq!(r.windowed_histogram("h", "none", 1).count, 0);
        assert_eq!(r.windowed_quantile_us("h", "none", 1, 0.99), 0.0);
        assert_eq!(r.counter_delta("c", "none", 1), 0);
        // One frame: still no window.
        rec.tick_at(10);
        let r = rec.report();
        assert_eq!(r.windows(), 1);
        assert_eq!(r.window_us(1), 0);
        assert_eq!(r.windowed_histogram("h", "none", 1).count, 0);
        // Two frames with no observations in between: empty but defined.
        rec.tick_at(20);
        let r = rec.report();
        assert_eq!(r.window_us(1), 10);
        assert_eq!(r.windowed_histogram("h", "none", 1).count, 0);
        assert_eq!(r.windowed_quantile_us("h", "none", 1, 0.5), 0.0);
    }

    #[test]
    fn single_bucket_window_quantiles_interpolate_within_the_bucket() {
        let label = "rec_single_bucket";
        let rec = FlightRecorder::with_capacity(8);
        rec.tick_at(0);
        // All observations land in one bucket (65_536µs < 100_000 ≤ 262_144).
        let h = registry().histogram("rec_hist", label);
        for _ in 0..10 {
            h.observe_us(100_000);
        }
        rec.tick_at(1_000_000);
        let r = rec.report();
        let w = r.windowed_histogram("rec_hist", label, 1);
        assert_eq!(w.count, 10);
        assert_eq!(w.bucket_counts.iter().filter(|&&c| c > 0).count(), 1);
        for q in [0.5, 0.95, 0.99] {
            let v = w.quantile_us(q);
            assert!(
                (65_536.0..=262_144.0).contains(&v),
                "q={q} escaped its bucket: {v}"
            );
        }
        assert_eq!(bucket_of(w.p99_us()), bucket_of(100_000.0));
    }

    #[test]
    fn window_excludes_observations_before_the_older_frame() {
        let label = "rec_window_excl";
        let h = registry().histogram("rec_hist", label);
        // History before the ring: must not appear in any window.
        for _ in 0..50 {
            h.observe_us(10);
        }
        let rec = FlightRecorder::with_capacity(8);
        rec.tick_at(0);
        for _ in 0..7 {
            h.observe_us(1_000_000);
        }
        rec.tick_at(1_000);
        let r = rec.report();
        let w = r.windowed_histogram("rec_hist", label, 1);
        assert_eq!(w.count, 7, "window must only contain in-window observations");
        assert!(w.quantile_us(0.5) > 262_144.0, "old 10µs points leaked in");
    }

    #[test]
    fn ring_wraps_at_capacity_and_windows_stay_consistent() {
        let label = "rec_wrap";
        let rec = FlightRecorder::with_capacity(4);
        let c = registry().counter("rec_ctr", label);
        let h = registry().histogram("rec_hist", label);
        for i in 0..10u64 {
            c.add(2);
            h.observe_us(1 << (i % 12));
            rec.tick_at(i * 100);
        }
        assert_eq!(rec.len(), 4, "ring must hold exactly its capacity");
        let r = rec.report();
        // Only the last 4 frames survive, timestamps monotone.
        let ats: Vec<u64> = r.frames.iter().map(|f| f.at_us).collect();
        assert_eq!(ats, vec![600, 700, 800, 900]);
        // Adjacent window: exactly one tick's worth of counter increments.
        assert_eq!(r.counter_delta("rec_ctr", label, 1), 2);
        // Full-ring window: three windows' worth.
        assert_eq!(r.counter_delta("rec_ctr", label, 99), 6);
        assert_eq!(r.windowed_histogram("rec_hist", label, 99).count, 3);
        // Rates use the frame timestamps.
        let rate = r.counter_rate_per_sec("rec_ctr", label, 1);
        assert!((rate - 2.0 / 100e-6).abs() < 1e-6, "rate={rate}");
    }

    #[test]
    fn windowed_quantiles_are_monotone() {
        let label = "rec_monotone";
        let rec = FlightRecorder::with_capacity(8);
        rec.tick_at(0);
        let h = registry().histogram("rec_hist", label);
        for i in 0..200u64 {
            h.observe_us(1 + i * 37); // spread across several buckets
        }
        rec.tick_at(500);
        let r = rec.report();
        let w = r.windowed_histogram("rec_hist", label, 1);
        assert_eq!(w.count, 200);
        let (p50, p95, p99) = (w.p50_us(), w.p95_us(), w.p99_us());
        assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
        assert!(p50 > 0.0);
    }

    #[test]
    fn diffed_snapshot_renders_with_prometheus_invariants_intact() {
        // Satellite regression: after bucket-diffing, the rendered
        // exposition must still satisfy +Inf-cumulative == _count and carry
        // a _sum line consistent with the diff.
        let label = "rec_render_diff";
        let rec = FlightRecorder::with_capacity(4);
        let h = registry().histogram(crate::QUERY_LATENCY, label);
        h.observe_us(10);
        h.observe_us(100_000);
        rec.tick_at(0);
        h.observe_us(20);
        h.observe_us(2_000);
        h.observe_us(30_000_000); // +Inf bucket
        rec.tick_at(100);
        let r = rec.report();
        let w = r.windowed_histogram(crate::QUERY_LATENCY, label, 1);
        assert_eq!(w.count, 3);
        assert_eq!(w.sum_us, 20 + 2_000 + 30_000_000);
        // Per-bucket counts must sum to the count (diff kept them aligned).
        assert_eq!(w.bucket_counts.iter().sum::<u64>(), w.count);

        // Render a snapshot holding only the diffed histogram.
        let mut snap = MetricsSnapshot::default();
        snap.histograms.insert(
            crate::Key { name: crate::QUERY_LATENCY.into(), label: label.into(), segment: None, component: None },
            w.clone(),
        );
        let text = render_prometheus(&snap);
        let inf_line = text
            .lines()
            .find(|l| l.contains(label) && l.contains("le=\"+Inf\""))
            .expect("+Inf bucket rendered");
        let inf: u64 = inf_line.rsplit(' ').next().unwrap().parse().unwrap();
        let count_line = text
            .lines()
            .find(|l| l.starts_with(&format!("{}_count", crate::QUERY_LATENCY)) && l.contains(label))
            .expect("_count rendered");
        let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(inf, count, "cumulative +Inf must equal _count after diffing");
        assert_eq!(count, 3);
        let sum_line = text
            .lines()
            .find(|l| l.starts_with(&format!("{}_sum", crate::QUERY_LATENCY)) && l.contains(label))
            .expect("_sum rendered");
        let sum: f64 = sum_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!((sum - (w.sum_us as f64 / 1e6)).abs() < 1e-9, "sum={sum}");
    }

    #[test]
    fn capacity_shrink_trims_oldest() {
        let rec = FlightRecorder::with_capacity(8);
        for i in 0..8 {
            rec.tick_at(i);
        }
        rec.set_capacity(3);
        assert_eq!(rec.len(), 3);
        let r = rec.report();
        assert_eq!(r.frames.first().unwrap().at_us, 5);
    }
}
