//! The [`Recorder`]: the single handle every execution layer carries.
//!
//! A recorder is either **enabled** (an `Arc` to shared registry + trace
//! state) or **disabled** (`None`). Disabled is the default everywhere;
//! every instrumentation call then reduces to one branch on an `Option`,
//! which is the zero-cost-when-disabled guarantee the executors rely on.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::clock::{ClockSource, VirtualTime, WallClock};
use crate::flight::{self, FlightEvent, FlightKind, FlightRing};
use crate::merge::TraceDump;
use crate::metrics::{Counter, CounterCell, Gauge, GaugeCell, Histogram, HistogramCell};
use crate::trace::{EventKind, TraceEvent, TraceState, TrackId, DEFAULT_TRACE_CAPACITY};

/// Default flight-recorder capacity: enough recent events to explain a
/// crash without holding a profile's worth of memory.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Shared state behind an enabled recorder.
#[derive(Debug)]
pub(crate) struct Inner {
    pub(crate) clock: Arc<dyn ClockSource>,
    pub(crate) counters: Mutex<HashMap<String, Arc<CounterCell>>>,
    pub(crate) gauges: Mutex<HashMap<String, Arc<GaugeCell>>>,
    pub(crate) histograms: Mutex<HashMap<String, Arc<HistogramCell>>>,
    pub(crate) trace: Mutex<TraceState>,
}

/// Cheap-to-clone observability handle; see module docs.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    pub(crate) inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The no-op recorder: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Enabled recorder stamping wall-clock time (origin = now).
    pub fn wall() -> Self {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// Enabled recorder reading time from the given clock.
    pub fn with_clock(clock: Arc<dyn ClockSource>) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                clock,
                counters: Mutex::new(HashMap::new()),
                gauges: Mutex::new(HashMap::new()),
                histograms: Mutex::new(HashMap::new()),
                trace: Mutex::new(TraceState::new(DEFAULT_TRACE_CAPACITY)),
            })),
        }
    }

    /// Enabled recorder on a fresh virtual clock; returns the clock so a
    /// simulator can drive it.
    pub fn virtual_time() -> (Self, Arc<VirtualTime>) {
        let clock = VirtualTime::new();
        (Self::with_clock(clock.clone()), clock)
    }

    /// Whether this recorder actually records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current time on the recorder's clock (0 when disabled).
    #[inline]
    pub fn now_micros(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_micros())
    }

    // -- metric handles -----------------------------------------------------

    /// Counter handle for `name` (registered on first use). Callers should
    /// obtain handles once and reuse them on hot paths.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|i| {
            i.counters.lock().expect("obs lock").entry(name.to_string()).or_default().clone()
        }))
    }

    /// Gauge handle for `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| {
            i.gauges.lock().expect("obs lock").entry(name.to_string()).or_default().clone()
        }))
    }

    /// Histogram handle for `name` (samples conventionally in micros).
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|i| {
            i.histograms.lock().expect("obs lock").entry(name.to_string()).or_default().clone()
        }))
    }

    // -- tracks -------------------------------------------------------------

    /// Registers (or looks up) a named track, e.g. `"worker-3"`.
    pub fn track(&self, name: &str) -> TrackId {
        match &self.inner {
            Some(i) => i.trace.lock().expect("obs lock").track(name),
            None => TrackId(0),
        }
    }

    // -- flight recorder ----------------------------------------------------

    /// Turns on the flight recorder: a ring of the `cap` most recent
    /// spans/instants kept for crash dumps. No-op when disabled.
    pub fn enable_flight(&self, cap: usize) {
        if let Some(i) = &self.inner {
            i.trace.lock().expect("obs lock").flight = Some(FlightRing::new(cap));
        }
    }

    /// Whether the flight recorder is on.
    pub fn flight_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.trace.lock().expect("obs lock").flight.is_some())
    }

    /// Appends a free-form note (crash reasons, state dumps) to the
    /// flight ring. No-op unless the flight recorder is enabled.
    pub fn flight_note(&self, name: impl Into<Cow<'static, str>>, detail: impl Into<String>) {
        if let Some(i) = &self.inner {
            let ts = i.clock.now_micros();
            let mut tr = i.trace.lock().expect("obs lock");
            let track = tr.current_thread_track();
            if let Some(ring) = &mut tr.flight {
                ring.push(FlightEvent {
                    ts_us: ts,
                    track: track.0,
                    name: name.into(),
                    kind: FlightKind::Note { detail: detail.into() },
                });
            }
        }
    }

    /// Renders the flight ring as the plain-text post-mortem format;
    /// `None` when the flight recorder is off (or the recorder is
    /// disabled).
    pub fn flight_render(&self, reason: &str) -> Option<String> {
        let i = self.inner.as_ref()?;
        let tr = i.trace.lock().expect("obs lock");
        let ring = tr.flight.as_ref()?;
        Some(flight::render(reason, &tr.tracks, &ring.in_order(), ring.total()))
    }

    /// Number of events currently retained in the flight ring.
    pub fn flight_event_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| {
            i.trace.lock().expect("obs lock").flight.as_ref().map_or(0, |r| r.in_order().len())
        })
    }

    // -- RAII spans (wall-clock style) --------------------------------------

    /// Opens a span on the calling thread's track, closed when the guard
    /// drops.
    #[inline]
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::noop(),
            Some(i) => SpanGuard {
                rec: Some(i.clone()),
                track: None,
                name: name.into(),
                start_us: i.clock.now_micros(),
                f_in: 0,
                f_out: 0,
            },
        }
    }

    /// Opens a span on an explicit track, closed when the guard drops.
    pub fn span_on(&self, track: TrackId, name: impl Into<Cow<'static, str>>) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::noop(),
            Some(i) => SpanGuard {
                rec: Some(i.clone()),
                track: Some(track),
                name: name.into(),
                start_us: i.clock.now_micros(),
                f_in: 0,
                f_out: 0,
            },
        }
    }

    // -- explicit events (simulator style) ----------------------------------

    /// Records a finished span with explicit timestamps (virtual time).
    pub fn complete(
        &self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        start_us: u64,
        end_us: u64,
    ) {
        if let Some(i) = &self.inner {
            i.trace.lock().expect("obs lock").push(TraceEvent {
                name: name.into(),
                track: track.0,
                ts_us: start_us,
                kind: EventKind::Complete { dur_us: end_us.saturating_sub(start_us) },
                flow_in: 0,
                flow_out: 0,
            });
        }
    }

    /// Records a point-in-time marker at the current clock time on the
    /// calling thread's track.
    pub fn instant(&self, name: impl Into<Cow<'static, str>>) {
        if let Some(i) = &self.inner {
            let ts = i.clock.now_micros();
            let mut tr = i.trace.lock().expect("obs lock");
            let track = tr.current_thread_track();
            tr.push(TraceEvent {
                name: name.into(),
                track: track.0,
                ts_us: ts,
                kind: EventKind::Instant,
                flow_in: 0,
                flow_out: 0,
            });
        }
    }

    /// Records a counter-series sample (rendered as a Chrome "C" event) at
    /// an explicit timestamp.
    pub fn sample_at(
        &self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        ts_us: u64,
        value: f64,
    ) {
        if let Some(i) = &self.inner {
            i.trace.lock().expect("obs lock").push(TraceEvent {
                name: name.into(),
                track: track.0,
                ts_us,
                kind: EventKind::Counter { value },
                flow_in: 0,
                flow_out: 0,
            });
        }
    }

    /// Records a counter-series sample at the current clock time.
    pub fn sample(&self, track: TrackId, name: impl Into<Cow<'static, str>>, value: f64) {
        let ts = self.now_micros();
        self.sample_at(track, name, ts, value);
    }

    // -- introspection for exporters and tests ------------------------------

    /// Number of buffered trace events.
    pub fn event_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.trace.lock().expect("obs lock").events.len())
    }

    /// Events dropped after the trace buffer filled.
    pub fn dropped_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.trace.lock().expect("obs lock").dropped)
    }

    /// Serializes the trace buffer (tracks + events) for cross-process
    /// merge; empty when disabled.
    pub fn trace_dump(&self) -> TraceDump {
        self.inner.as_ref().map(|i| i.trace.lock().expect("obs lock").dump()).unwrap_or_default()
    }

    /// Snapshot of all metrics: (counters, gauges, histogram summaries).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        if let Some(i) = &self.inner {
            snap.taken_at_us = i.clock.now_micros();
            for (k, v) in i.counters.lock().expect("obs lock").iter() {
                snap.counters.push((k.clone(), v.value()));
            }
            for (k, v) in i.gauges.lock().expect("obs lock").iter() {
                snap.gauges.push((k.clone(), v.value()));
            }
            for (k, v) in i.histograms.lock().expect("obs lock").iter() {
                snap.histograms.push((
                    k.clone(),
                    HistogramSummary {
                        count: v.count(),
                        mean: v.mean(),
                        p50: v.quantile(0.50),
                        p95: v.quantile(0.95),
                        p99: v.quantile(0.99),
                        max: v.max(),
                    },
                ));
            }
            snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
            snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
            snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        }
        snap
    }

    /// Cumulative self-time per span name in microseconds (for profile
    /// overlays and the summary table).
    pub fn span_totals(&self) -> Vec<(String, SpanTotal)> {
        let mut totals: HashMap<String, SpanTotal> = HashMap::new();
        if let Some(i) = &self.inner {
            for ev in &i.trace.lock().expect("obs lock").events {
                if let EventKind::Complete { dur_us } = ev.kind {
                    let t = totals.entry(ev.name.to_string()).or_default();
                    t.count += 1;
                    t.total_us += dur_us;
                }
            }
        }
        let mut out: Vec<_> = totals.into_iter().collect();
        out.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

/// Aggregate over all complete events sharing a span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Number of spans.
    pub count: u64,
    /// Summed duration in microseconds.
    pub total_us: u64,
}

/// Point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Capture time on the *taking* recorder's clock, microseconds. The
    /// cluster registry anchors folded points here (shifted by the
    /// worker's clock offset), not at receive time.
    pub taken_at_us: u64,
    /// (name, value), sorted by name.
    pub counters: Vec<(String, u64)>,
    /// (name, value), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// (name, summary), sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

/// Summary statistics of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Observed maximum.
    pub max: f64,
}

/// RAII span: records a complete event from construction to drop.
#[derive(Debug)]
pub struct SpanGuard {
    rec: Option<Arc<Inner>>,
    track: Option<TrackId>,
    name: Cow<'static, str>,
    start_us: u64,
    f_in: u64,
    f_out: u64,
}

impl SpanGuard {
    fn noop() -> Self {
        SpanGuard {
            rec: None,
            track: None,
            name: Cow::Borrowed(""),
            start_us: 0,
            f_in: 0,
            f_out: 0,
        }
    }

    /// Start timestamp (0 when disabled).
    pub fn start_micros(&self) -> u64 {
        self.start_us
    }

    /// Marks this span as the *target* of flow `id` (an RPC handler
    /// serving the request that carried `id` as its span id).
    pub fn flow_in(mut self, id: u64) -> Self {
        self.f_in = id;
        self
    }

    /// Marks this span as the *source* of flow `id` (an RPC client span
    /// that stamped `id` into the outgoing request).
    pub fn flow_out(mut self, id: u64) -> Self {
        self.f_out = id;
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(i) = self.rec.take() {
            let end = i.clock.now_micros();
            let mut tr = i.trace.lock().expect("obs lock");
            let track = match self.track {
                Some(t) => t,
                None => tr.current_thread_track(),
            };
            tr.push(TraceEvent {
                name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
                track: track.0,
                ts_us: self.start_us,
                kind: EventKind::Complete { dur_us: end.saturating_sub(self.start_us) },
                flow_in: self.f_in,
                flow_out: self.f_out,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("x");
        c.inc();
        assert_eq!(c.value(), 0);
        {
            let _g = r.span("work");
        }
        r.instant("marker");
        r.complete(r.track("t"), "s", 0, 10);
        assert_eq!(r.event_count(), 0);
        assert!(r.metrics_snapshot().counters.is_empty());
    }

    #[test]
    fn handles_share_registry_state() {
        let r = Recorder::wall();
        r.counter("ops").add(3);
        r.counter("ops").add(4);
        assert_eq!(r.counter("ops").value(), 7);
        r.gauge("loss").set(0.25);
        assert_eq!(r.gauge("loss").value(), 0.25);
        r.histogram("lat").record(10.0);
        assert_eq!(r.histogram("lat").count(), 1);
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counters, vec![("ops".to_string(), 7)]);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn raii_span_records_complete_event() {
        let r = Recorder::wall();
        {
            let _outer = r.span("outer");
            let _inner = r.span("inner");
        }
        assert_eq!(r.event_count(), 2);
        let totals = r.span_totals();
        let names: Vec<&str> = totals.iter().map(|t| t.0.as_str()).collect();
        assert!(names.contains(&"outer") && names.contains(&"inner"));
    }

    // Satellite requirement: virtual-clock spans agree with sim event times.
    #[test]
    fn virtual_clock_spans_carry_virtual_timestamps() {
        let (r, clock) = Recorder::virtual_time();
        clock.set_micros(1_000);
        let g = r.span("step");
        assert_eq!(g.start_micros(), 1_000);
        clock.set_micros(4_500);
        drop(g);
        let totals = r.span_totals();
        assert_eq!(totals[0].0, "step");
        assert_eq!(totals[0].1.total_us, 3_500);
    }

    #[test]
    fn flight_ring_mirrors_spans_and_takes_notes() {
        let r = Recorder::wall();
        assert!(!r.flight_enabled());
        r.enable_flight(3);
        assert!(r.flight_enabled());
        for _ in 0..5 {
            let _s = r.span("tick");
        }
        r.flight_note("crash", "injected fault");
        // Ring keeps the most recent 3 (2 ticks + note).
        assert_eq!(r.flight_event_count(), 3);
        let text = r.flight_render("panic: boom").expect("flight on");
        assert!(text.contains("panic: boom"));
        assert!(text.contains("injected fault"));
        assert!(text.contains("3 retained of 6"));
        // Disabled recorders render nothing.
        assert!(Recorder::disabled().flight_render("x").is_none());
    }

    #[test]
    fn trace_dump_carries_flow_ids() {
        let (r, clock) = Recorder::virtual_time();
        {
            let _s = r.span("net.rpc.call").flow_out(42);
            clock.set_micros(10);
        }
        {
            let _s = r.span("net.server.handle").flow_in(42);
            clock.set_micros(20);
        }
        let dump = r.trace_dump();
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.events[0].flow_out, 42);
        assert_eq!(dump.events[1].flow_in, 42);
        assert!(!dump.tracks.is_empty());
        assert!(Recorder::disabled().trace_dump().events.is_empty());
    }

    #[test]
    fn snapshot_stamps_capture_time_from_own_clock() {
        let (r, clock) = Recorder::virtual_time();
        clock.set_micros(12_345);
        r.counter("c").inc();
        assert_eq!(r.metrics_snapshot().taken_at_us, 12_345);
        assert_eq!(Recorder::disabled().metrics_snapshot().taken_at_us, 0);
    }

    #[test]
    fn explicit_events_on_named_tracks() {
        let r = Recorder::wall();
        let w0 = r.track("worker-0");
        let w1 = r.track("worker-1");
        assert_ne!(w0, w1);
        assert_eq!(r.track("worker-0"), w0);
        r.complete(w0, "task", 100, 250);
        r.sample_at(w1, "queue_depth", 120, 3.0);
        assert_eq!(r.event_count(), 2);
    }
}
