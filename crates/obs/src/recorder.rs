//! The recorder: a thread-installable sink for trace events, metrics and
//! progress events.
//!
//! Instrumented code never receives a recorder handle; it calls the free
//! functions in this module ([`span`], [`instant`], [`add`], [`observe`],
//! …) and the emitters in [`crate::progress`], which consult a
//! thread-local *current recorder*. A recorder records up to two
//! streams: the trace (spans, instants and metrics) and progress events
//! (instants of category [`crate::progress::CATEGORY`]). Each call first
//! reads one thread-local byte holding the installed recorder's stream
//! bits — cheap enough to leave instrumentation unconditionally compiled
//! in.
//!
//! Recording is designed to stay off the contended path:
//!
//! * events are pushed into a per-thread buffer and drained into the
//!   shared store when the buffer fills, the install guard drops, or a
//!   progress event is recorded (so a live reader sees it at once);
//! * counters and gauges are `Arc`-shared atomics, cached per thread
//!   after the first registry lookup;
//! * histogram observations accumulate in per-thread [`Histogram`]s and
//!   merge into the registry on flush — merging is exact, so concurrent
//!   observers lose nothing.
//!
//! Recording never consumes randomness and never mutates solver state, so
//! instrumented and uninstrumented runs are bit-identical.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{ArgValue, Event, EventKind};
use crate::export::TraceRecord;
use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use crate::progress::{self, ProgressEvent};

/// Events buffered per thread before draining into the shared store.
const FLUSH_THRESHOLD: usize = 1024;

/// Stream bit: spans, trace instants and metrics.
const TRACE: u8 = 1;
/// Stream bit: progress events.
const PROGRESS: u8 = 2;

#[derive(Debug)]
struct Shared {
    epoch: Instant,
    streams: u8,
    events: Mutex<Vec<Event>>,
    metrics: MetricsRegistry,
    next_thread: AtomicU64,
}

/// A handle to a trace/metrics/progress sink. Cloning is cheap (one
/// `Arc`); all clones share the same event store and registry.
#[derive(Debug, Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder that collects everything: trace, metrics and progress.
    #[must_use]
    pub fn new() -> Self {
        Recorder::with_streams(TRACE | PROGRESS)
    }

    /// A recorder that collects progress events only — what a live
    /// status line or a progress log needs, without paying for spans and
    /// metrics.
    #[must_use]
    pub fn progress_only() -> Self {
        Recorder::with_streams(PROGRESS)
    }

    /// A recorder that can be installed but records nothing — the
    /// baseline for overhead measurements: instrumentation sites run
    /// their thread-local check and then bail.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder::with_streams(0)
    }

    fn with_streams(streams: u8) -> Self {
        Recorder {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                streams,
                events: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
                next_thread: AtomicU64::new(0),
            }),
        }
    }

    /// Installs this recorder as the current thread's sink and returns a
    /// guard; recording stops (and buffered data flushes) when the guard
    /// drops. The previously installed recorder, if any, is restored.
    ///
    /// Worker threads each call `install` on their own clone — buffers
    /// are per-thread, so workers never contend on the event store until
    /// flush. Each install gets the next dense thread index, so fan-out
    /// workers record on distinct lanes.
    #[must_use]
    pub fn install(&self) -> InstallGuard {
        let thread = self.shared.next_thread.fetch_add(1, Ordering::Relaxed);
        let ctx = ThreadCtx {
            shared: Arc::clone(&self.shared),
            thread,
            buffer: Vec::new(),
            counters: HashMap::new(),
            gauges: HashMap::new(),
            histograms: HashMap::new(),
        };
        let previous = CURRENT.with(|c| c.borrow_mut().replace(ctx));
        ACTIVE.with(|a| a.set(self.shared.streams));
        InstallGuard { previous }
    }

    /// Takes every event recorded so far (sorted by start time). Call
    /// after the install guards have dropped, so all buffers have
    /// flushed.
    #[must_use]
    pub fn drain_events(&self) -> Vec<Event> {
        let mut events =
            std::mem::take(&mut *self.shared.events.lock().expect("event store poisoned"));
        events.sort_by_key(|e| e.start_ns);
        events
    }

    /// The progress events recorded since `cursor` (start it at 0), in
    /// store order, without draining anything; advances `cursor` past
    /// them. Safe to call from any thread while producers record: every
    /// progress event is flushed as it is recorded. The filter runs under
    /// the store lock, so reading beside a full trace copies only the
    /// progress events.
    #[must_use]
    pub fn progress_since(&self, cursor: &mut usize) -> Vec<ProgressEvent> {
        let records: Vec<TraceRecord> = {
            let store = self.shared.events.lock().expect("event store poisoned");
            let fresh = store.get(*cursor..).unwrap_or_default();
            *cursor = store.len();
            fresh.iter().filter(|e| e.cat == progress::CATEGORY).map(TraceRecord::from).collect()
        };
        records.iter().filter_map(ProgressEvent::decode).collect()
    }

    /// A snapshot of the metrics registry. Call after the install guards
    /// have dropped so per-thread histogram buffers have merged.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Direct access to the registry (for publishing pre-aggregated
    /// values, e.g. exporting `SolveStats` as a view).
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }
}

struct ThreadCtx {
    shared: Arc<Shared>,
    thread: u64,
    buffer: Vec<Event>,
    counters: HashMap<&'static str, Arc<Counter>>,
    gauges: HashMap<&'static str, Arc<Gauge>>,
    histograms: HashMap<&'static str, Histogram>,
}

impl ThreadCtx {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.shared.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push_instant(
        &mut self,
        name: &'static str,
        cat: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let start_ns = self.now_ns();
        let thread = self.thread;
        self.push(Event { name, cat, kind: EventKind::Instant, start_ns, dur_ns: 0, thread, args });
    }

    fn push(&mut self, event: Event) {
        self.buffer.push(event);
        if self.buffer.len() >= FLUSH_THRESHOLD {
            self.flush_events();
        }
    }

    fn flush_events(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut store = self.shared.events.lock().expect("event store poisoned");
        store.append(&mut self.buffer);
    }

    fn flush(&mut self) {
        self.flush_events();
        for (name, hist) in self.histograms.drain() {
            self.shared.metrics.merge_histogram(name, &hist);
        }
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static CURRENT: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
    // Fast gate consulted before touching the RefCell: the stream bits of
    // the installed recorder (0 when none is). Keeps the disabled/absent
    // path to a single thread-local byte read — the overhead bound the
    // solver relies on when observability flags are absent.
    static ACTIVE: Cell<u8> = const { Cell::new(0) };
}

/// Guard returned by [`Recorder::install`]; restores the previous
/// recorder (and flushes this thread's buffers) on drop.
pub struct InstallGuard {
    previous: Option<ThreadCtx>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let restored = self.previous.as_ref().map_or(0, |ctx| ctx.shared.streams);
        CURRENT.with(|c| {
            // Dropping the replaced ctx flushes its buffers.
            *c.borrow_mut() = self.previous.take();
        });
        ACTIVE.with(|a| a.set(restored));
    }
}

/// Runs `f` with the current thread context, if the installed recorder
/// records `stream`. The single place the "is anyone listening" check
/// happens.
fn with_ctx<T>(stream: u8, f: impl FnOnce(&mut ThreadCtx) -> T) -> Option<T> {
    if ACTIVE.with(Cell::get) & stream == 0 {
        return None;
    }
    CURRENT.with(|c| {
        // A failed borrow is a re-entrant call from a Drop; skip it.
        let mut borrow = c.try_borrow_mut().ok()?;
        borrow.as_mut().map(f)
    })
}

/// Whether a recorder that records the trace (spans, instants and
/// metrics) is installed on this thread.
#[must_use]
pub fn enabled() -> bool {
    ACTIVE.with(Cell::get) & TRACE != 0
}

/// Whether a recorder that records progress events is installed on this
/// thread.
pub(crate) fn progress_enabled() -> bool {
    ACTIVE.with(Cell::get) & PROGRESS != 0
}

/// Records a progress instant and flushes this thread's buffer, so a
/// [`Recorder::progress_since`] reader sees it at once.
pub(crate) fn progress_instant(name: &'static str, args: Vec<(&'static str, ArgValue)>) {
    with_ctx(PROGRESS, |ctx| {
        ctx.push_instant(name, progress::CATEGORY, args);
        ctx.flush_events();
    });
}

/// The recorder currently installed on this thread, if any (whatever it
/// records). Lets fan-out drivers propagate the caller's recorder to
/// worker threads.
#[must_use]
pub fn current() -> Option<Recorder> {
    CURRENT.with(|c| {
        c.try_borrow()
            .ok()
            .and_then(|b| b.as_ref().map(|ctx| Recorder { shared: Arc::clone(&ctx.shared) }))
    })
}

/// Records an instant event.
pub fn instant(name: &'static str, cat: &'static str) {
    instant_with(name, cat, Vec::new());
}

/// Records an instant event with arguments.
pub fn instant_with(name: &'static str, cat: &'static str, args: Vec<(&'static str, ArgValue)>) {
    with_ctx(TRACE, |ctx| ctx.push_instant(name, cat, args));
}

/// Opens a span; the event is recorded (with its measured duration) when
/// the returned guard drops. Inert unless the installed recorder records
/// the trace.
#[must_use]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    let started = enabled().then(Instant::now);
    Span { name, cat, started, args: Vec::new() }
}

/// A span guard. Attach arguments with [`Span::arg`]; the completed
/// event is recorded on drop.
pub struct Span {
    name: &'static str,
    cat: &'static str,
    started: Option<Instant>,
    args: Vec<(&'static str, ArgValue)>,
}

impl Span {
    /// Attaches an argument (no-op when the span is inert).
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.started.is_some() {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(started) = self.started else { return };
        let args = std::mem::take(&mut self.args);
        let (name, cat) = (self.name, self.cat);
        with_ctx(TRACE, |ctx| {
            let end_ns = ctx.now_ns();
            let dur_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let thread = ctx.thread;
            ctx.push(Event {
                name,
                cat,
                kind: EventKind::Span,
                start_ns: end_ns.saturating_sub(dur_ns),
                dur_ns,
                thread,
                args,
            });
        });
    }
}

/// Adds `delta` to the named counter.
pub fn add(name: &'static str, delta: u64) {
    with_ctx(TRACE, |ctx| {
        let cell = match ctx.counters.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = ctx.shared.metrics.counter(name);
                ctx.counters.insert(name, Arc::clone(&c));
                c
            }
        };
        cell.add(delta);
    });
}

/// Sets the named gauge.
pub fn gauge(name: &'static str, value: f64) {
    with_ctx(TRACE, |ctx| {
        let cell = match ctx.gauges.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = ctx.shared.metrics.gauge(name);
                ctx.gauges.insert(name, Arc::clone(&g));
                g
            }
        };
        cell.set(value);
    });
}

/// Records an observation into the named histogram (buffered per
/// thread; merged into the registry on flush).
pub fn observe(name: &'static str, value: f64) {
    with_ctx(TRACE, |ctx| {
        ctx.histograms.entry(name).or_default().observe(value);
    });
}

/// Flushes this thread's buffered events and histograms into the shared
/// store without uninstalling. Useful before taking a snapshot while a
/// guard is still alive.
pub fn flush() {
    with_ctx(TRACE | PROGRESS, ThreadCtx::flush);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_recorded_without_install() {
        instant("ghost", "test");
        add("ghost.counter", 1);
        observe("ghost.hist", 1.0);
        assert!(!enabled());
        assert!(current().is_none());
        // A fresh recorder sees none of it.
        let r = Recorder::new();
        assert!(r.drain_events().is_empty());
        assert_eq!(r.metrics_snapshot().series_count(), 0);
    }

    #[test]
    fn install_records_events_metrics_and_spans() {
        let r = Recorder::new();
        {
            let _g = r.install();
            assert!(enabled());
            instant_with("place", "solver", vec![("app", ArgValue::Int(3))]);
            add("solver.nodes", 2);
            add("solver.nodes", 3);
            gauge("solver.best", 42.5);
            observe("lat", 0.5);
            {
                let mut s = span("refit", "solver");
                s.arg("round", 1u64);
            }
        }
        let events = r.drain_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "place");
        assert_eq!(events[0].kind, EventKind::Instant);
        assert_eq!(events[0].arg("app"), Some(&ArgValue::Int(3)));
        assert_eq!(events[1].name, "refit");
        assert_eq!(events[1].kind, EventKind::Span);
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter("solver.nodes"), Some(5));
        assert_eq!(snap.gauges.get("solver.best"), Some(&42.5));
        assert_eq!(snap.histogram("lat").expect("lat").count, 1);
    }

    #[test]
    fn disabled_recorder_collects_nothing() {
        let r = Recorder::disabled();
        {
            let _g = r.install();
            assert!(!enabled());
            instant("x", "t");
            add("c", 1);
        }
        assert!(r.drain_events().is_empty());
        assert_eq!(r.metrics_snapshot().series_count(), 0);
    }

    #[test]
    fn nested_install_restores_previous() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        let _og = outer.install();
        instant("a", "t");
        {
            let _ig = inner.install();
            instant("b", "t");
            assert!(current().is_some());
        }
        instant("c", "t");
        drop(_og);
        let outer_names: Vec<_> = outer.drain_events().iter().map(|e| e.name).collect();
        assert_eq!(outer_names, vec!["a", "c"]);
        let inner_names: Vec<_> = inner.drain_events().iter().map(|e| e.name).collect();
        assert_eq!(inner_names, vec!["b"]);
    }

    #[test]
    fn current_returns_the_installed_recorder() {
        let r = Recorder::new();
        let _g = r.install();
        let got = current().expect("installed");
        {
            let _g2 = got.install();
            instant("via-clone", "t");
        }
        drop(_g);
        assert_eq!(r.drain_events().len(), 1);
    }

    #[test]
    fn cross_thread_events_and_metrics_aggregate() {
        let r = Recorder::new();
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                let r = r.clone();
                scope.spawn(move || {
                    let _g = r.install();
                    for _ in 0..100 {
                        add("work", 1);
                        observe("h", 1.0 + i as f64);
                    }
                    instant("done", "t");
                });
            }
        });
        let events = r.drain_events();
        assert_eq!(events.len(), 4);
        let threads: std::collections::BTreeSet<u64> = events.iter().map(|e| e.thread).collect();
        assert_eq!(threads.len(), 4, "each worker gets its own thread index");
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter("work"), Some(400));
        assert_eq!(snap.histogram("h").expect("h").count, 400);
    }

    #[test]
    fn flush_makes_buffered_data_visible_mid_install() {
        let r = Recorder::new();
        let _g = r.install();
        add("c", 1);
        observe("h", 2.0);
        instant("e", "t");
        flush();
        assert_eq!(r.metrics_snapshot().histogram("h").expect("h").count, 1);
        assert_eq!(r.drain_events().len(), 1);
    }

    #[test]
    fn progress_only_records_no_span_instant_or_metric() {
        let r = Recorder::progress_only();
        {
            let _g = r.install();
            assert!(!enabled());
            assert!(progress::enabled());
            {
                let mut s = span("solve", "solver");
                s.arg("budget", 3u64);
            }
            instant("place", "solver");
            add("c", 1);
            gauge("g", 1.0);
            observe("h", 1.0);
            progress::restart(1);
        }
        let names: Vec<_> = r.drain_events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["progress.restart"]);
        assert_eq!(r.metrics_snapshot().series_count(), 0);
    }
}
