//! Structured event tracing and deterministic metrics for the DAC'17
//! nanophotonic-interconnect reproduction.
//!
//! The crate has three pieces:
//!
//! 1. **Events** ([`TelemetryEvent`]): the typed vocabulary every
//!    instrumented layer emits — solver invocations, operating-point cache
//!    hits/misses, runtime decisions, scheme switches, epoch boundaries,
//!    wavelength-assignment search steps, and shard completions.
//! 2. **Recorders** ([`Recorder`]): sinks for that stream.  The default
//!    [`NullRecorder`] is zero-cost (event construction is skipped entirely
//!    via [`RecorderHandle::emit`]'s lazy closure), [`MemoryRecorder`]
//!    buffers events for tests, [`JsonlRecorder`] writes one JSON object per
//!    line, and [`RegistryRecorder`] folds the stream into metrics.
//! 3. **Registries**: [`MetricsRegistry`] holds monotonic counters and
//!    fixed-bucket histograms whose contents are **bit-identical across runs
//!    at any thread count** (they only ever accumulate order-independent
//!    sums of deterministic events).  Wall-clock timings are quarantined in
//!    [`WallClockRegistry`], a separate and explicitly non-deterministic
//!    section, so an artifact diff can gate on the former and ignore the
//!    latter.
//!
//! Producers hold a [`RecorderHandle`] — a cheap clonable `Option<Arc<dyn
//! Recorder>>` that defaults to disabled, keeping telemetry-off runs
//! bit-identical to (and as fast as) the uninstrumented code.

#![forbid(unsafe_code)]

pub mod events;
pub mod json;

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

pub use events::TelemetryEvent;
pub use json::Json;

/// A sink for [`TelemetryEvent`]s.  Implementations must tolerate
/// concurrent calls from sharded workers.
pub trait Recorder: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &TelemetryEvent);

    /// Whether producers should bother constructing events at all.
    /// [`RecorderHandle::emit`] skips its closure when this is `false`.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The zero-cost default sink: reports itself disabled, so producers never
/// even construct events.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _event: &TelemetryEvent) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// An in-memory sink that buffers every event, in arrival order.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Mutex<Vec<TelemetryEvent>>,
}

impl MemoryRecorder {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything recorded so far.
    ///
    /// # Panics
    ///
    /// If a previous holder of the buffer lock panicked.
    #[must_use]
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.events
            .lock()
            .expect("memory recorder poisoned")
            .clone()
    }

    /// Number of events recorded so far.
    ///
    /// # Panics
    ///
    /// If a previous holder of the buffer lock panicked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory recorder poisoned").len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for MemoryRecorder {
    fn record(&self, event: &TelemetryEvent) {
        self.events
            .lock()
            .expect("memory recorder poisoned")
            .push(event.clone());
    }
}

/// A sink that writes one compact JSON object per event per line (JSONL).
///
/// No serde is available offline, so the wire format is produced by the
/// crate's own [`json`] kernel; [`parse_jsonl`] reads it back.  Write errors never panic a simulation — they are counted and
/// surfaced via [`JsonlRecorder::write_errors`].
#[derive(Debug)]
pub struct JsonlRecorder<W: Write + Send> {
    sink: Mutex<W>,
    write_errors: std::sync::atomic::AtomicU64,
}

impl<W: Write + Send> JsonlRecorder<W> {
    /// Wraps a writer.
    pub fn new(sink: W) -> Self {
        Self {
            sink: Mutex::new(sink),
            write_errors: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Panics
    ///
    /// If a previous holder of the sink lock panicked.
    pub fn into_inner(self) -> W {
        let mut sink = self.sink.into_inner().expect("jsonl recorder poisoned");
        let _ = sink.flush();
        sink
    }

    /// Number of events dropped because the underlying writer failed.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl<W: Write + Send> Recorder for JsonlRecorder<W> {
    fn record(&self, event: &TelemetryEvent) {
        let line = event.to_json().render();
        let mut sink = self.sink.lock().expect("jsonl recorder poisoned");
        if writeln!(sink, "{line}").is_err() {
            self.write_errors
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Parses a JSONL stream produced by [`JsonlRecorder`] back into events.
///
/// Blank lines are skipped.
///
/// # Errors
///
/// The 1-based line number and cause of the first malformed line.
pub fn parse_jsonl(stream: &str) -> Result<Vec<TelemetryEvent>, String> {
    let mut events = Vec::new();
    for (index, line) in stream.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("line {}: {e}", index + 1))?;
        events.push(
            TelemetryEvent::from_json(&json).map_err(|e| format!("line {}: {e}", index + 1))?,
        );
    }
    Ok(events)
}

/// A cheap, clonable, optional handle to a shared [`Recorder`].
///
/// This is what instrumented types store.  The default is disabled: no
/// allocation, no virtual call, and — because [`RecorderHandle::emit`] takes
/// a closure — no event construction either, so the off path costs one
/// branch on an `Option`.
#[derive(Clone, Default)]
pub struct RecorderHandle {
    recorder: Option<Arc<dyn Recorder>>,
}

impl RecorderHandle {
    /// The disabled handle (same as `Default`).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Wraps a shared recorder.
    #[must_use]
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Self {
            recorder: Some(recorder),
        }
    }

    /// Whether events will actually be delivered anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.recorder.as_ref().is_some_and(|r| r.is_enabled())
    }

    /// Builds and records an event — but only when a live recorder is
    /// attached, so disabled handles never pay for event construction.
    pub fn emit(&self, build: impl FnOnce() -> TelemetryEvent) {
        if let Some(recorder) = &self.recorder {
            if recorder.is_enabled() {
                recorder.record(&build());
            }
        }
    }
}

impl fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.recorder {
            Some(r) if r.is_enabled() => f.write_str("RecorderHandle(enabled)"),
            Some(_) => f.write_str("RecorderHandle(disabled)"),
            None => f.write_str("RecorderHandle(none)"),
        }
    }
}

/// A fixed-bucket histogram: `counts[i]` tallies observations `<=
/// bounds[i]`, with one overflow bucket at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending upper bounds, fixed at creation.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `bounds.len() + 1` entries.
    pub counts: Vec<u64>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        }
    }

    fn observe(&mut self, value: f64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
    }

    /// Total observations across all buckets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "bounds",
                Json::Arr(self.bounds.iter().map(|&b| b.into()).collect()),
            ),
            (
                "counts",
                Json::Arr(self.counts.iter().map(|&c| c.into()).collect()),
            ),
        ])
    }
}

/// Monotonic counters and fixed-bucket histograms that are bit-identical
/// across runs at any thread count.
///
/// The guarantee holds because every entry is an order-independent sum of
/// deterministic events: sharding a workload changes *when* increments
/// arrive, never *how many*.  Anything wall-clock-derived is rejected by
/// convention and lives in [`WallClockRegistry`] instead.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a named monotonic counter, creating it at zero.
    ///
    /// # Panics
    ///
    /// If a previous holder of the counter lock panicked.
    pub fn add(&self, name: &str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .entry(name.to_owned())
            .or_insert(0) += delta;
    }

    /// Increments a named monotonic counter by one.
    pub fn increment(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (zero when never touched).
    ///
    /// # Panics
    ///
    /// If a previous holder of the counter lock panicked.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("metrics registry poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Records one observation into a named fixed-bucket histogram.  The
    /// first observation fixes the bucket bounds; later calls must pass the
    /// same bounds.
    ///
    /// # Panics
    ///
    /// If `bounds` disagrees with the histogram's existing bounds, or a
    /// previous holder of the histogram lock panicked.
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        let mut histograms = self.histograms.lock().expect("metrics registry poisoned");
        let histogram = histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::new(bounds));
        assert_eq!(
            histogram.bounds, bounds,
            "histogram `{name}` re-registered with different bounds"
        );
        histogram.observe(value);
    }

    /// An ordered, immutable snapshot of every counter and histogram.
    ///
    /// # Panics
    ///
    /// If a previous holder of either lock panicked.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics registry poisoned")
                .clone(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics registry poisoned")
                .clone(),
        }
    }
}

/// Point-in-time copy of a [`MetricsRegistry`], ordered by name (BTreeMap)
/// so rendering is deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → buckets.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Whether nothing was ever recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders as `{"counters": {...}, "histograms": {...}}` with keys in
    /// lexicographic order.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".to_owned(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(name, &value)| (name.clone(), value.into()))
                        .collect(),
                ),
            ),
            (
                "histograms".to_owned(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(name, histogram)| (name.clone(), histogram.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Aggregated wall-clock samples for one label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WallClockStats {
    /// Number of samples.
    pub samples: u64,
    /// Sum of all samples, in microseconds.
    pub total_micros: u64,
    /// Largest single sample, in microseconds.
    pub max_micros: u64,
}

/// Wall-clock timing aggregates — the explicitly **non-deterministic**
/// section.  Kept apart from [`MetricsRegistry`] so artifact diffs can gate
/// on deterministic counters while ignoring machine-speed noise.
#[derive(Debug, Default)]
pub struct WallClockRegistry {
    stats: Mutex<BTreeMap<String, WallClockStats>>,
}

impl WallClockRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one duration sample into a named aggregate.
    ///
    /// # Panics
    ///
    /// If a previous holder of the lock panicked.
    pub fn record(&self, name: &str, micros: u64) {
        let mut stats = self.stats.lock().expect("wall-clock registry poisoned");
        let entry = stats.entry(name.to_owned()).or_default();
        entry.samples += 1;
        entry.total_micros += micros;
        entry.max_micros = entry.max_micros.max(micros);
    }

    /// Ordered snapshot of every aggregate.
    ///
    /// # Panics
    ///
    /// If a previous holder of the lock panicked.
    #[must_use]
    pub fn snapshot(&self) -> BTreeMap<String, WallClockStats> {
        self.stats
            .lock()
            .expect("wall-clock registry poisoned")
            .clone()
    }

    /// Renders as `{name: {samples, total_micros, max_micros}}`.
    ///
    /// # Panics
    ///
    /// If a previous holder of the lock panicked.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.snapshot()
                .iter()
                .map(|(name, s)| {
                    (
                        name.clone(),
                        Json::obj(vec![
                            ("samples", s.samples.into()),
                            ("total_micros", s.total_micros.into()),
                            ("max_micros", s.max_micros.into()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// A [`Recorder`] that folds the event stream into registries: every
/// deterministic event increments [`MetricsRegistry`] counters (and a
/// candidate-cost histogram for assignment search), while
/// [`TelemetryEvent::ShardCompleted`] — whose *count* depends on the shard
/// split and whose payload is a wall clock — is quarantined into the
/// [`WallClockRegistry`].  Optionally forwards the raw stream to another
/// recorder.
pub struct RegistryRecorder {
    metrics: Arc<MetricsRegistry>,
    wall_clock: Arc<WallClockRegistry>,
    forward: Option<Arc<dyn Recorder>>,
}

/// Bucket bounds (µW) for the assignment candidate-cost histogram.
pub const ASSIGNMENT_COST_BOUNDS_UW: [f64; 6] = [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0];

impl RegistryRecorder {
    /// Builds a recorder feeding the given registries.
    #[must_use]
    pub fn new(metrics: Arc<MetricsRegistry>, wall_clock: Arc<WallClockRegistry>) -> Self {
        Self {
            metrics,
            wall_clock,
            forward: None,
        }
    }

    /// Also forwards every event to `recorder` (e.g. a [`JsonlRecorder`]).
    #[must_use]
    pub fn with_forward(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.forward = Some(recorder);
        self
    }

    /// The deterministic registry this recorder feeds.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The non-deterministic registry this recorder feeds.
    #[must_use]
    pub fn wall_clock(&self) -> &Arc<WallClockRegistry> {
        &self.wall_clock
    }
}

impl fmt::Debug for RegistryRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegistryRecorder")
            .field("metrics", &self.metrics)
            .field("wall_clock", &self.wall_clock)
            .field("forward", &self.forward.as_ref().map(|_| "..."))
            .finish()
    }
}

impl Recorder for RegistryRecorder {
    fn record(&self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::ShardCompleted {
                label, wall_micros, ..
            } => {
                // Wall-clock payload AND shard-split-dependent count: the
                // one event that must never touch the deterministic side.
                self.wall_clock
                    .record(&format!("shard.{label}"), *wall_micros);
            }
            TelemetryEvent::SolverInvoked { feasible, .. } => {
                self.metrics.increment("solver.invocations");
                if !*feasible {
                    self.metrics.increment("solver.infeasible");
                }
            }
            TelemetryEvent::CacheHit { .. } => self.metrics.increment("cache.hits"),
            TelemetryEvent::CacheMiss { .. } => self.metrics.increment("cache.misses"),
            TelemetryEvent::DecisionResolved { scheme, .. } => {
                self.metrics.increment("manager.decisions");
                if scheme.is_none() {
                    self.metrics.increment("manager.infeasible");
                }
            }
            TelemetryEvent::SchemeSwitched { .. } => self.metrics.increment("scheme.switches"),
            TelemetryEvent::EpochAdvanced { .. } => self.metrics.increment("epochs.advanced"),
            TelemetryEvent::RouteResolved {
                hops,
                electrical_hops,
                ..
            } => {
                self.metrics.increment("route.flows");
                self.metrics.add("route.hops", *hops);
                self.metrics.add("route.electrical_hops", *electrical_hops);
            }
            TelemetryEvent::HopTraversed { electrical, .. } => {
                self.metrics.increment("hop.traversals");
                if *electrical {
                    self.metrics.increment("hop.electrical");
                }
            }
            TelemetryEvent::AssignmentSearchStep {
                candidate_cost_uw,
                accepted,
                swaps_applied,
                ..
            } => {
                self.metrics.increment("assignment.steps");
                self.metrics.increment(if *accepted {
                    "assignment.steps_accepted"
                } else {
                    "assignment.steps_rejected"
                });
                self.metrics.add("assignment.swaps_applied", *swaps_applied);
                self.metrics.observe(
                    "assignment.candidate_cost_uw",
                    &ASSIGNMENT_COST_BOUNDS_UW,
                    *candidate_cost_uw,
                );
            }
            TelemetryEvent::PhaseEntered { .. } => self.metrics.increment("phase.entries"),
            TelemetryEvent::AssignmentSwapped { .. } => {
                self.metrics.increment("assignment.swaps");
            }
        }
        if let Some(forward) = &self.forward {
            forward.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(fp: u64) -> TelemetryEvent {
        TelemetryEvent::CacheHit {
            fingerprint: fp,
            scheme: "Uncoded".into(),
            temperature_c: 25.0,
        }
    }

    #[test]
    fn null_recorder_reports_disabled_and_handle_skips_construction() {
        let handle = RecorderHandle::new(Arc::new(NullRecorder));
        assert!(!handle.is_enabled());
        handle.emit(|| panic!("event must not be constructed for a disabled recorder"));
        let default = RecorderHandle::default();
        assert!(!default.is_enabled());
        default.emit(|| panic!("event must not be constructed for an absent recorder"));
    }

    #[test]
    fn memory_recorder_buffers_in_order() {
        let memory = Arc::new(MemoryRecorder::new());
        let handle = RecorderHandle::new(memory.clone());
        assert!(handle.is_enabled());
        handle.emit(|| hit(1));
        handle.emit(|| hit(2));
        assert_eq!(memory.events(), vec![hit(1), hit(2)]);
        assert_eq!(memory.len(), 2);
        assert!(!memory.is_empty());
    }

    #[test]
    fn jsonl_recorder_round_trips_the_full_vocabulary() {
        let recorder = JsonlRecorder::new(Vec::new());
        for event in TelemetryEvent::examples() {
            recorder.record(&event);
        }
        assert_eq!(recorder.write_errors(), 0);
        let stream = String::from_utf8(recorder.into_inner()).unwrap();
        assert_eq!(parse_jsonl(&stream).unwrap(), TelemetryEvent::examples());
    }

    #[test]
    fn jsonl_recorder_counts_write_errors_instead_of_panicking() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let recorder = JsonlRecorder::new(Broken);
        recorder.record(&hit(1));
        assert_eq!(recorder.write_errors(), 1);
    }

    #[test]
    fn parse_jsonl_reports_line_numbers() {
        let err = parse_jsonl("{\"type\":\"epoch_advanced\"}\n\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 1"), "{err}");
        let err = parse_jsonl(
            "{\"type\":\"shard_completed\",\"label\":\"x\",\"shard\":0,\"items\":1,\"wall_micros\":2}\nnot json\n",
        )
        .unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
    }

    #[test]
    fn registry_counters_are_order_independent_sums() {
        let metrics = Arc::new(MetricsRegistry::new());
        let wall = Arc::new(WallClockRegistry::new());
        let recorder = RegistryRecorder::new(metrics.clone(), wall.clone());
        let mut events = TelemetryEvent::examples();
        for event in &events {
            recorder.record(event);
        }
        let forward_order = metrics.snapshot();

        let metrics_rev = Arc::new(MetricsRegistry::new());
        let recorder_rev =
            RegistryRecorder::new(metrics_rev.clone(), Arc::new(WallClockRegistry::new()));
        events.reverse();
        for event in &events {
            recorder_rev.record(event);
        }
        assert_eq!(forward_order, metrics_rev.snapshot());
        assert_eq!(forward_order.counters["solver.invocations"], 1);
        assert_eq!(forward_order.counters["cache.hits"], 1);
        assert_eq!(forward_order.counters["cache.misses"], 1);
        assert_eq!(forward_order.counters["manager.decisions"], 2);
        assert_eq!(forward_order.counters["manager.infeasible"], 1);
        assert_eq!(forward_order.counters["scheme.switches"], 2);
        assert_eq!(forward_order.counters["epochs.advanced"], 1);
        assert_eq!(forward_order.counters["assignment.steps_accepted"], 1);
        assert_eq!(forward_order.counters["assignment.swaps_applied"], 4);
        assert_eq!(
            forward_order.histograms["assignment.candidate_cost_uw"].total(),
            1
        );
    }

    #[test]
    fn shard_completions_stay_out_of_deterministic_metrics() {
        let metrics = Arc::new(MetricsRegistry::new());
        let wall = Arc::new(WallClockRegistry::new());
        let recorder = RegistryRecorder::new(metrics.clone(), wall.clone());
        recorder.record(&TelemetryEvent::ShardCompleted {
            label: "solve".into(),
            shard: 0,
            items: 4,
            wall_micros: 900,
        });
        recorder.record(&TelemetryEvent::ShardCompleted {
            label: "solve".into(),
            shard: 1,
            items: 4,
            wall_micros: 1100,
        });
        assert!(metrics.snapshot().is_empty());
        let wall_stats = wall.snapshot();
        assert_eq!(
            wall_stats["shard.solve"],
            WallClockStats {
                samples: 2,
                total_micros: 2000,
                max_micros: 1100
            }
        );
    }

    #[test]
    fn histograms_bucket_and_reject_bound_changes() {
        let metrics = MetricsRegistry::new();
        metrics.observe("h", &[1.0, 10.0], 0.5);
        metrics.observe("h", &[1.0, 10.0], 5.0);
        metrics.observe("h", &[1.0, 10.0], 50.0);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.histograms["h"].counts, vec![1, 1, 1]);
        assert_eq!(snapshot.histograms["h"].total(), 3);
        let rendered = snapshot.to_json().render();
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(
            parsed
                .get("histograms")
                .and_then(|h| h.get("h"))
                .and_then(|h| h.get("counts"))
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(3)
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            metrics.observe("h", &[2.0], 1.0);
        }));
        assert!(result.is_err(), "bound mismatch must be rejected");
    }

    #[test]
    fn registry_recorder_forwards_downstream() {
        let memory = Arc::new(MemoryRecorder::new());
        let recorder = RegistryRecorder::new(
            Arc::new(MetricsRegistry::new()),
            Arc::new(WallClockRegistry::new()),
        )
        .with_forward(memory.clone());
        recorder.record(&hit(7));
        assert_eq!(memory.events(), vec![hit(7)]);
        assert_eq!(recorder.metrics().counter("cache.hits"), 1);
    }
}
