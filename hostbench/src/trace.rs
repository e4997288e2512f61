//! The outside-in trace: a benchmark-side telemetry recorder that
//! timestamps the program's own events per thread, and the spans the
//! benchmark derives from them.  Nothing inside the program changes; the
//! recorder is attached through the public `telemetry` hooks.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

use onoc_telemetry::{Recorder, TelemetryEvent};

use crate::stats::{median, percentile};

/// One `parallel_map` worker, placed on the recorder's clock.
#[derive(Debug, Clone)]
pub struct Shard {
    pub label: String,
    /// Epochs completed when the shard finished: shards of one fan-out
    /// share it, because every fan-out sits inside one epoch.
    pub epoch: u64,
    pub start_s: f64,
    pub end_s: f64,
}

impl Shard {
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Everything the recorder saw, on seconds since its creation.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    pub events: u64,
    pub solves: u64,
    /// Solver spans (cache miss → solver invoked) on the recorder's owner
    /// thread, and on every other thread.
    pub solve_main_s: f64,
    pub solve_worker_s: f64,
    pub epoch_marks_s: Vec<f64>,
    pub shards: Vec<Shard>,
}

impl Trace {
    pub fn solve_s(&self) -> f64 {
        self.solve_main_s + self.solve_worker_s
    }

    /// What the recorder saw after `earlier`, a snapshot of the same
    /// recorder.  Marks and shards arrive in order, so `earlier`'s are a
    /// prefix of these.
    pub fn since(&self, earlier: &Trace) -> Trace {
        Trace {
            events: self.events - earlier.events,
            solves: self.solves - earlier.solves,
            solve_main_s: self.solve_main_s - earlier.solve_main_s,
            solve_worker_s: self.solve_worker_s - earlier.solve_worker_s,
            epoch_marks_s: self.epoch_marks_s[earlier.epoch_marks_s.len()..].to_vec(),
            shards: self.shards[earlier.shards.len()..].to_vec(),
        }
    }
}

#[derive(Debug, Default)]
struct State {
    trace: Trace,
    pending_miss: Vec<(ThreadId, f64)>,
}

/// Timestamps events as they arrive.  Aggregates online, so memory stays
/// flat however many events a run emits.
#[derive(Debug)]
pub struct TraceRecorder {
    origin: Instant,
    owner: ThreadId,
    state: Mutex<State>,
}

impl TraceRecorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            owner: std::thread::current().id(),
            state: Mutex::new(State::default()),
        }
    }

    /// Seconds since the recorder was created.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn snapshot(&self) -> Trace {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .trace
            .clone()
    }
}

impl Recorder for TraceRecorder {
    fn record(&self, event: &TelemetryEvent) {
        let now = self.now_s();
        let thread = std::thread::current().id();
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let state = &mut *state;
        state.trace.events += 1;
        match event {
            TelemetryEvent::CacheMiss { .. } => {
                state.pending_miss.retain(|(t, _)| *t != thread);
                state.pending_miss.push((thread, now));
            }
            TelemetryEvent::SolverInvoked { .. } => {
                state.trace.solves += 1;
                if let Some(at) = state.pending_miss.iter().position(|(t, _)| *t == thread) {
                    let (_, started) = state.pending_miss.swap_remove(at);
                    if thread == self.owner {
                        state.trace.solve_main_s += now - started;
                    } else {
                        state.trace.solve_worker_s += now - started;
                    }
                }
            }
            TelemetryEvent::EpochAdvanced { .. } => state.trace.epoch_marks_s.push(now),
            TelemetryEvent::ShardCompleted {
                label, wall_micros, ..
            } => {
                let epoch = state.trace.epoch_marks_s.len() as u64;
                state.trace.shards.push(Shard {
                    label: label.clone(),
                    epoch,
                    start_s: now - *wall_micros as f64 * 1e-6,
                    end_s: now,
                });
            }
            _ => {}
        }
    }
}

/// One fan-out: the shards of one `parallel_map` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fanout {
    pub shards: usize,
    pub busy_s: f64,
    pub max_s: f64,
    /// Wall time from the first shard's start to the last shard's end.
    pub window_s: f64,
}

/// Groups shard events into fan-outs, per label.
pub fn fanouts(shards: &[Shard]) -> BTreeMap<String, Vec<Fanout>> {
    let mut calls: BTreeMap<(String, u64), (Fanout, f64, f64)> = BTreeMap::new();
    for shard in shards {
        let entry = calls.entry((shard.label.clone(), shard.epoch)).or_insert((
            Fanout::default(),
            f64::INFINITY,
            f64::NEG_INFINITY,
        ));
        entry.0.shards += 1;
        entry.0.busy_s += shard.wall_s();
        entry.0.max_s = entry.0.max_s.max(shard.wall_s());
        entry.1 = entry.1.min(shard.start_s);
        entry.2 = entry.2.max(shard.end_s);
    }
    let mut by_label: BTreeMap<String, Vec<Fanout>> = BTreeMap::new();
    for ((label, _), (mut fanout, first, last)) in calls {
        fanout.window_s = last - first;
        by_label.entry(label).or_default().push(fanout);
    }
    by_label
}

/// Totals over a label's fan-outs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FanoutTotals {
    pub calls: usize,
    pub busy_s: f64,
    /// Σ (slowest shard − shard) over every shard: worker time spent
    /// waiting for the slowest shard of its call.
    pub idle_s: f64,
    /// Σ per-call slowest shard ÷ Σ per-call mean shard (1 = balanced).
    pub imbalance: f64,
    pub window_s: f64,
}

pub fn totals(calls: &[Fanout]) -> FanoutTotals {
    let mut totals = FanoutTotals {
        calls: calls.len(),
        ..FanoutTotals::default()
    };
    let (mut max_sum, mut mean_sum) = (0.0, 0.0);
    for call in calls {
        totals.busy_s += call.busy_s;
        totals.idle_s += call.max_s * call.shards as f64 - call.busy_s;
        totals.window_s += call.window_s;
        max_sum += call.max_s;
        mean_sum += call.busy_s / call.shards as f64;
    }
    totals.imbalance = if mean_sum > 0.0 {
        max_sum / mean_sum
    } else {
        0.0
    };
    totals
}

/// Host time per epoch in µs: p50 and p99 of the gaps between epoch events,
/// the first measured from `run_start_s`.
pub fn epoch_gaps_us(marks: &[f64], run_start_s: f64) -> (f64, f64) {
    let mut previous = run_start_s;
    let gaps: Vec<f64> = marks
        .iter()
        .map(|&mark| {
            let gap = (mark - previous) * 1e6;
            previous = mark;
            gap
        })
        .collect();
    (median(&gaps), percentile(&gaps, 99.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(label: &str, epoch: u64, start_s: f64, end_s: f64) -> Shard {
        Shard {
            label: label.into(),
            epoch,
            start_s,
            end_s,
        }
    }

    #[test]
    fn shards_group_by_label_and_epoch() {
        let shards = [
            shard("epoch-reask", 0, 0.0, 3.0),
            shard("epoch-reask", 0, 0.0, 1.0),
            shard("epoch-playback", 0, 3.5, 4.0),
            shard("epoch-reask", 1, 5.0, 6.0),
            shard("epoch-reask", 1, 5.0, 6.0),
        ];
        let calls = fanouts(&shards);
        let reask = totals(&calls["epoch-reask"]);
        assert_eq!(reask.calls, 2);
        assert!((reask.busy_s - 6.0).abs() < 1e-12);
        assert!((reask.idle_s - 2.0).abs() < 1e-12);
        // (3 + 1) / (2 + 1)
        assert!((reask.imbalance - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(totals(&calls["epoch-playback"]).calls, 1);
    }

    #[test]
    fn solver_spans_pair_per_thread() {
        let recorder = TraceRecorder::new();
        let miss = TelemetryEvent::CacheMiss {
            fingerprint: 0,
            scheme: "x".into(),
            temperature_c: 25.0,
        };
        let solved = TelemetryEvent::SolverInvoked {
            scheme: "x".into(),
            target_ber: 1e-11,
            temperature_c: 25.0,
            feasible: true,
        };
        recorder.record(&miss);
        std::thread::scope(|s| {
            s.spawn(|| {
                recorder.record(&miss);
                recorder.record(&solved);
            });
        });
        recorder.record(&solved);
        let trace = recorder.snapshot();
        assert_eq!((trace.events, trace.solves), (4, 2));
        assert!(trace.solve_main_s >= trace.solve_worker_s);
        assert!(trace.solve_worker_s > 0.0);
    }
}
