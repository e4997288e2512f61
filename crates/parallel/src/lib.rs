//! Deterministic fork/join helpers shared across the workspace.
//!
//! The sweep binaries of `onoc-bench` and the many-ONI epoch loops of
//! `onoc-sim` both need the same primitive: evaluate independent work items
//! on a handful of `std::thread` workers and merge the results back **in
//! input order**, so the parallel run is bit-identical to the serial one.
//! This crate holds that primitive at the bottom of the dependency graph,
//! where both the simulator and the benchmark harness can reach it without
//! depending on each other.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use onoc_telemetry::{RecorderHandle, TelemetryEvent};

/// Maps `f` over `items` in parallel: the slice is split into contiguous
/// chunks, one `std::thread` scope worker per chunk, and the results are
/// merged back **in input order** — the output is indistinguishable from a
/// serial `items.iter().map(f).collect()`, just faster.
///
/// `shards` is clamped to `[1, items.len()]`; pass
/// [`std::thread::available_parallelism`] (or [`default_shards`]) for one
/// shard per core.
pub fn parallel_map<T, R, F>(items: &[T], shards: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_traced(items, shards, f, &RecorderHandle::none(), "parallel_map")
}

/// [`parallel_map`] with per-shard telemetry: each worker emits one
/// [`TelemetryEvent::ShardCompleted`] (tagged with `label`) carrying its
/// item count and wall-clock duration.  A call that clamps to one shard
/// (one item, or a budget of one) runs inline on the calling thread: it
/// spawns no worker and emits no event, so callers need no serial fallback
/// of their own.
///
/// Shard events are wall-clock data and their *count* depends on the shard
/// split, so recorders must keep them out of deterministic aggregates (the
/// `onoc-telemetry` registry recorder already does).  The mapped output
/// itself stays bit-identical to the serial run regardless of recorder.
pub fn parallel_map_traced<T, R, F>(
    items: &[T],
    shards: usize,
    f: F,
    recorder: &RecorderHandle,
    label: &str,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let shards = shards.clamp(1, items.len());
    if shards == 1 {
        return items.iter().map(f).collect();
    }
    let chunk_size = items.len().div_ceil(shards);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .enumerate()
            .map(|(shard, chunk)| {
                let recorder = recorder.clone();
                scope.spawn(move || {
                    // onoc-lint: allow(D002, shard wall time feeds ShardCompleted telemetry only; never a RunReport)
                    let started = std::time::Instant::now();
                    let results = chunk.iter().map(f).collect::<Vec<R>>();
                    recorder.emit(|| TelemetryEvent::ShardCompleted {
                        label: label.to_owned(),
                        shard: shard as u64,
                        items: chunk.len() as u64,
                        wall_micros: u64::try_from(started.elapsed().as_micros())
                            .unwrap_or(u64::MAX),
                    });
                    results
                })
            })
            .collect();
        // Joining in spawn order is the ordered merge: chunk i's results
        // land before chunk i+1's.
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("sweep worker panicked"))
            .collect()
    })
}

/// The shard count the sweep binaries and the simulator use by default: one
/// per available core.
#[must_use]
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for shards in [1, 2, 3, 8, 97, 200] {
            assert_eq!(
                parallel_map(&items, shards, |&x| x * x),
                expected,
                "{shards} shards"
            );
        }
        assert!(parallel_map(&[] as &[u64], 4, |&x| x).is_empty());
        assert!(default_shards() >= 1);
    }

    #[test]
    fn one_shard_runs_inline_without_an_event() {
        let memory = std::sync::Arc::new(onoc_telemetry::MemoryRecorder::new());
        let handle = RecorderHandle::new(memory.clone());
        let caller = std::thread::current().id();
        let on_caller = |_: &u64| std::thread::current().id() == caller;
        for (items, shards) in [(vec![7u64], 4), (vec![1, 2, 3], 1)] {
            let out = parallel_map_traced(&items, shards, on_caller, &handle, "inline");
            assert_eq!(out, vec![true; items.len()], "{shards} shards");
        }
        assert!(memory.events().is_empty(), "an inline call emits nothing");
        // Two shards still fan out to workers, one event each.
        let out = parallel_map_traced(&[1u64, 2], 2, on_caller, &handle, "fan-out");
        assert_eq!((out, memory.events().len()), (vec![false, false], 2));
    }

    #[test]
    fn traced_map_emits_one_shard_event_per_worker() {
        use std::sync::Arc;

        let memory = Arc::new(onoc_telemetry::MemoryRecorder::new());
        let handle = RecorderHandle::new(memory.clone());
        let items: Vec<u64> = (0..10).collect();
        let out = parallel_map_traced(&items, 3, |&x| x + 1, &handle, "square");
        assert_eq!(out, (1..=10).collect::<Vec<u64>>());
        let mut events = memory.events();
        assert_eq!(events.len(), 3, "one event per shard");
        events.sort_by_key(|e| match e {
            TelemetryEvent::ShardCompleted { shard, .. } => *shard,
            _ => panic!("unexpected event kind"),
        });
        let mut total_items = 0;
        for (index, event) in events.iter().enumerate() {
            let TelemetryEvent::ShardCompleted {
                label,
                shard,
                items,
                ..
            } = event
            else {
                panic!("unexpected event kind");
            };
            assert_eq!(label, "square");
            assert_eq!(*shard, index as u64);
            total_items += items;
        }
        assert_eq!(total_items, 10);
    }
}
