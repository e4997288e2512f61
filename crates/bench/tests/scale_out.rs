//! Scale-out invariants of the shared operating-point cache, exercised
//! through the bench harness's scenario builder:
//!
//! * a homogeneous fleet produces bit-identical physics whether the epoch
//!   loop runs on 1, 4 or 8 threads, and whether one shared manager serves
//!   it or one manager per ONI does (a σ = 0 fleet, whose chip seeds give
//!   every ONI its own stack fingerprint);
//! * a persisted cache snapshot warm-starts a second run into a pure-hit
//!   regime (zero solver invocations) without changing the physics.

use onoc_bench::perf::{run_scale_out, scale_out_builder, ScaleOutRun};
use onoc_link::CacheCounters;
use onoc_sim::{RingVariationConfig, RunReport};
use onoc_telemetry::MetricsSnapshot;
use onoc_thermal::BankTuningMode;
use onoc_topology::Topology;
use proptest::prelude::*;

/// Coarse decision buckets keep the property-test runs fast.
const QUANTIZATION_K: f64 = 0.25;

/// The report with everything thread-, fleet-layout- or
/// cache-accounting-dependent normalized away: what must be bit-identical
/// across thread counts and fleet layouts.
fn physics(report: &RunReport) -> RunReport {
    let mut report = report.clone();
    report.config.threads = 0;
    report.config.variation = None;
    report.solver_cache = CacheCounters::default();
    report
}

/// Deterministic metrics minus the cache, solver and manager counters,
/// which legitimately differ between one shared manager and one manager per
/// ONI (the shared manager deduplicates the initial fleet configuration,
/// and per-ONI stacks cannot share solves).
fn physics_metrics(run: &ScaleOutRun) -> MetricsSnapshot {
    let mut metrics = run.metrics.clone();
    metrics.counters.retain(|key, _| {
        !key.starts_with("cache.") && !key.starts_with("solver.") && !key.starts_with("manager.")
    });
    metrics
}

proptest! {
    /// The shared manager is an optimization, not a semantic change: across
    /// thread counts {1, 4, 8} the full deterministic state (report and
    /// metrics) is bit-identical, and one manager per ONI agrees on every
    /// bit of physics.
    #[test]
    fn shared_cache_is_bit_identical_across_threads_and_engines(
        oni_count in 2usize..8,
        messages_per_node in 4u64..20,
    ) {
        let builder = scale_out_builder(oni_count, messages_per_node, QUANTIZATION_K);
        let reference = run_scale_out(&builder, 1);
        for threads in [4usize, 8] {
            let run = run_scale_out(&builder, threads);
            prop_assert_eq!(&run.metrics, &reference.metrics);
            prop_assert_eq!(physics(&run.report), physics(&reference.report));
            // Counter determinism is stronger than physics determinism: the
            // solve-once cache admits exactly one miss per distinct key at
            // any interleaving.
            prop_assert_eq!(run.report.solver_cache, reference.report.solver_cache);
        }
        let per_oni = run_scale_out(
            &builder.clone().variation(RingVariationConfig {
                sigma_nm: 0.0,
                seed: 1,
                mode: BankTuningMode::PureHeater,
            }),
            1,
        );
        prop_assert_eq!(physics(&per_oni.report), physics(&reference.report));
        prop_assert_eq!(physics_metrics(&per_oni), physics_metrics(&reference));
        // Distinct stacks cannot share solves, so the per-ONI fleet pays at
        // least as many solver invocations as the shared manager.
        prop_assert!(
            per_oni.report.solver_cache.misses >= reference.report.solver_cache.misses,
            "per-ONI solves {} < shared solves {}",
            per_oni.report.solver_cache.misses,
            reference.report.solver_cache.misses
        );
    }
}

proptest! {
    /// Gate for the destination-sharded epoch playback: with a fabric
    /// topology configured, the serial walk (1 thread) and the sharded
    /// fan-out (4 threads) produce bit-identical reports, deterministic
    /// metrics and cache counters.  Multi-ring fabrics stay single-hop, so
    /// every delivery is exactly one hop.
    #[test]
    fn epoch_playback_shards_bit_identically_by_destination(
        messages_per_node in 4u64..16,
        groups in 1usize..4,
    ) {
        let builder = scale_out_builder(8, messages_per_node, QUANTIZATION_K)
            .topology(Topology::multi_ring(8, groups));
        let serial = run_scale_out(&builder, 1);
        let sharded = run_scale_out(&builder, 4);
        prop_assert_eq!(&serial.metrics, &sharded.metrics);
        prop_assert_eq!(physics(&serial.report), physics(&sharded.report));
        prop_assert_eq!(serial.report.solver_cache, sharded.report.solver_cache);
        prop_assert_eq!(
            serial.report.stats.hops_traversed,
            serial.report.stats.delivered_messages
        );
    }
}

#[test]
fn multihop_playback_is_thread_invariant() {
    let builder = scale_out_builder(8, 12, QUANTIZATION_K).topology(Topology::hybrid_mesh(8, 4));
    let serial = run_scale_out(&builder, 1);
    let sharded = run_scale_out(&builder, 4);
    assert_eq!(serial.metrics, sharded.metrics);
    assert_eq!(physics(&serial.report), physics(&sharded.report));
    assert_eq!(
        serial.report.stats.delivered_messages,
        serial.report.stats.injected_messages
    );
    assert!(
        serial.report.stats.hops_traversed > serial.report.stats.delivered_messages,
        "inter-cluster flows must relay"
    );
}

#[test]
fn snapshot_warm_start_runs_without_a_single_solve() {
    let path = std::env::temp_dir().join(format!(
        "onoc_scale_out_snapshot_test_{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let builder = scale_out_builder(6, 12, QUANTIZATION_K).cache_snapshot(&path);

    let cold = run_scale_out(&builder, 1);
    assert!(
        cold.report.solver_cache.misses > 0,
        "cold run must invoke the solver"
    );
    assert!(path.exists(), "cold run persists the snapshot");

    let warm = run_scale_out(&builder, 1);
    assert_eq!(
        warm.report.solver_cache.misses, 0,
        "warm start re-solves nothing: {}",
        warm.report.solver_cache
    );
    assert!(warm.report.solver_cache.hits > 0);
    assert!((warm.report.solver_cache.hit_rate() - 1.0).abs() < f64::EPSILON);
    assert_eq!(physics(&warm.report), physics(&cold.report));
    assert_eq!(physics_metrics(&warm), physics_metrics(&cold));
    // The solver never ran, so the warm run's telemetry has no trace of it.
    assert!(!warm.metrics.counters.contains_key("solver.invocations"));
    assert!(!warm.metrics.counters.contains_key("cache.misses"));

    // Saving is idempotent: the warm run re-persisted byte-identical state.
    let first = std::fs::read_to_string(&path).expect("snapshot readable");
    let reloaded = run_scale_out(&builder, 1);
    assert_eq!(reloaded.report.solver_cache.misses, 0);
    let second = std::fs::read_to_string(&path).expect("snapshot readable");
    assert_eq!(first, second, "snapshot bytes are deterministic");

    let _ = std::fs::remove_file(&path);
}
