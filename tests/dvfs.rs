//! Phase-scheduled DVFS workloads: the epoch-gated engine over a
//! [`WorkloadSchedule`] with per-phase wavelength re-assignment.
//!
//! Pins the contract of the schedule machinery:
//!
//! * over a single-phase schedule the per-phase assignment fleet is
//!   **bit-identical** to the worst-case fleet (one phase means one design
//!   heat map), at any thread count, and reports no transitions;
//! * phase boundaries land exactly on epoch edges (the engine clamps the
//!   preceding epoch), so assignment swaps are hitless by construction;
//! * zero-length phases are rejected at `build()` as configuration errors;
//! * the full multi-phase report — transitions, swap epochs, storm
//!   switches — is invariant under the thread budget.

use onoc_ecc::link::TrafficClass;
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::{
    DecisionPolicy, DesignAssignmentConfig, RunReport, ScenarioBuilder, ScenarioConfig,
};
use onoc_ecc::thermal::{RcNetworkParameters, WorkloadPhase, WorkloadSchedule, WorkloadTrace};

const ONIS: usize = 8;

/// A package whose thermal gain is large enough for the migration heat maps
/// to force distinct per-phase assignments (the paper package's default
/// resistance keeps the fleet within one rotation).
fn package() -> RcNetworkParameters {
    RcNetworkParameters {
        ambient_resistance_k_per_mw: 0.06,
        ..RcNetworkParameters::paper_package()
    }
}

fn builder() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .oni_count(ONIS)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 40,
        })
        .class(TrafficClass::Bulk)
        .words_per_message(16)
        .seed(5)
        .policy(DecisionPolicy::epoch_gated())
}

fn traces() -> Vec<WorkloadTrace> {
    WorkloadTrace::hot_cluster(ONIS, 2, 300.0, 0.4)
}

/// The schedule under test: the hot cluster migrates 2 → 5 → 7 every
/// 100 ns (a multiple of the 25 ns epoch, so boundaries are epoch-grid
/// exact).
fn migration() -> WorkloadSchedule {
    WorkloadSchedule::migration(ONIS, 100.0, &[2, 5, 7], 300.0, 0.4)
}

/// Strips the configuration so reports from *different* configurations
/// (per-phase vs. worst-case assignment, different thread budgets) can be
/// compared over everything the run actually produced.
fn without_config(mut report: RunReport) -> RunReport {
    report.config = ScenarioConfig::default();
    report
}

#[test]
fn single_phase_schedule_matches_the_trace_engine_under_design_assignment() {
    // The degenerate per-phase path: one phase means one design heat map,
    // so per-phase assignment must reproduce the worst-case fleet exactly.
    for threads in [1usize, 4] {
        let plain = builder()
            .workload_heated(package(), traces())
            .design_assignment(DesignAssignmentConfig::greedy_refine(7))
            .threads(threads)
            .build()
            .unwrap()
            .run();
        let scheduled = builder()
            .workload_scheduled(package(), WorkloadSchedule::single(traces()))
            .design_assignment(DesignAssignmentConfig::greedy_refine(7).per_phase())
            .threads(threads)
            .build()
            .unwrap()
            .run();
        assert!(
            scheduled.phases.is_empty(),
            "a single-phase schedule has no transitions"
        );
        assert_eq!(
            without_config(plain),
            without_config(scheduled),
            "assigned single-phase schedule diverged at {threads} thread(s)"
        );
    }
}

#[test]
fn phase_transitions_land_exactly_on_epoch_edges() {
    let scenario = builder()
        .workload_scheduled(package(), migration())
        .design_assignment(DesignAssignmentConfig::greedy_refine(7).per_phase())
        .build()
        .unwrap();
    assert_eq!(
        scenario.phase_assignments().len(),
        3,
        "one assignment fleet per phase"
    );
    let report = scenario.run();
    let boundaries: Vec<f64> = report.phases.iter().map(|t| t.time_ns).collect();
    assert_eq!(
        boundaries,
        vec![100.0, 200.0],
        "every phase boundary must be entered, in order"
    );
    let edges: Vec<u64> = report
        .trajectory
        .iter()
        .map(|sample| sample.time_ns.to_bits())
        .collect();
    for transition in &report.phases {
        assert!(
            edges.contains(&transition.time_ns.to_bits()),
            "boundary {} ns is not an epoch edge of the run",
            transition.time_ns
        );
        assert!(
            transition.epoch > 0 && transition.epoch <= report.epochs,
            "transition epoch {} outside the run's {} epochs",
            transition.epoch,
            report.epochs
        );
    }
    assert!(
        report.phases.iter().any(|t| t.swapped_onis > 0),
        "the migrating cluster must swap at least one ONI's assignment"
    );
    // The storm windows only count switches the run actually took.
    let storm: u64 = report.phases.iter().map(|t| t.storm_switches).sum();
    assert!(storm <= report.total_switches());
}

#[test]
fn zero_length_phases_are_rejected_at_build() {
    let schedule = WorkloadSchedule::new(vec![
        WorkloadPhase::new(100.0, traces()),
        WorkloadPhase::new(0.0, traces()),
        WorkloadPhase::new(f64::INFINITY, traces()),
    ]);
    let err = builder()
        .workload_scheduled(package(), schedule)
        .build()
        .unwrap_err();
    assert!(
        err.to_string().contains("zero-length phase"),
        "unexpected error: {err}"
    );
}

#[test]
fn multi_phase_reports_are_thread_invariant() {
    let run = |threads: usize| {
        builder()
            .workload_scheduled(package(), migration())
            .design_assignment(DesignAssignmentConfig::greedy_refine(7).per_phase())
            .threads(threads)
            .build()
            .unwrap()
            .run()
    };
    let baseline = run(1);
    assert!(
        !baseline.phases.is_empty(),
        "the schedule must cross at least one boundary"
    );
    for threads in [2usize, 4] {
        let observed = run(threads);
        assert_eq!(
            without_config(baseline.clone()),
            without_config(observed),
            "multi-phase report changed at {threads} thread(s)"
        );
    }
}
