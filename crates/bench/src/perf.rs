//! The perf-trajectory harness behind `cargo run -p onoc-bench --bin
//! perf_trajectory`.
//!
//! Runs a fixed scenario matrix (fleet size × decision policy × fabrication
//! variation) with an [`onoc_telemetry::RegistryRecorder`] attached, and
//! assembles the `BENCH_scaling.json` artifact the ROADMAP asks for: one
//! entry per scenario whose **deterministic** section (event counters,
//! histograms and report facts) must be bit-identical across repeated runs
//! and thread counts.  The file holds no wall clock, so two runs produce
//! byte-identical files.
//!
//! Determinism is self-gated: every scenario runs once per thread count in
//! [`DETERMINISM_THREAD_COUNTS`] and the harness fails loudly if either the
//! deterministic metrics or the full [`RunReport`] differ, or if a scenario
//! never invoked the solver.

use std::path::Path;
use std::sync::Arc;

use onoc_link::{CacheCounters, TrafficClass};
use onoc_sim::traffic::TrafficPattern;
use onoc_sim::{
    DecisionPolicy, DesignAssignmentConfig, RingVariationConfig, RunReport, ScenarioBuilder,
    ScenarioConfig,
};
use onoc_telemetry::{
    Json, MetricsRegistry, MetricsSnapshot, RecorderHandle, RegistryRecorder, WallClockRegistry,
};
use onoc_thermal::{BankTuningMode, RcNetworkParameters, ThermalEnvironment, WorkloadTrace};
use onoc_units::Celsius;

/// Version tag of the `BENCH_scaling.json` schema.
pub const SCHEMA_VERSION: u64 = 2;

/// Thread counts every scenario is re-run at; the deterministic sections
/// must be bit-identical across all of them.
pub const DETERMINISM_THREAD_COUNTS: [usize; 2] = [1, 4];

/// Fleet sizes of the default matrix.
pub const DEFAULT_FLEET_SIZES: [usize; 3] = [4, 8, 12];

/// Messages per source node in the default matrix.
pub const DEFAULT_MESSAGES_PER_NODE: u64 = 60;

/// One prepared scenario of the matrix.
pub struct TrajectoryCase {
    /// Unique case label, e.g. `epoch-variation-barrel/oni8`.
    pub label: String,
    /// Policy family, `per-message` or `epoch-gated`.
    pub policy: &'static str,
    /// Fleet size.
    pub oni_count: usize,
    /// The full configuration (thread budget is overridden per run).
    pub config: ScenarioConfig,
}

fn base_builder(oni_count: usize, messages_per_node: u64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .oni_count(oni_count)
        .pattern(TrafficPattern::UniformRandom { messages_per_node })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(16)
        .mean_inter_arrival_ns(10.0)
        .nominal_ber(1e-11)
        .seed(17)
}

/// The scenario matrix over the given fleet sizes: per-message over the
/// paper ambient, per-message over a static hotspot gradient, epoch-gated
/// activity-coupled (homogeneous fleet, shared solver cache), and
/// epoch-gated activity-coupled with per-ONI fabrication variation under
/// barrel-shift tuning (heterogeneous fleet, sharded re-asks).
#[must_use]
pub fn scenario_matrix_with(fleet_sizes: &[usize], messages_per_node: u64) -> Vec<TrajectoryCase> {
    let mut cases = Vec::new();
    for &n in fleet_sizes {
        let flavors: [(&str, &str, ScenarioBuilder); 4] = [
            (
                "per-message-ambient",
                "per-message",
                base_builder(n, messages_per_node),
            ),
            (
                "per-message-hotspot",
                "per-message",
                base_builder(n, messages_per_node).prescribed(ThermalEnvironment::Hotspot {
                    base: Celsius::new(25.0),
                    peak: Celsius::new(55.0),
                    center: 0,
                    decay_per_hop: 0.5,
                }),
            ),
            (
                "epoch-activity",
                "epoch-gated",
                base_builder(n, messages_per_node)
                    .activity_coupled(RcNetworkParameters::paper_package())
                    .policy(DecisionPolicy::epoch_gated()),
            ),
            (
                "epoch-variation-barrel",
                "epoch-gated",
                base_builder(n, messages_per_node)
                    .activity_coupled(RcNetworkParameters::paper_package())
                    .policy(DecisionPolicy::epoch_gated())
                    .variation(RingVariationConfig {
                        sigma_nm: 0.040,
                        seed: 42,
                        mode: BankTuningMode::full_barrel_shift(16),
                    })
                    .design_assignment(DesignAssignmentConfig::greedy_refine(7)),
            ),
        ];
        for (flavor, policy, builder) in flavors {
            cases.push(TrajectoryCase {
                label: format!("{flavor}/oni{n}"),
                policy,
                oni_count: n,
                config: builder.config().clone(),
            });
        }
    }
    cases
}

/// The default matrix: [`DEFAULT_FLEET_SIZES`] ×
/// [`DEFAULT_MESSAGES_PER_NODE`] messages per node.
#[must_use]
pub fn scenario_matrix() -> Vec<TrajectoryCase> {
    scenario_matrix_with(&DEFAULT_FLEET_SIZES, DEFAULT_MESSAGES_PER_NODE)
}

/// Outcome of one scenario at one thread count.
pub struct CaseRun {
    /// The simulation report (recorder-independent, thread-independent).
    pub report: RunReport,
    /// Deterministic registry contents fed by the run's events.
    pub metrics: MetricsSnapshot,
}

/// A recorder that folds a run's events into `metrics`.  The wall-clock
/// half of the registry recorder is dropped unread.
fn metrics_recorder(metrics: &Arc<MetricsRegistry>) -> RecorderHandle {
    RecorderHandle::new(Arc::new(RegistryRecorder::new(
        metrics.clone(),
        Arc::new(WallClockRegistry::new()),
    )))
}

/// Runs one case at the given thread budget with a fresh registry recorder.
///
/// # Panics
///
/// Panics if the configuration fails to build (the matrix only contains
/// valid configurations).
#[must_use]
pub fn run_case(case: &TrajectoryCase, threads: usize) -> CaseRun {
    let metrics = Arc::new(MetricsRegistry::new());
    let report = ScenarioBuilder::from_config(case.config.clone())
        .threads(threads)
        .telemetry(metrics_recorder(&metrics))
        .build()
        .unwrap_or_else(|e| panic!("case {} must build: {e}", case.label))
        .run();
    CaseRun {
        report,
        metrics: metrics.snapshot(),
    }
}

/// A failure line when `metrics` count no solver invocation: every case
/// of the matrix, and the scale-out headline, must exercise the solver.
fn solver_invocations_failure(label: &str, metrics: &MetricsSnapshot) -> Option<String> {
    let solves = metrics
        .counters
        .get("solver.invocations")
        .copied()
        .unwrap_or(0);
    (solves == 0).then(|| format!("{label}: solver.invocations missing or zero"))
}

/// The deterministic facts of a report the artifact exposes for gating —
/// a digest, not the full report, so the JSON stays diffable by eye.
fn report_digest(report: &RunReport) -> Json {
    Json::obj(vec![
        ("delivered_messages", report.stats.delivered_messages.into()),
        ("epochs", report.epochs.into()),
        ("decisions", report.decisions.into()),
        ("infeasible_requests", report.infeasible_requests.into()),
        ("scheme_switches", report.total_switches().into()),
        ("solver_invocations", report.solver_cache.misses.into()),
        ("cache_hits", report.solver_cache.hits.into()),
        ("cache_hit_rate", report.solver_cache.hit_rate().into()),
        ("reconfigured_messages", report.reconfigured_messages.into()),
    ])
}

/// Runs the whole matrix at every thread count in
/// [`DETERMINISM_THREAD_COUNTS`] and assembles the `BENCH_scaling.json`
/// document.
///
/// # Errors
///
/// One line per violation: a case whose deterministic metrics or whose full
/// report differed between thread counts, or that never invoked the solver.
pub fn build_document(cases: &[TrajectoryCase]) -> Result<Json, Vec<String>> {
    let mut failures = Vec::new();
    let mut rendered_cases = Vec::new();
    for case in cases {
        let runs: Vec<(usize, CaseRun)> = DETERMINISM_THREAD_COUNTS
            .iter()
            .map(|&threads| (threads, run_case(case, threads)))
            .collect();
        let (reference_threads, reference) = &runs[0];
        // The report embeds the simulated configuration, whose thread
        // budget legitimately differs between runs; everything else must
        // match bit-for-bit.
        let normalized = |run: &CaseRun| {
            let mut report = run.report.clone();
            report.config.threads = 0;
            report
        };
        let reference_report = normalized(reference);
        for (threads, run) in &runs[1..] {
            if run.metrics != reference.metrics {
                failures.push(format!(
                    "{}: deterministic metrics differ between {reference_threads} and {threads} \
                     threads",
                    case.label
                ));
            }
            if normalized(run) != reference_report {
                failures.push(format!(
                    "{}: run report differs between {reference_threads} and {threads} threads",
                    case.label
                ));
            }
        }
        failures.extend(solver_invocations_failure(&case.label, &reference.metrics));
        rendered_cases.push(Json::obj(vec![
            ("label", case.label.as_str().into()),
            ("policy", case.policy.into()),
            ("oni_count", case.oni_count.into()),
            (
                "deterministic",
                Json::obj(vec![
                    ("report", report_digest(&reference.report)),
                    ("metrics", reference.metrics.to_json()),
                ]),
            ),
        ]));
    }
    if !failures.is_empty() {
        return Err(failures);
    }
    Ok(Json::obj(vec![
        ("schema_version", SCHEMA_VERSION.into()),
        ("bench", "perf_trajectory".into()),
        (
            "determinism",
            Json::obj(vec![
                (
                    "verified_thread_counts",
                    Json::Arr(
                        DETERMINISM_THREAD_COUNTS
                            .iter()
                            .map(|&t| Json::from(t))
                            .collect(),
                    ),
                ),
                ("status", "ok".into()),
            ]),
        ),
        ("cases", Json::Arr(rendered_cases)),
    ]))
}

// ---------------------------------------------------------------------------
// Scale-out: the shared concurrent operating-point cache at fleet scale.
// ---------------------------------------------------------------------------

/// Fleet size of the headline scale-out case.
pub const SCALE_OUT_ONI_COUNT: usize = 10_000;

/// Messages per source node of the headline case (`10_000 × 200` = two
/// million messages end to end).
pub const SCALE_OUT_MESSAGES_PER_NODE: u64 = 200;

/// Peak per-ONI workload injection of the fleet-wide power ramp, in mW.
/// With the paper package's 0.10 K/mW ambient resistance the hottest ONI
/// settles 30 K above the coldest, so the fleet walks a wide band of
/// distinct decision buckets while staying inside the laser's solvable
/// envelope (the VCSEL model runs away thermally near 85 °C).
pub const SCALE_OUT_MAX_WORKLOAD_MW: f64 = 300.0;

/// Decision-bucket width of the headline case, in kelvin.  Small on purpose:
/// the run must be solver-bound (~80k distinct-bucket solves, >90 % of the
/// single-thread run phase) so the shared cache — one solve per distinct
/// bucket, fleet-wide — is what makes thread scaling possible.
pub const SCALE_OUT_QUANTIZATION_K: f64 = 0.003;

/// Thread counts the headline case is measured at.  The deterministic
/// section must be bit-identical across all of them; the last entry is the
/// one the speedup floor compares against single-threaded.
pub const SCALE_OUT_THREAD_COUNTS: [usize; 2] = [1, 4];

/// Minimum single-thread → max-thread run-phase speedup, enforced only when
/// the host actually has that many cores.
pub const SCALE_OUT_SPEEDUP_FLOOR: f64 = 2.0;

/// Fleet size of the reduced snapshot demonstration.
pub const SCALE_OUT_REDUCED_ONI_COUNT: usize = 64;

/// Messages per node of the reduced snapshot demonstration.
pub const SCALE_OUT_REDUCED_MESSAGES_PER_NODE: u64 = 40;

/// Decision-bucket width of the reduced snapshot demonstration, in kelvin.
/// Coarse so the persisted snapshot artifact stays a few hundred entries.
pub const SCALE_OUT_REDUCED_QUANTIZATION_K: f64 = 0.25;

/// The homogeneous scale-out scenario: every ONI runs the same link design
/// (one manager, one shared operating-point cache) while a linear per-ONI
/// workload ramp spreads the fleet across a wide temperature band.  The
/// cache resolution is locked to the decision quantization (`1/q` buckets
/// per kelvin) so decision buckets and cache keys coincide one-to-one.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn scale_out_builder(
    oni_count: usize,
    messages_per_node: u64,
    quantization_k: f64,
) -> ScenarioBuilder {
    let top = oni_count.saturating_sub(1).max(1) as f64;
    let traces = (0..oni_count)
        .map(|oni| WorkloadTrace::constant(SCALE_OUT_MAX_WORKLOAD_MW * oni as f64 / top))
        .collect();
    ScenarioBuilder::new()
        .oni_count(oni_count)
        .pattern(TrafficPattern::UniformRandom { messages_per_node })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(1)
        .mean_inter_arrival_ns(5.0)
        .nominal_ber(1e-11)
        .seed(23)
        .workload_heated(RcNetworkParameters::paper_package(), traces)
        .policy(DecisionPolicy::EpochGated {
            epoch_ns: 25.0,
            quantization_k,
            hysteresis_k: 0.0,
            revert_hysteresis_k: 10.0,
        })
        .cache_resolution(1.0 / quantization_k)
}

/// Outcome of one scale-out run, with the epoch loop timed for the speedup
/// floor.
pub struct ScaleOutRun {
    /// The simulation report (recorder-independent, thread-independent).
    pub report: RunReport,
    /// Deterministic registry contents fed by the run's events.
    pub metrics: MetricsSnapshot,
    /// Wall clock of `Scenario::run` (the phase that shards), in
    /// microseconds.
    pub run_micros: u64,
}

/// Runs one scale-out configuration at the given thread budget with a fresh
/// registry recorder.
///
/// # Panics
///
/// Panics if the configuration fails to build.
#[must_use]
pub fn run_scale_out(builder: &ScenarioBuilder, threads: usize) -> ScaleOutRun {
    let metrics = Arc::new(MetricsRegistry::new());
    let scenario = builder
        .clone()
        .threads(threads)
        .telemetry(metrics_recorder(&metrics))
        .build()
        .unwrap_or_else(|e| panic!("scale-out scenario must build: {e}"));
    // onoc-lint: allow(D002, the speedup floor reads this run timer; it never reaches BENCH_scaling.json)
    let run_started = std::time::Instant::now();
    let report = scenario.run();
    let run_micros = u64::try_from(run_started.elapsed().as_micros()).unwrap_or(u64::MAX);
    ScaleOutRun {
        report,
        metrics: metrics.snapshot(),
        run_micros,
    }
}

fn counters_json(counters: CacheCounters) -> Json {
    Json::obj(vec![
        ("hits", counters.hits.into()),
        ("misses", counters.misses.into()),
        ("entries", counters.entries.into()),
        ("hit_rate", counters.hit_rate().into()),
    ])
}

/// Runs the scale-out suite and assembles the `scale_out` section of
/// `BENCH_scaling.json`:
///
/// 1. **Headline** — the homogeneous case at every thread count in
///    [`SCALE_OUT_THREAD_COUNTS`]; deterministic metrics and the
///    thread-normalized report must be bit-identical, and the solver must
///    have run.
/// 2. **Snapshot warm start** (reduced size) — a cold run persists
///    `snapshot_path`; the warm re-run must report zero solver invocations
///    and a 100 % hit rate while producing the same physics.
/// 3. **Speedup floor** — single-thread → max-thread run-phase speedup must
///    reach [`SCALE_OUT_SPEEDUP_FLOOR`] whenever the host has enough cores;
///    always printed to stdout, only enforced on capable hosts, and kept out
///    of the section so that it stays byte-comparable.
///
/// Any pre-existing snapshot file is removed first so repeated invocations
/// stay cold-start deterministic.
///
/// # Errors
///
/// One line per violated gate.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn build_scale_out_section(
    oni_count: usize,
    messages_per_node: u64,
    reduced_oni_count: usize,
    reduced_messages_per_node: u64,
    snapshot_path: &Path,
) -> Result<Json, Vec<String>> {
    let mut failures = Vec::new();
    let label = format!("scale-out/oni{oni_count}");

    // 1. Headline thread-scaling runs.
    let headline = scale_out_builder(oni_count, messages_per_node, SCALE_OUT_QUANTIZATION_K);
    let runs: Vec<(usize, ScaleOutRun)> = SCALE_OUT_THREAD_COUNTS
        .iter()
        .map(|&threads| (threads, run_scale_out(&headline, threads)))
        .collect();
    let (reference_threads, reference) = &runs[0];
    let normalized = |run: &ScaleOutRun| {
        let mut report = run.report.clone();
        report.config.threads = 0;
        report
    };
    let reference_report = normalized(reference);
    for (threads, run) in &runs[1..] {
        if run.metrics != reference.metrics {
            failures.push(format!(
                "scale-out: deterministic metrics differ between {reference_threads} and \
                 {threads} threads"
            ));
        }
        if normalized(run) != reference_report {
            failures.push(format!(
                "scale-out: run report differs between {reference_threads} and {threads} threads"
            ));
        }
    }
    failures.extend(solver_invocations_failure(&label, &reference.metrics));

    // 2. Snapshot warm start at the reduced size.  Cache accounting
    // legitimately differs between the cold and the warm run, so the
    // report's solver counters and the cache/solver/manager metric counters
    // are set aside before the bit-identity comparison; the report itself —
    // every delivered message, epoch, switch and temperature — must still
    // match bit-for-bit.
    let reduced = scale_out_builder(
        reduced_oni_count,
        reduced_messages_per_node,
        SCALE_OUT_REDUCED_QUANTIZATION_K,
    );
    let physics = |run: &ScaleOutRun| {
        let mut report = run.report.clone();
        report.config.threads = 0;
        report.solver_cache = CacheCounters::default();
        report
    };
    let physics_metrics = |run: &ScaleOutRun| {
        let mut metrics = run.metrics.clone();
        metrics.counters.retain(|key, _| {
            !key.starts_with("cache.")
                && !key.starts_with("solver.")
                && !key.starts_with("manager.")
        });
        metrics
    };
    // A snapshot left behind by a previous invocation would silently warm
    // the cold run, so it is removed first.
    let _ = std::fs::remove_file(snapshot_path);
    let with_snapshot = || reduced.clone().cache_snapshot(snapshot_path);
    let cold = run_scale_out(&with_snapshot(), 1);
    let cold_counters = cold.report.solver_cache;
    if cold_counters.misses == 0 {
        failures.push("snapshot: cold run never invoked the solver".to_string());
    }
    if !snapshot_path.exists() {
        failures.push(format!(
            "snapshot: cold run did not persist {}",
            snapshot_path.display()
        ));
    }
    let warm = run_scale_out(&with_snapshot(), 1);
    let warm_counters = warm.report.solver_cache;
    if warm_counters.misses != 0 {
        failures.push(format!(
            "snapshot: warm start still invoked the solver {} times",
            warm_counters.misses
        ));
    }
    if warm_counters.hits == 0 || warm_counters.hit_rate() < 1.0 {
        failures.push(format!(
            "snapshot: warm start should be pure cache hits, got {warm_counters}"
        ));
    }
    if physics(&warm) != physics(&cold) {
        failures.push("snapshot: warm-start run report diverges from the cold run".to_string());
    }
    if physics_metrics(&warm) != physics_metrics(&cold) {
        failures.push(
            "snapshot: warm-start deterministic metrics diverge from the cold run".to_string(),
        );
    }

    // 3. Run-phase speedup, enforced only where the host can express it.
    let max_threads = *SCALE_OUT_THREAD_COUNTS
        .last()
        .unwrap_or_else(|| unreachable!("thread counts are a non-empty constant"));
    let run_micros_at = |wanted: usize| {
        runs.iter()
            .find(|(threads, _)| *threads == wanted)
            .map(|(_, run)| run.run_micros)
            .unwrap_or_else(|| panic!("thread count {wanted} is in SCALE_OUT_THREAD_COUNTS"))
    };
    let speedup = run_micros_at(1) as f64 / run_micros_at(max_threads).max(1) as f64;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let enforced = cores >= max_threads;
    println!(
        "scale-out run-phase speedup 1 -> {max_threads} threads: {speedup:.2}x \
         (floor {SCALE_OUT_SPEEDUP_FLOOR} on {cores} cores, enforced: {enforced})"
    );
    if enforced && speedup < SCALE_OUT_SPEEDUP_FLOOR {
        failures.push(format!(
            "scale-out: 1 -> {max_threads}-thread run-phase speedup {speedup:.2}x is below the \
             {SCALE_OUT_SPEEDUP_FLOOR}x floor"
        ));
    }

    if !failures.is_empty() {
        return Err(failures);
    }

    Ok(Json::obj(vec![
        ("label", label.into()),
        ("oni_count", oni_count.into()),
        ("messages_per_node", messages_per_node.into()),
        (
            "deterministic",
            Json::obj(vec![
                ("report", report_digest(&reference.report)),
                ("metrics", reference.metrics.to_json()),
                (
                    "snapshot",
                    Json::obj(vec![
                        ("entries", cold_counters.entries.into()),
                        ("cold", counters_json(cold_counters)),
                        ("warm", counters_json(warm_counters)),
                    ]),
                ),
            ]),
        ),
    ]))
}

/// Appends the `scale_out` section to an assembled document.
pub fn attach_scale_out(document: &mut Json, section: Json) {
    if let Json::Obj(fields) = document {
        fields.push(("scale_out".to_string(), section));
    }
}

/// `BENCH_scaling.json` at the repository root, wherever the binary runs
/// from.
#[must_use]
pub fn default_output_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scaling.json")
}

/// `BENCH_cache_snapshot.json` at the repository root: the operating-point
/// cache snapshot the scale-out suite persists and warm-starts from.
#[must_use]
pub fn default_snapshot_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_cache_snapshot.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_labels_are_unique_and_cover_both_policies() {
        let cases = scenario_matrix();
        assert_eq!(cases.len(), 12);
        let labels: std::collections::HashSet<_> = cases.iter().map(|c| c.label.clone()).collect();
        assert_eq!(labels.len(), cases.len());
        assert!(cases.iter().any(|c| c.policy == "per-message"));
        assert!(cases.iter().any(|c| c.policy == "epoch-gated"));
    }

    #[test]
    fn a_run_without_solver_invocations_fails_the_gate() {
        let mut metrics = MetricsSnapshot::default();
        assert_eq!(
            solver_invocations_failure("case", &metrics).as_deref(),
            Some("case: solver.invocations missing or zero")
        );
        metrics.counters.insert("solver.invocations".to_owned(), 0);
        assert!(solver_invocations_failure("case", &metrics).is_some());
        metrics.counters.insert("solver.invocations".to_owned(), 3);
        assert_eq!(solver_invocations_failure("case", &metrics), None);
    }

    #[test]
    fn default_output_path_targets_the_repo_root() {
        let path = default_output_path();
        assert!(path.ends_with("BENCH_scaling.json"));
        assert!(
            path.parent()
                .is_some_and(|root| root.join("ROADMAP.md").exists()),
            "{path:?} should sit next to ROADMAP.md"
        );
    }

    #[test]
    fn default_snapshot_path_sits_next_to_the_scaling_artifact() {
        assert_eq!(
            default_snapshot_path().parent(),
            default_output_path().parent()
        );
    }

    #[test]
    fn scale_out_builder_is_homogeneous_and_bucket_aligned() {
        let builder = scale_out_builder(5, 10, 0.25);
        let config = builder.config();
        assert_eq!(config.oni_count, 5);
        // The cache resolution is the inverse of the decision quantization,
        // so decision buckets and cache keys coincide one-to-one.
        assert_eq!(config.cache_buckets_per_kelvin, Some(4.0));
        assert!(
            config.variation.is_none() && config.assignment.is_none(),
            "the scale-out fleet must stay homogeneous (one manager, one shared cache)"
        );
        assert!(builder.build().is_ok(), "scale-out config builds");
    }
}
