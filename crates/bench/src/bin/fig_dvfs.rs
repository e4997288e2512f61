//! DVFS phase schedules (new to this reproduction, beyond the paper):
//! per-phase wavelength re-assignment against a single worst-case design.
//!
//! A scheduled workload moves a hot compute cluster around the interposer
//! (task migration), so each phase has its own steady-state heat map.  The
//! GLOW-style assigner can either bake one fleet against the **worst-case
//! fold** of those maps — over-rotated for every phase it is not designed
//! for — or derive **one fleet per phase** and let the epoch-gated engine
//! swap assignments hitlessly at phase boundaries.  The binary prices both
//! designs analytically (the assigner's own predicted heater power per
//! phase, integrated over the phase durations) and gates on the per-phase
//! fleet saving at least 15% of the worst-case design's tuning energy.
//!
//! The engine half then pins the runtime contract: over a single-phase
//! schedule the per-phase assignment fleet must reproduce the worst-case
//! fleet bit for bit at 1 and 4 threads, the multi-phase run must be
//! thread-invariant, and every phase transition must land exactly on an
//! epoch edge with at least one ONI hopping to its new-phase assignment.
//!
//! Writes `BENCH_dvfs.json` (every value in it is deterministic, so two
//! runs' files are byte-identical) and exits non-zero on any gate
//! violation, so CI can run it directly.
//!
//! Run with `cargo run -p onoc-bench --bin fig_dvfs`.

use onoc_bench::{banner, print_table};
use onoc_link::report::TextTable;
use onoc_link::{NanophotonicLink, TrafficClass};
use onoc_sim::traffic::TrafficPattern;
use onoc_sim::{
    DecisionPolicy, DesignAssignmentConfig, RingVariationConfig, RunReport, ScenarioBuilder,
    ScenarioConfig,
};
use onoc_telemetry::Json;
use onoc_thermal::{
    AssignmentStrategy, BankTuningMode, RcNetworkParameters, ThermalModelSpec, WorkloadSchedule,
    WorkloadTrace,
};

/// Fleet size of the scheduled scenario.
const ONIS: usize = 12;
/// Phase length of the migration schedule, in ns — a multiple of the 25 ns
/// epoch, so phase boundaries sit exactly on the epoch grid.
const PHASE_NS: f64 = 100.0;
/// The hot cluster's migration path across the interposer.
const CENTERS: [usize; 3] = [2, 6, 10];
/// Peak cluster power at each centre, in mW.
const PEAK_MW: f64 = 300.0;
/// Per-hop decay of the cluster's heat footprint.
const DECAY_PER_HOP: f64 = 0.4;
/// Fabrication σ of the per-ONI ring offsets, in nm.
const SIGMA_NM: f64 = 0.04;
/// Seed of the per-ONI chip instances.
const CHIP_SEED: u64 = 3;
/// Seed of the design-time assigner.
const ASSIGN_SEED: u64 = 7;
/// The CI gate: per-phase fleets must save at least this fraction of the
/// worst-case design's tuning energy.
const MIN_SAVING: f64 = 0.15;
/// Thread counts every engine comparison replays.
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// A package hot enough for the migration maps to force distinct per-phase
/// assignments (the paper default keeps the whole fleet within a rotation).
fn package() -> RcNetworkParameters {
    RcNetworkParameters {
        ambient_resistance_k_per_mw: 0.06,
        ..RcNetworkParameters::paper_package()
    }
}

fn migration() -> WorkloadSchedule {
    WorkloadSchedule::migration(ONIS, PHASE_NS, &CENTERS, PEAK_MW, DECAY_PER_HOP)
}

fn variation() -> RingVariationConfig {
    RingVariationConfig {
        sigma_nm: SIGMA_NM,
        seed: CHIP_SEED,
        mode: BankTuningMode::full_barrel_shift(16),
    }
}

fn builder() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .oni_count(ONIS)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 60,
        })
        .class(TrafficClass::Bulk)
        .words_per_message(16)
        .mean_inter_arrival_ns(5.0)
        .seed(11)
        .variation(variation())
        .policy(DecisionPolicy::epoch_gated())
}

/// Design-time tuning energy of one phase for one ONI, in pJ: the
/// assigner's predicted heater power under `assignment` at that phase's
/// design temperature, integrated over the phase duration.
struct PhaseCost {
    start_ns: f64,
    per_phase_pj: f64,
    worst_case_pj: f64,
}

/// Prices the per-phase and worst-case designs analytically, per phase,
/// fleet-wide.  Entirely deterministic: no traffic, no RNG beyond the
/// seeded chip instances and assigner searches.
fn analytic_phase_costs() -> Vec<PhaseCost> {
    let schedule = migration();
    let spec = ThermalModelSpec::RcNetwork {
        network: package(),
        workload: Some(schedule.clone()),
    };
    let phase_maps = spec
        .phase_design_temperatures(ONIS)
        .unwrap_or_else(|e| panic!("phase design maps: {e}"));
    let worst_map = spec
        .design_temperatures(ONIS)
        .unwrap_or_else(|e| panic!("worst-case design map: {e}"));
    let design = DesignAssignmentConfig::greedy_refine(ASSIGN_SEED);
    let starts = schedule.phase_starts();
    let mut costs: Vec<PhaseCost> = starts
        .iter()
        .zip(&schedule.phases)
        .map(|(&start_ns, phase)| {
            debug_assert!(phase.duration_ns.is_finite());
            PhaseCost {
                start_ns,
                per_phase_pj: 0.0,
                worst_case_pj: 0.0,
            }
        })
        .collect();
    for oni in 0..ONIS {
        let link = NanophotonicLink::paper_link()
            .with_fabrication_variation(variation().oni_variation(oni));
        let assigner =
            link.wavelength_assigner(AssignmentStrategy::GreedyRefine, design.oni_seed(oni));
        let worst = assigner.assign(&link.ring_bank_state_at(worst_map[oni]));
        for (index, map) in phase_maps.iter().enumerate() {
            let state = link.ring_bank_state_at(map[oni]);
            let dedicated = assigner.assign(&state);
            let duration_ns = schedule.phases[index].duration_ns;
            // µW × ns / 1000 = pJ.
            costs[index].per_phase_pj += assigner
                .predicted_compensation(&state, &dedicated)
                .total_heater_power()
                .value()
                * duration_ns
                / 1000.0;
            costs[index].worst_case_pj += assigner
                .predicted_compensation(&state, &worst)
                .total_heater_power()
                .value()
                * duration_ns
                / 1000.0;
        }
    }
    costs
}

/// Strips the configuration so reports from different configurations
/// (per-phase vs. worst-case assignment, different thread budgets) compare
/// over everything the run actually produced.
fn comparable(report: &RunReport) -> RunReport {
    let mut report = report.clone();
    report.config = ScenarioConfig::default();
    report
}

fn report_digest(report: &RunReport) -> Json {
    Json::obj(vec![
        ("injected_messages", report.stats.injected_messages.into()),
        ("delivered_messages", report.stats.delivered_messages.into()),
        ("epochs", report.epochs.into()),
        ("decisions", report.decisions.into()),
        ("scheme_switches", report.total_switches().into()),
        ("energy_pj", report.stats.energy_pj.into()),
        ("makespan_ns", report.stats.makespan_ns.into()),
        ("solver_invocations", report.solver_cache.misses.into()),
        (
            "phase_transitions",
            Json::Arr(
                report
                    .phases
                    .iter()
                    .map(|t| {
                        Json::obj(vec![
                            ("phase", t.phase.into()),
                            ("time_ns", t.time_ns.into()),
                            ("epoch", t.epoch.into()),
                            ("swapped_onis", t.swapped_onis.into()),
                            ("storm_switches", t.storm_switches.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn default_output_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_dvfs.json")
}

fn run_at(builder: &ScenarioBuilder, threads: usize) -> RunReport {
    builder
        .clone()
        .threads(threads)
        .build()
        .unwrap_or_else(|e| panic!("scenario must build: {e}"))
        .run()
}

#[allow(clippy::too_many_lines)]
fn main() {
    banner(
        "DVFS phase schedules",
        "per-phase wavelength re-assignment vs worst-case design -> BENCH_dvfs.json",
    );
    let mut violations: Vec<String> = Vec::new();

    // ---- Analytic design-time comparison -------------------------------
    println!(
        "\n{ONIS} ONIs, {PEAK_MW:.0} mW cluster migrating {CENTERS:?} every {PHASE_NS:.0} ns, \
         sigma {SIGMA_NM} nm:\n"
    );
    let costs = analytic_phase_costs();
    let mut table = TextTable::new(vec![
        "phase",
        "start (ns)",
        "per-phase E_tune (pJ)",
        "worst-case E_tune (pJ)",
    ]);
    for (index, cost) in costs.iter().enumerate() {
        table.push_row(vec![
            index.to_string(),
            format!("{:.0}", cost.start_ns),
            format!("{:.2}", cost.per_phase_pj),
            format!("{:.2}", cost.worst_case_pj),
        ]);
    }
    print_table(&table);
    let per_phase_pj: f64 = costs.iter().map(|c| c.per_phase_pj).sum();
    let worst_case_pj: f64 = costs.iter().map(|c| c.worst_case_pj).sum();
    let saving = 1.0 - per_phase_pj / worst_case_pj;
    println!(
        "  fleet tuning energy: worst-case {worst_case_pj:.2} pJ -> per-phase \
         {per_phase_pj:.2} pJ ({:.1}% saved)",
        saving * 100.0
    );
    if saving < MIN_SAVING {
        violations.push(format!(
            "per-phase fleets save only {:.1}% of the worst-case design's tuning energy \
             (gate: >= {:.0}%)",
            saving * 100.0,
            MIN_SAVING * 100.0
        ));
    }

    // ---- Single-phase pin: per-phase assignment = worst-case fleet ------
    println!("\nsingle-phase pin and multi-phase runs at thread counts {THREAD_COUNTS:?}...\n");
    // One phase means one design heat map, so the per-phase fleet must be
    // the worst-case fleet.
    let traces = WorkloadTrace::hot_cluster(ONIS, CENTERS[0], PEAK_MW, DECAY_PER_HOP);
    let worst_case_builder = builder()
        .workload_heated(package(), traces.clone())
        .design_assignment(DesignAssignmentConfig::greedy_refine(ASSIGN_SEED));
    let single_builder = builder()
        .workload_scheduled(package(), WorkloadSchedule::single(traces))
        .design_assignment(DesignAssignmentConfig::greedy_refine(ASSIGN_SEED).per_phase());
    let mut single_digest = Json::Null;
    for &threads in &THREAD_COUNTS {
        let worst_case = run_at(&worst_case_builder, threads);
        let single = run_at(&single_builder, threads);
        if comparable(&single) != comparable(&worst_case) {
            violations.push(format!(
                "single-phase per-phase assignment diverged from the worst-case fleet at \
                 {threads} thread(s)"
            ));
        }
        if !single.phases.is_empty() {
            violations.push("a single-phase schedule must report no transitions".into());
        }
        single_digest = report_digest(&single);
    }

    // ---- Multi-phase run: hitless swaps on epoch edges -----------------
    let scheduled_builder = builder()
        .workload_scheduled(package(), migration())
        .design_assignment(DesignAssignmentConfig::greedy_refine(ASSIGN_SEED).per_phase());
    let mut reference: Option<RunReport> = None;
    for &threads in &THREAD_COUNTS {
        let report = run_at(&scheduled_builder, threads);
        match &reference {
            None => reference = Some(report),
            Some(baseline) => {
                if comparable(&report) != comparable(baseline) {
                    violations.push(format!(
                        "multi-phase report differs between {} and {threads} threads",
                        THREAD_COUNTS[0]
                    ));
                }
            }
        }
    }
    let reference =
        reference.unwrap_or_else(|| panic!("at least one scheduled run must have completed"));
    if reference.stats.delivered_messages != reference.stats.injected_messages {
        violations.push(format!(
            "scheduled run lost traffic: {} of {} delivered",
            reference.stats.delivered_messages, reference.stats.injected_messages
        ));
    }
    if reference.phases.len() != CENTERS.len() - 1 {
        violations.push(format!(
            "expected {} phase transitions, saw {}",
            CENTERS.len() - 1,
            reference.phases.len()
        ));
    }
    let edges: Vec<u64> = reference
        .trajectory
        .iter()
        .map(|sample| sample.time_ns.to_bits())
        .collect();
    for transition in &reference.phases {
        if (transition.time_ns / PHASE_NS).fract() != 0.0 {
            violations.push(format!(
                "transition at {} ns is off the schedule grid",
                transition.time_ns
            ));
        }
        if !edges.contains(&transition.time_ns.to_bits()) {
            violations.push(format!(
                "transition at {} ns is not an epoch edge of the run",
                transition.time_ns
            ));
        }
    }
    if !reference.phases.iter().any(|t| t.swapped_onis > 0) {
        violations.push("the migrating cluster swapped no assignments at all".into());
    }
    println!(
        "  scheduled run: {} / {} messages, {} epochs, {} transitions \
         (swapped ONIs per boundary: {:?}, storm switches: {:?})",
        reference.stats.delivered_messages,
        reference.stats.injected_messages,
        reference.epochs,
        reference.phases.len(),
        reference
            .phases
            .iter()
            .map(|t| t.swapped_onis)
            .collect::<Vec<_>>(),
        reference
            .phases
            .iter()
            .map(|t| t.storm_switches)
            .collect::<Vec<_>>(),
    );

    // ---- BENCH_dvfs.json -----------------------------------------------
    let phase_sections: Vec<Json> = costs
        .iter()
        .enumerate()
        .map(|(index, cost)| {
            Json::obj(vec![
                ("phase", index.into()),
                ("start_ns", cost.start_ns.into()),
                ("per_phase_tuning_pj", cost.per_phase_pj.into()),
                ("worst_case_tuning_pj", cost.worst_case_pj.into()),
            ])
        })
        .collect();
    let document = Json::obj(vec![
        ("schema_version", 1u64.into()),
        ("onis", ONIS.into()),
        ("phase_ns", PHASE_NS.into()),
        ("peak_mw", PEAK_MW.into()),
        ("sigma_nm", SIGMA_NM.into()),
        ("min_saving", MIN_SAVING.into()),
        (
            "deterministic",
            Json::obj(vec![
                ("phases", Json::Arr(phase_sections)),
                ("per_phase_tuning_pj", per_phase_pj.into()),
                ("worst_case_tuning_pj", worst_case_pj.into()),
                ("tuning_energy_saving", saving.into()),
                ("single_phase_pin", single_digest),
                ("scheduled_run", report_digest(&reference)),
            ]),
        ),
    ]);
    let path = default_output_path();
    let body = document.render_pretty();
    if let Err(e) = std::fs::write(&path, body + "\n") {
        violations.push(format!("could not write {}: {e}", path.display()));
    } else {
        println!("\nwrote {}", path.display());
    }

    if violations.is_empty() {
        println!(
            "\nPASS: per-phase fleets save {:.1}% tuning energy (gate {:.0}%); single-phase \
             pin and multi-phase runs bit-identical across thread counts {THREAD_COUNTS:?}",
            saving * 100.0,
            MIN_SAVING * 100.0
        );
    } else {
        for violation in &violations {
            eprintln!("FAIL: {violation}");
        }
        eprintln!("\nFAIL: {} gate violation(s)", violations.len());
        std::process::exit(1);
    }
}
