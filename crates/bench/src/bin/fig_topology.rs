//! Topology comparison (new to this reproduction, beyond the paper): the
//! paper's single MWSR ring against a banked multi-ring and a hybrid
//! photonic/electrical mesh at equal aggregate bandwidth (12 reader
//! channels × 16 wavelengths each).
//!
//! Per fabric the binary elaborates the photonic link cards
//! ([`TopologyElaborator`]), sweeps the ambient from 25 to 85 °C to locate
//! the temperature at which a latency-first request stops riding the
//! uncoded path and falls back to Hamming(71,64), and sums the fleet
//! ring-tuning power at a hot ambient.  Crosstalk couples each waveguide's
//! thermal drift *and* heater cost to its group population, so splitting
//! one 12-reader waveguide into four 3-reader groups both defers the
//! switch point and buys back tuning power — the binary gates on the
//! latter (multi-ring fleet P_tune strictly below the single ring).  A
//! routed hybrid-mesh scenario then runs at 1 and 4 threads and must be
//! bit-identical, lose no traffic, and relay inter-cluster flows over
//! multiple hops.
//!
//! Writes `BENCH_topology.json` (every value in it is deterministic, so two
//! runs' files are byte-identical) and exits non-zero on any gate
//! violation, so CI can run it directly.
//!
//! Run with `cargo run -p onoc-bench --bin fig_topology`.

use onoc_bench::{banner, default_shards, opt, parallel_map, print_table};
use onoc_ecc_codes::EccScheme;
use onoc_link::report::TextTable;
use onoc_link::{LinkManager, TrafficClass};
use onoc_sim::traffic::TrafficPattern;
use onoc_sim::{DecisionPolicy, RunReport, ScenarioBuilder};
use onoc_telemetry::Json;
use onoc_thermal::RcNetworkParameters;
use onoc_topology::{ElaboratedFabric, FabricSpec, Router, Topology, TopologyElaborator};
use onoc_units::Celsius;

/// Fleet size shared by every fabric under comparison.
const NODES: usize = 12;
/// Per-neighbour crosstalk drift amplification within a waveguide group.
const CROSSTALK_PER_NEIGHBOR: f64 = 0.03;
/// The paper's evaluation BER target.
const TARGET_BER: f64 = 1e-11;
/// Hot ambient at which the fleet tuning power is compared.
const HOT_AMBIENT_C: f64 = 65.0;
/// Thread counts the routed scenario must be bit-identical across.
const SCENARIO_THREAD_COUNTS: [usize; 2] = [1, 4];

struct Fabric {
    name: &'static str,
    spec: FabricSpec,
}

fn fabrics() -> Vec<Fabric> {
    let with_crosstalk =
        |topology: Topology| FabricSpec::new(topology).with_crosstalk(CROSSTALK_PER_NEIGHBOR);
    vec![
        Fabric {
            name: "single_ring(12)",
            spec: with_crosstalk(Topology::single_ring(NODES)),
        },
        Fabric {
            name: "multi_ring(12,4)",
            spec: with_crosstalk(Topology::multi_ring(NODES, 4)),
        },
        Fabric {
            name: "hybrid_mesh(12,4)",
            spec: with_crosstalk(Topology::hybrid_mesh(NODES, 4)),
        },
    ]
}

fn ambient_grid() -> Vec<Celsius> {
    (25..=85)
        .step_by(5)
        .map(|t| Celsius::new(f64::from(t)))
        .collect()
}

/// The first grid ambient at which a latency-first request no longer rides
/// the uncoded path on the fabric's node-0 reader: crosstalk-amplified
/// drift makes the uncoded link infeasible earlier the denser the
/// waveguide group, so the manager falls back to Hamming(71,64) at a lower
/// temperature.
fn switch_point(
    elaborated: &ElaboratedFabric,
    topology: &Topology,
    grid: &[Celsius],
) -> Option<Celsius> {
    let card = elaborated.reader_card(topology, 0)?;
    let manager = LinkManager::new(
        card.model.clone(),
        EccScheme::paper_schemes().to_vec(),
        TARGET_BER,
    )
    .unwrap_or_else(|e| panic!("paper manager configuration: {e}"));
    // One decision per grid ambient, sharded over the grid; the ordered
    // merge keeps the scan below deterministic.
    let grid_vec = grid.to_vec();
    let schemes = parallel_map(&grid_vec, default_shards(), |&ambient| {
        manager
            .configure_at(TrafficClass::LatencyFirst, ambient)
            .map(|decision| decision.point.scheme())
    });
    grid.iter()
        .zip(&schemes)
        .find(|(_, scheme)| **scheme != Some(EccScheme::Uncoded))
        .map(|(&ambient, _)| ambient)
}

/// Fleet ring-tuning power in mW: every node's reader channel running
/// Hamming(71,64) at `ambient`, all wavelength lanes.
fn fleet_tuning_power_mw(
    elaborated: &ElaboratedFabric,
    topology: &Topology,
    ambient: Celsius,
) -> f64 {
    (0..topology.node_count())
        .filter_map(|node| {
            let card = elaborated.reader_card(topology, node)?;
            let lanes = card.model.power_model().config().wavelength_lanes;
            card.model
                .operating_point_memoized(EccScheme::Hamming7164, TARGET_BER, ambient)
                .ok()
                .map(|point| point.power.tuning.value() * lanes as f64)
        })
        .sum()
}

struct FabricSummary {
    name: &'static str,
    photonic_links: usize,
    electrical_links: usize,
    distinct_stacks: usize,
    max_hops: usize,
    switch_point_c: Option<f64>,
    fleet_tuning_mw: f64,
    solver_invocations: u64,
    cache_hits: u64,
}

fn summarize(fabric: &Fabric, grid: &[Celsius]) -> FabricSummary {
    let elaborated = TopologyElaborator::new()
        .elaborate(&fabric.spec)
        .unwrap_or_else(|e| panic!("{} must elaborate: {e}", fabric.name));
    let topology = &fabric.spec.topology;
    let routes = Router::resolve(topology);
    let switch = switch_point(&elaborated, topology, grid);
    let tuning = fleet_tuning_power_mw(&elaborated, topology, Celsius::new(HOT_AMBIENT_C));
    let counters = elaborated.shared_cache().counters();
    FabricSummary {
        name: fabric.name,
        photonic_links: topology.photonic_link_count(),
        electrical_links: topology.electrical_link_count(),
        distinct_stacks: elaborated.distinct_stacks(),
        max_hops: routes.max_hops(),
        switch_point_c: switch.map(|t| t.value()),
        fleet_tuning_mw: tuning,
        solver_invocations: counters.misses,
        cache_hits: counters.hits,
    }
}

/// The routed scenario every thread count replays: uniform traffic over the
/// hybrid mesh, epoch-gated with activity-coupled heating, so inter-cluster
/// flows relay through the electrical hops while the photonic readers heat.
fn routed_builder() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .oni_count(NODES)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 30,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(8)
        .mean_inter_arrival_ns(6.0)
        .nominal_ber(TARGET_BER)
        .seed(47)
        .activity_coupled(RcNetworkParameters::paper_package())
        .policy(DecisionPolicy::epoch_gated())
        .topology(
            FabricSpec::new(Topology::hybrid_mesh(NODES, 4)).with_crosstalk(CROSSTALK_PER_NEIGHBOR),
        )
}

/// A report with the thread budget normalized away — the only field that
/// legitimately differs across the determinism runs.
fn normalized(report: &RunReport) -> RunReport {
    let mut report = report.clone();
    report.config.threads = 0;
    report
}

fn report_digest(report: &RunReport) -> Json {
    Json::obj(vec![
        ("injected_messages", report.stats.injected_messages.into()),
        ("delivered_messages", report.stats.delivered_messages.into()),
        ("hops_traversed", report.stats.hops_traversed.into()),
        ("epochs", report.epochs.into()),
        ("decisions", report.decisions.into()),
        ("scheme_switches", report.total_switches().into()),
        ("energy_pj", report.stats.energy_pj.into()),
        ("makespan_ns", report.stats.makespan_ns.into()),
        ("solver_invocations", report.solver_cache.misses.into()),
    ])
}

fn default_output_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_topology.json")
}

#[allow(clippy::too_many_lines)]
fn main() {
    banner(
        "Topology comparison",
        "single ring vs multi-ring vs hybrid mesh -> BENCH_topology.json",
    );
    let mut violations: Vec<String> = Vec::new();
    let grid = ambient_grid();

    println!(
        "\n{NODES}-node fabrics, crosstalk {CROSSTALK_PER_NEIGHBOR}/neighbour, BER {TARGET_BER:.0e}, \
         fleet P_tune at {HOT_AMBIENT_C:.0} degC:\n"
    );
    let summaries: Vec<FabricSummary> = fabrics()
        .iter()
        .map(|fabric| summarize(fabric, &grid))
        .collect();

    let mut table = TextTable::new(vec![
        "fabric",
        "photonic",
        "electrical",
        "stacks",
        "max hops",
        "switch (degC)",
        "fleet P_tune (mW)",
        "solves",
        "hits",
    ]);
    for s in &summaries {
        table.push_row(vec![
            s.name.to_owned(),
            s.photonic_links.to_string(),
            s.electrical_links.to_string(),
            s.distinct_stacks.to_string(),
            s.max_hops.to_string(),
            opt(s.switch_point_c, 0),
            format!("{:.2}", s.fleet_tuning_mw),
            s.solver_invocations.to_string(),
            s.cache_hits.to_string(),
        ]);
    }
    print_table(&table);

    let single = &summaries[0];
    let multi = &summaries[1];
    if multi.fleet_tuning_mw < single.fleet_tuning_mw {
        let saving = 100.0 * (1.0 - multi.fleet_tuning_mw / single.fleet_tuning_mw);
        println!(
            "  * multi-ring fleet P_tune {:.2} mW < single-ring {:.2} mW ({saving:.1}% saving) \
             at equal aggregate bandwidth",
            multi.fleet_tuning_mw, single.fleet_tuning_mw
        );
    } else {
        violations.push(format!(
            "multi-ring fleet tuning power {:.4} mW is not strictly below the single ring's \
             {:.4} mW",
            multi.fleet_tuning_mw, single.fleet_tuning_mw
        ));
    }

    println!("\nrouted hybrid-mesh scenario at thread counts {SCENARIO_THREAD_COUNTS:?}...\n");
    let builder = routed_builder();
    let runs: Vec<(usize, RunReport)> = SCENARIO_THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let report = builder
                .clone()
                .threads(threads)
                .build()
                .unwrap_or_else(|e| panic!("routed scenario must build: {e}"))
                .run();
            (threads, report)
        })
        .collect();
    let (_, reference) = &runs[0];
    for (threads, report) in &runs[1..] {
        if normalized(report) != normalized(reference) {
            violations.push(format!(
                "routed scenario differs between {} and {threads} threads",
                SCENARIO_THREAD_COUNTS[0]
            ));
        }
    }
    if reference.stats.delivered_messages != reference.stats.injected_messages {
        violations.push(format!(
            "routed scenario lost traffic: {} of {} delivered",
            reference.stats.delivered_messages, reference.stats.injected_messages
        ));
    }
    if reference.stats.hops_traversed <= reference.stats.delivered_messages {
        violations.push(format!(
            "inter-cluster flows did not relay: {} hops for {} messages",
            reference.stats.hops_traversed, reference.stats.delivered_messages
        ));
    }
    println!(
        "  delivered {} / {} messages over {} hops in {} epochs",
        reference.stats.delivered_messages,
        reference.stats.injected_messages,
        reference.stats.hops_traversed,
        reference.epochs
    );

    let fabric_sections: Vec<Json> = summaries
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", s.name.into()),
                ("photonic_links", s.photonic_links.into()),
                ("electrical_links", s.electrical_links.into()),
                ("distinct_stacks", s.distinct_stacks.into()),
                ("max_hops", s.max_hops.into()),
                (
                    "switch_point_c",
                    s.switch_point_c.map_or(Json::Null, Json::Num),
                ),
                ("fleet_tuning_power_mw", s.fleet_tuning_mw.into()),
                ("solver_invocations", s.solver_invocations.into()),
                ("cache_hits", s.cache_hits.into()),
            ])
        })
        .collect();
    let document = Json::obj(vec![
        ("schema_version", 1u64.into()),
        ("nodes", NODES.into()),
        ("crosstalk_per_neighbor", CROSSTALK_PER_NEIGHBOR.into()),
        ("target_ber", TARGET_BER.into()),
        ("hot_ambient_c", HOT_AMBIENT_C.into()),
        (
            "deterministic",
            Json::obj(vec![
                ("fabrics", Json::Arr(fabric_sections)),
                ("routed_scenario", report_digest(reference)),
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
            "\nPASS: multi-ring P_tune gate holds; routed sections bit-identical across \
             thread counts {SCENARIO_THREAD_COUNTS:?}"
        );
    } else {
        for violation in &violations {
            eprintln!("FAIL: {violation}");
        }
        eprintln!("\nFAIL: {} gate violation(s)", violations.len());
        std::process::exit(1);
    }
}
