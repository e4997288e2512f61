//! Workload-heated hot-cluster sweep (new to this reproduction, beyond the
//! paper): a compute cluster under one corner of the interposer injects heat
//! into the per-ONI thermal RC network *on top of* the link's own
//! dissipation, and the epoch-gated manager splits the interconnect —
//! channels near the cluster fall back to H(71,64) while the far side keeps
//! riding the uncoded path.
//!
//! A prescribed trace has no self-heating feedback, and the RC network
//! without a workload heats the chip only with the link's own uniform
//! dissipation.  The scenario needs `ScenarioBuilder::workload_heated`: the
//! RC network with a one-phase workload of per-ONI cluster traces, under the
//! epoch-gated decision policy.
//!
//! Run with `cargo run -p onoc-bench --bin fig_workload`.

use onoc_bench::{banner, default_shards, parallel_map, print_table};
use onoc_link::report::TextTable;
use onoc_link::TrafficClass;
use onoc_sim::traffic::TrafficPattern;
use onoc_sim::{DecisionPolicy, RunReport, ScenarioBuilder};
use onoc_thermal::{RcNetworkParameters, WorkloadTrace};
use onoc_units::Celsius;

const ONI_COUNT: usize = 12;
const CLUSTER_CENTER: usize = 3;
const CLUSTER_DECAY: f64 = 0.45;

/// A package with a slightly better heat sink than the feedback demos
/// (0.06 K/mW to ambient), so the link's own uniform dissipation alone
/// settles around 45 °C — below the uncoded collapse — and the spatial split
/// is driven purely by the cluster injection.
fn network() -> RcNetworkParameters {
    RcNetworkParameters {
        ambient: Celsius::new(25.0),
        heat_capacity_pj_per_k: 2000.0,
        ambient_resistance_k_per_mw: 0.06,
        coupling_resistance_k_per_mw: 1.5,
    }
}

fn run(cluster_peak_mw: f64) -> RunReport {
    ScenarioBuilder::new()
        .oni_count(ONI_COUNT)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 80,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(16)
        .mean_inter_arrival_ns(8.0)
        .seed(17)
        .workload_heated(
            network(),
            WorkloadTrace::hot_cluster(ONI_COUNT, CLUSTER_CENTER, cluster_peak_mw, CLUSTER_DECAY),
        )
        .policy(DecisionPolicy::epoch_gated())
        .build()
        .expect("valid workload scenario")
        .run()
}

fn main() {
    banner(
        "Workload sweep",
        "hot compute cluster + link self-heating: spatially non-uniform scheme choice",
    );
    let network = network();
    println!(
        "RC package: R_amb = {} K/mW, R_couple = {} K/mW, C = {} pJ/K (tau = {:.0} ns);",
        network.ambient_resistance_k_per_mw,
        network.coupling_resistance_k_per_mw,
        network.heat_capacity_pj_per_k,
        network.time_constant_ns(),
    );
    println!(
        "cluster centred at ONI {CLUSTER_CENTER}, geometric decay {CLUSTER_DECAY} per hop; \
         LatencyFirst traffic."
    );
    println!();

    // Independent closed-loop runs per cluster power: one shard each.
    let peaks = [0.0, 150.0, 250.0, 350.0];
    let reports = parallel_map(&peaks, default_shards(), |&peak| run(peak));

    let mut table = TextTable::new(vec![
        "cluster peak (mW)",
        "hottest ONI (degC)",
        "coolest ONI (degC)",
        "coded ONIs",
        "switches",
        "pJ/bit",
    ]);
    for (peak, report) in peaks.iter().zip(&reports) {
        let hottest = report
            .per_oni
            .iter()
            .map(|o| o.peak_temperature_c)
            .fold(f64::NEG_INFINITY, f64::max);
        let coolest = report
            .per_oni
            .iter()
            .map(|o| o.peak_temperature_c)
            .fold(f64::INFINITY, f64::min);
        let coded = report
            .per_oni
            .iter()
            .filter(|o| o.scheme != report.baseline_scheme)
            .count();
        table.push_row(vec![
            format!("{peak:.0}"),
            format!("{hottest:.1}"),
            format!("{coolest:.1}"),
            format!("{coded}/{ONI_COUNT}"),
            format!("{}", report.total_switches()),
            format!("{:.2}", report.stats.energy_per_bit_pj()),
        ]);
    }
    print_table(&table);

    // The per-ONI split of the 250 mW run, the headline figure.
    let headline = &reports[2];
    println!("Per-ONI split at 250 mW of cluster power (hop distance from ONI {CLUSTER_CENTER}):");
    let mut split = TextTable::new(vec![
        "ONI",
        "hops",
        "workload in (mW)",
        "peak T (degC)",
        "scheme",
        "static energy share",
    ]);
    let traces = WorkloadTrace::hot_cluster(ONI_COUNT, CLUSTER_CENTER, 250.0, CLUSTER_DECAY);
    let total_static: f64 = headline.per_oni.iter().map(|o| o.static_energy_pj).sum();
    for oni in &headline.per_oni {
        let direct = oni.oni.abs_diff(CLUSTER_CENTER);
        let hops = direct.min(ONI_COUNT - direct);
        split.push_row(vec![
            format!("{}", oni.oni),
            format!("{hops}"),
            format!("{:.1}", traces[oni.oni].power_at(0.0)),
            format!("{:.1}", oni.peak_temperature_c),
            oni.scheme.to_string(),
            format!("{:.1}%", 100.0 * oni.static_energy_pj / total_static),
        ]);
    }
    print_table(&split);
    println!(
        "Expected shape: the cluster's neighbours cross the ~50 degC uncoded collapse and the"
    );
    println!(
        "manager switches them to {}; the far side of the ring never leaves the uncoded path.",
        onoc_ecc_codes::EccScheme::Hamming7164
    );

    // Acceptance criteria, visible to CI.
    let baseline = &reports[0];
    let mut ok = true;
    if baseline.total_switches() != 0 {
        println!("FAIL: the link's own dissipation alone must not force a switch here");
        ok = false;
    }
    let centre = &headline.per_oni[CLUSTER_CENTER];
    if centre.scheme == headline.baseline_scheme {
        println!("FAIL: the cluster-centre channel never switched to the coded path");
        ok = false;
    }
    let far = &headline.per_oni[(CLUSTER_CENTER + ONI_COUNT / 2) % ONI_COUNT];
    if far.scheme != headline.baseline_scheme {
        println!("FAIL: the far side of the ring should stay uncoded");
        ok = false;
    }
    if headline.distinct_final_schemes() != 2 {
        println!("FAIL: the cluster must split the interconnect between two schemes");
        ok = false;
    }
    if headline.total_switches() == 0 {
        println!("FAIL: no workload-driven switch observed");
        ok = false;
    }
    if !ok {
        std::process::exit(1);
    }
}
