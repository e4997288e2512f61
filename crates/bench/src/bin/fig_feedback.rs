//! Closed-loop thermal feedback (new to this reproduction, beyond the
//! paper): the interconnect heats itself.  No prescribed temperature trace
//! anywhere — the uncoded laser's own dissipation drives the per-ONI RC
//! network past the uncoded link's collapse, the runtime manager falls back
//! to H(71,64), the coded point burns less power, the nodes cool, and the
//! scheme-revert hysteresis keeps them on the coded path.
//!
//! Run with `cargo run -p onoc-bench --bin fig_feedback`.

use onoc_bench::{banner, default_shards, parallel_map, print_table};
use onoc_link::report::TextTable;
use onoc_link::TrafficClass;
use onoc_sim::traffic::TrafficPattern;
use onoc_sim::{DecisionPolicy, RingVariationConfig, ScenarioBuilder, ScenarioConfig};
use onoc_thermal::{BankTuningMode, RcNetworkParameters, ThermalModelSpec};

fn base_config() -> ScenarioConfig {
    ScenarioBuilder::new()
        .oni_count(12)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 150,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(16)
        .mean_inter_arrival_ns(10.0)
        .nominal_ber(1e-11)
        .seed(17)
        .activity_coupled(RcNetworkParameters::paper_package())
        .policy(DecisionPolicy::epoch_gated())
        .config()
        .clone()
}

fn main() {
    banner(
        "Thermal feedback",
        "activity-driven heating: the link's own dissipation drives the scheme choice",
    );
    let config = base_config();
    let ThermalModelSpec::RcNetwork { network, .. } = config.thermal else {
        unreachable!("the base config is activity-coupled");
    };
    let DecisionPolicy::EpochGated {
        epoch_ns,
        quantization_k,
        hysteresis_k,
        revert_hysteresis_k,
    } = config.resolved_policy()
    else {
        unreachable!("the base config is epoch-gated");
    };
    println!(
        "RC package: R_amb = {} K/mW, R_couple = {} K/mW, C = {} pJ/K (tau = {:.0} ns);",
        network.ambient_resistance_k_per_mw,
        network.coupling_resistance_k_per_mw,
        network.heat_capacity_pj_per_k,
        network.time_constant_ns(),
    );
    println!(
        "epoch {epoch_ns} ns, {quantization_k} K decision buckets, {hysteresis_k} K deadband, \
         {revert_hysteresis_k} K revert hysteresis.",
    );
    println!();

    // The homogeneous baseline and the two heterogeneous (sigma = 40 pm)
    // fleets are independent closed-loop runs: evaluate them on parallel
    // shards and merge in order.
    let varied = |mode| {
        ScenarioBuilder::from_config(base_config())
            .variation(RingVariationConfig {
                sigma_nm: 0.040,
                seed: 42,
                mode,
            })
            .config()
            .clone()
    };
    let configs = [
        config,
        varied(BankTuningMode::PureHeater),
        varied(BankTuningMode::full_barrel_shift(16)),
    ];
    let mut reports = parallel_map(&configs, default_shards(), |c| {
        ScenarioBuilder::from_config(c.clone())
            .build()
            .expect("valid feedback scenario")
            .run()
    })
    .into_iter();
    let report = reports.next().expect("three runs were scheduled");
    let fleet_pure = reports.next().expect("three runs were scheduled");
    let fleet_barrel = reports.next().expect("three runs were scheduled");

    // Temperature envelope over time, downsampled for readability.
    let mut table = TextTable::new(vec!["t (ns)", "Tmin (degC)", "Tmax (degC)", "coded ONIs"]);
    let stride = (report.trajectory.len() / 24).max(1);
    for sample in report.trajectory.iter().step_by(stride) {
        table.push_row(vec![
            format!("{:.0}", sample.time_ns),
            format!("{:.1}", sample.min_temperature_c),
            format!("{:.1}", sample.max_temperature_c),
            format!("{}/{}", sample.reconfigured_onis, report.per_oni.len()),
        ]);
    }
    if let Some(last) = report.trajectory.last() {
        table.push_row(vec![
            format!("{:.0}", last.time_ns),
            format!("{:.1}", last.min_temperature_c),
            format!("{:.1}", last.max_temperature_c),
            format!("{}/{}", last.reconfigured_onis, report.per_oni.len()),
        ]);
    }
    print_table(&table);

    println!("Scheme switches (all activity-driven, no prescribed trace):");
    for switch in report.switch_log.iter().take(6) {
        println!(
            "  * ONI {:>2}: {} -> {} at t = {:.0} ns, T = {:.1} degC",
            switch.oni, switch.from, switch.to, switch.time_ns, switch.temperature_c
        );
    }
    if report.switch_log.len() > 6 {
        println!("  * ... and {} more", report.switch_log.len() - 6);
    }
    println!();

    let peak = report
        .trajectory
        .iter()
        .map(|s| s.max_temperature_c)
        .fold(f64::NEG_INFINITY, f64::max);
    let final_max = report
        .trajectory
        .last()
        .map_or(f64::NAN, |s| s.max_temperature_c);
    println!(
        "{} messages, makespan {:.0} ns, {:.2} pJ/bit ({:.0}% static).",
        report.stats.delivered_messages,
        report.stats.makespan_ns,
        report.stats.energy_per_bit_pj(),
        100.0 * report.stats.static_energy_pj / report.stats.energy_pj,
    );
    println!(
        "Peak temperature {peak:.1} degC, final {final_max:.1} degC: switching to {} sheds \
         laser power and the package cools; revert hysteresis holds the coded path.",
        onoc_ecc_codes::EccScheme::Hamming7164,
    );
    println!(
        "Manager re-asks: {} over {} epochs; solver cache: {}.",
        report.decisions, report.epochs, report.solver_cache,
    );

    // Heterogeneous-fleet comparison: every ONI its own chip instance.
    println!();
    println!("Heterogeneous fleets (sigma = 40 pm, per-ONI chips, same traffic):");
    let mut fleet_table = TextTable::new(vec![
        "fleet",
        "pJ/bit",
        "peak T (degC)",
        "switches",
        "solver invocations",
    ]);
    for (label, fleet) in [
        ("homogeneous", &report),
        ("pure-heater", &fleet_pure),
        ("barrel-shift", &fleet_barrel),
    ] {
        let fleet_peak = fleet
            .per_oni
            .iter()
            .map(|o| o.peak_temperature_c)
            .fold(f64::NEG_INFINITY, f64::max);
        fleet_table.push_row(vec![
            label.to_owned(),
            format!("{:.2}", fleet.stats.energy_per_bit_pj()),
            format!("{fleet_peak:.1}"),
            format!("{}", fleet.total_switches()),
            format!("{}", fleet.solver_cache.misses),
        ]);
    }
    print_table(&fleet_table);

    // Acceptance criteria, visible to CI.
    let mut ok = true;
    if report.total_switches() == 0 {
        println!("FAIL: no activity-driven scheme switch observed");
        ok = false;
    }
    if report
        .per_oni
        .iter()
        .any(|o| o.scheme == report.baseline_scheme)
    {
        println!("FAIL: some channels never left the baseline scheme");
        ok = false;
    }
    if report.per_oni.iter().any(|o| o.scheme_switches > 1) {
        println!("FAIL: scheme oscillation detected");
        ok = false;
    }
    if final_max >= peak {
        println!("FAIL: the coded path did not cool the package");
        ok = false;
    }
    if !ok {
        std::process::exit(1);
    }
}
