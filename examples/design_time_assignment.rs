//! Design-time thermal-aware wavelength assignment over a workload heat map.
//!
//! A hot compute cluster under one corner of the interposer warms the ONIs
//! near it, so their ring banks spend the whole run fighting a large
//! common-mode drift.  The GLOW-style assigner fixes the biggest share of
//! that bill *at synthesis time*: given the workload's steady-state heat map
//! and each chip instance's fabrication offsets, it permutes the
//! logical-wavelength → ring mapping per ONI so the rings land near their
//! served wavelengths once the package is warm — before the runtime manager
//! or the heaters do anything at all.
//!
//! The example runs the same workload-heated scenario twice — unassigned
//! and design-assigned — and compares the per-ONI tuning bills, then shows
//! how runtime barrel shifting composes with a baked-in assignment when the
//! chip runs colder than it was designed for.
//!
//! Run with: `cargo run --example design_time_assignment`

use onoc_ecc::ecc::EccScheme;
use onoc_ecc::link::{NanophotonicLink, TrafficClass};
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::{DecisionPolicy, DesignAssignmentConfig, ScenarioBuilder};
use onoc_ecc::thermal::{
    AssignmentStrategy, BankTuningMode, RcNetworkParameters, ThermalModelSpec, WorkloadSchedule,
    WorkloadTrace,
};
use onoc_ecc::units::Celsius;

const ONIS: usize = 8;

fn builder() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .oni_count(ONIS)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 60,
        })
        .class(TrafficClass::Bulk)
        .words_per_message(16)
        .seed(5)
        .workload_heated(
            RcNetworkParameters::paper_package(),
            WorkloadTrace::hot_cluster(ONIS, 2, 300.0, 0.4),
        )
        .policy(DecisionPolicy::epoch_gated())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The design-time heat map the assigner plans for: the steady state the
    // workload traces alone drive the RC network to.
    let spec = ThermalModelSpec::RcNetwork {
        network: RcNetworkParameters::paper_package(),
        workload: Some(WorkloadSchedule::single(WorkloadTrace::hot_cluster(
            ONIS, 2, 300.0, 0.4,
        ))),
    };
    let design = spec.design_temperatures(ONIS)?;
    println!("Workload heat map (300 mW cluster at ONI 2), design temperatures:");
    let temps: Vec<String> = design.iter().map(|t| format!("{:.1}", t.value())).collect();
    println!("  [{}] degC\n", temps.join(", "));

    // Same traffic, same heat, with and without the assigner.
    let assigned_scenario = builder()
        .design_assignment(DesignAssignmentConfig::greedy_refine(7))
        .build()?;
    let assignments = assigned_scenario.assignments().to_vec();
    let plain = builder().build()?.run();
    let assigned = assigned_scenario.run();

    println!("Per-ONI outcome (H-coded bulk traffic, epoch-gated feedback):");
    println!("  oni  T_design  rotation  Ptune unassigned  Ptune assigned  (mW/lane)");
    for oni in 0..ONIS {
        println!(
            "  {oni:>3}  {:>8.1}  {:>8}  {:>16.3}  {:>14.3}",
            design[oni].value(),
            format!("{:+}", assignments[oni].design_offset(0)),
            plain.per_oni[oni].tuning_power_mw_per_lane,
            assigned.per_oni[oni].tuning_power_mw_per_lane,
        );
    }
    let fleet = |report: &onoc_ecc::sim::RunReport| -> f64 {
        report
            .per_oni
            .iter()
            .map(|o| o.tuning_power_mw_per_lane)
            .sum()
    };
    println!(
        "  fleet tuning power: {:.3} -> {:.3} mW/lane ({:.0}% saved), total energy {:.0} -> {:.0} pJ\n",
        fleet(&plain),
        fleet(&assigned),
        (1.0 - fleet(&assigned) / fleet(&plain)) * 100.0,
        plain.stats.energy_pj,
        assigned.stats.energy_pj,
    );

    // Composition with the runtime: a chip designed for 85 degC that finds
    // itself at the 25 degC calibration point.  Pure heating pays for the
    // baked-in rotation; the barrel-shift search simply hops back.
    let base = NanophotonicLink::paper_link();
    let assigner = base.wavelength_assigner(AssignmentStrategy::GreedyRefine, 7);
    let hot_assignment = assigner.assign(&base.ring_bank_state_at(Celsius::new(85.0)));
    let designed = NanophotonicLink::paper_link().with_wavelength_assignment(hot_assignment)?;
    let cold = Celsius::new(25.0);
    let pure = designed.operating_point_at(EccScheme::Hamming7164, 1e-11, cold)?;
    let hopped = designed
        .clone()
        .with_bank_tuning_mode(BankTuningMode::full_barrel_shift(16))
        .operating_point_at(EccScheme::Hamming7164, 1e-11, cold)?;
    println!("Design-for-85-degC chip running at 25 degC:");
    println!(
        "  pure heater:  {:.3} mW/lane of tuning (fighting the baked-in rotation)",
        pure.power.tuning.value()
    );
    println!(
        "  barrel shift: {:.3} mW/lane, runtime shift {:+} rings (the hop undoes the design)",
        hopped.power.tuning.value(),
        hopped.thermal.barrel_shift
    );
    Ok(())
}
