//! Regenerates Fig. 4: laser electrical power P_laser as a function of the
//! optical output power OP_laser at 25% chip activity, showing the linear
//! region and the thermally-driven super-linear region.

use onoc_bench::{banner, print_table};
use onoc_link::report::TextTable;
use onoc_photonics::devices::VcselLaser;
use onoc_units::Microwatts;

fn main() {
    banner(
        "Fig. 4",
        "P_laser vs OP_laser for 25% chip activity (thermally limited VCSEL)",
    );

    let laser = VcselLaser::paper_vcsel();
    let electrical = |op: Microwatts, activity: f64| {
        laser
            .try_electrical_power(op, activity)
            .unwrap_or_else(|runaway| {
                eprintln!("FAIL: {runaway}");
                std::process::exit(1);
            })
    };
    let mut table = TextTable::new(vec![
        "OP_laser (uW)",
        "P_laser @ 25% activity (mW)",
        "P_laser @ 0% activity (mW)",
        "P_laser @ 100% activity (mW)",
        "efficiency @ 25% (%)",
    ]);
    for step in 0..=14 {
        let op = Microwatts::new(step as f64 * 50.0);
        let p25 = electrical(op, 0.25);
        let p0 = electrical(op, 0.0);
        let p100 = electrical(op, 1.0);
        // No output means no self-heating: the efficiency at the idle
        // junction, as the laser-power solver reports it.
        let efficiency = if p25.is_zero() {
            laser
                .thermal_model()
                .efficiency_at(laser.junction_temperature(p25, 0.25))
        } else {
            op.to_milliwatts().value() / p25.value()
        };
        table.push_row(vec![
            format!("{:.0}", op.value()),
            format!("{:.2}", p25.value()),
            format!("{:.2}", p0.value()),
            format!("{:.2}", p100.value()),
            format!("{:.2}", efficiency * 100.0),
        ]);
    }
    print_table(&table);
    println!(
        "Maximum deliverable optical output: {} (the ceiling that makes BER 1e-12 unreachable without ECC).",
        laser.max_output()
    );
    println!("Paper shape: linear within 0-500 uW, then super-linear as the efficiency drops with temperature.");
}
