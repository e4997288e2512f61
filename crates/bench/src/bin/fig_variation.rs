//! Fabrication-variation sweep (new to this reproduction, beyond the
//! paper): per-ring resonance offsets sampled at σ ∈ {0, 10, 40, 80 pm}
//! crossed with chip temperatures of 25–85 °C, comparing the **pure-heater**
//! tuning policy (every ring heats its full offset) against **barrel-shift
//! channel hopping** (re-map logical wavelengths to the nearest-resonant
//! rings, heat only the residual — cf. Cooling Codes / GLOW).
//!
//! The (σ, T) grid is evaluated with one temperature chunk per thread and an
//! ordered merge, so the table is deterministic.
//!
//! Run with `cargo run -p onoc-bench --bin fig_variation`.

use onoc_bench::{banner, default_shards, opt, parallel_map, print_table};
use onoc_ecc_codes::EccScheme;
use onoc_link::report::TextTable;
use onoc_link::{LinkManager, NanophotonicLink, TrafficClass};
use onoc_thermal::{BankTuningMode, FabricationVariation};
use onoc_units::Celsius;

/// One evaluated grid cell: tuning power and scheme under both policies.
struct Cell {
    sigma_nm: f64,
    temperature: Celsius,
    pure_tuning_mw: Option<f64>,
    barrel_tuning_mw: Option<f64>,
    barrel_shift: i64,
    pure_scheme: Option<EccScheme>,
    barrel_scheme: Option<EccScheme>,
}

const CHIP_SEED: u64 = 42;

fn sigmas_nm() -> [f64; 4] {
    [0.0, 0.010, 0.040, 0.080]
}

fn temperatures() -> Vec<Celsius> {
    (25..=85)
        .step_by(10)
        .map(|t| Celsius::new(f64::from(t)))
        .collect()
}

fn chip_pair(sigma_nm: f64) -> (LinkManager, LinkManager) {
    let variation = FabricationVariation::new(sigma_nm, CHIP_SEED);
    let pure = NanophotonicLink::paper_link().with_fabrication_variation(variation);
    let barrel = NanophotonicLink::paper_link()
        .with_fabrication_variation(variation)
        .with_bank_tuning_mode(BankTuningMode::full_barrel_shift(16));
    let manager = |link| {
        LinkManager::new(link, EccScheme::paper_schemes().to_vec(), 1e-11)
            .unwrap_or_else(|e| panic!("paper manager configuration: {e}"))
    };
    (manager(pure), manager(barrel))
}

fn evaluate(managers: &(LinkManager, LinkManager), sigma_nm: f64, temperature: Celsius) -> Cell {
    let (pure, barrel) = managers;
    let solve = |manager: &LinkManager| {
        manager
            .link()
            .operating_point_at(EccScheme::Hamming7164, 1e-11, temperature)
            .ok()
    };
    let p = solve(pure);
    let b = solve(barrel);
    Cell {
        sigma_nm,
        temperature,
        pure_tuning_mw: p.as_ref().map(|p| p.power.tuning.value()),
        barrel_tuning_mw: b.as_ref().map(|b| b.power.tuning.value()),
        barrel_shift: b.as_ref().map_or(0, |b| b.thermal.barrel_shift),
        pure_scheme: pure
            .configure_at(TrafficClass::LatencyFirst, temperature)
            .map(|d| d.point.scheme()),
        barrel_scheme: barrel
            .configure_at(TrafficClass::LatencyFirst, temperature)
            .map(|d| d.point.scheme()),
    }
}

fn main() {
    banner(
        "Variation sweep",
        "per-ring fabrication offsets: pure-heater vs barrel-shift tuning, H(71,64), BER = 1e-11",
    );
    println!(
        "Chip seed {CHIP_SEED}; tuning power per lane of 12 rings; LatencyFirst scheme choice."
    );
    println!();

    // Build both chip instances per σ once, then fan the (σ, T) grid out
    // across threads (one cell per work item, ordered merge).
    let fleets: Vec<(f64, (LinkManager, LinkManager))> = sigmas_nm()
        .into_iter()
        .map(|sigma| (sigma, chip_pair(sigma)))
        .collect();
    let grid: Vec<(usize, Celsius)> = (0..fleets.len())
        .flat_map(|f| temperatures().into_iter().map(move |t| (f, t)))
        .collect();
    let cells = parallel_map(&grid, default_shards(), |&(f, t)| {
        let (sigma, managers) = &fleets[f];
        evaluate(managers, *sigma, t)
    });

    let mut table = TextTable::new(vec![
        "sigma (pm)",
        "T (degC)",
        "Ptune pure (mW/wl)",
        "Ptune barrel (mW/wl)",
        "shift (rings)",
        "LatencyFirst pure",
        "LatencyFirst barrel",
    ]);
    for cell in &cells {
        table.push_row(vec![
            format!("{:.0}", cell.sigma_nm * 1000.0),
            format!("{:.0}", cell.temperature.value()),
            opt(cell.pure_tuning_mw, 3),
            opt(cell.barrel_tuning_mw, 3),
            format!("{:+}", cell.barrel_shift),
            cell.pure_scheme
                .map_or_else(|| "(unservable)".to_owned(), |s| s.to_string()),
            cell.barrel_scheme
                .map_or_else(|| "(unservable)".to_owned(), |s| s.to_string()),
        ]);
    }
    print_table(&table);

    // Scheme-switch points per σ and policy.
    for (sigma, _) in &fleets {
        for (label, pick) in [("pure-heater", 0usize), ("barrel-shift", 1usize)] {
            let mut previous: Option<EccScheme> = None;
            for cell in cells.iter().filter(|c| c.sigma_nm == *sigma) {
                let scheme = if pick == 0 {
                    cell.pure_scheme
                } else {
                    cell.barrel_scheme
                };
                if let (Some(before), Some(after)) = (previous, scheme) {
                    if before != after {
                        println!(
                            "  * sigma {:.0} pm, {label}: LatencyFirst switches {before} -> {after} by {:.0} degC",
                            sigma * 1000.0,
                            cell.temperature.value()
                        );
                    }
                }
                previous = scheme;
            }
        }
    }
    println!();
    println!("Expected shape: barrel shifting is a no-op below half a grid spacing of drift");
    println!("(T < 30 degC) and then hops 1 ring per 8 K, leaving only the sub-spacing");
    println!("residual plus the fabrication offsets for the heaters.");

    // Acceptance gate for CI: at sigma = 40 pm the barrel-shift policy must
    // spend measurably less tuning power than pure heating at >= 55 degC.
    let mut violations = 0;
    for cell in cells
        .iter()
        .filter(|c| (c.sigma_nm - 0.040).abs() < 1e-12 && c.temperature.value() >= 55.0)
    {
        match (cell.pure_tuning_mw, cell.barrel_tuning_mw) {
            (Some(pure), Some(barrel)) if barrel < 0.5 * pure => {}
            (pure, barrel) => {
                println!(
                    "  ! violation at {:.0} degC: pure {pure:?} mW, barrel {barrel:?} mW",
                    cell.temperature.value()
                );
                violations += 1;
            }
        }
    }
    if violations > 0 {
        std::process::exit(1);
    }
}
