//! Design-time wavelength-assignment sweep (new to this reproduction,
//! beyond the paper; cf. GLOW): per-ring fabrication offsets at
//! σ ∈ {0, 40, 80 pm} crossed with design/operating temperatures of
//! 25–85 °C, comparing **identity** (no assignment) against the
//! **GLOW-greedy** and **greedy + refine** assigners.  Each assignment is
//! searched at the row's temperature — the design point the chip is
//! synthesised for — and then evaluated there, under pure-heater runtime
//! tuning so the design-time mapping is the only spectral remapping.
//!
//! Three artefacts:
//!
//! 1. the (σ, T, strategy) grid of per-lane tuning power and the
//!    LatencyFirst scheme choice (the assignment moves the switch point:
//!    the uncoded path survives the whole sweep on an assigned chip);
//! 2. a fleet-wide check at σ = 40 pm / 85 °C over 8 per-ONI chip
//!    instances — the CI gate requires ≥ 20 % total P_tune reduction
//!    versus identity;
//! 3. the composition check: a chip *designed* for 85 °C evaluated across
//!    the sweep under pure-heater vs barrel-shift runtime tuning (the
//!    runtime shift hops back at the cold end, so the design assignment
//!    costs nothing there).
//!
//! Run with `cargo run -p onoc-bench --bin fig_assignment`.

use onoc_bench::{banner, default_shards, opt, parallel_map, print_table};
use onoc_ecc_codes::EccScheme;
use onoc_link::report::TextTable;
use onoc_link::{AssignmentStrategy, LinkManager, NanophotonicLink, WavelengthAssignment};
use onoc_thermal::{BankTuningMode, FabricationVariation};
use onoc_units::Celsius;

const CHIP_SEED: u64 = 42;
const ASSIGN_SEED: u64 = 7;

fn sigmas_nm() -> [f64; 3] {
    [0.0, 0.040, 0.080]
}

fn temperatures() -> Vec<Celsius> {
    (25..=85)
        .step_by(10)
        .map(|t| Celsius::new(f64::from(t)))
        .collect()
}

/// The link of one chip instance, optionally re-assigned for `design`.
fn designed_link(
    sigma_nm: f64,
    chip_seed: u64,
    strategy: Option<AssignmentStrategy>,
    design: Celsius,
) -> (NanophotonicLink, WavelengthAssignment) {
    let link = NanophotonicLink::paper_link()
        .with_fabrication_variation(FabricationVariation::new(sigma_nm, chip_seed));
    match strategy {
        None => {
            let n = link.channel().geometry().wavelength_count();
            (link, WavelengthAssignment::identity(n))
        }
        Some(strategy) => {
            let assigner = link.wavelength_assigner(strategy, ASSIGN_SEED);
            let assignment = assigner.assign(&link.ring_bank_state_at(design));
            (
                link.clone()
                    .with_wavelength_assignment(assignment.clone())
                    .expect("assigner output covers the grid"),
                assignment,
            )
        }
    }
}

/// One evaluated grid cell: the three strategies at one (σ, T).
struct Cell {
    sigma_nm: f64,
    temperature: Celsius,
    tuning_mw: [Option<f64>; 3],
    offset: i64,
    identity_scheme: Option<EccScheme>,
    assigned_scheme: Option<EccScheme>,
}

fn evaluate(sigma_nm: f64, temperature: Celsius) -> Cell {
    let strategies = [
        None,
        Some(AssignmentStrategy::Greedy),
        Some(AssignmentStrategy::GreedyRefine),
    ];
    let mut tuning_mw = [None; 3];
    let mut offset = 0;
    let mut identity_scheme = None;
    let mut assigned_scheme = None;
    for (slot, strategy) in strategies.into_iter().enumerate() {
        let (link, assignment) = designed_link(sigma_nm, CHIP_SEED, strategy, temperature);
        tuning_mw[slot] = link
            .operating_point_at(EccScheme::Hamming7164, 1e-11, temperature)
            .ok()
            .map(|p| p.power.tuning.value());
        // Only the identity and refined slots report a LatencyFirst scheme;
        // skip the multi-scheme manager solve for the intermediate one.
        if strategy == Some(AssignmentStrategy::Greedy) {
            continue;
        }
        let manager = LinkManager::new(link, EccScheme::paper_schemes().to_vec(), 1e-11)
            .unwrap_or_else(|e| panic!("paper manager configuration: {e}"));
        let scheme = manager
            .configure_at(onoc_link::TrafficClass::LatencyFirst, temperature)
            .map(|d| d.point.scheme());
        match strategy {
            None => identity_scheme = scheme,
            Some(_) => {
                assigned_scheme = scheme;
                offset = assignment.design_offset(0);
            }
        }
    }
    Cell {
        sigma_nm,
        temperature,
        tuning_mw,
        offset,
        identity_scheme,
        assigned_scheme,
    }
}

fn scheme_label(scheme: Option<EccScheme>) -> String {
    scheme.map_or_else(|| "(unservable)".to_owned(), |s| s.to_string())
}

fn main() {
    banner(
        "Assignment sweep",
        "GLOW-style design-time wavelength assignment vs identity, H(71,64), BER = 1e-11",
    );
    println!(
        "Chip seed {CHIP_SEED}, assigner seed {ASSIGN_SEED}; each row's assignment is searched at"
    );
    println!("that row's temperature (the design point); pure-heater runtime tuning.");
    println!();

    let grid: Vec<(f64, Celsius)> = sigmas_nm()
        .into_iter()
        .flat_map(|sigma| temperatures().into_iter().map(move |t| (sigma, t)))
        .collect();
    let cells = parallel_map(&grid, default_shards(), |&(sigma, t)| evaluate(sigma, t));

    let mut table = TextTable::new(vec![
        "sigma (pm)",
        "T (degC)",
        "Ptune identity (mW/wl)",
        "Ptune greedy (mW/wl)",
        "Ptune refine (mW/wl)",
        "offset (slots)",
        "LatencyFirst identity",
        "LatencyFirst assigned",
    ]);
    for cell in &cells {
        table.push_row(vec![
            format!("{:.0}", cell.sigma_nm * 1000.0),
            format!("{:.0}", cell.temperature.value()),
            opt(cell.tuning_mw[0], 3),
            opt(cell.tuning_mw[1], 3),
            opt(cell.tuning_mw[2], 3),
            format!("{:+}", cell.offset),
            scheme_label(cell.identity_scheme),
            scheme_label(cell.assigned_scheme),
        ]);
    }
    print_table(&table);

    // LatencyFirst switch points per σ: where the scheme choice changes as
    // the design/operating temperature rises.
    for sigma in sigmas_nm() {
        for (label, pick) in [("identity", 0usize), ("assigned", 1usize)] {
            let mut previous: Option<EccScheme> = None;
            for cell in cells.iter().filter(|c| c.sigma_nm == sigma) {
                let scheme = if pick == 0 {
                    cell.identity_scheme
                } else {
                    cell.assigned_scheme
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

    // Fleet-wide acceptance check: 8 per-ONI chip instances at σ = 40 pm,
    // designed for and operated at a uniform 85 °C.
    let hot = Celsius::new(85.0);
    let fleet_tuning = |strategy: Option<AssignmentStrategy>| -> f64 {
        (0..8u64)
            .map(|oni| {
                let (link, _) = designed_link(0.040, CHIP_SEED ^ (oni + 1), strategy, hot);
                link.operating_point_at(EccScheme::Hamming7164, 1e-11, hot)
                    .expect("H(71,64) survives 85 degC")
                    .power
                    .tuning
                    .value()
            })
            .sum()
    };
    let identity = fleet_tuning(None);
    let greedy = fleet_tuning(Some(AssignmentStrategy::Greedy));
    let refined = fleet_tuning(Some(AssignmentStrategy::GreedyRefine));
    let reduction = 1.0 - refined / identity;
    println!("Fleet-wide P_tune at sigma = 40 pm, 85 degC (8 chip instances, mW/wl summed):");
    println!("  identity      : {identity:.3}");
    println!(
        "  GLOW-greedy   : {greedy:.3}  ({:.1}% saved)",
        (1.0 - greedy / identity) * 100.0
    );
    println!(
        "  greedy+refine : {refined:.3}  ({:.1}% saved)",
        reduction * 100.0
    );
    println!();

    // Composition check: one chip designed for 85 °C, swept cold-to-hot
    // under pure-heater vs barrel-shift runtime tuning.
    println!("Design-for-85-degC chip across the sweep (sigma = 40 pm): runtime barrel");
    println!("shifting hops back at the cold end, so the baked-in rotation costs nothing.");
    let (designed, _) = designed_link(
        0.040,
        CHIP_SEED,
        Some(AssignmentStrategy::GreedyRefine),
        hot,
    );
    let mut compose = TextTable::new(vec![
        "T (degC)",
        "Ptune pure (mW/wl)",
        "Ptune barrel (mW/wl)",
        "runtime shift",
    ]);
    for t in temperatures() {
        let pure = designed
            .operating_point_at(EccScheme::Hamming7164, 1e-11, t)
            .ok();
        let barrel = designed
            .clone()
            .with_bank_tuning_mode(BankTuningMode::full_barrel_shift(16))
            .operating_point_at(EccScheme::Hamming7164, 1e-11, t)
            .ok();
        compose.push_row(vec![
            format!("{:.0}", t.value()),
            opt(pure.as_ref().map(|p| p.power.tuning.value()), 3),
            opt(barrel.as_ref().map(|p| p.power.tuning.value()), 3),
            barrel.as_ref().map_or_else(
                || "--".to_owned(),
                |p| format!("{:+}", p.thermal.barrel_shift),
            ),
        ]);
    }
    print_table(&compose);

    // Acceptance gates for CI.
    let mut violations = 0;
    if reduction < 0.20 {
        println!(
            "  ! violation: fleet-wide P_tune reduction {:.1}% is below the 20% gate",
            reduction * 100.0
        );
        violations += 1;
    }
    if refined > greedy + 1e-9 {
        println!("  ! violation: refinement made the assignment worse ({refined} vs {greedy})");
        violations += 1;
    }
    // The assigned chip must keep the uncoded path alive at 85 degC (the
    // LatencyFirst switch point moves out of the sweep).
    for cell in cells
        .iter()
        .filter(|c| (c.sigma_nm - 0.040).abs() < 1e-12 && c.temperature.value() >= 55.0)
    {
        if cell.assigned_scheme != Some(EccScheme::Uncoded) {
            println!(
                "  ! violation at {:.0} degC: assigned LatencyFirst scheme is {}",
                cell.temperature.value(),
                scheme_label(cell.assigned_scheme)
            );
            violations += 1;
        }
    }
    if violations > 0 {
        std::process::exit(1);
    }
}
