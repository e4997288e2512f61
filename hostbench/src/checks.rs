//! Output checks.  Every op the benchmark times is checked, and the checks
//! feed `ok_ops_ratio`: a run whose checks fail counts all of its ops as
//! failed.

use onoc_ecc_codes::EccScheme;
use onoc_link::{LinkError, NanophotonicLink, OperatingPoint};
use onoc_sim::traffic::TrafficPattern;
use onoc_sim::{RunReport, ScenarioBuilder};

use crate::stats::Fnv;
use crate::workloads::SweepOp;

/// Attempted and failed op counts of one invocation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one run of `ops` ops: all of them fail when the run's
    /// checks found any problem.
    pub fn run(&mut self, ops: u64, problems: &[String]) {
        self.attempted += ops;
        if !problems.is_empty() {
            self.failed += ops;
        }
    }

    /// Marks every op recorded so far as failed (an invocation-wide check,
    /// such as the thread check, failed).
    pub fn fail_all(&mut self) {
        self.failed = self.attempted;
    }

    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

fn finite_non_negative(name: &str, value: f64, problems: &mut Vec<String>) {
    if !(value.is_finite() && value >= 0.0) {
        problems.push(format!("{name} = {value} is not finite and non-negative"));
    }
}

/// Checks one solve-sweep op's result.  An infeasible or unsustainable
/// point is a valid answer; a feasible one must be physically consistent
/// with its request and its link.
pub fn check_op(
    link: &NanophotonicLink,
    op: &SweepOp,
    result: &Result<OperatingPoint, LinkError>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let point = match result {
        Ok(point) => point,
        Err(LinkError::Infeasible(_) | LinkError::SchemeNotSustainable { .. }) => return problems,
        Err(other) => return vec![format!("unexpected error: {other}")],
    };
    if point.scheme() != op.scheme || point.target_ber() != op.ber {
        problems.push("point answers a different (scheme, BER)".into());
    }
    if point.temperature() != op.temperature {
        problems.push("point answers a different temperature".into());
    }
    let laser = &point.laser;
    for (name, value) in [
        ("laser output", laser.laser_output_power.value()),
        ("laser electrical", laser.laser_electrical_power.value()),
        ("crosstalk", laser.crosstalk.value()),
        ("P_enc+dec", point.power.encoder_decoder.value()),
        ("P_MR", point.power.modulation.value()),
        ("P_laser", point.power.laser.value()),
        ("P_tune", point.power.tuning.value()),
        ("channel power", point.channel_power.value()),
        ("energy per bit", point.energy_per_bit.value()),
    ] {
        finite_non_negative(name, value, &mut problems);
    }
    let max_output = link.channel().laser().max_output().value();
    if laser.laser_output_power.value() > max_output {
        problems.push(format!(
            "laser output {} uW exceeds the laser maximum {max_output} uW",
            laser.laser_output_power.value()
        ));
    }
    if laser.raw_ber.is_nan() || laser.raw_ber < op.ber {
        problems.push(format!(
            "raw BER {} is below the decoded target {}",
            laser.raw_ber, op.ber
        ));
    }
    let lanes = link.power_model().config().wavelength_lanes as f64;
    let expected = lanes * point.power.per_wavelength_total().value();
    if (point.channel_power.value() - expected).abs() > 1e-12 * expected.abs() {
        problems.push(format!(
            "channel power {} != {lanes} lanes x per-lane total ({expected})",
            point.channel_power.value()
        ));
    }
    problems
}

/// Folds one op's result into a digest: feasibility, channel power, laser
/// output and tuning power, bit for bit.
pub fn digest_op(digest: &mut Fnv, result: &Result<OperatingPoint, LinkError>) {
    match result {
        Ok(point) => {
            digest.u64(1);
            digest.f64(point.channel_power.value());
            digest.f64(point.laser.laser_output_power.value());
            digest.f64(point.thermal.tuning_power_per_lane.value());
        }
        Err(_) => digest.u64(0),
    }
}

/// Checks the conservation laws of a scenario report.
pub fn check_report(report: &RunReport, injected: u64) -> Vec<String> {
    let mut problems = Vec::new();
    let stats = &report.stats;
    let mut expect = |name: &str, got: u64, want: u64| {
        if got != want {
            problems.push(format!("{name}: {got} != {want}"));
        }
    };
    expect("injected messages", stats.injected_messages, injected);
    expect("delivered messages", stats.delivered_messages, injected);
    let per_oni = &report.per_oni;
    expect(
        "sum of per-ONI delivered",
        per_oni.iter().map(|o| o.delivered_messages).sum(),
        stats.delivered_messages,
    );
    expect(
        "sum of per-ONI decisions",
        per_oni.iter().map(|o| o.decisions).sum(),
        report.decisions,
    );
    expect(
        "sum of per-ONI infeasible requests",
        per_oni.iter().map(|o| o.infeasible_requests).sum(),
        report.infeasible_requests,
    );
    expect(
        "sum of per-ONI switches",
        per_oni.iter().map(|o| o.scheme_switches).sum(),
        report.total_switches(),
    );
    let energy = stats.energy_pj;
    let per_oni_energy: f64 = per_oni
        .iter()
        .map(|o| o.static_energy_pj + o.dynamic_energy_pj)
        .sum();
    if !(energy.is_finite() && energy > 0.0) {
        problems.push(format!("energy {energy} pJ is not finite and positive"));
    } else if (per_oni_energy - energy).abs() > 1e-9 * energy {
        problems.push(format!(
            "per-ONI energy {per_oni_energy} pJ != run energy {energy} pJ"
        ));
    }
    if stats.static_energy_pj.is_nan() || stats.static_energy_pj > energy {
        problems.push(format!(
            "static energy {} pJ exceeds total energy {energy} pJ",
            stats.static_energy_pj
        ));
    }
    if stats.hops_traversed < stats.delivered_messages {
        problems.push(format!(
            "hops {} < delivered {}",
            stats.hops_traversed, stats.delivered_messages
        ));
    }
    problems
}

/// The report with its thread budget normalized away: the only field that
/// may differ between thread counts.
pub fn normalized(report: &RunReport) -> RunReport {
    let mut report = report.clone();
    report.config.threads = 0;
    report
}

/// Digest of everything a run simulated (the thread-normalized report).
pub fn digest_report(report: &RunReport) -> u64 {
    let mut digest = Fnv::default();
    digest.bytes(format!("{:?}", normalized(report)).as_bytes());
    digest.finish()
}

/// The paper's Fig. 6a anchors at 25 °C and BER 1e-11, channel power of one
/// 16-wavelength waveguide in mW: 251 mW uncoded, 136 mW with H(71,64), and
/// 49 % below uncoded with H(7,4).
pub const FIG6A_ANCHORS: [(EccScheme, f64); 3] = [
    (EccScheme::Uncoded, 251.0),
    (EccScheme::Hamming7164, 136.0),
    (EccScheme::Hamming74, 251.0 * (1.0 - 0.49)),
];

/// Largest relative error against a Fig. 6a anchor that still passes.
pub const ANCHOR_TOLERANCE: f64 = 0.05;

/// Re-solves the Fig. 6a points; returns `(scheme, mW, signed error)` per
/// anchor and the problems found.
pub fn check_anchors() -> (Vec<(EccScheme, f64, f64)>, Vec<String>) {
    let link = NanophotonicLink::paper_link();
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    for (scheme, anchor) in FIG6A_ANCHORS {
        match link.operating_point(scheme, 1e-11) {
            Ok(point) => {
                let mw = point.channel_power.value();
                let error = mw / anchor - 1.0;
                if error.is_nan() || error.abs() > ANCHOR_TOLERANCE {
                    problems.push(format!(
                        "{scheme} at 1e-11: {mw:.1} mW is {:+.1} % off the paper's {anchor:.0} mW",
                        100.0 * error
                    ));
                }
                rows.push((scheme, mw, error));
            }
            Err(e) => problems.push(format!("{scheme} at 1e-11 is infeasible: {e}")),
        }
    }
    (rows, problems)
}

/// Feeds an intact report and a corrupted one through the same checks and
/// tally the scenario workloads use: the corrupted rep must count all of its
/// messages as failed, the intact one none.  Returns the problems with the
/// checker.
pub fn report_self_test() -> Vec<String> {
    let mut problems = Vec::new();
    let messages_per_node = 10;
    let report = ScenarioBuilder::new()
        .oni_count(4)
        .pattern(TrafficPattern::UniformRandom { messages_per_node })
        .seed(1)
        .build()
        .map(onoc_sim::Scenario::run);
    let Ok(report) = report else {
        problems.push("report self-test: the reference scenario failed to build".into());
        return problems;
    };
    let injected = 4 * messages_per_node;
    let mut corrupted = report.clone();
    corrupted.per_oni[0].delivered_messages += 1;
    let mut tally = Tally::default();
    tally.run(injected, &check_report(&report, injected));
    tally.run(injected, &check_report(&corrupted, injected));
    if tally.attempted != 2 * injected || tally.failed != injected {
        problems.push(format!(
            "report self-test: {tally:?}, want {injected} of {} failed",
            2 * injected
        ));
    }
    problems
}
