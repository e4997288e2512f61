//! Design-space exploration: BER sweeps, Pareto fronts and code ablations.
//!
//! Fig. 5 of the paper sweeps the target BER from 10⁻³ to 10⁻¹² for the three
//! coding configurations; Fig. 6b plots the resulting power/communication-time
//! trade-off and observes that every configuration sits on the Pareto front.
//! This module provides those sweeps, generic Pareto extraction, and the
//! code-length ablation (`A1` in DESIGN.md) over the full Hamming family.

use onoc_ecc_codes::EccScheme;
use onoc_units::Celsius;

use crate::link::{NanophotonicLink, OperatingPoint};

/// One point of the power/performance trade-off plane (Fig. 6b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// The underlying operating point.
    pub point: OperatingPoint,
    /// `true` when no other evaluated point dominates this one
    /// (lower-or-equal power *and* lower-or-equal communication time, with at
    /// least one strict improvement).
    pub on_front: bool,
}

/// A design-space exploration over a set of schemes and BER targets.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    link: NanophotonicLink,
    schemes: Vec<EccScheme>,
    ber_targets: Vec<f64>,
    temperature: Option<Celsius>,
}

impl DesignSpace {
    /// Creates an exploration over the given schemes and BER targets.
    ///
    /// # Panics
    ///
    /// Panics if either list is empty.
    #[must_use]
    pub fn new(link: NanophotonicLink, schemes: Vec<EccScheme>, ber_targets: Vec<f64>) -> Self {
        assert!(!schemes.is_empty(), "at least one scheme is required");
        assert!(
            !ber_targets.is_empty(),
            "at least one BER target is required"
        );
        Self {
            link,
            schemes,
            ber_targets,
            temperature: None,
        }
    }

    /// Re-anchors the whole exploration at a chip temperature: every
    /// evaluated point then charges laser + modulation + coding **+ tuning**
    /// power at that temperature, so the Pareto fronts shift as the chip
    /// heats.
    #[must_use]
    pub fn at_temperature(mut self, temperature: Celsius) -> Self {
        self.temperature = Some(temperature);
        self
    }

    /// Temperature the sweep is anchored at (`None` = calibration ambient).
    #[must_use]
    pub fn temperature(&self) -> Option<Celsius> {
        self.temperature
    }

    fn point(&self, scheme: EccScheme, ber: f64) -> Option<OperatingPoint> {
        match self.temperature {
            Some(t) => self.link.operating_point_at(scheme, ber, t).ok(),
            None => self.link.operating_point(scheme, ber).ok(),
        }
    }

    /// The exploration behind Figs. 5 and 6 of the paper: the three paper
    /// schemes over BER targets 10⁻³ … 10⁻¹².
    #[must_use]
    pub fn paper_sweep() -> Self {
        Self::new(
            NanophotonicLink::paper_link(),
            EccScheme::paper_schemes().to_vec(),
            decade_targets(3, 12),
        )
    }

    /// The code-length ablation: every Hamming/SECDED variant in the
    /// registry, same BER range.
    #[must_use]
    pub fn code_ablation() -> Self {
        Self::new(
            NanophotonicLink::paper_link(),
            EccScheme::all(),
            decade_targets(3, 12),
        )
    }

    /// Schemes being explored.
    #[must_use]
    pub fn schemes(&self) -> &[EccScheme] {
        &self.schemes
    }

    /// BER targets being explored.
    #[must_use]
    pub fn ber_targets(&self) -> &[f64] {
        &self.ber_targets
    }

    /// The link under exploration.
    #[must_use]
    pub fn link(&self) -> &NanophotonicLink {
        &self.link
    }

    /// Evaluates all (scheme, BER) pairs, dropping infeasible ones.
    #[must_use]
    pub fn evaluate_all(&self) -> Vec<OperatingPoint> {
        let mut points = Vec::new();
        for &ber in &self.ber_targets {
            for &scheme in &self.schemes {
                if let Some(point) = self.point(scheme, ber) {
                    points.push(point);
                }
            }
        }
        points
    }

    /// Evaluates one BER column of the sweep (one Fig. 6a bar group).
    #[must_use]
    pub fn evaluate_at(&self, target_ber: f64) -> Vec<OperatingPoint> {
        self.schemes
            .iter()
            .filter_map(|&scheme| self.point(scheme, target_ber))
            .collect()
    }

    /// Laser-power rows of Fig. 5: for every scheme, the laser electrical
    /// power at each BER target (`None` where infeasible).
    #[must_use]
    pub fn laser_power_sweep(&self) -> Vec<(EccScheme, Vec<Option<f64>>)> {
        self.schemes
            .iter()
            .map(|&scheme| {
                let row = self
                    .ber_targets
                    .iter()
                    .map(|&ber| {
                        self.point(scheme, ber)
                            .map(|p| p.laser.laser_electrical_power.value())
                    })
                    .collect();
                (scheme, row)
            })
            .collect()
    }

    /// Marks every evaluated point with its Pareto-front membership in the
    /// (channel power, communication time) plane.
    #[must_use]
    pub fn pareto_front(&self, target_ber: f64) -> Vec<ParetoPoint> {
        let points = self.evaluate_at(target_ber);
        mark_pareto(&points)
    }
}

/// Marks Pareto-optimal points among `points` in the (channel power,
/// communication-time) plane (both minimised).
#[must_use]
pub fn mark_pareto(points: &[OperatingPoint]) -> Vec<ParetoPoint> {
    points
        .iter()
        .map(|candidate| {
            let dominated = points.iter().any(|other| {
                let better_power = other.channel_power.value() <= candidate.channel_power.value();
                let better_time =
                    other.communication_time_factor() <= candidate.communication_time_factor();
                let strictly = other.channel_power.value() < candidate.channel_power.value()
                    || other.communication_time_factor() < candidate.communication_time_factor();
                better_power && better_time && strictly
            });
            ParetoPoint {
                point: *candidate,
                on_front: !dominated,
            }
        })
        .collect()
}

/// BER targets 10^-lo … 10^-hi, one per decade.
#[must_use]
pub fn decade_targets(lo: i32, hi: i32) -> Vec<f64> {
    assert!(lo <= hi, "lo must not exceed hi");
    (lo..=hi).map(|e| 10f64.powi(-e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decade_targets_span_the_requested_range() {
        let t = decade_targets(3, 12);
        assert_eq!(t.len(), 10);
        assert!((t[0] - 1e-3).abs() < 1e-18);
        assert!((t[9] - 1e-12).abs() < 1e-24);
    }

    #[test]
    fn paper_sweep_covers_most_of_the_grid() {
        let sweep = DesignSpace::paper_sweep();
        let points = sweep.evaluate_all();
        // 3 schemes × 10 targets = 30 cells; only the uncoded 1e-12 (and
        // possibly nothing else) is infeasible.
        assert!(points.len() >= 28, "only {} feasible points", points.len());
        assert!(points.len() < 30);
    }

    #[test]
    fn laser_power_sweep_reproduces_fig5_ordering() {
        let sweep = DesignSpace::paper_sweep();
        let rows = sweep.laser_power_sweep();
        let row = |s: EccScheme| {
            rows.iter()
                .find(|(scheme, _)| *scheme == s)
                .map(|(_, r)| r.clone())
                .unwrap()
        };
        let uncoded = row(EccScheme::Uncoded);
        let h74 = row(EccScheme::Hamming74);
        let h7164 = row(EccScheme::Hamming7164);
        for i in 0..uncoded.len() {
            if let (Some(u), Some(a), Some(b)) = (uncoded[i], h7164[i], h74[i]) {
                assert!(
                    u > a,
                    "uncoded should need the most laser power (column {i})"
                );
                assert!(
                    a >= b,
                    "H(71,64) should need at least as much as H(7,4) (column {i})"
                );
            }
        }
        // The last column (1e-12) is infeasible for the uncoded scheme only.
        assert!(uncoded.last().unwrap().is_none());
        assert!(h74.last().unwrap().is_some());
    }

    #[test]
    fn all_paper_schemes_sit_on_the_pareto_front() {
        let sweep = DesignSpace::paper_sweep();
        for &ber in &[1e-6, 1e-9, 1e-11] {
            let front = sweep.pareto_front(ber);
            assert!(!front.is_empty());
            for p in &front {
                assert!(
                    p.on_front,
                    "{} at {ber:.0e} should be Pareto-optimal",
                    p.point.scheme()
                );
            }
        }
    }

    #[test]
    fn dominated_points_are_detected() {
        // The code ablation contains schemes (e.g. Repetition3) that are
        // dominated by the Hamming codes: they burn more time without saving
        // enough power.
        let sweep = DesignSpace::code_ablation();
        let front = sweep.pareto_front(1e-9);
        let rep3 = front
            .iter()
            .find(|p| p.point.scheme() == EccScheme::Repetition3);
        if let Some(rep3) = rep3 {
            assert!(!rep3.on_front, "Rep3 should be dominated");
        }
        assert!(front.iter().any(|p| p.on_front));
    }

    #[test]
    fn evaluate_at_matches_feasible_points() {
        let sweep = DesignSpace::paper_sweep();
        assert_eq!(sweep.evaluate_at(1e-9).len(), 3);
        assert_eq!(sweep.evaluate_at(1e-12).len(), 2);
    }

    #[test]
    fn temperature_anchored_sweep_loses_the_uncoded_corner() {
        let ambient = DesignSpace::paper_sweep();
        let hot = DesignSpace::paper_sweep().at_temperature(Celsius::new(85.0));
        assert!(hot.temperature().is_some());
        // At 85 C the uncoded scheme disappears from every strict-BER column
        // and every surviving point carries a tuning-power term.
        let hot_points = hot.evaluate_at(1e-11);
        assert!(hot_points.iter().all(|p| p.scheme() != EccScheme::Uncoded));
        assert!(hot_points.iter().all(|p| p.power.tuning.value() > 0.0));
        assert_eq!(hot_points.len(), 2);
        // And the surviving schemes cost strictly more than at the ambient.
        for p in &hot_points {
            let cool = ambient
                .evaluate_at(1e-11)
                .into_iter()
                .find(|c| c.scheme() == p.scheme())
                .unwrap();
            assert!(p.channel_power.value() > cool.channel_power.value());
        }
    }

    #[test]
    #[should_panic(expected = "at least one scheme")]
    fn empty_scheme_list_panics() {
        let _ = DesignSpace::new(NanophotonicLink::paper_link(), vec![], vec![1e-9]);
    }

    #[test]
    fn accessors_expose_the_grid() {
        let sweep = DesignSpace::paper_sweep();
        assert_eq!(sweep.schemes().len(), 3);
        assert_eq!(sweep.ber_targets().len(), 10);
        assert_eq!(sweep.link().power_model().config().wavelength_lanes, 16);
    }
}
