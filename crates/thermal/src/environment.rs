//! Chip thermal environments the simulator can sample over time.
//!
//! Three scenario families cover the evaluations the roadmap asks for:
//!
//! * **Uniform** — the whole optical layer sits at one ambient temperature
//!   (a temperature sweep re-runs the link at each point);
//! * **Hotspot** — a static spatial gradient across the ONIs, as produced by
//!   a hot compute cluster under one corner of the interposer;
//! * **Transient** — a first-order (single time constant) exponential drift
//!   from a start to a target temperature, the classic step response of a
//!   package heating up under load.

use onoc_units::Celsius;

/// A time- and space-dependent temperature field over the ONIs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThermalEnvironment {
    /// Every ONI at the same constant temperature.
    Uniform {
        /// The ambient temperature.
        temperature: Celsius,
    },
    /// A static spatial gradient peaking at one ONI and decaying
    /// geometrically with ring-topology hop distance.
    Hotspot {
        /// Temperature far from the hotspot.
        base: Celsius,
        /// Temperature at the hotspot ONI.
        peak: Celsius,
        /// Index of the hottest ONI.
        center: usize,
        /// Remaining fraction of the excess per hop away from the center,
        /// in `[0, 1)`.
        decay_per_hop: f64,
    },
    /// A spatially uniform first-order transient
    /// `T(t) = target + (start − target)·exp(−t/τ)`.
    Transient {
        /// Temperature at `t = 0`.
        start: Celsius,
        /// Asymptotic temperature.
        target: Celsius,
        /// Time constant τ in nanoseconds.
        time_constant_ns: f64,
    },
}

impl ThermalEnvironment {
    /// The paper's fixed evaluation point: a uniform 25 °C.
    #[must_use]
    pub fn paper_ambient() -> Self {
        Self::Uniform {
            temperature: Celsius::new(25.0),
        }
    }

    /// Checks the environment's parameters, returning a human-readable
    /// reason when they are invalid.  Callers that accept an environment as
    /// configuration (e.g. the NoC simulator) should validate up front so a
    /// bad scenario surfaces as a configuration error rather than a panic
    /// mid-run.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending parameter: a non-finite
    /// temperature, a hotspot decay outside `[0, 1)` or a non-positive
    /// transient time constant.
    pub fn validate(&self) -> Result<(), String> {
        let finite = |name: &str, t: Celsius| {
            if t.value().is_finite() {
                Ok(())
            } else {
                Err(format!(
                    "{name} temperature must be finite, got {}",
                    t.value()
                ))
            }
        };
        match *self {
            Self::Uniform { temperature } => finite("uniform", temperature),
            Self::Hotspot {
                base,
                peak,
                decay_per_hop,
                ..
            } => {
                finite("hotspot base", base)?;
                finite("hotspot peak", peak)?;
                if (0.0..1.0).contains(&decay_per_hop) {
                    Ok(())
                } else {
                    Err(format!(
                        "hotspot decay per hop must be in [0, 1), got {decay_per_hop}"
                    ))
                }
            }
            Self::Transient {
                start,
                target,
                time_constant_ns,
            } => {
                finite("transient start", start)?;
                finite("transient target", target)?;
                if time_constant_ns > 0.0 && time_constant_ns.is_finite() {
                    Ok(())
                } else {
                    Err(format!(
                        "transient time constant must be positive and finite, got {time_constant_ns}"
                    ))
                }
            }
        }
    }

    /// Temperature seen by `oni` (of `oni_count` on the ring) at `time_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `oni_count` is zero, `oni` is out of range, or the
    /// environment's parameters are invalid (see
    /// [`ThermalEnvironment::validate`]).
    #[must_use]
    pub fn temperature_at(&self, oni: usize, oni_count: usize, time_ns: f64) -> Celsius {
        assert!(oni_count > 0, "at least one ONI is required");
        assert!(
            oni < oni_count,
            "ONI index {oni} out of range 0..{oni_count}"
        );
        match *self {
            Self::Uniform { temperature } => temperature,
            Self::Hotspot {
                base,
                peak,
                center,
                decay_per_hop,
            } => {
                assert!(
                    (0.0..1.0).contains(&decay_per_hop),
                    "hotspot decay must be in [0, 1)"
                );
                let center = center % oni_count;
                let direct = oni.abs_diff(center);
                let hops = direct.min(oni_count - direct);
                let excess = (peak.value() - base.value()) * decay_per_hop.powi(hops as i32);
                Celsius::new(base.value() + excess)
            }
            Self::Transient {
                start,
                target,
                time_constant_ns,
            } => {
                assert!(time_constant_ns > 0.0, "time constant must be positive");
                let decay = (-time_ns.max(0.0) / time_constant_ns).exp();
                Celsius::new(target.value() + (start.value() - target.value()) * decay)
            }
        }
    }

    /// The hottest temperature the environment ever produces across all ONIs
    /// (used to size worst-case link budgets).
    #[must_use]
    pub fn peak_temperature(&self) -> Celsius {
        match *self {
            Self::Uniform { temperature } => temperature,
            Self::Hotspot { base, peak, .. } => Celsius::new(base.value().max(peak.value())),
            Self::Transient { start, target, .. } => {
                Celsius::new(start.value().max(target.value()))
            }
        }
    }
}

impl Default for ThermalEnvironment {
    fn default() -> Self {
        Self::paper_ambient()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_flat_in_space_and_time() {
        let env = ThermalEnvironment::Uniform {
            temperature: Celsius::new(55.0),
        };
        for oni in 0..12 {
            for t in [0.0, 1e3, 1e9] {
                assert!((env.temperature_at(oni, 12, t).value() - 55.0).abs() < 1e-12);
            }
        }
        assert!((env.peak_temperature().value() - 55.0).abs() < 1e-12);
    }

    #[test]
    fn hotspot_peaks_at_the_center_and_decays_with_ring_distance() {
        let env = ThermalEnvironment::Hotspot {
            base: Celsius::new(45.0),
            peak: Celsius::new(85.0),
            center: 3,
            decay_per_hop: 0.5,
        };
        assert!((env.temperature_at(3, 12, 0.0).value() - 85.0).abs() < 1e-12);
        assert!((env.temperature_at(4, 12, 0.0).value() - 65.0).abs() < 1e-12);
        assert!((env.temperature_at(2, 12, 0.0).value() - 65.0).abs() < 1e-12);
        // The ring wraps: ONI 9 is 6 hops away, ONI 10 is 5 hops away.
        let far = env.temperature_at(9, 12, 0.0).value();
        let nearer = env.temperature_at(10, 12, 0.0).value();
        assert!(far < nearer);
        assert!(far > 45.0);
        assert!((env.peak_temperature().value() - 85.0).abs() < 1e-12);
    }

    #[test]
    fn hotspot_temperature_decreases_monotonically_away_from_the_center() {
        let env = ThermalEnvironment::Hotspot {
            base: Celsius::new(45.0),
            peak: Celsius::new(85.0),
            center: 0,
            decay_per_hop: 0.6,
        };
        let mut last = f64::INFINITY;
        for oni in 0..=6 {
            let t = env.temperature_at(oni, 12, 0.0).value();
            assert!(t < last, "ONI {oni}");
            last = t;
        }
    }

    #[test]
    fn transient_starts_at_start_and_converges_to_target() {
        let env = ThermalEnvironment::Transient {
            start: Celsius::new(25.0),
            target: Celsius::new(85.0),
            time_constant_ns: 1000.0,
        };
        assert!((env.temperature_at(0, 4, 0.0).value() - 25.0).abs() < 1e-12);
        let one_tau = env.temperature_at(0, 4, 1000.0).value();
        assert!((one_tau - (85.0 - 60.0 * (-1.0f64).exp())).abs() < 1e-9);
        assert!((env.temperature_at(0, 4, 1e9).value() - 85.0).abs() < 1e-6);
        // Monotone rise.
        let mut last = 0.0;
        for t in 0..100 {
            let now = env.temperature_at(0, 4, f64::from(t) * 100.0).value();
            assert!(now >= last);
            last = now;
        }
        assert!((env.peak_temperature().value() - 85.0).abs() < 1e-12);
    }

    #[test]
    fn negative_time_clamps_to_the_start() {
        let env = ThermalEnvironment::Transient {
            start: Celsius::new(30.0),
            target: Celsius::new(80.0),
            time_constant_ns: 500.0,
        };
        assert!((env.temperature_at(0, 2, -100.0).value() - 30.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_oni_panics() {
        let _ = ThermalEnvironment::paper_ambient().temperature_at(5, 4, 0.0);
    }

    #[test]
    fn validate_catches_bad_parameters() {
        assert!(ThermalEnvironment::paper_ambient().validate().is_ok());
        let bad_decay = ThermalEnvironment::Hotspot {
            base: Celsius::new(30.0),
            peak: Celsius::new(85.0),
            center: 0,
            decay_per_hop: 1.0,
        };
        assert!(bad_decay.validate().unwrap_err().contains("decay"));
        let bad_tau = ThermalEnvironment::Transient {
            start: Celsius::new(25.0),
            target: Celsius::new(85.0),
            time_constant_ns: 0.0,
        };
        assert!(bad_tau.validate().unwrap_err().contains("time constant"));
        let good = ThermalEnvironment::Transient {
            start: Celsius::new(25.0),
            target: Celsius::new(85.0),
            time_constant_ns: 100.0,
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    fn validate_rejects_non_finite_temperatures() {
        // Quantity arithmetic bypasses the constructor's finiteness check,
        // so non-finite temperatures can reach a scenario through overflow.
        let nan = Celsius::new(25.0) * f64::NAN;
        let inf = Celsius::new(25.0) * f64::INFINITY;
        let ok = Celsius::new(25.0);
        let bad_uniform = ThermalEnvironment::Uniform { temperature: nan };
        assert!(bad_uniform.validate().unwrap_err().contains("uniform"));
        for (base, peak, field) in [(inf, ok, "base"), (ok, nan, "peak")] {
            let bad = ThermalEnvironment::Hotspot {
                base,
                peak,
                center: 0,
                decay_per_hop: 0.5,
            };
            assert!(bad.validate().unwrap_err().contains(field), "{field}");
        }
        for (start, target, field) in [(nan, ok, "start"), (ok, inf * -1.0, "target")] {
            let bad = ThermalEnvironment::Transient {
                start,
                target,
                time_constant_ns: 100.0,
            };
            assert!(bad.validate().unwrap_err().contains(field), "{field}");
        }
    }
}
