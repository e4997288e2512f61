//! Simulation time base.
//!
//! Event timestamps are kept in integer picoseconds so that event ordering is
//! exact and reproducible; conversions to the `onoc-units` nanosecond type
//! are provided at the boundaries.

use onoc_units::Nanoseconds;

/// A point in simulated time, in picoseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: Self = Self(0);

    /// Creates a timestamp from picoseconds.
    #[must_use]
    pub fn from_picos(picos: u64) -> Self {
        Self(picos)
    }

    /// Creates a timestamp from (non-negative, finite) nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    #[must_use]
    pub fn from_nanos(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "time must be finite and non-negative"
        );
        Self((ns * 1e3).round() as u64)
    }

    /// Timestamp value in picoseconds.
    #[must_use]
    pub fn as_picos(self) -> u64 {
        self.0
    }

    /// Timestamp value in nanoseconds.
    #[must_use]
    pub fn as_nanos(self) -> f64 {
        self.0 as f64 * 1e-3
    }

    /// Converts to the `onoc-units` nanosecond quantity.
    #[must_use]
    pub fn to_nanoseconds(self) -> Nanoseconds {
        Nanoseconds::new(self.as_nanos())
    }

    /// Advances the timestamp by a duration expressed in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or not finite.
    #[must_use]
    pub fn advanced_by(self, duration: Nanoseconds) -> Self {
        Self(self.0 + Self::from_nanos(duration.value()).0)
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[must_use]
    pub fn since(self, earlier: Self) -> Nanoseconds {
        assert!(earlier.0 <= self.0, "earlier timestamp is in the future");
        Nanoseconds::new((self.0 - earlier.0) as f64 * 1e-3)
    }

    /// Maximum of two timestamps.
    #[must_use]
    pub fn max_time(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} ns", self.as_nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_nanos(12.345);
        assert_eq!(t.as_picos(), 12_345);
        assert!((t.as_nanos() - 12.345).abs() < 1e-9);
        assert!((t.to_nanoseconds().value() - 12.345).abs() < 1e-9);
    }

    #[test]
    fn advance_and_since_are_inverses() {
        let start = SimTime::from_nanos(5.0);
        let later = start.advanced_by(Nanoseconds::new(11.2));
        assert!((later.since(start).value() - 11.2).abs() < 1e-9);
        assert!(later > start);
    }

    #[test]
    fn ordering_is_exact() {
        let a = SimTime::from_picos(1000);
        let b = SimTime::from_picos(1001);
        assert!(a < b);
        assert_eq!(SimTime::ZERO.as_picos(), 0);
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn negative_duration_panics() {
        let _ = SimTime::from_picos(1).since(SimTime::from_picos(2));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_nanos_panics() {
        let _ = SimTime::from_nanos(-1.0);
    }
}
