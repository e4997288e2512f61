//! Internal helper macro generating scalar physical-quantity newtypes.
//!
//! Every quantity in this crate is a thin wrapper around an `f64` with a unit
//! attached in the type.  The macro generates the common boilerplate: a
//! validated constructor, accessor, `Display`, ordering, scaling by a bare
//! `f64`, and addition/subtraction with itself.  Unit-specific conversions
//! (e.g. mW ↔ µW, dB ↔ linear) are written by hand in the individual modules.

/// Generates a scalar quantity newtype.
///
/// * `$name` — type name.
/// * `$unit` — unit suffix used by `Display`.
/// * `$doc` — doc string for the type.
/// * The optional `allow_negative` token relaxes the constructor so that
///   negative values are accepted (needed for temperatures and decibel gains).
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        quantity!(@impl $(#[$meta])* $name, $unit, false);
    };
    ($(#[$meta:meta])* $name:ident, $unit:literal, allow_negative) => {
        quantity!(@impl $(#[$meta])* $name, $unit, true);
    };
    (@impl $(#[$meta:meta])* $name:ident, $unit:literal, $allow_negative:expr) => {
        $(#[$meta])*
        #[derive(
            Debug,
            Clone,
            Copy,
            PartialEq,
            PartialOrd,
            Default,
        )]
        pub struct $name(f64);

        impl $name {
            /// Creates a new value of this quantity.
            ///
            /// # Panics
            ///
            /// Panics if the value is not finite, or if it is negative and the
            /// quantity does not admit negative values.
            #[must_use]
            pub fn new(value: f64) -> Self {
                assert!(
                    value.is_finite(),
                    concat!(stringify!($name), " must be finite")
                );
                if !$allow_negative {
                    assert!(
                        value >= 0.0,
                        concat!(stringify!($name), " must be non-negative")
                    );
                }
                Self(value)
            }

            /// Zero value of this quantity.
            #[must_use]
            pub fn zero() -> Self {
                Self(0.0)
            }

            /// Returns the raw numeric value in the unit named by the type.
            #[must_use]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                if self.0 >= other.0 {
                    self
                } else {
                    other
                }
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                if self.0 <= other.0 {
                    self
                } else {
                    other
                }
            }

            /// Returns `true` when the value is exactly zero.
            #[must_use]
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                if let Some(precision) = f.precision() {
                    write!(f, "{:.*} {}", precision, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }

        impl std::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl std::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl std::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl std::ops::SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl std::ops::Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl std::ops::Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl std::ops::Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

pub(crate) use quantity;
