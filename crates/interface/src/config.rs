//! Interface configuration and error type.

use onoc_ecc_codes::{CodeError, EccScheme};
use onoc_units::{GigabitsPerSecond, Gigahertz};

/// Errors produced by the interface datapaths.
#[derive(Debug, Clone, PartialEq)]
pub enum InterfaceError {
    /// The underlying codec rejected the data (wrong geometry).
    Code(CodeError),
    /// The serialized stream does not have the length expected for the
    /// selected scheme.
    WrongStreamLength {
        /// Expected number of serialized bits.
        expected: usize,
        /// Received number of bits.
        actual: usize,
    },
    /// The configuration itself is inconsistent (e.g. the serializer cannot
    /// keep up with the IP word rate).
    InvalidConfiguration {
        /// Human-readable description.
        reason: String,
    },
}

impl std::fmt::Display for InterfaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Code(e) => write!(f, "codec error: {e}"),
            Self::WrongStreamLength { expected, actual } => {
                write!(
                    f,
                    "expected a {expected}-bit serial stream, got {actual} bits"
                )
            }
            Self::InvalidConfiguration { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for InterfaceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Code(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodeError> for InterfaceError {
    fn from(value: CodeError) -> Self {
        Self::Code(value)
    }
}

/// Static configuration of one ONI interface.
///
/// ```
/// use onoc_interface::config::InterfaceConfig;
/// use onoc_ecc_codes::EccScheme;
///
/// let config = InterfaceConfig::paper_default();
/// assert_eq!(config.word_bits, 64);
/// // H(7,4) needs 112 bit-slots per word: still within one IP cycle budget
/// // of 10 Gb/s × 16 wavelengths.
/// assert!(config.supports(EccScheme::Hamming74));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceConfig {
    /// Width of the IP data bus (N_data), 64 bits in the paper.
    pub word_bits: usize,
    /// IP clock frequency (F_IP), 1 GHz in the paper.
    pub ip_clock: Gigahertz,
    /// Optical modulation speed (F_mod), 10 GHz / 10 Gb/s in the paper.
    pub modulation_rate: GigabitsPerSecond,
    /// Number of wavelength lanes the word is striped over.
    pub wavelength_lanes: usize,
}

impl InterfaceConfig {
    /// The configuration of the paper: 64-bit bus at 1 GHz, 10 Gb/s
    /// modulation, 16 wavelengths.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            word_bits: 64,
            ip_clock: Gigahertz::new(1.0),
            modulation_rate: GigabitsPerSecond::new(10.0),
            wavelength_lanes: 16,
        }
    }

    /// Serialized bits per word for `scheme`.
    #[must_use]
    pub fn encoded_bits(&self, scheme: EccScheme) -> usize {
        scheme.encoded_bits_per_word(self.word_bits)
    }

    /// Aggregate optical channel bandwidth (all lanes).
    #[must_use]
    pub fn channel_bandwidth(&self) -> GigabitsPerSecond {
        self.modulation_rate * self.wavelength_lanes as f64
    }

    /// Payload bandwidth offered to the IP (one word per IP cycle).
    #[must_use]
    pub fn payload_bandwidth(&self) -> GigabitsPerSecond {
        GigabitsPerSecond::new(self.word_bits as f64 * self.ip_clock.value())
    }

    /// Returns `true` when the optical channel can sustain one encoded word
    /// per IP clock cycle with `scheme`, i.e. the coding overhead does not
    /// throttle the IP.
    #[must_use]
    pub fn supports(&self, scheme: EccScheme) -> bool {
        let encoded_bits_per_second = self.encoded_bits(scheme) as f64 * self.ip_clock.value(); // Gb/s
        encoded_bits_per_second <= self.channel_bandwidth().value() + 1e-9
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InterfaceError::InvalidConfiguration`] when the word width,
    /// clocks or lane count are zero, or when even the uncoded mode exceeds
    /// the channel bandwidth.
    pub fn validate(&self) -> Result<(), InterfaceError> {
        if self.word_bits == 0 {
            return Err(InterfaceError::InvalidConfiguration {
                reason: "word width must be non-zero".into(),
            });
        }
        if self.wavelength_lanes == 0 {
            return Err(InterfaceError::InvalidConfiguration {
                reason: "at least one wavelength lane is required".into(),
            });
        }
        if self.ip_clock.value() <= 0.0 || self.modulation_rate.value() <= 0.0 {
            return Err(InterfaceError::InvalidConfiguration {
                reason: "clock frequencies must be positive".into(),
            });
        }
        if !self.supports(EccScheme::Uncoded) {
            return Err(InterfaceError::InvalidConfiguration {
                reason: format!(
                    "the optical channel ({} Gb/s) cannot sustain the IP payload rate ({} Gb/s)",
                    self.channel_bandwidth().value(),
                    self.payload_bandwidth().value()
                ),
            });
        }
        Ok(())
    }
}

impl Default for InterfaceConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_supports_all_paper_schemes() {
        let config = InterfaceConfig::paper_default();
        config.validate().unwrap();
        for scheme in EccScheme::paper_schemes() {
            assert!(config.supports(scheme), "{scheme}");
        }
    }

    #[test]
    fn bandwidths() {
        let config = InterfaceConfig::paper_default();
        assert!((config.channel_bandwidth().value() - 160.0).abs() < 1e-9);
        assert!((config.payload_bandwidth().value() - 64.0).abs() < 1e-9);
        assert_eq!(config.encoded_bits(EccScheme::Hamming74), 112);
    }

    #[test]
    fn narrow_channel_rejects_heavy_codes() {
        let config = InterfaceConfig {
            wavelength_lanes: 7,
            ..InterfaceConfig::paper_default()
        };
        // 7 lanes × 10 Gb/s = 70 Gb/s: enough for uncoded (64) and H(71,64)
        // (71) but not for H(7,4) (112).
        assert!(config.supports(EccScheme::Uncoded));
        assert!(!config.supports(EccScheme::Hamming74));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut config = InterfaceConfig::paper_default();
        config.word_bits = 0;
        assert!(config.validate().is_err());

        let mut config = InterfaceConfig::paper_default();
        config.wavelength_lanes = 0;
        assert!(config.validate().is_err());

        let mut config = InterfaceConfig::paper_default();
        config.modulation_rate = GigabitsPerSecond::new(0.1);
        assert!(matches!(
            config.validate(),
            Err(InterfaceError::InvalidConfiguration { .. })
        ));
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let err = InterfaceError::from(onoc_ecc_codes::CodeError::WrongMessageLength {
            expected: 4,
            actual: 5,
        });
        assert!(err.to_string().contains("codec error"));
        assert!(err.source().is_some());
        let err = InterfaceError::WrongStreamLength {
            expected: 112,
            actual: 64,
        };
        assert!(err.to_string().contains("112"));
    }
}
