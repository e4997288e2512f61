//! Wavelength multiplexer (MMI coupler) model.
//!
//! The paper combines the N_W un-modulated laser outputs onto the waveguide
//! with a multimode-interference (MMI) coupler (ref. [12]).  From the link
//! budget's point of view the device is a broadband insertion loss.

use onoc_units::{Decibels, LinearRatio};

/// An N-to-1 wavelength multiplexer with a flat insertion loss.
///
/// ```
/// use onoc_photonics::devices::Multiplexer;
/// let mux = Multiplexer::paper_mmi(16);
/// assert_eq!(mux.inputs(), 16);
/// assert!(mux.transmission().value() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Multiplexer {
    inputs: usize,
    insertion_loss: Decibels,
}

impl Multiplexer {
    /// Creates a multiplexer with `inputs` input ports and the given
    /// insertion loss.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is zero.
    #[must_use]
    pub fn new(inputs: usize, insertion_loss: Decibels) -> Self {
        assert!(inputs > 0, "a multiplexer needs at least one input");
        Self {
            inputs,
            insertion_loss,
        }
    }

    /// The MMI coupler assumed for the paper configuration: 1 dB insertion
    /// loss regardless of the port count.
    #[must_use]
    pub fn paper_mmi(inputs: usize) -> Self {
        Self::new(inputs, Decibels::new(1.0))
    }

    /// Number of input ports (one per wavelength).
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Insertion loss in dB.
    #[must_use]
    pub fn insertion_loss(&self) -> Decibels {
        self.insertion_loss
    }

    /// Power transmission factor from any input to the output.
    #[must_use]
    pub fn transmission(&self) -> LinearRatio {
        self.insertion_loss.to_attenuation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mmi_loss_is_one_db() {
        let mux = Multiplexer::paper_mmi(16);
        assert!((mux.insertion_loss().value() - 1.0).abs() < 1e-12);
        assert!((mux.transmission().value() - 0.794).abs() < 1e-3);
    }

    #[test]
    fn lossless_mux_passes_everything() {
        let mux = Multiplexer::new(4, Decibels::new(0.0));
        assert!((mux.transmission().value() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_inputs_rejected() {
        let _ = Multiplexer::new(0, Decibels::new(1.0));
    }
}
