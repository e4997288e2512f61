//! The WDM wavelength comb shared by the lasers, modulators and drop filters.

use onoc_units::Nanometers;

/// An evenly-spaced grid of N_W signal wavelengths λ₀ … λ_{N_W−1}.
///
/// ```
/// use onoc_photonics::spectrum::WavelengthGrid;
/// use onoc_units::Nanometers;
///
/// let grid = WavelengthGrid::paper_grid(16);
/// assert_eq!(grid.count(), 16);
/// let spacing = grid.wavelength(1).value() - grid.wavelength(0).value();
/// assert!((spacing - 0.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WavelengthGrid {
    first: Nanometers,
    spacing: Nanometers,
    count: usize,
}

impl WavelengthGrid {
    /// Creates a grid of `count` wavelengths starting at `first` with a
    /// constant `spacing`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `spacing` is zero for more than one
    /// wavelength.
    #[must_use]
    pub fn new(first: Nanometers, spacing: Nanometers, count: usize) -> Self {
        assert!(count > 0, "a wavelength grid needs at least one channel");
        assert!(
            count == 1 || spacing.value() > 0.0,
            "spacing must be positive for multi-wavelength grids"
        );
        Self {
            first,
            spacing,
            count,
        }
    }

    /// The grid used for the paper configuration: `count` channels on a
    /// 100 GHz (0.8 nm) spacing starting near 1550 nm, matching the MR
    /// spectra shown in Fig. 3.
    #[must_use]
    pub fn paper_grid(count: usize) -> Self {
        Self::new(Nanometers::new(1550.0), Nanometers::new(0.8), count)
    }

    /// Number of wavelengths.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Channel spacing.
    #[must_use]
    pub fn spacing(&self) -> Nanometers {
        self.spacing
    }

    /// Wavelength of channel `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= count()`.
    #[must_use]
    pub fn wavelength(&self, index: usize) -> Nanometers {
        assert!(index < self.count, "wavelength index {index} out of range");
        Nanometers::new(self.first.value() + self.spacing.value() * index as f64)
    }

    /// Iterator over all channel wavelengths.
    pub fn iter(&self) -> impl Iterator<Item = Nanometers> + '_ {
        (0..self.count).map(move |i| self.wavelength(i))
    }

    /// Indices of all channels other than `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= count()`.
    #[must_use]
    pub fn other_channels(&self, index: usize) -> Vec<usize> {
        assert!(index < self.count, "wavelength index {index} out of range");
        (0..self.count).filter(|&i| i != index).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_generates_evenly_spaced_channels() {
        let grid = WavelengthGrid::paper_grid(16);
        let all: Vec<_> = grid.iter().collect();
        assert_eq!(all.len(), 16);
        for pair in all.windows(2) {
            assert!((pair[1].value() - pair[0].value() - 0.8).abs() < 1e-9);
        }
    }

    #[test]
    fn single_channel_grid_is_allowed() {
        let grid = WavelengthGrid::new(Nanometers::new(1310.0), Nanometers::zero(), 1);
        assert_eq!(grid.count(), 1);
        assert_eq!(grid.other_channels(0).len(), 0);
    }

    #[test]
    fn other_channels_excludes_self() {
        let grid = WavelengthGrid::paper_grid(4);
        assert_eq!(grid.other_channels(2), vec![0, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let _ = WavelengthGrid::paper_grid(4).wavelength(4);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = WavelengthGrid::new(Nanometers::new(1550.0), Nanometers::new(0.8), 0);
    }
}
