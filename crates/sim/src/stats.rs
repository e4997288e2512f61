//! Run statistics collected by the simulator.

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimStats {
    /// Messages injected by the traffic generator.
    pub injected_messages: u64,
    /// Messages delivered to their destination.
    pub delivered_messages: u64,
    /// Link hops traversed by delivered traffic.  Equals
    /// [`SimStats::delivered_messages`] on a single-hop fabric (the default
    /// all-to-all ring); multi-hop topologies count every photonic or
    /// electrical hop a message completes.
    pub hops_traversed: u64,
    /// Payload bits delivered.
    pub delivered_bits: u64,
    /// Payload bits that arrived flipped after decoding.  Every corrupted
    /// word contributes at least one bit, with the count sampled from the
    /// conditional (given ≥ 1 error) bit-error distribution of the
    /// operating point's decoded BER.
    pub corrupted_bits: u64,
    /// Words delivered with at least one residual (post-decoding) error.
    pub corrupted_words: u64,
    /// Words in which the decoder corrected at least one channel error.
    pub corrected_words: u64,
    /// Messages that missed their deadline.
    pub deadline_misses: u64,
    /// Sum of message latencies in nanoseconds (injection → delivery).
    pub total_latency_ns: f64,
    /// Worst observed message latency in nanoseconds.
    pub max_latency_ns: f64,
    /// Sum of per-message channel occupancy in nanoseconds.
    pub channel_busy_ns: f64,
    /// Total electrical energy in picojoules: static (laser + ring heater)
    /// power over each channel's wall-clock decision residency, plus dynamic
    /// (modulation + codec) power over the transfer occupancy.
    pub energy_pj: f64,
    /// The static share of [`SimStats::energy_pj`]: laser and thermal-tuning
    /// power burned over wall-clock time, whether or not a word is in
    /// flight.
    pub static_energy_pj: f64,
    /// End of the simulation in nanoseconds.
    pub makespan_ns: f64,
}

impl SimStats {
    /// Mean message latency in nanoseconds.
    #[must_use]
    pub fn mean_latency_ns(&self) -> f64 {
        if self.delivered_messages == 0 {
            0.0
        } else {
            self.total_latency_ns / self.delivered_messages as f64
        }
    }

    /// Delivered payload throughput in Gb/s over the makespan.
    #[must_use]
    pub fn throughput_gbps(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            0.0
        } else {
            self.delivered_bits as f64 / self.makespan_ns
        }
    }

    /// Observed residual bit-error rate.
    #[must_use]
    pub fn observed_ber(&self) -> f64 {
        if self.delivered_bits == 0 {
            0.0
        } else {
            self.corrupted_bits as f64 / self.delivered_bits as f64
        }
    }

    /// Observed residual word-error rate.
    #[must_use]
    pub fn observed_word_error_rate(&self) -> f64 {
        let words = self.delivered_bits / 64;
        if words == 0 {
            0.0
        } else {
            self.corrupted_words as f64 / words as f64
        }
    }

    /// Energy per delivered payload bit, in pJ/bit.
    #[must_use]
    pub fn energy_per_bit_pj(&self) -> f64 {
        if self.delivered_bits == 0 {
            0.0
        } else {
            self.energy_pj / self.delivered_bits as f64
        }
    }

    /// Fraction of delivered messages that missed their deadline.
    #[must_use]
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.delivered_messages == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.delivered_messages as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SimStats {
        SimStats {
            injected_messages: 10,
            delivered_messages: 10,
            hops_traversed: 10,
            delivered_bits: 10_240,
            corrupted_bits: 3,
            corrupted_words: 2,
            corrected_words: 5,
            deadline_misses: 1,
            total_latency_ns: 500.0,
            max_latency_ns: 120.0,
            channel_busy_ns: 400.0,
            energy_pj: 40_000.0,
            static_energy_pj: 30_000.0,
            makespan_ns: 1000.0,
        }
    }

    #[test]
    fn derived_metrics() {
        let s = stats();
        assert!((s.mean_latency_ns() - 50.0).abs() < 1e-12);
        assert!((s.throughput_gbps() - 10.24).abs() < 1e-9);
        assert!((s.observed_ber() - 3.0 / 10_240.0).abs() < 1e-12);
        assert!((s.observed_word_error_rate() - 2.0 / 160.0).abs() < 1e-12);
        assert!((s.energy_per_bit_pj() - 3.90625).abs() < 1e-9);
        assert!((s.deadline_miss_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_run_yields_zeroes() {
        let s = SimStats::default();
        assert_eq!(s.mean_latency_ns(), 0.0);
        assert_eq!(s.throughput_gbps(), 0.0);
        assert_eq!(s.observed_ber(), 0.0);
        assert_eq!(s.observed_word_error_rate(), 0.0);
        assert_eq!(s.energy_per_bit_pj(), 0.0);
        assert_eq!(s.deadline_miss_rate(), 0.0);
    }
}
