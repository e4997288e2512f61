//! Synthetic traffic generation.
//!
//! The paper motivates the trade-off with "real-time applications" that have
//! execution deadlines and "power hungry multimedia-like applications" that
//! can trade BER and latency for energy.  The generators here produce the
//! corresponding message mixes on standard NoC spatial patterns (uniform
//! random, hotspot, transpose, nearest neighbour) plus a bursty streaming
//! pattern.

use onoc_link::TrafficClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::packet::{Message, MessageId};
use crate::time::SimTime;

/// Spatial/temporal traffic patterns supported by the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Every node sends `messages_per_node` messages to uniformly random
    /// destinations.
    UniformRandom {
        /// Messages injected by each node.
        messages_per_node: u64,
    },
    /// Every node sends to a single hotspot destination.
    Hotspot {
        /// The hotspot node.
        destination: usize,
        /// Messages injected by each other node.
        messages_per_node: u64,
    },
    /// Node `i` sends to node `(i + count/2) mod count` (a transpose-like
    /// permutation that exercises every channel equally).
    Transpose {
        /// Messages injected by each node.
        messages_per_node: u64,
    },
    /// Node `i` sends to its ring neighbour `i + 1`.
    NearestNeighbor {
        /// Messages injected by each node.
        messages_per_node: u64,
    },
    /// A bursty producer/consumer stream from one node to another
    /// (multimedia-like): `bursts` bursts of `burst_messages` messages.
    Streaming {
        /// Producer node.
        source: usize,
        /// Consumer node.
        destination: usize,
        /// Number of bursts.
        bursts: u64,
        /// Messages per burst.
        burst_messages: u64,
    },
}

/// Generates the message list for a simulation run.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    pattern: TrafficPattern,
    oni_count: usize,
    words_per_message: u64,
    class: TrafficClass,
    mean_inter_arrival: f64,
    deadline_slack: Option<f64>,
    rng: StdRng,
}

impl TrafficGenerator {
    /// Creates a generator.
    ///
    /// * `mean_inter_arrival` — mean time between injections at each source,
    ///   in nanoseconds (exponentially distributed).
    /// * `deadline_slack` — when set, every message gets a deadline this many
    ///   nanoseconds after its injection.
    ///
    /// # Panics
    ///
    /// Panics if `oni_count < 2`, `words_per_message == 0`, or
    /// `mean_inter_arrival` is not positive and finite (a zero, negative or
    /// non-finite mean would produce degenerate or unsorted injection
    /// times).  The simulation entry points reject these as
    /// [`crate::SimulationError::InvalidConfiguration`] before reaching this
    /// constructor.
    #[must_use]
    pub fn new(
        pattern: TrafficPattern,
        oni_count: usize,
        words_per_message: u64,
        class: TrafficClass,
        mean_inter_arrival: f64,
        deadline_slack: Option<f64>,
        seed: u64,
    ) -> Self {
        assert!(oni_count >= 2, "traffic needs at least two ONIs");
        assert!(
            words_per_message > 0,
            "messages must carry at least one word"
        );
        assert!(
            mean_inter_arrival > 0.0 && mean_inter_arrival.is_finite(),
            "mean inter-arrival time must be positive and finite"
        );
        Self {
            pattern,
            oni_count,
            words_per_message,
            class,
            mean_inter_arrival,
            deadline_slack,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates the full message list, sorted by injection time.
    #[must_use]
    pub fn generate(mut self) -> Vec<Message> {
        let mut messages = Vec::new();
        let pairs: Vec<(usize, usize, u64)> = match self.pattern {
            TrafficPattern::UniformRandom { messages_per_node } => {
                let mut out = Vec::new();
                for source in 0..self.oni_count {
                    for _ in 0..messages_per_node {
                        let mut destination = self.rng.gen_range(0..self.oni_count - 1);
                        if destination >= source {
                            destination += 1;
                        }
                        out.push((source, destination, 1));
                    }
                }
                out
            }
            TrafficPattern::Hotspot {
                destination,
                messages_per_node,
            } => (0..self.oni_count)
                .filter(|&s| s != destination % self.oni_count)
                .flat_map(|s| {
                    std::iter::repeat_n(
                        (s, destination % self.oni_count, 1),
                        messages_per_node as usize,
                    )
                })
                .collect(),
            TrafficPattern::Transpose { messages_per_node } => (0..self.oni_count)
                .map(|s| (s, (s + self.oni_count / 2) % self.oni_count))
                .filter(|(s, d)| s != d)
                .flat_map(|(s, d)| std::iter::repeat_n((s, d, 1), messages_per_node as usize))
                .collect(),
            TrafficPattern::NearestNeighbor { messages_per_node } => (0..self.oni_count)
                .map(|s| (s, (s + 1) % self.oni_count))
                .flat_map(|(s, d)| std::iter::repeat_n((s, d, 1), messages_per_node as usize))
                .collect(),
            TrafficPattern::Streaming {
                source,
                destination,
                bursts,
                burst_messages,
            } => (0..bursts)
                .flat_map(|burst| {
                    std::iter::repeat_n(
                        (
                            source % self.oni_count,
                            destination % self.oni_count,
                            burst + 1,
                        ),
                        burst_messages as usize,
                    )
                })
                .collect(),
        };

        // Assign injection times: per-source exponential inter-arrival, with
        // streaming bursts grouped by their burst index.
        let mut next_time_per_source = vec![0.0f64; self.oni_count];
        for (index, (source, destination, burst_group)) in pairs.iter().enumerate() {
            let jitter: f64 = self.rng.gen_range(0.0..1.0);
            // The constructor guarantees a positive, finite mean.
            let inter = -self.mean_inter_arrival * (1.0 - jitter).ln();
            // Streaming bursts start at multiples of 10× the inter-arrival.
            let base = if matches!(self.pattern, TrafficPattern::Streaming { .. }) {
                (*burst_group - 1) as f64 * self.mean_inter_arrival * 10.0
            } else {
                0.0
            };
            next_time_per_source[*source] = (next_time_per_source[*source] + inter).max(base);
            let injected_at = SimTime::from_nanos(next_time_per_source[*source]);
            let deadline = self
                .deadline_slack
                .map(|slack| injected_at.advanced_by(onoc_units::Nanoseconds::new(slack)));
            messages.push(Message {
                id: MessageId(index as u64),
                source: *source,
                destination: *destination,
                words: self.words_per_message,
                class: self.class,
                injected_at,
                deadline,
            });
        }
        messages.sort_by_key(|m| (m.injected_at, m.id));
        messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(pattern: TrafficPattern, onis: usize) -> Vec<Message> {
        TrafficGenerator::new(pattern, onis, 4, TrafficClass::Bulk, 5.0, None, 42).generate()
    }

    #[test]
    fn uniform_random_never_sends_to_self_and_covers_all_sources() {
        let messages = generate(
            TrafficPattern::UniformRandom {
                messages_per_node: 10,
            },
            8,
        );
        assert_eq!(messages.len(), 80);
        assert!(messages.iter().all(|m| m.source != m.destination));
        for source in 0..8 {
            assert_eq!(messages.iter().filter(|m| m.source == source).count(), 10);
        }
    }

    #[test]
    fn hotspot_targets_a_single_destination() {
        let messages = generate(
            TrafficPattern::Hotspot {
                destination: 2,
                messages_per_node: 5,
            },
            6,
        );
        assert_eq!(messages.len(), 25);
        assert!(messages.iter().all(|m| m.destination == 2));
        assert!(messages.iter().all(|m| m.source != 2));
    }

    #[test]
    fn transpose_is_a_permutation() {
        let messages = generate(
            TrafficPattern::Transpose {
                messages_per_node: 1,
            },
            8,
        );
        assert_eq!(messages.len(), 8);
        let mut destinations: Vec<usize> = messages.iter().map(|m| m.destination).collect();
        destinations.sort_unstable();
        destinations.dedup();
        assert_eq!(destinations.len(), 8);
    }

    #[test]
    fn nearest_neighbor_wraps_around() {
        let messages = generate(
            TrafficPattern::NearestNeighbor {
                messages_per_node: 1,
            },
            4,
        );
        assert!(messages.iter().any(|m| m.source == 3 && m.destination == 0));
    }

    #[test]
    fn streaming_is_point_to_point_and_bursty() {
        let messages = generate(
            TrafficPattern::Streaming {
                source: 1,
                destination: 5,
                bursts: 3,
                burst_messages: 4,
            },
            8,
        );
        assert_eq!(messages.len(), 12);
        assert!(messages.iter().all(|m| m.source == 1 && m.destination == 5));
        // Later bursts start strictly later than the first burst.
        let first = messages.first().unwrap().injected_at;
        let last = messages.last().unwrap().injected_at;
        assert!(last > first);
    }

    #[test]
    fn injection_times_are_sorted_and_deadlines_applied() {
        let messages = TrafficGenerator::new(
            TrafficPattern::UniformRandom {
                messages_per_node: 5,
            },
            4,
            2,
            TrafficClass::RealTime,
            3.0,
            Some(50.0),
            1,
        )
        .generate();
        for pair in messages.windows(2) {
            assert!(pair[0].injected_at <= pair[1].injected_at);
        }
        for m in &messages {
            let deadline = m.deadline.expect("deadline requested");
            assert!((deadline.since(m.injected_at).value() - 50.0).abs() < 1e-9);
        }
    }

    #[test]
    fn generation_is_reproducible_for_a_fixed_seed() {
        let a = generate(
            TrafficPattern::UniformRandom {
                messages_per_node: 7,
            },
            6,
        );
        let b = generate(
            TrafficPattern::UniformRandom {
                messages_per_node: 7,
            },
            6,
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_inter_arrival_panics() {
        let _ = TrafficGenerator::new(
            TrafficPattern::UniformRandom {
                messages_per_node: 1,
            },
            4,
            1,
            TrafficClass::Bulk,
            0.0,
            None,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "at least two ONIs")]
    fn single_node_traffic_panics() {
        let _ = TrafficGenerator::new(
            TrafficPattern::UniformRandom {
                messages_per_node: 1,
            },
            1,
            1,
            TrafficClass::Bulk,
            1.0,
            None,
            0,
        );
    }
}
