//! Messages exchanged by the ONIs.

use onoc_link::TrafficClass;

use crate::time::SimTime;

/// Unique message identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub u64);

impl std::fmt::Display for MessageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "msg#{}", self.0)
    }
}

/// One message (a burst of 64-bit words) travelling from a source ONI to a
/// destination ONI over the destination's MWSR channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Message {
    /// Unique identifier.
    pub id: MessageId,
    /// Source ONI index.
    pub source: usize,
    /// Destination ONI index.
    pub destination: usize,
    /// Number of 64-bit payload words.
    pub words: u64,
    /// Traffic class, used by the link manager to pick the scheme.
    pub class: TrafficClass,
    /// Time at which the message was created at the source.
    pub injected_at: SimTime,
    /// Optional absolute deadline for real-time traffic.
    pub deadline: Option<SimTime>,
}

impl Message {
    /// Payload size in bits.
    #[must_use]
    pub fn payload_bits(&self) -> u64 {
        self.words * 64
    }

    /// Returns `true` when delivering at `time` violates the deadline.
    #[must_use]
    pub fn misses_deadline(&self, time: SimTime) -> bool {
        self.deadline.is_some_and(|d| time > d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(deadline: Option<SimTime>) -> Message {
        Message {
            id: MessageId(1),
            source: 0,
            destination: 3,
            words: 16,
            class: TrafficClass::RealTime,
            injected_at: SimTime::ZERO,
            deadline,
        }
    }

    #[test]
    fn payload_bits() {
        assert_eq!(message(None).payload_bits(), 1024);
    }

    #[test]
    fn deadline_check() {
        let m = message(Some(SimTime::from_nanos(100.0)));
        assert!(!m.misses_deadline(SimTime::from_nanos(99.0)));
        assert!(!m.misses_deadline(SimTime::from_nanos(100.0)));
        assert!(m.misses_deadline(SimTime::from_nanos(100.001)));
        assert!(!message(None).misses_deadline(SimTime::from_nanos(1e6)));
    }

    #[test]
    fn id_display() {
        assert_eq!(MessageId(42).to_string(), "msg#42");
    }
}
