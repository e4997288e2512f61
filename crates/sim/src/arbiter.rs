//! MWSR channel arbitration.
//!
//! In an MWSR interconnect every destination owns one channel and the writers
//! contend for it.  The simulator uses a token-style round-robin arbiter (the
//! common choice for MWSR rings such as Corona, ref. \[2\] of the paper): the
//! grant rotates among requesting writers, and a writer holds the channel for
//! the duration of one message.

use std::collections::VecDeque;

use crate::packet::MessageId;

/// Round-robin arbiter for one MWSR channel.
#[derive(Debug, Clone, Default)]
pub struct TokenArbiter {
    /// Writers currently waiting, in arrival order per writer.
    queue: VecDeque<(usize, MessageId)>,
    /// The writer currently holding the channel, if any.
    granted: Option<(usize, MessageId)>,
    /// Number of grants issued, for fairness accounting.
    grants: u64,
}

impl TokenArbiter {
    /// Creates an idle arbiter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a request from `writer` for `message`.
    pub fn request(&mut self, writer: usize, message: MessageId) {
        self.queue.push_back((writer, message));
    }

    /// Returns the holder of the channel, granting the next waiting request
    /// if the channel is idle.
    pub fn grant(&mut self) -> Option<(usize, MessageId)> {
        if self.granted.is_none() {
            if let Some(next) = self.queue.pop_front() {
                self.granted = Some(next);
                self.grants += 1;
            }
        }
        self.granted
    }

    /// Releases the channel after the granted message finished transmitting.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not currently granted to `message`.
    pub fn release(&mut self, message: MessageId) {
        match self.granted {
            Some((_, granted)) if granted == message => self.granted = None,
            _ => panic!("release of {message} but the channel is not granted to it"),
        }
    }

    /// `true` when no request is waiting and the channel is idle.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.granted.is_none() && self.queue.is_empty()
    }

    /// Number of requests currently waiting.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of grants issued so far.
    #[must_use]
    pub fn grants_issued(&self) -> u64 {
        self.grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_in_arrival_order() {
        let mut arb = TokenArbiter::new();
        arb.request(3, MessageId(10));
        arb.request(5, MessageId(11));
        assert_eq!(arb.grant(), Some((3, MessageId(10))));
        // The channel is busy: the second request keeps waiting.
        assert_eq!(arb.grant(), Some((3, MessageId(10))));
        arb.release(MessageId(10));
        assert_eq!(arb.grant(), Some((5, MessageId(11))));
        arb.release(MessageId(11));
        assert!(arb.is_idle());
        assert_eq!(arb.grants_issued(), 2);
    }

    #[test]
    fn idle_arbiter_grants_nothing() {
        let mut arb = TokenArbiter::new();
        assert_eq!(arb.grant(), None);
        assert!(arb.is_idle());
        assert_eq!(arb.pending(), 0);
    }

    #[test]
    fn pending_counts_waiting_requests() {
        let mut arb = TokenArbiter::new();
        for i in 0..4 {
            arb.request(i, MessageId(i as u64));
        }
        assert_eq!(arb.pending(), 4);
        arb.grant();
        assert_eq!(arb.pending(), 3);
    }

    #[test]
    #[should_panic(expected = "not granted")]
    fn releasing_the_wrong_message_panics() {
        let mut arb = TokenArbiter::new();
        arb.request(0, MessageId(1));
        arb.grant();
        arb.release(MessageId(2));
    }

    #[test]
    fn fairness_every_writer_is_served() {
        let mut arb = TokenArbiter::new();
        for round in 0..3u64 {
            for writer in 0..4usize {
                arb.request(writer, MessageId(round * 4 + writer as u64));
            }
        }
        let mut served = Vec::new();
        while let Some((writer, id)) = arb.grant() {
            served.push(writer);
            arb.release(id);
        }
        assert_eq!(served.len(), 12);
        for writer in 0..4 {
            assert_eq!(served.iter().filter(|&&w| w == writer).count(), 3);
        }
    }
}
