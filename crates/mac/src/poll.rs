//! Round-robin polling MAC.
//!
//! The reader cycles through its node list, sending a `Query` to each and
//! waiting one round-trip-plus-reply window for the backscattered answer.
//! Missing answers are retried up to a limit before moving on; per-node
//! delivery statistics accumulate for the operator.

use std::collections::HashMap;
use vab_link::frame::Frame;

/// Per-node delivery statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// Queries sent.
    pub queries: u64,
    /// Replies received.
    pub replies: u64,
    /// Consecutive misses right now.
    pub consecutive_misses: u32,
}

/// Reader-side polling state machine.
#[derive(Debug, Clone)]
pub struct PollingMac {
    reader_addr: u8,
    nodes: Vec<u8>,
    next_idx: usize,
    outstanding: Option<u8>,
    retries_left: u32,
    max_retries: u32,
    stats: HashMap<u8, NodeStats>,
}

impl PollingMac {
    /// Creates a polling MAC over a known node list.
    pub fn new(reader_addr: u8, nodes: Vec<u8>, max_retries: u32) -> Self {
        assert!(!nodes.is_empty(), "need at least one node to poll");
        let stats = nodes.iter().map(|&a| (a, NodeStats::default())).collect();
        Self {
            reader_addr,
            nodes,
            next_idx: 0,
            outstanding: None,
            retries_left: max_retries,
            max_retries,
            stats,
        }
    }

    /// The node currently being queried, if any.
    pub fn outstanding(&self) -> Option<u8> {
        self.outstanding
    }

    /// Produces the next downlink query frame. Call when idle or after a
    /// reply/timeout resolved the previous query.
    pub fn next_query(&mut self) -> Frame {
        let target = match self.outstanding {
            Some(addr) => addr, // retry
            None => {
                let addr = self.nodes[self.next_idx];
                self.next_idx = (self.next_idx + 1) % self.nodes.len();
                self.outstanding = Some(addr);
                self.retries_left = self.max_retries;
                addr
            }
        };
        let entry = self.stats.entry(target).or_default();
        entry.queries += 1;
        Frame::new(target, self.reader_addr, 0, vec![0x01]) // Command::Query
    }

    /// Reports a successful uplink reception from `src`.
    pub fn on_reply(&mut self, src: u8) {
        if self.outstanding == Some(src) {
            self.outstanding = None;
        }
        let entry = self.stats.entry(src).or_default();
        entry.replies += 1;
        entry.consecutive_misses = 0;
    }

    /// Reports a reply-window timeout. Returns `true` when the query will
    /// be retried, `false` when the MAC gives up and moves on.
    pub fn on_timeout(&mut self) -> bool {
        let Some(addr) = self.outstanding else {
            return false;
        };
        let entry = self.stats.entry(addr).or_default();
        entry.consecutive_misses += 1;
        if self.retries_left > 0 {
            self.retries_left -= 1;
            true
        } else {
            self.outstanding = None;
            false
        }
    }

    /// Statistics for one node.
    pub fn stats(&self, addr: u8) -> NodeStats {
        self.stats.get(&addr).copied().unwrap_or_default()
    }

    /// Aggregate delivery ratio across all nodes.
    pub fn total_delivery_ratio(&self) -> f64 {
        let (q, r) =
            self.stats.values().fold((0u64, 0u64), |(q, r), s| (q + s.queries, r + s.replies));
        if q == 0 {
            1.0
        } else {
            r as f64 / q as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_order() {
        let mut mac = PollingMac::new(0, vec![1, 2, 3], 0);
        let a = mac.next_query();
        assert_eq!(a.dest, 1);
        mac.on_reply(1);
        let b = mac.next_query();
        assert_eq!(b.dest, 2);
        mac.on_reply(2);
        let c = mac.next_query();
        assert_eq!(c.dest, 3);
        mac.on_reply(3);
        assert_eq!(mac.next_query().dest, 1, "wraps around");
    }

    #[test]
    fn retries_then_gives_up() {
        let mut mac = PollingMac::new(0, vec![9], 2);
        assert_eq!(mac.next_query().dest, 9);
        assert!(mac.on_timeout()); // retry 1
        mac.next_query();
        assert!(mac.on_timeout()); // retry 2
        mac.next_query();
        assert!(!mac.on_timeout()); // give up
        assert_eq!(mac.outstanding(), None);
        assert_eq!(mac.stats(9).queries, 3);
        assert_eq!(mac.stats(9).consecutive_misses, 3);
    }

    #[test]
    fn reply_resets_miss_counter() {
        let mut mac = PollingMac::new(0, vec![5], 3);
        mac.next_query();
        mac.on_timeout();
        mac.next_query();
        mac.on_reply(5);
        assert_eq!(mac.stats(5).consecutive_misses, 0);
        assert_eq!(mac.stats(5).replies, 1);
    }

    #[test]
    fn delivery_ratios() {
        let mut mac = PollingMac::new(0, vec![1, 2], 0);
        mac.next_query();
        mac.on_reply(1);
        mac.next_query();
        mac.on_timeout();
        assert_eq!((mac.stats(1).queries, mac.stats(1).replies), (1, 1));
        assert_eq!(mac.stats(2).replies, 0);
        assert!((mac.total_delivery_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn query_frame_is_a_query_command() {
        let mut mac = PollingMac::new(0x10, vec![1], 0);
        let f = mac.next_query();
        assert_eq!(f.src, 0x10);
        assert_eq!(f.payload, vec![0x01]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_node_list_rejected() {
        let _ = PollingMac::new(0, vec![], 1);
    }
}
