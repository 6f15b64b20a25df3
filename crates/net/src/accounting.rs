//! Message and byte accounting for the scheduling-overhead table.
//!
//! Every control message a scheduler sends (operation metadata, piggybacked
//! load reports, progress hints) is charged here, so Table 3 of the
//! evaluation can report bytes-per-op and messages-per-request for each
//! policy.

use serde::{Deserialize, Serialize};

/// Categories of simulated traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// The key-value operation itself (key + framing).
    OpRequest,
    /// The value returned to the coordinator.
    OpResponse,
    /// Extra scheduling metadata attached to a request (priority tags etc.).
    SchedulingMetadata,
    /// Piggybacked server state (queue depth, rate estimate) on responses.
    PiggybackReport,
    /// Standalone progress-hint messages between coordinator and servers.
    ProgressHint,
}

impl TrafficClass {
    /// All classes, in reporting order.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::OpRequest,
        TrafficClass::OpResponse,
        TrafficClass::SchedulingMetadata,
        TrafficClass::PiggybackReport,
        TrafficClass::ProgressHint,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::OpRequest => "op request",
            TrafficClass::OpResponse => "op response",
            TrafficClass::SchedulingMetadata => "sched metadata",
            TrafficClass::PiggybackReport => "piggyback report",
            TrafficClass::ProgressHint => "progress hint",
        }
    }

    fn index(self) -> usize {
        match self {
            TrafficClass::OpRequest => 0,
            TrafficClass::OpResponse => 1,
            TrafficClass::SchedulingMetadata => 2,
            TrafficClass::PiggybackReport => 3,
            TrafficClass::ProgressHint => 4,
        }
    }
}

/// Wire-size constants for scheduling metadata, mirroring a compact binary
/// encoding a real implementation would use.
pub mod wire {
    /// Fixed framing per message (headers, ids).
    pub const MSG_HEADER_BYTES: u64 = 24;
    /// A piggybacked server report: queue depth (4) + rate estimate (4).
    pub const PIGGYBACK_BYTES: u64 = 8;
    /// A progress hint: request id (8) + new remaining estimate (4).
    pub const HINT_BYTES: u64 = 12;
}

/// Counters of messages and bytes per [`TrafficClass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficAccounting {
    messages: [u64; 5],
    bytes: [u64; 5],
}

impl TrafficAccounting {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one message of `bytes` in `class`.
    pub fn charge(&mut self, class: TrafficClass, bytes: u64) {
        let i = class.index();
        self.messages[i] += 1;
        self.bytes[i] += bytes;
    }

    /// Charges bytes without a message boundary (piggybacked payloads ride
    /// on an existing message).
    pub fn charge_bytes(&mut self, class: TrafficClass, bytes: u64) {
        self.bytes[class.index()] += bytes;
    }

    /// Message count for `class`.
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.messages[class.index()]
    }

    /// Byte count for `class`.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total messages across all classes.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Bytes of pure scheduling overhead (everything except the op request
    /// and response payloads).
    pub fn overhead_bytes(&self) -> u64 {
        self.bytes(TrafficClass::SchedulingMetadata)
            + self.bytes(TrafficClass::PiggybackReport)
            + self.bytes(TrafficClass::ProgressHint)
    }

    /// Merges another accounting into this one.
    pub fn merge(&mut self, other: &TrafficAccounting) {
        for i in 0..5 {
            self.messages[i] += other.messages[i];
            self.bytes[i] += other.bytes[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut a = TrafficAccounting::new();
        a.charge(TrafficClass::OpRequest, 100);
        a.charge(TrafficClass::OpRequest, 50);
        a.charge_bytes(TrafficClass::PiggybackReport, 8);
        assert_eq!(a.messages(TrafficClass::OpRequest), 2);
        assert_eq!(a.bytes(TrafficClass::OpRequest), 150);
        assert_eq!(a.messages(TrafficClass::PiggybackReport), 0);
        assert_eq!(a.bytes(TrafficClass::PiggybackReport), 8);
        assert_eq!(a.total_bytes(), 158);
        assert_eq!(a.total_messages(), 2);
    }

    #[test]
    fn overhead_excludes_payload() {
        let mut a = TrafficAccounting::new();
        a.charge(TrafficClass::OpRequest, 1000);
        a.charge(TrafficClass::OpResponse, 4000);
        a.charge_bytes(TrafficClass::SchedulingMetadata, 22);
        a.charge(TrafficClass::ProgressHint, 36);
        assert_eq!(a.overhead_bytes(), 58);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = TrafficAccounting::new();
        let mut b = TrafficAccounting::new();
        a.charge(TrafficClass::OpRequest, 10);
        b.charge(TrafficClass::OpRequest, 5);
        b.charge(TrafficClass::ProgressHint, 12);
        a.merge(&b);
        assert_eq!(a.bytes(TrafficClass::OpRequest), 15);
        assert_eq!(a.messages(TrafficClass::OpRequest), 2);
        assert_eq!(a.messages(TrafficClass::ProgressHint), 1);
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<&str> =
            TrafficClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), TrafficClass::ALL.len());
    }
}
