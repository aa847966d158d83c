//! The transaction flight recorder: a structured per-transaction event
//! layer recorded beside (never inside) the deterministic trace.
//!
//! Every layer of the stack — session verbs, TMP state transitions, lock
//! queueing in the DISCPROCESS, audit forces, takeovers — reports typed
//! [`FlightCause`] events tagged with a transaction id, the virtual time,
//! and the reporting process. Events land in a bounded ring per node;
//! a post-run pass reconstructs per-transaction timelines, attributes
//! commit latency to components (lock wait vs. force vs. checkpoint vs.
//! bus), and exports JSON for offline analysis.
//!
//! The recorder is a pure side channel: it never touches the RNG, the
//! event queue, the metrics, or the trace hash, so enabling it cannot
//! perturb a run — `recorder on` and `recorder off` produce bit-identical
//! [`crate::World::trace_hash`] values (pinned by an equivalence test in
//! the chaos crate). It is off by default.

use crate::ids::Pid;
use crate::ring::push_bounded;
use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A transaction identity as the recorder sees it. The storage crate's
/// `Transid` cannot appear here (the sim crate sits below storage), so
/// this mirrors its fields; `Transid::flight_id()` converts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlightTransid {
    pub home_node: u8,
    pub cpu: u8,
    pub seq: u64,
}

impl fmt::Debug for FlightTransid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}.{}", self.home_node, self.cpu, self.seq)
    }
}

impl fmt::Display for FlightTransid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Why a flight event was recorded. Every variant is cheap to copy; the
/// numeric payloads carry counts (volumes in a phase, records in a
/// boxcar) rather than strings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlightCause {
    /// BEGIN-TRANSACTION assigned this transid (TMP).
    Begin,
    /// END-TRANSACTION arrived; commit processing starts (TMP).
    EndRequested,
    /// Phase one started against this many participants (TMP).
    Phase1Start { participants: u32 },
    /// One participant acknowledged phase one (TMP).
    Phase1VolumeDone,
    /// A lock request conflicted and queued (DISCPROCESS).
    LockQueued,
    /// A lock was granted — immediately or after a wait (DISCPROCESS).
    LockGranted,
    /// A lock wait hit its timeout; the requester is told to restart
    /// (DISCPROCESS).
    LockTimeout,
    /// A parked lock wait was cancelled because the transaction was
    /// fenced (DISCPROCESS).
    LockFenced,
    /// Audit images appended to the trail buffer (DISCPROCESS → AUDIT).
    AuditAppend { records: u32 },
    /// Every lazy audit append of the transaction has been acknowledged
    /// (DISCPROCESS).
    AppendsDrained,
    /// The AUDITPROCESS began forcing the trail for this transaction.
    AuditForceStart,
    /// The audit force completed; `boxcar` waiters shared it.
    AuditForced { boxcar: u32 },
    /// A partitioned trail force started carrying this transaction's
    /// images on `partition` (AUDITPROCESS).
    PartitionForceStart { partition: u32 },
    /// One partition of the trail acknowledged this transaction's
    /// phase-one force (AUDITPROCESS).
    PartitionForced { partition: u32 },
    /// The commit (Monitor Audit Trail) record was queued for the group
    /// commit boxcar (TMP).
    MonitorEnqueued,
    /// The monitor boxcar began its force (TMP).
    MonitorForceStart,
    /// The monitor force completed; `boxcar` commit records shared it —
    /// this is the commit point (TMP).
    MonitorForced { boxcar: u32 },
    /// Phase two finished; the transaction is durably committed (TMP).
    Committed,
    /// The transaction aborted (TMP).
    Aborted,
    /// Backout began applying before-images (TMP → BACKOUT).
    BackoutStart,
    /// Backout finished (TMP).
    BackoutDone,
    /// A process-pair takeover touched this in-flight transaction.
    Takeover,
    /// The application session observed BEGIN complete.
    SessionBegan,
    /// The application session observed the commit.
    SessionCommitted,
    /// The application session observed the abort.
    SessionAborted,
    /// An online dump of a volume began (DISCPROCESS); events of one dump
    /// share a synthetic marker transid.
    DumpBegin { generation: u64 },
    /// One fuzzy-dump page copied (DISCPROCESS).
    DumpScan { records: u32 },
    /// An online dump completed and its end marker was forced
    /// (DISCPROCESS).
    DumpEnd { generation: u64 },
    /// The capacity manager purged audit-trail files (AUDITPROCESS).
    TrailPurge { files: u32 },
}

impl FlightCause {
    /// Stable name for display and JSON export.
    pub fn name(&self) -> &'static str {
        match self {
            FlightCause::Begin => "begin",
            FlightCause::EndRequested => "end_requested",
            FlightCause::Phase1Start { .. } => "phase1_start",
            FlightCause::Phase1VolumeDone => "phase1_volume_done",
            FlightCause::LockQueued => "lock_queued",
            FlightCause::LockGranted => "lock_granted",
            FlightCause::LockTimeout => "lock_timeout",
            FlightCause::LockFenced => "lock_fenced",
            FlightCause::AuditAppend { .. } => "audit_append",
            FlightCause::AppendsDrained => "appends_drained",
            FlightCause::AuditForceStart => "audit_force_start",
            FlightCause::AuditForced { .. } => "audit_forced",
            FlightCause::PartitionForceStart { .. } => "partition_force_start",
            FlightCause::PartitionForced { .. } => "partition_forced",
            FlightCause::MonitorEnqueued => "monitor_enqueued",
            FlightCause::MonitorForceStart => "monitor_force_start",
            FlightCause::MonitorForced { .. } => "monitor_forced",
            FlightCause::Committed => "committed",
            FlightCause::Aborted => "aborted",
            FlightCause::BackoutStart => "backout_start",
            FlightCause::BackoutDone => "backout_done",
            FlightCause::Takeover => "takeover",
            FlightCause::SessionBegan => "session_began",
            FlightCause::SessionCommitted => "session_committed",
            FlightCause::SessionAborted => "session_aborted",
            FlightCause::DumpBegin { .. } => "dump_begin",
            FlightCause::DumpScan { .. } => "dump_scan",
            FlightCause::DumpEnd { .. } => "dump_end",
            FlightCause::TrailPurge { .. } => "trail_purge",
        }
    }

    /// The numeric payload, if the variant carries one.
    #[allow(
        clippy::wildcard_enum_match_arm,
        reason = "every variant with a numeric payload is listed; the rest carry none"
    )]
    pub fn arg(&self) -> Option<(&'static str, u64)> {
        match self {
            FlightCause::Phase1Start { participants } => {
                Some(("participants", u64::from(*participants)))
            }
            FlightCause::AuditAppend { records } => Some(("records", u64::from(*records))),
            FlightCause::AuditForced { boxcar } | FlightCause::MonitorForced { boxcar } => {
                Some(("boxcar", u64::from(*boxcar)))
            }
            FlightCause::PartitionForceStart { partition }
            | FlightCause::PartitionForced { partition } => {
                Some(("partition", u64::from(*partition)))
            }
            FlightCause::DumpBegin { generation } | FlightCause::DumpEnd { generation } => {
                Some(("generation", *generation))
            }
            FlightCause::DumpScan { records } => Some(("records", u64::from(*records))),
            FlightCause::TrailPurge { files } => Some(("files", u64::from(*files))),
            _ => None,
        }
    }

    /// Which commit-latency component a gap *ending* at this event is
    /// attributed to (see [`attribute_commit`]).
    #[allow(
        clippy::wildcard_enum_match_arm,
        reason = "Bus is the residual: a gap ending at any other event is message transit"
    )]
    pub fn component(&self) -> LatencyComponent {
        match self {
            FlightCause::LockQueued => LatencyComponent::Bus,
            FlightCause::LockGranted | FlightCause::LockTimeout | FlightCause::LockFenced => {
                LatencyComponent::LockWait
            }
            FlightCause::AppendsDrained | FlightCause::AuditAppend { .. } => {
                LatencyComponent::Checkpoint
            }
            FlightCause::AuditForced { .. }
            | FlightCause::PartitionForced { .. }
            | FlightCause::MonitorForceStart
            | FlightCause::MonitorForced { .. } => LatencyComponent::Force,
            _ => LatencyComponent::Bus,
        }
    }
}

/// Commit-latency attribution buckets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LatencyComponent {
    /// Waiting in a lock queue.
    LockWait,
    /// Disc forces of the audit trail (phase-one and monitor-record).
    Force,
    /// Waiting for checkpoints / lazy audit appends to drain.
    Checkpoint,
    /// Message travel and processing (everything else).
    Bus,
}

impl LatencyComponent {
    pub fn label(&self) -> &'static str {
        match self {
            LatencyComponent::LockWait => "lock_wait",
            LatencyComponent::Force => "force",
            LatencyComponent::Checkpoint => "checkpoint",
            LatencyComponent::Bus => "bus",
        }
    }
}

/// One recorded event.
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    pub at: SimTime,
    pub pid: Pid,
    pub transid: FlightTransid,
    pub cause: FlightCause,
}

/// One committed transaction's lifetime decomposed by component. The four
/// components partition the `Begin → Committed` window, so they sum
/// exactly to `total_us`; `commit_us` is the classical `EndRequested →
/// Committed` sub-window, kept separately so it can be cross-checked
/// against the TMP's own `tmf.commit_latency_us` histogram.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommitAttribution {
    /// Full window: the transaction's first recorded event (normally
    /// `Begin`) to its first `Committed`.
    pub total_us: u64,
    /// END-TRANSACTION to commit point: the commit latency proper.
    pub commit_us: u64,
    pub lock_wait_us: u64,
    pub force_us: u64,
    pub checkpoint_us: u64,
    pub bus_us: u64,
}

impl CommitAttribution {
    pub fn component_sum(&self) -> u64 {
        self.lock_wait_us + self.force_us + self.checkpoint_us + self.bus_us
    }
}

/// The per-world recorder: one bounded ring of events per node.
pub struct FlightRecorder {
    enabled: bool,
    capacity: usize,
    rings: BTreeMap<u8, VecDeque<FlightEvent>>,
    dropped: u64,
}

impl FlightRecorder {
    pub fn new(enabled: bool, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            enabled,
            capacity: capacity.max(1),
            rings: BTreeMap::new(),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Events evicted from full rings (diagnostic; timelines of long runs
    /// may be truncated at the front once this is non-zero).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Record one event (no-op while disabled).
    pub fn record(&mut self, at: SimTime, pid: Pid, transid: FlightTransid, cause: FlightCause) {
        if !self.enabled {
            return;
        }
        let ring = self.rings.entry(pid.node.0).or_default();
        let event = FlightEvent {
            at,
            pid,
            transid,
            cause,
        };
        if push_bounded(ring, self.capacity, event).is_some() {
            self.dropped += 1;
        }
    }

    /// Every retained event, ordered by time (ties broken by node, then
    /// ring order — each per-node ring is already time-ordered, so a
    /// stable sort on time alone is deterministic).
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut all: Vec<FlightEvent> = self.rings.values().flatten().copied().collect();
        all.sort_by_key(|e| e.at);
        all
    }

    /// Per-transaction timelines, each time-ordered.
    pub fn timelines(&self) -> BTreeMap<FlightTransid, Vec<FlightEvent>> {
        let mut out: BTreeMap<FlightTransid, Vec<FlightEvent>> = BTreeMap::new();
        for e in self.events() {
            out.entry(e.transid).or_default().push(e);
        }
        out
    }

    /// Human-readable timeline of one transaction (empty string if the
    /// recorder never saw it).
    pub fn format_timeline(&self, transid: FlightTransid) -> String {
        let Some(events) = self.timelines().remove(&transid) else {
            return String::new();
        };
        format_timeline(transid, &events)
    }

    /// JSON export of every timeline (hand-rolled; no serialization
    /// dependency in the workspace).
    pub fn to_json(&self) -> String {
        let timelines = self.timelines();
        let mut s = String::from("{\n  \"dropped\": ");
        s.push_str(&self.dropped.to_string());
        s.push_str(",\n  \"transactions\": [\n");
        let n = timelines.len();
        for (i, (transid, events)) in timelines.iter().enumerate() {
            s.push_str("    {\"transid\": \"");
            s.push_str(&transid.to_string());
            s.push_str("\", \"events\": [\n");
            for (j, e) in events.iter().enumerate() {
                s.push_str(&format!(
                    "      {{\"at_us\": {}, \"node\": {}, \"cpu\": {}, \"cause\": \"{}\"",
                    e.at.as_micros(),
                    e.pid.node.0,
                    e.pid.cpu.0,
                    e.cause.name()
                ));
                if let Some((k, v)) = e.cause.arg() {
                    s.push_str(&format!(", \"{k}\": {v}"));
                }
                s.push('}');
                s.push_str(if j + 1 < events.len() { ",\n" } else { "\n" });
            }
            s.push_str("    ]}");
            s.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Render one transaction's timeline as indented text.
pub fn format_timeline(transid: FlightTransid, events: &[FlightEvent]) -> String {
    let mut s = format!("  {transid}:\n");
    let t0 = events.first().map(|e| e.at).unwrap_or(SimTime::ZERO);
    for e in events {
        s.push_str(&format!(
            "    +{:>9}us  \\N{}.{}  {}",
            e.at.since(t0).as_micros(),
            e.pid.node.0,
            e.pid.cpu.0,
            e.cause.name()
        ));
        if let Some((k, v)) = e.cause.arg() {
            s.push_str(&format!(" ({k}={v})"));
        }
        s.push('\n');
    }
    s
}

/// Decompose one committed transaction's lifetime. The full window runs
/// from its first `Begin` (falling back to `EndRequested` if the ring
/// evicted the front) to the first `Committed` after its first
/// `EndRequested`; each adjacent-event gap is attributed to the component
/// of the gap's *ending* event. Gaps before `EndRequested` capture the
/// verbs — lock waits taken while the transaction was still issuing
/// updates land in `lock_wait_us`, which is where contention lives (locks
/// are acquired during the verbs, never between END and the commit
/// point). Returns `None` if the commit window is absent (uncommitted, or
/// the ring evicted it).
pub fn attribute_commit(events: &[FlightEvent]) -> Option<CommitAttribution> {
    let endreq = events
        .iter()
        .position(|e| e.cause == FlightCause::EndRequested)?;
    let end = events[endreq..]
        .iter()
        .position(|e| e.cause == FlightCause::Committed)?
        + endreq;
    let start = events[..endreq]
        .iter()
        .position(|e| e.cause == FlightCause::Begin)
        .unwrap_or(endreq);
    let mut a = CommitAttribution {
        total_us: events[end].at.since(events[start].at).as_micros(),
        commit_us: events[end].at.since(events[endreq].at).as_micros(),
        ..CommitAttribution::default()
    };
    for pair in events[start..=end].windows(2) {
        let gap = pair[1].at.since(pair[0].at).as_micros();
        match pair[1].cause.component() {
            LatencyComponent::LockWait => a.lock_wait_us += gap,
            LatencyComponent::Force => a.force_us += gap,
            LatencyComponent::Checkpoint => a.checkpoint_us += gap,
            LatencyComponent::Bus => a.bus_us += gap,
        }
    }
    Some(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CpuId, NodeId};
    use crate::time::SimDuration;

    fn pid(node: u8, cpu: u8) -> Pid {
        Pid {
            node: NodeId(node),
            cpu: CpuId(cpu),
            index: 0,
        }
    }

    fn tid(seq: u64) -> FlightTransid {
        FlightTransid {
            home_node: 0,
            cpu: 1,
            seq,
        }
    }

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn disabled_recorder_retains_nothing() {
        let mut fr = FlightRecorder::new(false, 16);
        fr.record(at(1), pid(0, 0), tid(1), FlightCause::Begin);
        assert!(fr.events().is_empty());
        assert!(fr.timelines().is_empty());
    }

    #[test]
    fn ring_is_bounded_per_node() {
        let mut fr = FlightRecorder::new(true, 4);
        for i in 0..10 {
            fr.record(at(i), pid(0, 0), tid(1), FlightCause::Begin);
        }
        assert_eq!(fr.events().len(), 4);
        assert_eq!(fr.dropped(), 6);
        // another node's ring is independent
        fr.record(at(100), pid(1, 0), tid(2), FlightCause::Begin);
        assert_eq!(fr.events().len(), 5);
    }

    #[test]
    fn timelines_merge_nodes_in_time_order() {
        let mut fr = FlightRecorder::new(true, 64);
        fr.record(at(10), pid(0, 1), tid(7), FlightCause::Begin);
        fr.record(at(30), pid(0, 1), tid(7), FlightCause::Committed);
        fr.record(at(20), pid(1, 2), tid(7), FlightCause::LockGranted);
        let tl = fr.timelines();
        let events = &tl[&tid(7)];
        let causes: Vec<&str> = events.iter().map(|e| e.cause.name()).collect();
        assert_eq!(causes, vec!["begin", "lock_granted", "committed"]);
    }

    #[test]
    fn attribution_partitions_the_commit_window() {
        let events = vec![
            FlightEvent {
                at: at(0),
                pid: pid(0, 1),
                transid: tid(1),
                cause: FlightCause::Begin,
            },
            FlightEvent {
                at: at(100),
                pid: pid(0, 1),
                transid: tid(1),
                cause: FlightCause::EndRequested,
            },
            FlightEvent {
                at: at(150),
                pid: pid(0, 1),
                transid: tid(1),
                cause: FlightCause::Phase1Start { participants: 1 },
            },
            FlightEvent {
                at: at(400),
                pid: pid(0, 2),
                transid: tid(1),
                cause: FlightCause::AuditForced { boxcar: 2 },
            },
            FlightEvent {
                at: at(450),
                pid: pid(0, 1),
                transid: tid(1),
                cause: FlightCause::Phase1VolumeDone,
            },
            FlightEvent {
                at: at(900),
                pid: pid(0, 1),
                transid: tid(1),
                cause: FlightCause::MonitorForced { boxcar: 1 },
            },
            FlightEvent {
                at: at(1000),
                pid: pid(0, 1),
                transid: tid(1),
                cause: FlightCause::Committed,
            },
        ];
        let a = attribute_commit(&events).expect("committed window present");
        assert_eq!(a.total_us, 1000, "full window starts at Begin");
        assert_eq!(a.commit_us, 900, "commit window starts at EndRequested");
        assert_eq!(
            a.component_sum(),
            a.total_us,
            "components partition the window"
        );
        assert_eq!(a.force_us, 250 + 450);
        assert_eq!(a.bus_us, 100 + 50 + 50 + 100);
        assert_eq!(a.lock_wait_us, 0);
    }

    #[test]
    fn attribution_counts_pre_end_lock_waits() {
        // contention shows up during the verbs, before END-TRANSACTION:
        // the full window must attribute it to lock_wait while the commit
        // sub-window stays the classical END → commit latency
        let mk = |us, cause| FlightEvent {
            at: at(us),
            pid: pid(0, 1),
            transid: tid(2),
            cause,
        };
        let events = vec![
            mk(0, FlightCause::Begin),
            mk(50, FlightCause::LockQueued),
            mk(400, FlightCause::LockGranted),
            mk(500, FlightCause::EndRequested),
            mk(900, FlightCause::MonitorForced { boxcar: 1 }),
            mk(1000, FlightCause::Committed),
        ];
        let a = attribute_commit(&events).expect("committed window present");
        assert_eq!(a.total_us, 1000);
        assert_eq!(a.commit_us, 500);
        assert_eq!(a.lock_wait_us, 350);
        assert_eq!(a.force_us, 400);
        assert_eq!(a.bus_us, 50 + 100 + 100);
        assert_eq!(a.component_sum(), a.total_us);
    }

    #[test]
    fn attribution_without_begin_falls_back_to_commit_window() {
        // a ring that evicted the transaction's front truncates the full
        // window to the commit window instead of mis-measuring
        let mk = |us, cause| FlightEvent {
            at: at(us),
            pid: pid(0, 1),
            transid: tid(3),
            cause,
        };
        let events = vec![
            mk(500, FlightCause::EndRequested),
            mk(1000, FlightCause::Committed),
        ];
        let a = attribute_commit(&events).expect("committed window present");
        assert_eq!(a.total_us, 500);
        assert_eq!(a.commit_us, 500);
    }

    #[test]
    fn attribution_absent_without_commit() {
        let events = vec![FlightEvent {
            at: at(0),
            pid: pid(0, 1),
            transid: tid(1),
            cause: FlightCause::EndRequested,
        }];
        assert!(attribute_commit(&events).is_none());
    }

    #[test]
    fn json_export_shape() {
        let mut fr = FlightRecorder::new(true, 16);
        fr.record(at(5), pid(0, 1), tid(3), FlightCause::Begin);
        fr.record(
            at(9),
            pid(0, 1),
            tid(3),
            FlightCause::MonitorForced { boxcar: 4 },
        );
        let json = fr.to_json();
        assert!(json.contains("\"transid\": \"T0.1.3\""));
        assert!(json.contains("\"cause\": \"monitor_forced\", \"boxcar\": 4"));
        assert!(json.contains("\"at_us\": 5"));
    }
}
