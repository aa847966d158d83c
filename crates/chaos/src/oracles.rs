//! The oracle families that read process state: the **drained world**,
//! **bounded state** and the **timer census** (every tier's, on its final
//! read; the soak also bounds state at each epoch boundary, and the
//! census also runs at each fault instant of a sweep or shard run and at
//! each soak epoch boundary), the soak's **liveness** of its long-lived
//! clients and purge floors, the sharded bank's **suspense drain** and
//! the bank cluster's **exactly-once** (its TCPs against its history
//! file).
//!
//! Each is a pure function over observation structs so that unit tests
//! can feed synthetic stuck schedules (a transaction that never
//! resolves, a monitor boxcar that never flushes, a purge floor that
//! never advances, a timer chain that forks) and assert that each oracle
//! fires with a message naming the implicated transid or process. The
//! runners read the observations off the live TMP, AUDITPROCESS and
//! DISCPROCESS primaries (one `runner::Observation` of their
//! `state_report`s, DESIGN.md §D22), off the kernel's timer queue and off
//! stable storage (dump registries, archive keys), then hand them here.

use crate::runner::{Observation, TmpRead};
use encompass::workload::DebitTag;
use encompass_audit::auditprocess::AuditStateReport;
use encompass_audit::dump::ARCHIVE_RETAIN;
use encompass_sim::{NodeId, Pid};
use encompass_storage::discprocess::{
    DiscStateReport, SETTLED_FENCE_CAPACITY, UNDO_ENTRY_MAX_BYTES,
};
use guardian::{PairHandle, RPC_TAG_BASE};
use std::collections::BTreeMap;
use tmf::tmp::TmpStateReport;

/// One process's state, tagged with whose it is and when it was read
/// (soak epoch index; `usize::MAX` = the final post-heal read).
#[derive(Clone, Debug)]
pub struct StateObservation {
    /// Display name of the process read, e.g. `"$TMP@\\N0"` or
    /// `"$BANK1@\\N2"`.
    pub process: String,
    /// Soak epoch at whose boundary the read ran.
    pub epoch: usize,
    pub kind: StateKind,
}

/// The process's report.
#[derive(Clone, Debug)]
pub enum StateKind {
    Disc(DiscStateReport),
    Tmp(TmpStateReport),
    Audit(AuditStateReport),
    /// Count of `archive:<volume>:<gen>` keys present on stable storage
    /// for one volume.
    ArchiveKeys {
        volume: String,
        count: usize,
    },
}

/// Live transactions (holding locks, writing, or fenced and not yet
/// released) on one volume.
const LIVE_TXNS: usize = 256;
/// Counted-but-uncompleted lock waits on one volume.
const COUNTED_WAITS: usize = 512;
/// Transaction-table entries at one TMP.
const TMP_TXNS: usize = 256;
/// Records buffered at one AUDITPROCESS awaiting a force.
const AUDIT_BUFFERED: usize = 4096;
/// Remembered replies at one DISCPROCESS, TMP and AUDITPROCESS. A reply
/// table keeps an answer only while its requester may still ask for it
/// (`guardian::Served`) and has no capacity of its own. Across CI's nine
/// chaos invocations and `--sweep 4000` the most any observation found is
/// 29, 49 and 8; each cap is four times that, rounded up to a power of
/// two.
const DISC_REPLIES: usize = 128;
const TMP_REPLIES: usize = 256;
const AUDIT_REPLIES: usize = 32;
/// Image keys an AUDITPROCESS's duplicate filter holds: those at or above
/// each volume's re-send floor. A soak's long-hold writer pins its
/// volume's floor at its first image for its whole hold; the most CI's
/// soak runs observe is 1 375, and the cap is that plus half, rounded up
/// to a power of two. A filter that kept every key ever appended reaches
/// 2 379 in `--soak --sweep 256`.
const AUDIT_IMAGE_KEYS: usize = 2048;
/// `archive:` keys retained per volume: [`ARCHIVE_RETAIN`] plus one
/// in-flight generation.
const ARCHIVE_KEYS: usize = ARCHIVE_RETAIN as usize + 1;

/// Bounded-state oracle: everything a server keeps per transid or per
/// request must stay within its cap at every observation point across the
/// whole soak horizon — a monotonically growing structure is a leak even
/// when the run is otherwise green. The settled-fence ring's cap is the
/// DISCPROCESS's `SETTLED_FENCE_CAPACITY`, and the snapshot-undo ring's
/// `snapshot_undo`, the capacity the run configured; the bytes that ring
/// reserves stay within that capacity times its largest entry
/// (`UNDO_ENTRY_MAX_BYTES`), with one doubling of slack, so a ring that
/// never compacts its evicted prefix away is caught. A reply table must
/// also hold no answer below its requester's floor: one there could never
/// be asked for again. Returns one violation string per breach, naming
/// the process, the field, the observed size, and the cap.
pub fn bounded_violations(obs: &[StateObservation], snapshot_undo: usize) -> Vec<String> {
    let mut v = Vec::new();
    for o in obs {
        let (p, epoch) = (o.process.as_str(), o.epoch);
        let mut breach = |field: &str, size: usize, cap: usize| {
            if size > cap {
                v.push(format!(
                    "bounded-state: {p} {field}={size} exceeds cap {cap} at epoch {epoch}"
                ));
            }
        };
        match &o.kind {
            StateKind::Disc(r) => {
                breach("snapshot_undo", r.snapshot_undo, snapshot_undo);
                let undo_bytes = 2 * snapshot_undo * UNDO_ENTRY_MAX_BYTES;
                breach("snapshot_undo_bytes", r.snapshot_undo_bytes, undo_bytes);
                breach("live_txns", r.live_txns, LIVE_TXNS);
                breach("settled_fences", r.settled_fences, SETTLED_FENCE_CAPACITY);
                breach("counted_waits", r.counted_waits, COUNTED_WAITS);
                breach("reply_cache", r.reply_cache, DISC_REPLIES);
                breach("replies_below_floor", r.replies_below_floor, 0);
            }
            StateKind::Tmp(r) => {
                breach("txns", r.txns, TMP_TXNS);
                breach("reply_cache", r.reply_cache, TMP_REPLIES);
                breach("replies_below_floor", r.replies_below_floor, 0);
            }
            StateKind::Audit(r) => {
                breach("buffered", r.buffered, AUDIT_BUFFERED);
                breach("reply_cache", r.reply_cache, AUDIT_REPLIES);
                breach("replies_below_floor", r.replies_below_floor, 0);
                breach("image_keys", r.image_keys, AUDIT_IMAGE_KEYS);
            }
            StateKind::ArchiveKeys { volume, count } => {
                let field = format!("archive set for {volume} archive_keys");
                breach(&field, *count, ARCHIVE_KEYS);
            }
        }
    }
    v
}

/// `"$TMP@\\N0"`, `"$BANK1@\\N2"`: how a finding names a process.
pub(crate) fn label(pair: &PairHandle) -> String {
    format!("{}@{}", pair.name, pair.node)
}

/// Fold one read into bounded-state observations taken at `epoch`. A
/// service with no live primary is skipped: the drained-world oracle
/// flags it on the final read.
pub(crate) fn state_observations(obs: &Observation, epoch: usize, out: &mut Vec<StateObservation>) {
    let tmps = (obs.tmps.iter()).filter_map(|(p, r)| Some((p, StateKind::Tmp(r.as_ref()?.state))));
    let audits = (obs.audits.iter()).filter_map(|(p, r)| Some((p, StateKind::Audit((*r)?))));
    let discs = (obs.discs.iter()).filter_map(|(p, r)| Some((p, StateKind::Disc((*r)?))));
    out.extend(
        tmps.chain(audits)
            .chain(discs)
            .map(|(pair, kind)| StateObservation {
                process: label(pair),
                epoch,
                kind,
            }),
    );
}

/// A count a drained process holds at zero, and the words around the
/// process's [`label`] that report a nonzero one:
/// `liveness: {count} {before} {process}{after}`.
type Drained = (usize, &'static str, &'static str);

/// Drained-world oracle, every tier's, on its final read: the workload is
/// over, every fault is healed and the tail has run, so every TMP,
/// AUDITPROCESS and DISCPROCESS has a live primary that holds nothing —
/// no open transid, no completion record in a monitor boxcar or force in
/// flight, no outstanding call, no unforced audit record or force
/// waiter, no lock or lock waiter, and no request admitted and never
/// answered (`guardian::Served::pending`). Returns one violation per
/// breach, naming the process and, for an open transaction, its transid;
/// a drained process costs no string.
pub(crate) fn drained_violations(obs: &Observation) -> Vec<String> {
    fn check(v: &mut Vec<String>, pair: &PairHandle, counts: &[Drained]) {
        for &(n, before, after) in counts {
            if n > 0 {
                v.push(format!("liveness: {n} {before} {}{after}", label(pair)));
            }
        }
    }
    const PENDING: (&str, &str) = ("requests admitted at", " were never answered");
    let mut v = Vec::new();
    let unreachable = |pair| format!("liveness: {} unreachable after heal", label(pair));
    for (pair, read) in &obs.tmps {
        let Some(TmpRead { open, state: s }) = read else {
            v.push(unreachable(pair));
            continue;
        };
        for t in open {
            let p = label(pair);
            v.push(format!(
                "liveness: transaction {t} never reached a terminal state (still open at {p})"
            ));
        }
        let counts = [
            (
                s.monitor_boxcar,
                "records parked in the monitor boxcar at",
                " (never flushed)",
            ),
            (
                s.monitor_inflight,
                "records in a monitor force at",
                " (never completed)",
            ),
            (
                s.outstanding_rpcs,
                "rpcs still outstanding at",
                " after quiesce",
            ),
            (s.pending_requests, PENDING.0, PENDING.1),
        ];
        check(&mut v, pair, &counts);
    }
    for (pair, read) in &obs.audits {
        let Some(r) = read else {
            v.push(unreachable(pair));
            continue;
        };
        let counts = [
            (r.buffered, "audit records never forced at", ""),
            (r.waiters, "force waiters still parked at", ""),
            (r.pending_requests, PENDING.0, PENDING.1),
        ];
        check(&mut v, pair, &counts);
    }
    for (pair, read) in &obs.discs {
        let Some(r) = read else {
            v.push(unreachable(pair));
            continue;
        };
        let counts = [
            (r.lock_waiters, "lock waiters still parked at", ""),
            (r.locks_held, "locks still held at", ""),
            (r.pending_requests, PENDING.0, PENDING.1),
        ];
        check(&mut v, pair, &counts);
    }
    v
}

/// Purge-floor progress for one volume across the soak horizon.
#[derive(Clone, Debug)]
pub struct PurgeFloorTrack {
    pub volume: String,
    /// Registry generation at the first epoch boundary where the volume
    /// had a completed dump.
    pub first_generation: u64,
    /// Registry generation at the end of the run.
    pub last_generation: u64,
    /// Purge floor at the first observation.
    pub first_floor: u64,
    /// Purge floor at the end of the run.
    pub last_floor: u64,
}

/// A long-lived soak client's terminal status: `None` means it never
/// reported finishing.
#[derive(Clone, Debug)]
pub struct ClientStatus {
    /// Display name, e.g. `"soak-writer[\\N0:$BANK1]"`.
    pub name: String,
    /// `Some(summary)` once the client reached its terminal state.
    pub finished: Option<String>,
    /// Last state-machine transition the client recorded, for
    /// diagnosing where it wedged.
    pub last_state: String,
}

/// The soak's liveness oracle: after the heal barrier and the end phase,
/// every long-lived client has finished, and purge floors moved forward
/// on volumes that completed dumps. Returns one violation per breach,
/// naming the client or the volume.
pub fn liveness_violations(clients: &[ClientStatus], floors: &[PurgeFloorTrack]) -> Vec<String> {
    let mut v = Vec::new();
    for c in clients {
        if c.finished.is_none() {
            v.push(format!(
                "liveness: soak client {} never reached a terminal state (last: {})",
                c.name, c.last_state
            ));
        }
    }
    for f in floors {
        // Two completed dump generations bracket at least one full
        // epoch of settle traffic, so the floor proven by the later
        // dump must exceed the floor proven by the earlier one.
        if f.last_generation >= f.first_generation + 2 && f.last_floor <= f.first_floor {
            v.push(format!(
                "liveness: purge floor of {} never advanced ({} at generation {}, still {} at generation {})",
                f.volume, f.first_floor, f.first_generation, f.last_floor, f.last_generation
            ));
        }
    }
    v
}

/// One node's suspense-file drain status, observed by the shard runner
/// after the heal barrier and a bounded drain window.
#[derive(Clone, Debug)]
pub struct SuspenseObservation {
    /// Display name of the node, e.g. `"\\N2"`.
    pub node: String,
    /// Suspense-file entries still queued when the heal barrier ran.
    pub backlog_at_heal: usize,
    /// Entries still queued at the end of the drain window. Anything
    /// nonzero here is a stuck monitor: the partition is healed, the
    /// workload is over, and the window is bounded sim-time.
    pub backlog_final: usize,
    /// The monitor pair's own drain counters, `(pending, applied)`, read
    /// off its primary — or `None` if it had no live primary.
    pub probe: Option<(u64, u64)>,
}

/// Drain-liveness oracle for the suspense-file subsystem: within a
/// bounded sim-time window after every partition heals, each node's
/// suspense backlog must reach zero and its monitor pair must be alive
/// and agree that nothing is pending. Returns one violation per breach,
/// naming the implicated node.
pub fn suspense_drain_violations(obs: &[SuspenseObservation], drain_window_ms: u64) -> Vec<String> {
    let mut v = Vec::new();
    for o in obs {
        let n = o.node.as_str();
        if o.backlog_final > 0 {
            v.push(format!(
                "suspense: backlog at {n} never drained ({} deferred update(s) still \
                 queued {drain_window_ms}ms after the heal, {} at the heal barrier)",
                o.backlog_final, o.backlog_at_heal
            ));
        }
        match o.probe {
            None => v.push(format!("suspense: monitor at {n} unreachable after heal")),
            Some((pending, _)) if pending > 0 => v.push(format!(
                "suspense: monitor at {n} still reports {pending} pending record(s) \
                 after the drain window"
            )),
            Some(_) => {}
        }
    }
    v
}

/// The kernel's armed timers at one instant, and the rpc counts of the
/// processes that report them. A census taken while the workload runs
/// sees its outstanding calls and any clock armed on one; after the
/// quiesce tail no call is outstanding, and such a clock is gone. A run
/// keeps one census and refills it at each instant.
#[derive(Clone, Debug, Default)]
pub struct TimerCensus {
    /// Every armed timer: owner, the owner's `Process::kind`, tag, sorted
    /// by pid and tag. A pid has one kind.
    pub armed: Vec<(Pid, &'static str, u64)>,
    /// Per reporting process (each TMP and DISCPROCESS primary), its
    /// outstanding rpcs that may hold a timer: its calls to other nodes,
    /// and its local calls that hold a deadline or wait on the takeover
    /// retry (`guardian::Rpc::timed`).
    pub rpcs: Vec<(Pid, usize)>,
}

/// Timer oracle: a process arms each of its own tags (those below
/// `guardian::RPC_TAG_BASE`) at most once, and a process that reports its
/// outstanding rpcs holds no more rpc-tag timers than it has calls that
/// may hold one. A call within the node waits on its reply or on a
/// failure notice, not on a clock (DESIGN.md §D28), so a clock re-armed
/// on one shows up here. So does a timer chain that forks — a periodic
/// timer re-armed from two places — long before it costs anything.
/// Returns one violation per breach, naming the pid, the process kind and
/// the tag: the own tags in pid and tag order, then the rpc counts in
/// the census's order. Counts the runs of the sorted `census.armed`.
pub fn timer_violations(census: &TimerCensus) -> Vec<String> {
    let armed = &census.armed;
    debug_assert!(
        armed.is_sorted_by_key(|&(pid, _, tag)| (pid, tag)),
        "a census's armed timers are sorted by pid and tag"
    );
    let mut v = Vec::new();
    for run in armed.chunk_by(|a, b| (a.0, a.2) == (b.0, b.2)) {
        let ((pid, kind, tag), n) = (run[0], run.len());
        if tag < RPC_TAG_BASE && n > 1 {
            v.push(format!(
                "timers: {kind} {pid} holds {n} armed timers with tag {tag}"
            ));
        }
    }
    for &(pid, outstanding) in &census.rpcs {
        let from = armed.partition_point(|&(p, _, tag)| (p, tag) < (pid, RPC_TAG_BASE));
        // a pid's rpc tags sort after its own
        let n = armed.partition_point(|&(p, _, _)| p <= pid) - from;
        if n > outstanding {
            let kind = armed[from].1;
            v.push(format!(
                "timers: {kind} {pid} holds {n} rpc timers (tags from {RPC_TAG_BASE}) \
                 for {outstanding} outstanding rpcs that may hold one"
            ));
        }
    }
    v
}

/// One read-write terminal's count of committed logical transactions,
/// read off its TCP's primary.
#[derive(Clone, Copy, Debug)]
pub struct TerminalCommits {
    pub node: NodeId,
    pub terminal: u8,
    pub committed: u64,
}

/// Exactly-once oracle: a terminal's logical transaction commits once,
/// whatever fails under it. Each committed debit wrote one history record
/// tagged with its [`DebitTag`], so a tag appears at most once in `tags`
/// (the history file's), and each read-write terminal of `terminals` has
/// as many records as its TCP counts commits. A takeover that re-runs a
/// committed transaction breaks both. Returns one violation per breach,
/// naming the node, the terminal and, for a repeat, `n`.
pub fn exactly_once_violations(tags: &[DebitTag], terminals: &[TerminalCommits]) -> Vec<String> {
    let mut times: BTreeMap<DebitTag, u64> = BTreeMap::new();
    for &tag in tags {
        *times.entry(tag).or_default() += 1;
    }
    let mut records: BTreeMap<(NodeId, u8), u64> = BTreeMap::new();
    let mut v = Vec::new();
    for (tag, &k) in &times {
        *records.entry((tag.node, tag.terminal)).or_default() += k;
        if k > 1 {
            v.push(format!(
                "exactly-once: terminal {} of {} committed its logical transaction {} \
                 {k} times",
                tag.terminal, tag.node, tag.n
            ));
        }
    }
    for t in terminals {
        let held = records.get(&(t.node, t.terminal)).copied().unwrap_or(0);
        if held != t.committed {
            v.push(format!(
                "exactly-once: terminal {} of {} counts {} commits, but the history \
                 file holds {held} of its debits",
                t.terminal, t.node, t.committed
            ));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use encompass_sim::CpuId;
    use encompass_storage::types::Transid;

    /// The soak's snapshot-undo capacity.
    const UNDO: usize = 64;

    fn pair(name: &'static str) -> PairHandle {
        PairHandle {
            node: NodeId(1),
            name: name.into(),
            primary: pid(1),
            backup: pid(2),
        }
    }

    /// A drained read of one node: its TMP, its AUDITPROCESS and one
    /// volume, each with a live primary holding nothing.
    fn drained_read() -> Observation {
        Observation {
            tmps: vec![(
                pair("$TMP"),
                Some(TmpRead {
                    open: Vec::new(),
                    state: TmpStateReport::default(),
                }),
            )],
            audits: vec![(pair("$AUDIT"), Some(AuditStateReport::default()))],
            discs: vec![(pair("$BANK"), Some(DiscStateReport::default()))],
            timers: TimerCensus::default(),
        }
    }

    /// The read's one TMP, AUDITPROCESS and DISCPROCESS reports, to edit.
    fn reports(
        obs: &mut Observation,
    ) -> (&mut TmpRead, &mut AuditStateReport, &mut DiscStateReport) {
        let (Some(tmp), Some(audit), Some(disc)) = (
            obs.tmps[0].1.as_mut(),
            obs.audits[0].1.as_mut(),
            obs.discs[0].1.as_mut(),
        ) else {
            panic!("a drained read has every primary");
        };
        (tmp, audit, disc)
    }

    #[test]
    fn clean_observations_raise_nothing() {
        let obs = vec![
            StateObservation {
                process: "$BANK@\\N0".into(),
                epoch: 3,
                kind: StateKind::Disc(DiscStateReport::default()),
            },
            StateObservation {
                process: "$TMP@\\N0".into(),
                epoch: 3,
                kind: StateKind::Tmp(TmpStateReport::default()),
            },
            StateObservation {
                process: "$AUDIT@\\N0".into(),
                epoch: 3,
                kind: StateKind::Audit(AuditStateReport::default()),
            },
        ];
        assert!(bounded_violations(&obs, UNDO).is_empty());
        assert_eq!(drained_violations(&drained_read()), Vec::<String>::new());
        let clients = vec![ClientStatus {
            name: "soak-writer[\\N0:$BANK]".into(),
            finished: Some("commits=12".into()),
            last_state: "done".into(),
        }];
        let floors = vec![PurgeFloorTrack {
            volume: "\\N0:$BANK".into(),
            first_generation: 1,
            last_generation: 5,
            first_floor: 40,
            last_floor: 900,
        }];
        assert!(liveness_violations(&clients, &floors).is_empty());
    }

    #[test]
    fn stuck_transaction_names_the_transid() {
        // synthetic stuck schedule: a transaction begun on \N1 never
        // resolves and is still in its TMP's table on the final read
        let mut obs = drained_read();
        let transid = Transid {
            home_node: NodeId(1),
            cpu: 2,
            seq: 417,
        };
        reports(&mut obs).0.open.push(transid);
        let v = drained_violations(&obs);
        assert_eq!(
            v,
            [format!(
                "liveness: transaction {transid} never reached a terminal state \
                 (still open at $TMP@\\N1)"
            )]
        );
    }

    /// Every count a drained process holds at zero fires alone when it is
    /// not, naming the process that holds it: the monitor's boxcar and
    /// force in flight, outstanding calls and unanswered requests at the
    /// TMP; unforced records, force waiters and unanswered requests at
    /// the AUDITPROCESS; lock waiters, held locks and unanswered requests
    /// at the DISCPROCESS.
    #[test]
    fn each_undrained_count_names_its_process() {
        type Set = fn(&mut TmpRead, &mut AuditStateReport, &mut DiscStateReport);
        let cases: [(Set, &str); 10] = [
            (
                |t, _, _| t.state.monitor_boxcar = 3,
                "liveness: 3 records parked in the monitor boxcar at $TMP@\\N1 (never flushed)",
            ),
            (
                |t, _, _| t.state.monitor_inflight = 2,
                "liveness: 2 records in a monitor force at $TMP@\\N1 (never completed)",
            ),
            (
                |t, _, _| t.state.outstanding_rpcs = 1,
                "liveness: 1 rpcs still outstanding at $TMP@\\N1 after quiesce",
            ),
            (
                |t, _, _| t.state.pending_requests = 2,
                "liveness: 2 requests admitted at $TMP@\\N1 were never answered",
            ),
            (
                |_, a, _| a.buffered = 4,
                "liveness: 4 audit records never forced at $AUDIT@\\N1",
            ),
            (
                |_, a, _| a.waiters = 1,
                "liveness: 1 force waiters still parked at $AUDIT@\\N1",
            ),
            (
                |_, a, _| a.pending_requests = 1,
                "liveness: 1 requests admitted at $AUDIT@\\N1 were never answered",
            ),
            (
                |_, _, d| d.lock_waiters = 2,
                "liveness: 2 lock waiters still parked at $BANK@\\N1",
            ),
            (
                |_, _, d| d.locks_held = 5,
                "liveness: 5 locks still held at $BANK@\\N1",
            ),
            (
                |_, _, d| d.pending_requests = 1,
                "liveness: 1 requests admitted at $BANK@\\N1 were never answered",
            ),
        ];
        for (set, finding) in cases {
            let mut obs = drained_read();
            let (tmp, audit, disc) = reports(&mut obs);
            set(tmp, audit, disc);
            assert_eq!(drained_violations(&obs), [finding]);
        }
    }

    /// A service with no live primary is named once, and nothing else is
    /// read of it; the bounded-state fold skips it.
    #[test]
    fn an_unreachable_service_names_its_process() {
        let mut obs = drained_read();
        obs.tmps[0].1 = None;
        obs.audits[0].1 = None;
        obs.discs[0].1 = None;
        assert_eq!(
            drained_violations(&obs),
            [
                "liveness: $TMP@\\N1 unreachable after heal",
                "liveness: $AUDIT@\\N1 unreachable after heal",
                "liveness: $BANK@\\N1 unreachable after heal",
            ]
        );
        let mut state = Vec::new();
        state_observations(&obs, usize::MAX, &mut state);
        assert!(state.is_empty(), "{state:?}");
    }

    /// The final read folds into one bounded-state observation per live
    /// primary, each named as the drained-world oracle names it.
    #[test]
    fn a_read_folds_into_bounded_state_observations() {
        let mut obs = drained_read();
        reports(&mut obs).2.snapshot_undo = UNDO + 1;
        let mut state = Vec::new();
        state_observations(&obs, usize::MAX, &mut state);
        let names: Vec<&str> = state.iter().map(|o| o.process.as_str()).collect();
        assert_eq!(names, ["$TMP@\\N1", "$AUDIT@\\N1", "$BANK@\\N1"]);
        let v = bounded_violations(&state, UNDO);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("$BANK@\\N1 snapshot_undo=65 exceeds cap 64"),
            "{}",
            v[0]
        );
    }

    #[test]
    fn stuck_purge_floor_names_the_volume() {
        // synthetic stuck schedule: four dump generations complete but
        // the proven floor never moves
        let floors = vec![PurgeFloorTrack {
            volume: "\\N2:$BANK1".into(),
            first_generation: 1,
            last_generation: 5,
            first_floor: 12,
            last_floor: 12,
        }];
        let v = liveness_violations(&[], &floors);
        assert_eq!(v.len(), 1);
        assert!(
            v[0].contains("purge floor of \\N2:$BANK1 never advanced"),
            "{}",
            v[0]
        );
    }

    #[test]
    fn floor_not_required_to_advance_without_two_dumps() {
        let floors = vec![PurgeFloorTrack {
            volume: "\\N0:$BANK".into(),
            first_generation: 2,
            last_generation: 3,
            first_floor: 7,
            last_floor: 7,
        }];
        assert!(liveness_violations(&[], &floors).is_empty());
    }

    #[test]
    fn stuck_client_names_the_client_and_its_last_state() {
        let clients = vec![ClientStatus {
            name: "soak-writer[\\N0:$BANK1]".into(),
            finished: None,
            last_state: "holding \\N0:1:93".into(),
        }];
        let v = liveness_violations(&clients, &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("soak-writer[\\N0:$BANK1]"), "{}", v[0]);
        assert!(v[0].contains("\\N0:1:93"), "{}", v[0]);
    }

    #[test]
    fn snapshot_undo_over_cap_names_the_volume_process() {
        let obs = vec![StateObservation {
            process: "$BANK1@\\N1".into(),
            epoch: 4,
            kind: StateKind::Disc(DiscStateReport {
                snapshot_undo: 65,
                ..Default::default()
            }),
        }];
        let v = bounded_violations(&obs, UNDO);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("$BANK1@\\N1"), "{}", v[0]);
        assert!(v[0].contains("snapshot_undo=65"), "{}", v[0]);
        assert!(v[0].contains("cap 64"), "{}", v[0]);
        assert!(v[0].contains("epoch 4"), "{}", v[0]);
    }

    #[test]
    fn snapshot_undo_bytes_over_their_bound_name_the_volume_process() {
        let cap = 2 * UNDO * UNDO_ENTRY_MAX_BYTES;
        let obs = |bytes| StateObservation {
            process: "$BANK1@\\N1".into(),
            epoch: 7,
            kind: StateKind::Disc(DiscStateReport {
                snapshot_undo: UNDO,
                snapshot_undo_bytes: bytes,
                ..Default::default()
            }),
        };
        assert!(bounded_violations(&[obs(cap)], UNDO).is_empty());
        let v = bounded_violations(&[obs(cap + 1)], UNDO);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("$BANK1@\\N1"), "{}", v[0]);
        let field = format!("snapshot_undo_bytes={} exceeds cap {cap}", cap + 1);
        assert!(v[0].contains(&field), "{}", v[0]);
        assert!(v[0].contains("epoch 7"), "{}", v[0]);
    }

    #[test]
    fn replies_past_their_ceiling_or_below_a_floor_fire() {
        let obs = vec![
            StateObservation {
                process: "$TMP@\\N2".into(),
                epoch: 5,
                kind: StateKind::Tmp(TmpStateReport {
                    reply_cache: TMP_REPLIES + 1,
                    ..Default::default()
                }),
            },
            StateObservation {
                process: "$AUDIT@\\N0".into(),
                epoch: 6,
                kind: StateKind::Audit(AuditStateReport {
                    replies_below_floor: 2,
                    ..Default::default()
                }),
            },
        ];
        let v = bounded_violations(&obs, UNDO);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(
            v[0].contains("$TMP@\\N2 reply_cache=257 exceeds cap 256"),
            "{}",
            v[0]
        );
        assert!(
            v[1].contains("$AUDIT@\\N0 replies_below_floor=2 exceeds cap 0"),
            "{}",
            v[1]
        );
    }

    #[test]
    fn image_keys_past_their_cap_fire() {
        let keys = |image_keys| StateObservation {
            process: "$AUDIT@\\N1".into(),
            epoch: 3,
            kind: StateKind::Audit(AuditStateReport {
                image_keys,
                ..Default::default()
            }),
        };
        assert!(bounded_violations(&[keys(AUDIT_IMAGE_KEYS)], UNDO).is_empty());
        let v = bounded_violations(&[keys(AUDIT_IMAGE_KEYS + 1)], UNDO);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("$AUDIT@\\N1 image_keys=2049 exceeds cap 2048 at epoch 3"),
            "{}",
            v[0]
        );
    }

    #[test]
    fn leaked_per_transid_state_fires() {
        // post-settlement leak: counted_waits / transaction records
        // growing past any plausible live population
        let obs = vec![StateObservation {
            process: "$BANK@\\N0".into(),
            epoch: 7,
            kind: StateKind::Disc(DiscStateReport {
                counted_waits: 513,
                live_txns: 257,
                ..Default::default()
            }),
        }];
        let v = bounded_violations(&obs, UNDO);
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|s| s.contains("counted_waits=513")));
        assert!(v.iter().any(|s| s.contains("live_txns=257")));
    }

    #[test]
    fn drained_suspense_raises_nothing() {
        let obs = vec![SuspenseObservation {
            node: "\\N1".into(),
            backlog_at_heal: 7,
            backlog_final: 0,
            probe: Some((0, 7)),
        }];
        assert!(suspense_drain_violations(&obs, 30_000).is_empty());
    }

    #[test]
    fn stuck_suspense_backlog_names_the_node() {
        // synthetic stuck schedule: \N2 accumulated 5 deferred updates
        // behind the partition and its monitor never drained them
        let obs = vec![
            SuspenseObservation {
                node: "\\N0".into(),
                backlog_at_heal: 2,
                backlog_final: 0,
                probe: Some((0, 2)),
            },
            SuspenseObservation {
                node: "\\N2".into(),
                backlog_at_heal: 5,
                backlog_final: 5,
                probe: Some((5, 0)),
            },
        ];
        let v = suspense_drain_violations(&obs, 30_000);
        assert_eq!(v.len(), 2);
        assert!(v[0].contains("\\N2"), "{}", v[0]);
        assert!(v[0].contains("never drained"), "{}", v[0]);
        assert!(v[0].contains("5 deferred update(s)"), "{}", v[0]);
        assert!(v[0].contains("30000ms"), "{}", v[0]);
        assert!(v[1].contains("\\N2"), "{}", v[1]);
        assert!(v[1].contains("5 pending"), "{}", v[1]);
        assert!(!v.iter().any(|s| s.contains("\\N0")), "{v:?}");
    }

    #[test]
    fn unreachable_suspense_monitor_names_the_node() {
        let obs = vec![SuspenseObservation {
            node: "\\N3".into(),
            backlog_at_heal: 0,
            backlog_final: 0,
            probe: None,
        }];
        let v = suspense_drain_violations(&obs, 30_000);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("monitor at \\N3 unreachable"), "{}", v[0]);
    }

    #[test]
    fn archive_retention_over_cap_fires() {
        let obs = vec![StateObservation {
            process: "stable".into(),
            epoch: 6,
            kind: StateKind::ArchiveKeys {
                volume: "\\N0:$BANK".into(),
                count: 4,
            },
        }];
        let v = bounded_violations(&obs, UNDO);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("\\N0:$BANK"), "{}", v[0]);
        assert!(v[0].contains("archive_keys=4"), "{}", v[0]);
    }

    fn pid(index: u32) -> Pid {
        Pid {
            node: NodeId(1),
            cpu: CpuId(2),
            index,
        }
    }

    #[test]
    fn one_timer_per_tag_and_one_per_rpc_raise_nothing() {
        let census = TimerCensus {
            armed: vec![
                (pid(7), "suspense-monitor", 1),
                (pid(8), "suspense-monitor", 1),
                (pid(9), "tmp", 7),
                (pid(9), "tmp", RPC_TAG_BASE + 3),
                (pid(9), "tmp", RPC_TAG_BASE + 4),
            ],
            rpcs: vec![(pid(9), 2)],
        };
        assert!(timer_violations(&census).is_empty());
    }

    #[test]
    fn a_forked_timer_chain_names_the_pid_kind_and_tag() {
        // synthetic census: one monitor primary's poll re-armed from two
        // places, so three chains are live at once
        let census = TimerCensus {
            armed: vec![
                (pid(7), "suspense-monitor", 1),
                (pid(7), "suspense-monitor", 1),
                (pid(7), "suspense-monitor", 1),
                (pid(9), "tmp", 7),
            ],
            rpcs: Vec::new(),
        };
        let v = timer_violations(&census);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("suspense-monitor \\N1.2.p7 holds 3 armed timers with tag 1"),
            "{}",
            v[0]
        );
    }

    #[test]
    fn rpc_timers_beyond_the_outstanding_rpcs_fire() {
        let census = TimerCensus {
            armed: vec![
                (pid(9), "tmp", RPC_TAG_BASE + 1),
                (pid(9), "tmp", RPC_TAG_BASE + 2),
                (pid(9), "tmp", RPC_TAG_BASE + 3),
            ],
            rpcs: vec![(pid(9), 1)],
        };
        let v = timer_violations(&census);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("tmp \\N1.2.p9"), "{}", v[0]);
        assert!(v[0].contains("3 rpc timers"), "{}", v[0]);
        assert!(v[0].contains("1 outstanding rpcs"), "{}", v[0]);
        assert!(v[0].contains(&RPC_TAG_BASE.to_string()), "{}", v[0]);
    }

    fn tag(terminal: u8, n: u64) -> DebitTag {
        DebitTag {
            node: NodeId(1),
            terminal,
            n,
        }
    }

    fn commits(terminal: u8, committed: u64) -> TerminalCommits {
        TerminalCommits {
            node: NodeId(1),
            terminal,
            committed,
        }
    }

    #[test]
    fn one_record_per_commit_is_exactly_once() {
        let tags = [tag(0, 0), tag(0, 1), tag(1, 0)];
        assert!(exactly_once_violations(&tags, &[commits(0, 2), commits(1, 1)]).is_empty());
        // a read-only terminal commits and writes nothing: not listed
        assert!(exactly_once_violations(&[], &[commits(0, 0)]).is_empty());
    }

    #[test]
    fn a_committed_transaction_run_again_names_terminal_and_n() {
        // the takeover re-ran terminal 3's second transaction: its record
        // is there twice, and the TCP counted the commit once
        let tags = [tag(3, 0), tag(3, 1), tag(3, 1)];
        let v = exactly_once_violations(&tags, &[commits(3, 2)]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("terminal 3 of \\N1"), "{}", v[0]);
        assert!(v[0].contains("transaction 1 2 times"), "{}", v[0]);
        assert!(v[1].contains("counts 2 commits"), "{}", v[1]);
        assert!(v[1].contains("holds 3 of its debits"), "{}", v[1]);
    }

    #[test]
    fn a_commit_with_no_record_is_reported() {
        let v = exactly_once_violations(&[tag(0, 0)], &[commits(0, 2)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("holds 1 of its debits"), "{}", v[0]);
    }
}
