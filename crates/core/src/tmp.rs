//! The Transaction Monitor Process (TMP): one process-pair per network
//! node, coordinating distributed transactions.
//!
//! Responsibilities, following the paper:
//!
//! * generate transids at `BEGIN-TRANSACTION` and broadcast "active" state
//!   to every processor of the node;
//! * track, per transaction, the **local participating volumes** (reported
//!   by the File System session layer) and the **remote nodes this node
//!   directly transmitted the transid to** (its *children*);
//! * perform **remote transaction begin**: before the first transmission
//!   of a transid to another node, notify that node's TMP so it broadcasts
//!   "active" state on its processors — a *critical response* message;
//! * run the **abbreviated two-phase commit** (single node: force audit,
//!   write the commit record, release locks) and the **distributed
//!   two-phase commit**: phase one is critical-response down the
//!   transmission tree (each node forces its local audit and asks its own
//!   children transitively); phase two and abort/backout notifications are
//!   *safe-delivery* — retried until deliverable, never blocking commit
//!   completion on the home node;
//! * honor **unilateral abort**: a non-home node may abort until it has
//!   acknowledged phase one; afterwards it holds locks until the final
//!   disposition arrives (or an operator forces one — the manual
//!   override);
//! * write the **Monitor Audit Trail**: the forced commit record *is* the
//!   commit point;
//! * drive the BACKOUTPROCESS for aborting transactions and release locks
//!   on the participating DISCPROCESSes afterwards;
//! * abort the active transactions of a failed processor (the paper's
//!   automatic abort on "failure of the primary TCP's processor").

use crate::state::{AbortReason, TxState, TxnClass};
use crate::table::StateBroadcast;
use encompass_audit::auditprocess::BOXCAR_BOUNDS;
use encompass_audit::backout::{BackoutMsg, BackoutReply, BACKOUT_SERVICE};
use encompass_audit::monitor::{monitor_key, MonitorTrail};
use encompass_sim::config::DISC_ACCESS;
use encompass_sim::{
    counter, histogram, CpuId, FlightCause, MediaId, Members, Name, NodeId, Payload, Pid,
    SimDuration, SystemEvent, World,
};
use encompass_storage::audit_api::{AuditMsg, AuditReply, AUDIT_SERVICE};
use encompass_storage::discprocess::{DiscReply, DiscRequest};
use encompass_storage::media::{dump_registry_key, DumpRegistry};
use encompass_storage::types::{Transid, VolumeRef};
use guardian::{
    Admitted, Cadence, Checkpointed, Completion, Owed, PairApp, PairHandle, Rpc, Served,
    ServedSnapshot, Target, TimerOutcome, RPC_TAG_BASE,
};
use std::collections::BTreeMap;
use std::sync::Arc;

type PairCtx<'a, 'b> = guardian::PairCtx<'a, 'b, TmpDelta>;

/// The service name every node's TMP registers.
pub const TMP_SERVICE: Name = Name::from_static("$TMP");

/// Physical completion of a monitor-trail force: each force in flight has
/// its own tag, from here up to the rpc tags.
const TAG_MONITOR_BASE: u64 = 1 << 16;
/// The in-doubt sweep on non-home nodes (below TAG_MONITOR_BASE).
const TAG_JANITOR: u64 = 7;
/// Group-commit window expiry for the monitor-trail boxcar.
const TAG_MONITOR_WINDOW: u64 = 8;
/// Periodic audit-trail capacity sweep (purge below each volume's latest
/// completed dump floor).
const TAG_PURGE: u64 = 10;

/// Per-attempt timeout of critical-response messages, and the resend
/// interval of every message to another node: a critical-response message
/// within the node expires `(CRITICAL_RETRIES + 1) × CRITICAL_TIMEOUT`
/// after it was sent.
const CRITICAL_TIMEOUT: SimDuration = SimDuration::from_millis(100);
/// Retry budget of critical-response messages.
const CRITICAL_RETRIES: u32 = 3;
/// The longest group-commit window a node accepts (inclusive):
/// `CRITICAL_RETRIES × CRITICAL_TIMEOUT`, 300 ms. A phase-one call within
/// the node expires `(CRITICAL_RETRIES + 1) × CRITICAL_TIMEOUT` after it
/// was sent, and the force it waits on boards a boxcar that is held for
/// the whole window before its disc write starts; the bound leaves one
/// `CRITICAL_TIMEOUT` for the write and the replies. Past it phase one
/// times out: `encompass-chaos --sweep 20 --window W` passes every seed
/// up to 360 ms, fails 7 of 20 at 370 ms and every seed from 375 ms.
pub const MAX_GROUP_COMMIT_WINDOW: SimDuration = CRITICAL_TIMEOUT.mul(CRITICAL_RETRIES as u64);
/// Interval of the non-home in-doubt sweep: entries that sit in the table
/// without progress are resolved against the home node's TMP
/// (ROLLFORWARD's "negotiation with other nodes", done online). It ticks
/// only while an entry is in doubt (DESIGN.md §D31).
const INDOUBT_PROBE: SimDuration = SimDuration::from_millis(250);

/// Cumulative bucket bounds (µs) for home-commit latency.
const LATENCY_BOUNDS: &[u64] = &[1_000, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000];

/// Requests handled by a TMP (from sessions, operators, and other TMPs).
#[derive(Clone, Debug)]
pub enum TmpMsg {
    // ---- session-facing ----
    /// BEGIN-TRANSACTION from a process on CPU `cpu` of this node. The
    /// declared class decides the END protocol: a read-only transaction
    /// resolves locally, without phase one or a forced commit record.
    Begin { cpu: u8, class: TxnClass },
    /// The File System reports that `transid` touches `volume` (local).
    RegisterVolume { transid: Transid, volume: VolumeRef },
    /// The File System is about to transmit `transid` to `dest` for the
    /// first time from this node: ensure remote transaction begin.
    EnsureRemoteSend { transid: Transid, dest: NodeId },
    /// END-TRANSACTION (home node only).
    End { transid: Transid },
    /// ABORT-TRANSACTION / RESTART-TRANSACTION backout request. The TMP
    /// does not act on `reason`; it travels for per-cause accounting.
    Abort {
        transid: Transid,
        reason: AbortReason,
    },
    /// TMF utility: what happened to this transaction?
    QueryDisposition { transid: Transid },
    /// TMF utility: operator override for an in-doubt transaction on a
    /// node cut off after acknowledging phase one.
    ForceDisposition { transid: Transid, commit: bool },
    // ---- TMP ↔ TMP (network) ----
    /// Remote transaction begin (critical response).
    RemoteBegin { transid: Transid },
    /// Phase one of distributed commit (critical response).
    Phase1 { transid: Transid },
    /// Phase two: release locks (safe delivery).
    Phase2 { transid: Transid },
    /// Abort/backout notification (safe delivery).
    AbortTxn { transid: Transid },
}

/// Replies from a TMP.
#[derive(Clone, Debug, PartialEq)]
pub enum TmpReply {
    Began {
        transid: Transid,
    },
    Ok,
    /// Registration / remote begin could not be performed (e.g. the remote
    /// node is unreachable); the requester should abort.
    Failed,
    Phase1Ok,
    Phase1Refused,
    Committed,
    Aborted,
    Disposition {
        state: Option<TxState>,
    },
}

/// Sizes of a TMP's per-transaction state, read by
/// [`TmpProcess::state_report`]. Everything here is either bounded by the
/// transactions currently in flight or by a fixed capacity; the chaos
/// soak tier's bounded-state oracle checks that at epoch boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TmpStateReport {
    /// Entries in the transaction table.
    pub txns: usize,
    /// Table entries in a terminal state still awaiting safe-delivery
    /// acknowledgements.
    pub terminal_txns: usize,
    /// Completion records waiting to board the next monitor force.
    pub monitor_boxcar: usize,
    /// Records in the monitor forces currently in flight.
    pub monitor_inflight: usize,
    /// Calls this TMP has issued and not yet seen end, over all four of
    /// its rpc clients (DISCPROCESS, TMP, BACKOUTPROCESS, AUDITPROCESS):
    /// every message of either class, whatever it is for.
    pub outstanding_rpcs: usize,
    /// Those of the calls that may hold a timer ([`Rpc::timed`]).
    pub timed_rpcs: usize,
    /// Remembered replies: the answers at or above their requesters'
    /// floors (see [`Served`]).
    pub reply_cache: usize,
    /// Remembered replies below their requester's floor: always 0.
    pub replies_below_floor: usize,
    /// Requests admitted and not yet answered: the END, Abort, Phase1 and
    /// EnsureRemoteSend requests waiting on a transaction, so zero once
    /// every transaction has completed.
    pub pending_requests: usize,
}

/// Configuration for one node's TMP.
#[derive(Clone, Debug)]
pub struct TmpConfig {
    /// The node's volume names, sorted: the capacity sweep reports one
    /// purge floor per volume, in this order.
    pub volumes: Vec<Name>,
    /// How long a decided completion record may wait for other concurrently
    /// completing transactions to board the same monitor-trail force. Zero
    /// starts each record's force as soon as it is decided, beside any
    /// force already in flight.
    pub group_commit_window: SimDuration,
    /// Interval of the audit-trail capacity sweep: ask the node's
    /// AUDITPROCESS to purge each trail partition whose volumes all have a
    /// completed online dump registered, below the smallest dump purge
    /// floor (clamped by the oldest open transaction). Zero disables the
    /// sweep (the default, preserving historical traces).
    pub purge_interval: SimDuration,
}

impl Default for TmpConfig {
    fn default() -> Self {
        TmpConfig {
            volumes: Vec::new(),
            group_commit_window: SimDuration::ZERO,
            purge_interval: SimDuration::ZERO,
        }
    }
}

struct Txn {
    state: TxState,
    home: bool,
    /// The class declared at BEGIN-TRANSACTION. Replicated to the backup:
    /// a takeover must know that an Active home entry is read-only (plain
    /// abort — there is nothing durable to salvage) and that a committed
    /// read-only parent's children get AbortTxn, not Phase2.
    class: TxnClass,
    volumes: Members<VolumeRef>,
    /// Sorted.
    children: Members<NodeId>,
    /// Outstanding phase-one acknowledgements (local volumes + children).
    outstanding_phase1: usize,
    /// The request awaiting End (home) or Phase1 (non-home).
    end_waiter: Option<Owed>,
    abort_waiters: Vec<Owed>,
    /// Outstanding phase-two / abort-propagation acknowledgements. The
    /// entry stays in the table (terminal state) until every safe-delivery
    /// message is acknowledged, so a takeover can re-drive them.
    pending_deliveries: usize,
    /// Set by one janitor sweep, cleared by any state change: an entry
    /// seen armed on the *next* sweep has made no progress and its
    /// disposition is queried from the home node.
    janitor_armed: bool,
    /// When this home transaction entered Ending (commit-latency metric).
    /// Primary-memory only: after a takeover the latency is unknowable and
    /// simply not observed.
    ending_at: Option<encompass_sim::SimTime>,
}

impl Txn {
    fn new(home: bool, class: TxnClass) -> Txn {
        Txn {
            state: TxState::Active,
            home,
            class,
            volumes: Members::default(),
            children: Members::default(),
            outstanding_phase1: 0,
            end_waiter: None,
            abort_waiters: Vec::new(),
            pending_deliveries: 0,
            janitor_armed: false,
            ending_at: None,
        }
    }

    /// Does the in-doubt janitor sweep this entry: a non-home one whose
    /// outcome this node has not learnt?
    fn in_doubt(&self) -> bool {
        !self.home && matches!(self.state, TxState::Active | TxState::Ending)
    }

    /// The replicated fraction of this entry.
    fn delta(&self, transid: Transid, seq: u64) -> TmpDelta {
        TmpDelta {
            transid,
            state: self.state,
            home: self.home,
            class: self.class,
            volumes: self.volumes.clone(),
            children: self.children.clone(),
            seq,
            drop: false,
        }
    }
}

/// Checkpoint delta: the replicated fraction of a transaction entry.
pub struct TmpDelta {
    transid: Transid,
    state: TxState,
    home: bool,
    class: TxnClass,
    volumes: Members<VolumeRef>,
    children: Members<NodeId>,
    seq: u64,
    drop: bool,
}

/// Full state for (re)initializing a backup: every entry's delta.
pub struct TmpSnapshot {
    seq: u64,
    txns: Vec<TmpDelta>,
    replies: ServedSnapshot<TmpReply>,
}

/// What an outstanding call to a DISCPROCESS is for.
enum DiscThen {
    /// Critical-response `EndPhase1` to a participating volume.
    Phase1(Transid),
    /// Early (COMMITTING-state) `ReleaseLocks`. Nothing waits on its ack:
    /// the terminal delivery set re-sends ReleaseLocks anyway, and
    /// receivers are idempotent.
    EarlyRelease,
    /// Safe-delivery `ReleaseLocks` of a terminal delivery set.
    Delivery(Transid),
}

/// What an outstanding call to another node's TMP is for.
enum TmpThen {
    /// Critical-response `Phase1` to a child node.
    Phase1(Transid),
    /// Critical-response `RemoteBegin` to `dest`; the session's
    /// `EnsureRemoteSend` is answered when it ends.
    RemoteBegin {
        transid: Transid,
        dest: NodeId,
        owed: Owed,
    },
    /// Safe-delivery `Phase2`/`AbortTxn` of a terminal delivery set.
    Delivery(Transid),
    /// Safe-delivery `AbortTxn` sent to a child the moment an abort
    /// starts. Nothing waits on its ack: the terminal delivery set sends
    /// the child its disposition again once backout is done.
    AbortNotice,
    /// In-doubt `QueryDisposition` to a non-home entry's home node.
    Janitor(Transid),
}

/// The TMP application (hosted in a `guardian` process-pair, named `$TMP`).
pub struct TmpProcess {
    cfg: TmpConfig,
    /// The slot of this node's Monitor Audit Trail in stable storage.
    monitor: MediaId,
    /// The last transid sequence number issued on this node. A takeover
    /// behind a double bus failure can issue one again (DESIGN.md §D30).
    seq: u64,
    // BTreeMap: takeover/janitor/purge sweeps iterate this table, and do so
    // in transid order.
    txns: BTreeMap<Transid, Txn>,
    replies: Served<TmpReply>,
    disc_rpc: Rpc<DiscRequest, DiscReply, DiscThen>,
    tmp_rpc: Rpc<TmpMsg, TmpReply, TmpThen>,
    /// Backout requests; the continuation is the transaction backed out.
    backout_rpc: Rpc<BackoutMsg, BackoutReply, Transid>,
    /// Capacity-sweep Purge requests, the only calls made to an
    /// AUDITPROCESS from here.
    audit_rpc: Rpc<AuditMsg, AuditReply>,
    /// Completion records waiting to board the next monitor-trail force.
    monitor_boxcar: Vec<(Transid, bool)>,
    /// Records whose force is in flight, each beside the tag of the timer
    /// that completes its force.
    monitor_inflight: Vec<(u64, Transid, bool)>,
    /// The records one completing force writes; kept only so that a force
    /// allocates nothing once the commit path has warmed up.
    monitor_batch: Vec<(Transid, bool)>,
    /// The `TAG_MONITOR_WINDOW` timer of the accumulating boxcar is
    /// armed; its firing starts the force. Primary-memory only.
    monitor_window_armed: bool,
    next_tag: u64,
    /// The in-doubt janitor's clock: armed on the primary while an entry
    /// is in doubt ([`Txn::in_doubt`]).
    janitor_clock: Cadence,
    /// The capacity sweep's clock, started only when `purge_interval` is
    /// not zero.
    purge_clock: Cadence,
    /// `$TXTABLE<cpu>` by CPU number, named once: every state change is
    /// broadcast to each of them.
    txtable_names: Vec<String>,
    /// The pid each of those names last resolved to. A live table is the
    /// registrant of its name, so a name is looked up again only once its
    /// table has died (or never registered).
    txtable_pids: [Option<Pid>; MAX_CPUS],
}

/// The most processors a node has (`Topology` refuses more).
const MAX_CPUS: usize = 16;

impl TmpProcess {
    /// `monitor` is the [`MediaId`] of the node's [`monitor_key`] in the
    /// world the process will run in.
    pub fn new(cfg: TmpConfig, monitor: MediaId) -> TmpProcess {
        TmpProcess {
            purge_clock: Cadence::new(cfg.purge_interval, TAG_PURGE),
            cfg,
            monitor,
            seq: 0,
            txns: BTreeMap::new(),
            replies: Served::new(),
            disc_rpc: Rpc::new(10, CRITICAL_TIMEOUT),
            tmp_rpc: Rpc::new(11, CRITICAL_TIMEOUT),
            backout_rpc: Rpc::local(12),
            audit_rpc: Rpc::local(13),
            monitor_boxcar: Vec::new(),
            monitor_inflight: Vec::new(),
            monitor_batch: Vec::new(),
            monitor_window_armed: false,
            next_tag: 0,
            janitor_clock: Cadence::new(INDOUBT_PROBE, TAG_JANITOR),
            txtable_names: Vec::new(),
            txtable_pids: [None; MAX_CPUS],
        }
    }

    /// The transids still in the transaction table, in transid order.
    pub fn open_transids(&self) -> Vec<Transid> {
        self.txns.keys().copied().collect()
    }

    /// The sizes of this TMP's per-transaction state.
    pub fn state_report(&self) -> TmpStateReport {
        TmpStateReport {
            txns: self.txns.len(),
            terminal_txns: self
                .txns
                .values()
                .filter(|t| matches!(t.state, TxState::Ended | TxState::Aborted))
                .count(),
            monitor_boxcar: self.monitor_boxcar.len(),
            monitor_inflight: self.monitor_inflight.len(),
            outstanding_rpcs: self.disc_rpc.in_flight()
                + self.tmp_rpc.in_flight()
                + self.backout_rpc.in_flight()
                + self.audit_rpc.in_flight(),
            timed_rpcs: self.disc_rpc.timed()
                + self.tmp_rpc.timed()
                + self.backout_rpc.timed()
                + self.audit_rpc.timed(),
            reply_cache: self.replies.answered(),
            replies_below_floor: self.replies.below_floor(),
            pending_requests: self.replies.pending(),
        }
    }

    /// This node's Monitor Audit Trail (created on first use).
    fn monitor_trail<'c>(&self, ctx: &'c mut PairCtx<'_, '_>) -> &'c mut MonitorTrail {
        ctx.stable()
            .get_or_create_at(self.monitor, MonitorTrail::new)
    }

    /// `transid`'s state: its table entry's, else the outcome the Monitor
    /// Audit Trail records for it (a transaction that completed and left
    /// the table), else `None`.
    fn state_of(&self, ctx: &mut PairCtx<'_, '_>, transid: Transid) -> Option<TxState> {
        match self.txns.get(&transid) {
            Some(t) => Some(t.state),
            None => self.monitor_trail(ctx).outcome(transid).map(|committed| {
                if committed {
                    TxState::Ended
                } else {
                    TxState::Aborted
                }
            }),
        }
    }

    // ------------------------------------------------------------------
    // Broadcast + checkpoint
    // ------------------------------------------------------------------

    /// Broadcast a state change to the transaction table of *every*
    /// processor in this node (the paper's intra-node design): one bus
    /// message per table, all of them copies of one shared block
    /// (DESIGN.md §D19(e)).
    fn broadcast(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid, state: TxState) {
        let node = ctx.node();
        let cpus = ctx.cpu_count(node);
        for cpu in self.txtable_names.len()..cpus as usize {
            self.txtable_names
                .push(crate::table::txtable_name(cpu as u8));
        }
        let tables = self.txtable_names[..cpus as usize]
            .iter()
            .zip(&mut self.txtable_pids);
        let mut change = None;
        for (name, cached) in tables {
            let pid = match *cached {
                Some(pid) if ctx.is_alive(pid) => Some(pid),
                _ => {
                    *cached = ctx.lookup_name(node, name);
                    *cached
                }
            };
            debug_assert_eq!(pid, ctx.lookup_name(node, name), "{name} changed hands");
            if let Some(pid) = pid {
                let change =
                    change.get_or_insert_with(|| Arc::new(StateBroadcast { transid, state }));
                let _ = ctx.send(pid, Payload::shared(change));
                ctx.count(counter!("tmf.state_broadcasts"), 1);
            }
        }
    }

    fn checkpoint_txn(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        transid: Transid,
        drop: bool,
    ) -> Checkpointed {
        let delta = match self.txns.get(&transid) {
            Some(t) => t.delta(transid, self.seq),
            None => TmpDelta {
                transid,
                state: TxState::Aborted,
                home: false,
                class: TxnClass::ReadWrite,
                volumes: Members::default(),
                children: Members::default(),
                seq: self.seq,
                drop: false,
            },
        };
        ctx.checkpoint(TmpDelta { drop, ..delta })
    }

    /// The one writer of an entry's state outside `apply_checkpoint`. It
    /// asserts, in every build, that the change takes an edge of Figure 3
    /// ([`TxState::successors`]) or re-enters the state the entry is in
    /// (BEGIN's first broadcast, a takeover re-driving a backout), and
    /// arms the janitor when the entry is left in doubt.
    fn set_state(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        transid: Transid,
        state: TxState,
    ) -> Checkpointed {
        if let Some(t) = self.txns.get_mut(&transid) {
            assert!(
                t.state.can_become(state) || t.state == state,
                "illegal transition {} -> {} for {transid}",
                t.state,
                state
            );
            t.state = state;
            t.janitor_armed = false;
            if t.in_doubt() {
                self.janitor_clock.arm(ctx);
            }
        }
        self.broadcast(ctx, transid, state);
        self.checkpoint_txn(ctx, transid, false)
    }

    /// Make `owed` the request that `transid`'s END (home) or Phase1
    /// (non-home) answers. A retransmission (a copy resent at a takeover's
    /// notice, or on the network clock) re-points the waiter at the same
    /// request. A request with another id comes from a process that took
    /// over from the earlier one's sender, or from a sender that gave up on
    /// it: nobody waits on the earlier one, so it is left unanswered.
    fn set_end_waiter(&mut self, transid: Transid, owed: Owed) {
        let t = self
            .txns
            .get_mut(&transid)
            .expect("the caller matched on this entry's state");
        let id = owed.id();
        if let Some(old) = t.end_waiter.replace(owed) {
            if old.id() != id {
                self.replies.forget(old);
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit protocol
    // ------------------------------------------------------------------

    fn start_phase1(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        let Some(t) = self.txns.get(&transid) else {
            return;
        };
        let (volumes, children) = (t.volumes.clone(), t.children.clone());
        let outstanding = volumes.len() + children.len();
        if let Some(t) = self.txns.get_mut(&transid) {
            t.outstanding_phase1 = outstanding;
        }
        ctx.flight(
            transid.flight_id(),
            FlightCause::Phase1Start {
                participants: outstanding as u32,
            },
        );
        if outstanding == 0 {
            self.phase1_complete(ctx, transid);
            return;
        }
        for v in volumes.iter() {
            ctx.count(counter!("tmf.msgs.phase1_local"), 1);
            if self
                .disc_rpc
                .call(
                    ctx,
                    Target::new(v.node, v.volume.clone()),
                    DiscRequest::EndPhase1 { transid },
                    CRITICAL_RETRIES,
                    DiscThen::Phase1(transid),
                )
                .is_err()
            {
                self.phase1_failed(ctx, transid);
                return;
            }
        }
        for &child in children.iter() {
            ctx.count(counter!("tmf.msgs.phase1_net"), 1);
            if self
                .tmp_rpc
                .call(
                    ctx,
                    Target::new(child, TMP_SERVICE),
                    TmpMsg::Phase1 { transid },
                    CRITICAL_RETRIES,
                    TmpThen::Phase1(transid),
                )
                .is_err()
            {
                // "the destination TMP must be accessible at the time
                // the message is initiated"
                self.phase1_failed(ctx, transid);
                return;
            }
        }
    }

    fn phase1_ack(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        let Some(t) = self.txns.get_mut(&transid) else {
            return;
        };
        if t.state != TxState::Ending {
            return; // aborted meanwhile
        }
        t.outstanding_phase1 = t.outstanding_phase1.saturating_sub(1);
        ctx.flight(transid.flight_id(), FlightCause::Phase1VolumeDone);
        if t.outstanding_phase1 == 0 {
            self.phase1_complete(ctx, transid);
        }
    }

    fn phase1_failed(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        self.abort_txn(ctx, transid);
    }

    /// Every participant has forced its audit: the transaction reaches its
    /// commit (home) or phase-one-acknowledged (non-home) point.
    fn phase1_complete(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        let Some(t) = self.txns.get(&transid) else {
            return;
        };
        if t.home {
            // The decision is commit and can no longer be overtaken:
            // enter COMMITTING — set_state checkpoints the state to the
            // backup *before* any lock is released, so a takeover can
            // never presume abort for a transaction whose locks are gone
            // (DESIGN.md §D12) — then release local record locks without
            // waiting for the commit record's force to finish spinning.
            self.set_state(ctx, transid, TxState::Committing);
            self.early_release_locks(ctx, transid);
            // write the commit record: one forced monitor-trail write
            self.schedule_monitor_write(ctx, transid, true);
        } else {
            // acknowledge phase one to the parent; from here on this node
            // cannot unilaterally abort
            if let Some(owed) = self
                .txns
                .get_mut(&transid)
                .and_then(|t| t.end_waiter.take())
            {
                self.replies.answer(ctx, owed, TmpReply::Phase1Ok);
            }
        }
    }

    /// Release the local record locks of a COMMITTING transaction ahead
    /// of phase two. Sound because COMMITTING has no abort successor and
    /// was checkpointed before this call: whatever fails from here on,
    /// the surviving TMP half finishes the commit. The terminal delivery
    /// set still re-sends ReleaseLocks (receivers are idempotent), so
    /// nothing is lost if these rpcs die with the primary.
    fn early_release_locks(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        let Some(t) = self.txns.get(&transid) else {
            return;
        };
        for v in t.volumes.iter() {
            ctx.count(counter!("tmf.msgs.release_early"), 1);
            self.disc_rpc.call_persistent(
                ctx,
                Target::new(v.node, v.volume.clone()),
                DiscRequest::ReleaseLocks {
                    transid,
                    commit: true,
                },
                DiscThen::EarlyRelease,
            );
        }
    }

    fn schedule_monitor_write(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        transid: Transid,
        commit: bool,
    ) {
        ctx.flight(transid.flight_id(), FlightCause::MonitorEnqueued);
        self.monitor_boxcar.push((transid, commit));
        self.maybe_start_monitor_force(ctx);
    }

    fn maybe_start_monitor_force(&mut self, ctx: &mut PairCtx<'_, '_>) {
        let window = self.cfg.group_commit_window;
        if window > SimDuration::ZERO {
            if !self.monitor_inflight.is_empty() || self.monitor_boxcar.is_empty() {
                return;
            }
            // hold the boxcar open for other transactions reaching their
            // completion point, for its whole window
            if !self.monitor_window_armed {
                self.monitor_window_armed = true;
                ctx.set_timer(window, TAG_MONITOR_WINDOW);
            }
            return;
        }
        // with no window there is no boxcar to hold open: the record's
        // force starts now, beside any force already in flight
        self.start_monitor_force(ctx);
    }

    /// Start the single physical force for everything in the boxcar.
    fn start_monitor_force(&mut self, ctx: &mut PairCtx<'_, '_>) {
        let tag = TAG_MONITOR_BASE + self.next_tag;
        self.next_tag += 1;
        ctx.count(counter!("tmf.monitor_forces"), 1);
        ctx.observe(
            histogram!("tmf.monitor_boxcar_size", BOXCAR_BOUNDS),
            self.monitor_boxcar.len() as u64,
        );
        for (transid, commit) in self.monitor_boxcar.drain(..) {
            ctx.flight(transid.flight_id(), FlightCause::MonitorForceStart);
            self.monitor_inflight.push((tag, transid, commit));
        }
        ctx.set_timer(DISC_ACCESS, tag);
    }

    /// The force under timer `tag` reached the platter: every record it
    /// carries whose entry can still take the edge the record completes
    /// (an abort may have overtaken a commit, e.g. the requester's
    /// processor failed while the record was in flight) becomes durable
    /// at once, under ONE trail force.
    fn monitor_flush(&mut self, ctx: &mut PairCtx<'_, '_>, tag: u64) {
        let mut batch = std::mem::take(&mut self.monitor_batch);
        let txns = &self.txns;
        self.monitor_inflight.retain(|&(force, transid, commit)| {
            if force != tag {
                return true;
            }
            let outcome = if commit {
                TxState::Ended
            } else {
                TxState::Aborted
            };
            let state = txns.get(&transid).map(|t| t.state);
            if state.is_some_and(|s| s.can_become(outcome)) {
                batch.push((transid, commit));
            } else if commit {
                ctx.count(counter!("tmf.commit_overtaken_by_abort"), 1);
            }
            false
        });
        let cp = Checkpointed::reviewed(
            "a record only enters the boxcar after set_state checkpointed \
             COMMITTING/Aborting to the backup; the filter above re-reads that \
             checkpointed state at write completion",
        );
        self.monitor_trail(ctx).record_group(&batch, &cp);
        let boxcar = batch.len() as u32;
        for &(transid, commit) in &batch {
            ctx.flight(transid.flight_id(), FlightCause::MonitorForced { boxcar });
            if commit {
                ctx.count(counter!("tmf.commits"), 1);
                self.finish_commit(ctx, transid);
            } else {
                ctx.count(counter!("tmf.aborts"), 1);
                self.finish_abort_home(ctx, transid);
            }
        }
        batch.clear();
        self.monitor_batch = batch;
        // records that arrived while a windowed force was spinning form
        // the next boxcar; they have already waited, so force without a
        // new window
        if !self.monitor_boxcar.is_empty() {
            self.start_monitor_force(ctx);
        }
    }

    /// Apply a commit decided elsewhere — by the home node (Phase2, the
    /// janitor) or by the operator (ForceDisposition) — on this node:
    /// mirror the completion record onto the local trail, then run local
    /// phase two.
    fn commit_nonhome(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        let cp = Checkpointed::reviewed(
            "the home node's *forced* commit record is the transaction's commit \
             point and is already durable before Phase2/rollforward reaches this \
             node; the local record is a replay cache for late retries, and the \
             sender (home TMP or operator) re-sends until answered, so a primary \
             dying before the write loses nothing",
        );
        self.monitor_trail(ctx).record(transid, true, &cp);
        self.finish_commit(ctx, transid);
    }

    /// Phase two: release locks everywhere, complete END-TRANSACTION.
    fn finish_commit(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        let now = ctx.now();
        if let Some(at) = self.txns.get_mut(&transid).and_then(|t| t.ending_at.take()) {
            ctx.observe(
                histogram!("tmf.commit_latency_us", LATENCY_BOUNDS),
                now.since(at).as_micros(),
            );
        }
        ctx.flight(transid.flight_id(), FlightCause::Committed);
        self.set_state(ctx, transid, TxState::Ended);
        let Some(t) = self.txns.get_mut(&transid) else {
            return;
        };
        let waiter = t.end_waiter.take();
        // abort requests that arrived while COMMITTING could no longer
        // win; they learn the transaction's fate instead
        let aborters = std::mem::take(&mut t.abort_waiters);
        // END-TRANSACTION completes now; phase two is safe-delivery and
        // its completion is not awaited
        for owed in waiter.into_iter().chain(aborters) {
            self.replies.answer(ctx, owed, TmpReply::Committed);
        }
        self.send_terminal_deliveries(ctx, transid);
    }

    /// Safe-delivery of a terminal disposition: release locks on every
    /// participating volume and propagate Phase2/AbortTxn to the children.
    /// The entry is only dropped once every delivery is acknowledged — a
    /// takeover finds the terminal entry in the checkpointed table and
    /// re-sends, so an outcome is never lost with a failed primary.
    fn send_terminal_deliveries(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        let Some(t) = self.txns.get(&transid) else {
            return;
        };
        let committed = t.state == TxState::Ended;
        let class = t.class;
        let volumes = t.volumes.clone();
        let children = if t.home {
            t.children.clone()
        } else {
            Members::default()
        };
        let mut pending = 0usize;
        for v in volumes.iter() {
            ctx.count(counter!("tmf.msgs.release_local"), 1);
            self.disc_rpc.call_persistent(
                ctx,
                Target::new(v.node, v.volume.clone()),
                DiscRequest::ReleaseLocks {
                    transid,
                    commit: committed,
                },
                DiscThen::Delivery(transid),
            );
            pending += 1;
        }
        for &child in children.iter() {
            // A committed read-only parent never ran phase one, so its
            // children are still Active — Phase2 would be silently ignored
            // there and the child would linger until the janitor's
            // presumed-abort sweep. AbortTxn drives the Active child
            // straight through backout (it has no images) and ends it
            // promptly; the outcome is identical because the transaction
            // wrote nothing anywhere.
            let msg = if committed && class == TxnClass::ReadWrite {
                ctx.count(counter!("tmf.msgs.phase2_net"), 1);
                TmpMsg::Phase2 { transid }
            } else {
                ctx.count(counter!("tmf.msgs.abort_net"), 1);
                TmpMsg::AbortTxn { transid }
            };
            self.tmp_rpc.call_persistent(
                ctx,
                Target::new(child, TMP_SERVICE),
                msg,
                TmpThen::Delivery(transid),
            );
            pending += 1;
        }
        if let Some(t) = self.txns.get_mut(&transid) {
            t.pending_deliveries = pending;
        }
        if pending == 0 {
            self.forget_txn(ctx, transid);
        }
    }

    /// Phase two is fully acknowledged: the transid leaves the system.
    fn forget_txn(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        self.txns.remove(&transid);
        self.checkpoint_txn(ctx, transid, true);
    }

    fn delivery_acked(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        let done = match self.txns.get_mut(&transid) {
            Some(t) => {
                t.pending_deliveries = t.pending_deliveries.saturating_sub(1);
                t.pending_deliveries == 0 && t.state.is_terminal()
            }
            None => false,
        };
        if done {
            self.forget_txn(ctx, transid);
        }
    }

    // ------------------------------------------------------------------
    // Abort protocol
    // ------------------------------------------------------------------

    /// Abort `transid` if Figure 3 lets it: only Active and Ending may
    /// become Aborting. Anything else — unknown, COMMITTING, already
    /// aborting or finished — keeps its course.
    fn abort_txn(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        let entry = self.txns.get(&transid);
        if entry.is_some_and(|t| t.state.can_become(TxState::Aborting)) {
            self.drive_backout(ctx, transid);
        }
    }

    /// Enter Aborting and drive the backout: notify the children, then ask
    /// the BACKOUTPROCESS to undo the local volumes. Unguarded: reached
    /// through [`Self::abort_txn`]'s gate, or from a takeover re-driving
    /// an entry that was already Aborting when the primary died.
    fn drive_backout(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        let Some(t) = self.txns.get(&transid) else {
            return;
        };
        let (volumes, children) = (t.volumes.clone(), t.children.clone());
        self.set_state(ctx, transid, TxState::Aborting);
        ctx.count(counter!("tmf.abort_started"), 1);
        if !volumes.is_empty() {
            ctx.flight(transid.flight_id(), FlightCause::BackoutStart);
        }
        // abort notifications to children are safe-delivery
        for &child in children.iter() {
            ctx.count(counter!("tmf.msgs.abort_net"), 1);
            self.tmp_rpc.call_persistent(
                ctx,
                Target::new(child, TMP_SERVICE),
                TmpMsg::AbortTxn { transid },
                TmpThen::AbortNotice,
            );
        }
        if volumes.is_empty() {
            self.backout_done(ctx, transid);
        } else {
            let node = ctx.node();
            self.backout_rpc.call_persistent(
                ctx,
                Target::new(node, BACKOUT_SERVICE),
                BackoutMsg::Backout {
                    transid,
                    volumes: volumes.to_vec(),
                },
                transid,
            );
        }
    }

    fn backout_done(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        let Some(t) = self.txns.get(&transid) else {
            return;
        };
        if t.state != TxState::Aborting {
            return;
        }
        let home = t.home;
        ctx.flight(transid.flight_id(), FlightCause::BackoutDone);
        // lock release is part of the terminal safe-delivery set (sent in
        // finish_abort_*), so a takeover between backout and release still
        // re-drives it
        if home {
            // record the abort on the monitor trail, then answer waiters
            self.schedule_monitor_write(ctx, transid, false);
        } else {
            self.finish_abort_nonhome(ctx, transid);
        }
    }

    fn finish_abort_home(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        ctx.flight(transid.flight_id(), FlightCause::Aborted);
        self.set_state(ctx, transid, TxState::Aborted);
        if let Some(t) = self.txns.get_mut(&transid) {
            let waiters = t.end_waiter.take().into_iter();
            for owed in waiters.chain(std::mem::take(&mut t.abort_waiters)) {
                self.replies.answer(ctx, owed, TmpReply::Aborted);
            }
        }
        self.send_terminal_deliveries(ctx, transid);
    }

    fn finish_abort_nonhome(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        ctx.flight(transid.flight_id(), FlightCause::Aborted);
        // the Aborted terminal state is checkpointed to the backup before
        // the trail write below; the record itself is presumed-abort
        // bookkeeping (losing it re-derives the same answer from the home node)
        let cp = self.set_state(ctx, transid, TxState::Aborted);
        // record the disposition on this node's trail so late retries
        // (e.g. a duplicate RegisterVolume) see a completed transaction
        self.monitor_trail(ctx).record(transid, false, &cp);
        let (phase1_waiter, abort_waiters) = match self.txns.get_mut(&transid) {
            Some(t) => (t.end_waiter.take(), std::mem::take(&mut t.abort_waiters)),
            None => (None, Vec::new()),
        };
        // a pending Phase1 request is answered with refusal — forcing
        // network consensus to abort...
        if let Some(owed) = phase1_waiter {
            self.replies.answer(ctx, owed, TmpReply::Phase1Refused);
        }
        // ...but session Abort requesters get the abort they asked for
        for owed in abort_waiters {
            self.replies.answer(ctx, owed, TmpReply::Aborted);
        }
        self.send_terminal_deliveries(ctx, transid);
    }

    // ------------------------------------------------------------------
    // Request handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ctx: &mut PairCtx<'_, '_>, owed: Owed, msg: TmpMsg) {
        match msg {
            TmpMsg::Begin { cpu, class } => {
                self.seq += 1;
                let transid = Transid {
                    home_node: ctx.node(),
                    cpu,
                    seq: self.seq,
                };
                self.txns.insert(transid, Txn::new(true, class));
                ctx.count(counter!("tmf.begins"), 1);
                ctx.flight(transid.flight_id(), FlightCause::Begin);
                self.set_state(ctx, transid, TxState::Active);
                self.replies.answer(ctx, owed, TmpReply::Began { transid });
            }
            TmpMsg::RegisterVolume { transid, volume } => {
                // A late or retried registration for a transaction that
                // already committed or aborted must not resurrect it as a
                // phantom Active entry: for unknown transids, the Monitor
                // Audit Trail is the authority on completion.
                if !self.txns.contains_key(&transid)
                    && self.monitor_trail(ctx).outcome(transid).is_some()
                {
                    ctx.count(counter!("tmf.register_after_completion"), 1);
                    self.replies.answer(ctx, owed, TmpReply::Failed);
                    return;
                }
                let home = transid.home_node == volume.node;
                let (ok, changed) = {
                    let t = self
                        .txns
                        .entry(transid)
                        .or_insert_with(|| Txn::new(home, TxnClass::ReadWrite));
                    if t.in_doubt() {
                        self.janitor_clock.arm(ctx);
                    }
                    if t.state != TxState::Active {
                        (false, false)
                    } else if t.volumes.contains(&volume) {
                        (true, false)
                    } else {
                        t.volumes = t.volumes.inserted(t.volumes.len(), volume);
                        (true, true)
                    }
                };
                if changed {
                    self.checkpoint_txn(ctx, transid, false);
                }
                let r = if ok { TmpReply::Ok } else { TmpReply::Failed };
                self.replies.answer(ctx, owed, r);
            }
            TmpMsg::EnsureRemoteSend { transid, dest } => {
                let my_node = ctx.node();
                let Some(t) = self.txns.get(&transid) else {
                    self.replies.answer(ctx, owed, TmpReply::Failed);
                    return;
                };
                if t.state != TxState::Active {
                    self.replies.answer(ctx, owed, TmpReply::Failed);
                    return;
                }
                if dest == my_node || t.children.contains(&dest) {
                    self.replies.answer(ctx, owed, TmpReply::Ok);
                    return;
                }
                ctx.count(counter!("tmf.msgs.remote_begin"), 1);
                let sent = self.tmp_rpc.call(
                    ctx,
                    Target::new(dest, TMP_SERVICE),
                    TmpMsg::RemoteBegin { transid },
                    CRITICAL_RETRIES,
                    TmpThen::RemoteBegin {
                        transid,
                        dest,
                        owed,
                    },
                );
                if let Err(TmpThen::RemoteBegin { owed, .. }) = sent {
                    self.replies.answer(ctx, owed, TmpReply::Failed);
                }
            }
            TmpMsg::End { transid } => {
                match self.state_of(ctx, transid) {
                    Some(TxState::Active) => {
                        let now = ctx.now();
                        let class = self.txns.get(&transid).map(|t| t.class).unwrap_or_default();
                        self.set_end_waiter(transid, owed);
                        if let Some(t) = self.txns.get_mut(&transid) {
                            t.ending_at = Some(now);
                        }
                        ctx.flight(transid.flight_id(), FlightCause::EndRequested);
                        self.set_state(ctx, transid, TxState::Ending);
                        ctx.count(counter!("tmf.ends"), 1);
                        match class {
                            TxnClass::ReadWrite => self.start_phase1(ctx, transid),
                            TxnClass::ReadOnly => {
                                // A transaction that wrote nothing has
                                // nothing to make durable: no phase one, no
                                // forced commit record. END-TRANSACTION
                                // resolves locally; the terminal delivery
                                // set still ends it at any child node
                                // (DESIGN.md §D13).
                                ctx.count(counter!("tmf.commits"), 1);
                                ctx.count(counter!("tmf.readonly_commits"), 1);
                                self.finish_commit(ctx, transid);
                            }
                        }
                    }
                    Some(TxState::Ending) | Some(TxState::Committing) => {
                        self.set_end_waiter(transid, owed); // retried End
                    }
                    Some(TxState::Aborting) => {
                        if let Some(t) = self.txns.get_mut(&transid) {
                            t.abort_waiters.push(owed);
                        }
                    }
                    Some(TxState::Ended) => self.replies.answer(ctx, owed, TmpReply::Committed),
                    // never heard of it: presumed abort
                    Some(TxState::Aborted) | None => {
                        self.replies.answer(ctx, owed, TmpReply::Aborted)
                    }
                }
            }
            TmpMsg::Abort { transid, .. } => {
                let home = self.txns.get(&transid).is_some_and(|t| t.home);
                match self.state_of(ctx, transid) {
                    Some(TxState::Ended) => self.replies.answer(ctx, owed, TmpReply::Committed),
                    Some(TxState::Aborted) | None => {
                        self.replies.answer(ctx, owed, TmpReply::Aborted)
                    }
                    Some(TxState::Ending) if !home => {
                        // after phase-one ack a non-home node may not
                        // unilaterally abort
                        self.replies.answer(ctx, owed, TmpReply::Failed);
                    }
                    Some(_) => {
                        if let Some(t) = self.txns.get_mut(&transid) {
                            t.abort_waiters.push(owed);
                        }
                        self.abort_txn(ctx, transid);
                    }
                }
            }
            TmpMsg::QueryDisposition { transid } => {
                let state = self.state_of(ctx, transid);
                // utility query: not cached (idempotent)
                self.replies
                    .answer_uncached(ctx, owed, TmpReply::Disposition { state });
            }
            TmpMsg::ForceDisposition { transid, commit } => {
                // the operator breaks an in-doubt hold through the same
                // gate as every other transition: a commit only where
                // Ended may follow, an abort only where Aborting may, so a
                // COMMITTING or finished transaction keeps its outcome
                ctx.count(counter!("tmf.force_disposition"), 1);
                if !commit {
                    self.abort_txn(ctx, transid);
                } else if let Some(t) = self.txns.get_mut(&transid) {
                    if t.state.can_become(TxState::Ended) {
                        // a home END, a call within the node, is answered
                        // Committed as the commit finishes; a Phase1 is
                        // its parent's call across the network, whose
                        // retransmission finds the entry Ended
                        if !t.home {
                            if let Some(old) = t.end_waiter.take() {
                                self.replies.forget(old);
                            }
                        }
                        self.commit_nonhome(ctx, transid);
                    }
                }
                self.replies.answer(ctx, owed, TmpReply::Ok);
            }
            TmpMsg::RemoteBegin { transid } => {
                ctx.count(counter!("tmf.remote_begins_received"), 1);
                let known = self.txns.contains_key(&transid);
                if !known {
                    // Non-home entries default to read-write: the class only
                    // matters on the home node (END protocol choice) and in
                    // terminal deliveries, which a read-only parent answers
                    // with AbortTxn regardless of what this entry believes.
                    self.txns
                        .insert(transid, Txn::new(false, TxnClass::ReadWrite));
                    self.set_state(ctx, transid, TxState::Active);
                }
                self.replies.answer(ctx, owed, TmpReply::Ok);
            }
            TmpMsg::Phase1 { transid } => match self.state_of(ctx, transid) {
                Some(TxState::Active) => {
                    self.set_end_waiter(transid, owed);
                    self.set_state(ctx, transid, TxState::Ending);
                    self.start_phase1(ctx, transid);
                }
                Some(TxState::Ending) => self.set_end_waiter(transid, owed),
                Some(TxState::Ended) | Some(TxState::Committing) => {
                    self.replies.answer(ctx, owed, TmpReply::Phase1Ok)
                }
                Some(TxState::Aborting) | Some(TxState::Aborted) | None => {
                    self.replies.answer(ctx, owed, TmpReply::Phase1Refused)
                }
            },
            TmpMsg::Phase2 { transid } => {
                // safe-delivery: ack receipt, then apply
                self.replies.answer(ctx, owed, TmpReply::Ok);
                if let Some(t) = self.txns.get(&transid) {
                    if t.state == TxState::Ending {
                        // the home node committed: record it here too and
                        // release local locks
                        self.commit_nonhome(ctx, transid);
                    }
                }
            }
            TmpMsg::AbortTxn { transid } => {
                // safe-delivery: ack receipt, then apply
                self.replies.answer(ctx, owed, TmpReply::Ok);
                if self.txns.contains_key(&transid) {
                    self.abort_txn(ctx, transid);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // RPC completion routing
    // ------------------------------------------------------------------

    fn on_disc_completion(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        c: Completion<DiscReply, DiscThen>,
    ) {
        match c.then {
            DiscThen::Phase1(transid) => {
                if matches!(c.body, DiscReply::Phase1Done) {
                    self.phase1_ack(ctx, transid);
                } else {
                    self.phase1_failed(ctx, transid);
                }
            }
            DiscThen::EarlyRelease => {}
            DiscThen::Delivery(transid) => self.delivery_acked(ctx, transid),
        }
    }

    fn on_tmp_completion(&mut self, ctx: &mut PairCtx<'_, '_>, c: Completion<TmpReply, TmpThen>) {
        match c.then {
            TmpThen::Phase1(transid) => {
                if matches!(c.body, TmpReply::Phase1Ok) {
                    self.phase1_ack(ctx, transid);
                } else {
                    self.phase1_failed(ctx, transid);
                }
            }
            TmpThen::RemoteBegin {
                transid,
                dest,
                owed,
            } => match self.txns.get_mut(&transid) {
                Some(t) if matches!(c.body, TmpReply::Ok) => {
                    if let Err(at) = t.children.binary_search(&dest) {
                        t.children = t.children.inserted(at, dest);
                    }
                    self.checkpoint_txn(ctx, transid, false);
                    self.replies.answer(ctx, owed, TmpReply::Ok);
                }
                _ => self.replies.answer(ctx, owed, TmpReply::Failed),
            },
            TmpThen::Delivery(transid) => self.delivery_acked(ctx, transid),
            TmpThen::AbortNotice => {}
            TmpThen::Janitor(transid) => {
                if let TmpReply::Disposition { state } = c.body {
                    self.resolve_indoubt(ctx, transid, state);
                }
            }
        }
    }

    /// The home node answered an in-doubt query about a non-home entry.
    /// Only authoritative answers act: a terminal state, or no record at
    /// all — the commit record is forced to stable storage before any
    /// commit completes, so "never heard of it" can only mean the
    /// transaction never committed (presumed abort).
    fn resolve_indoubt(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        transid: Transid,
        home_state: Option<TxState>,
    ) {
        let local = match self.txns.get(&transid) {
            Some(t) if !t.home => t.state,
            _ => return,
        };
        if !matches!(local, TxState::Active | TxState::Ending) {
            return;
        }
        match home_state {
            Some(TxState::Ended) if local.can_become(TxState::Ended) => {
                ctx.count(counter!("tmf.indoubt_commits"), 1);
                self.commit_nonhome(ctx, transid);
            }
            // An Active entry never acknowledged phase one, so it took no
            // part in a commit (a phantom a stale RemoteBegin resurrected,
            // or a read-only parent's child) and may abort on its own.
            Some(TxState::Ended) | Some(TxState::Aborted) | None => {
                ctx.count(counter!("tmf.indoubt_aborts"), 1);
                self.abort_txn(ctx, transid);
            }
            _ => {} // still in progress at home: leave it alone
        }
    }

    /// Periodic sweep: query the home node about non-home entries that
    /// made no progress since the previous sweep. This catches outcomes
    /// whose safe-delivery died with a home TMP processor, and phantom
    /// entries resurrected by stale RemoteBegin retransmissions.
    fn janitor_tick(&mut self, ctx: &mut PairCtx<'_, '_>) {
        let in_flight: Vec<Transid> = self
            .tmp_rpc
            .awaiting()
            .filter_map(|then| match then {
                TmpThen::Janitor(transid) => Some(*transid),
                TmpThen::Phase1(_)
                | TmpThen::RemoteBegin { .. }
                | TmpThen::Delivery(_)
                | TmpThen::AbortNotice => None,
            })
            .collect();
        let stale: Vec<(Transid, NodeId)> = self
            .txns
            .iter_mut()
            .filter(|(t, e)| e.in_doubt() && !in_flight.contains(t))
            .filter_map(|(t, e)| {
                if e.janitor_armed {
                    Some((*t, t.home_node))
                } else {
                    e.janitor_armed = true;
                    None
                }
            })
            .collect();
        for (transid, home) in stale {
            ctx.count(counter!("tmf.indoubt_probes"), 1);
            // an unreachable home node fails the probe (now, or when its
            // retry budget runs out): the next sweep simply retries
            let _ = self.tmp_rpc.call(
                ctx,
                Target::new(home, TMP_SERVICE),
                TmpMsg::QueryDisposition { transid },
                CRITICAL_RETRIES,
                TmpThen::Janitor(transid),
            );
        }
    }

    /// Arm the janitor if any entry is in doubt.
    fn arm_janitor(&mut self, ctx: &mut PairCtx<'_, '_>) {
        if self.txns.values().any(Txn::in_doubt) {
            self.janitor_clock.arm(ctx);
        }
    }

    /// Audit-trail capacity sweep. Report every local volume's purge floor
    /// from its *latest completed* dump — every trail record below a
    /// dump's floor was taken by a transaction that released its locks
    /// before the dump began, so its effects are fully inside the archive
    /// image and neither ROLLFORWARD nor backout can ever need it. The
    /// AUDITPROCESS groups the floors by trail partition and cuts each
    /// partition independently (skipping any with an undumped volume),
    /// clamped below the oldest open transaction's first image on that
    /// partition.
    fn purge_tick(&mut self, ctx: &mut PairCtx<'_, '_>) {
        let node = ctx.node();
        let floors: Vec<(Name, Option<u64>)> = (self.cfg.volumes.iter())
            .map(|volume| {
                let key = dump_registry_key(&VolumeRef::new(node, volume));
                let floor = ctx
                    .stable()
                    .get::<DumpRegistry>(&key)
                    .map(|r| r.purge_floor);
                (volume.clone(), floor)
            })
            .collect();
        // no volume has a purgeable floor yet: spare the message
        if !floors.iter().any(|(_, f)| matches!(f, Some(f) if *f > 1)) {
            return;
        }
        ctx.count(counter!("tmf.purge_requests"), 1);
        // a sweep lost with the primary is simply re-run at the next
        // interval
        self.audit_rpc.call_persistent(
            ctx,
            Target::new(node, AUDIT_SERVICE),
            AuditMsg::Purge {
                floors,
                open: self.txns.keys().copied().collect(),
            },
            (),
        );
    }

    /// A critical-response call ran out of retries. Safe-delivery calls
    /// never get here: they are re-offered until answered.
    fn on_disc_expired(&mut self, ctx: &mut PairCtx<'_, '_>, then: DiscThen) {
        match then {
            DiscThen::Phase1(transid) => self.phase1_failed(ctx, transid),
            DiscThen::EarlyRelease | DiscThen::Delivery(_) => {}
        }
    }

    /// As [`Self::on_disc_expired`], for calls to other TMPs.
    fn on_tmp_expired(&mut self, ctx: &mut PairCtx<'_, '_>, then: TmpThen) {
        match then {
            TmpThen::Phase1(transid) => {
                ctx.count(counter!("tmf.phase1_timeouts"), 1);
                self.phase1_failed(ctx, transid);
            }
            TmpThen::RemoteBegin { owed, .. } => {
                ctx.count(counter!("tmf.remote_begin_timeouts"), 1);
                self.replies.answer(ctx, owed, TmpReply::Failed);
            }
            // a failed in-doubt probe is retried by the next sweep
            TmpThen::Janitor(_) | TmpThen::Delivery(_) | TmpThen::AbortNotice => {}
        }
    }
}

impl PairApp for TmpProcess {
    type Delta = TmpDelta;
    type Snapshot = TmpSnapshot;

    fn service_name(&self) -> Name {
        TMP_SERVICE
    }

    fn kind(&self) -> &'static str {
        "tmp"
    }

    fn on_request(&mut self, ctx: &mut PairCtx<'_, '_>, _src: Pid, payload: Payload) {
        let payload = match self.disc_rpc.accept(ctx, payload) {
            Ok(c) => {
                self.on_disc_completion(ctx, c);
                return;
            }
            Err(p) => p,
        };
        let payload = match self.tmp_rpc.accept(ctx, payload) {
            Ok(c) => {
                self.on_tmp_completion(ctx, c);
                return;
            }
            Err(p) => p,
        };
        let payload = match self.backout_rpc.accept(ctx, payload) {
            Ok(c) => {
                self.backout_done(ctx, c.then);
                return;
            }
            Err(p) => p,
        };
        let payload = match self.audit_rpc.accept(ctx, payload) {
            Ok(c) => {
                if let AuditReply::Purged { files } = c.body {
                    ctx.count(counter!("tmf.purged_trail_files"), files);
                }
                return;
            }
            Err(p) => p,
        };
        match self.replies.admit(ctx, payload) {
            // A retransmission of a request still waiting on its
            // transaction is handled again, not dropped: a retried END or
            // Phase1 re-points the waiter, a retried EnsureRemoteSend
            // re-issues the RemoteBegin its first attempt may have lost.
            Admitted::Fresh(owed, msg) | Admitted::Duplicate(owed, msg) => {
                self.handle(ctx, owed, msg)
            }
            Admitted::Replayed | Admitted::NotARequest(_) => {}
        }
    }

    /// Lay both clocks' grids; after a takeover the janitor starts at
    /// once if the backup inherited an entry in doubt.
    fn on_primary_start(&mut self, ctx: &mut PairCtx<'_, '_>) {
        self.janitor_clock.start(ctx);
        self.arm_janitor(ctx);
        if self.cfg.purge_interval > SimDuration::ZERO {
            self.purge_clock.start(ctx);
            self.purge_clock.arm(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut PairCtx<'_, '_>, tag: u64) {
        if self.janitor_clock.fired(tag) {
            self.janitor_tick(ctx);
            self.arm_janitor(ctx);
            return;
        }
        if self.purge_clock.fired(tag) {
            self.purge_tick(ctx);
            self.purge_clock.arm(ctx);
            return;
        }
        if tag == TAG_MONITOR_WINDOW {
            // the window ends: the boxcar armed it with a record on board,
            // and nothing but this firing starts its force
            debug_assert!(self.monitor_window_armed && self.monitor_inflight.is_empty());
            self.monitor_window_armed = false;
            self.start_monitor_force(ctx);
            return;
        }
        if (TAG_MONITOR_BASE..RPC_TAG_BASE).contains(&tag) {
            self.monitor_flush(ctx, tag);
            return;
        }
        if let TimerOutcome::Expired { then, .. } = self.disc_rpc.on_timer(ctx, tag) {
            self.on_disc_expired(ctx, then);
            return;
        }
        if let TimerOutcome::Expired { then, .. } = self.tmp_rpc.on_timer(ctx, tag) {
            self.on_tmp_expired(ctx, then);
            return;
        }
        // backout and purge requests are safe-delivery: they never expire
        let _ = self.backout_rpc.on_timer(ctx, tag);
        let _ = self.audit_rpc.on_timer(ctx, tag);
    }

    fn on_system(&mut self, ctx: &mut PairCtx<'_, '_>, ev: SystemEvent) {
        // calls within the node whose destination died go to the process
        // that took over
        self.disc_rpc.on_system(ctx, ev);
        self.tmp_rpc.on_system(ctx, ev);
        self.backout_rpc.on_system(ctx, ev);
        self.audit_rpc.on_system(ctx, ev);
        if let SystemEvent::CpuDown(node, cpu) = ev {
            if node != ctx.node() {
                return;
            }
            // "failure of the primary TCP's processor" — abort the active
            // transactions begun on the failed CPU
            let affected: Vec<Transid> = self
                .txns
                .iter()
                .filter(|(t, e)| e.home && t.cpu == cpu.0 && matches!(e.state, TxState::Active))
                .map(|(t, _)| *t)
                .collect();
            for transid in affected {
                ctx.count(counter!("tmf.cpu_failure_aborts"), 1);
                self.abort_txn(ctx, transid);
            }
        }
    }

    fn on_takeover(&mut self, ctx: &mut PairCtx<'_, '_>) {
        ctx.count(counter!("tmf.takeovers"), 1);
        // Re-drive in-flight protocol work from checkpointed state; client
        // rpcs are resent to this half at the failure notice, so lost
        // waiters re-attach. The dead primary's
        // outstanding calls, monitor forces and boxcar lived in its memory
        // only — this half has never served a request or issued a call, so
        // there is nothing of its own to discard. Boxcarred records that
        // never reached the trail are recovered per state below (trail
        // consult for Ending-home, backout re-drive for Aborting); lost
        // early releases by the terminal delivery resend.
        let in_flight: Vec<(Transid, TxState, bool, TxnClass)> = self
            .txns
            .iter()
            .map(|(t, e)| (*t, e.state, e.home, e.class))
            .collect();
        for (transid, state, home, class) in in_flight {
            ctx.flight(transid.flight_id(), FlightCause::Takeover);
            match state {
                TxState::Ending if home => {
                    // The commit point is the forced record on the Monitor
                    // Audit Trail, and the primary may have died *after*
                    // writing it but before the drop-checkpoint: consult
                    // the trail before presuming abort.
                    let outcome = self.monitor_trail(ctx).outcome(transid);
                    if outcome == Some(true) {
                        ctx.count(counter!("tmf.takeover_commit_completions"), 1);
                        self.finish_commit(ctx, transid);
                    } else {
                        // no commit record on stable storage: presume abort
                        self.abort_txn(ctx, transid);
                    }
                }
                TxState::Ending => { /* wait for the home node's disposition */ }
                TxState::Committing => {
                    // The checkpointed COMMITTING state *is* the commit
                    // decision (locks may already be released), so abort
                    // is out of the question. If the commit record reached
                    // the monitor trail before the primary died, finish;
                    // otherwise re-drive the forced write.
                    let outcome = self.monitor_trail(ctx).outcome(transid);
                    if outcome == Some(true) {
                        ctx.count(counter!("tmf.takeover_commit_completions"), 1);
                        self.finish_commit(ctx, transid);
                    } else {
                        ctx.count(counter!("tmf.takeover_commit_redrives"), 1);
                        self.schedule_monitor_write(ctx, transid, true);
                    }
                }
                TxState::Aborting => {
                    // the backout (or the abort record's force) may have
                    // died with the primary: re-enter Aborting and re-drive
                    // it, past abort_txn's gate
                    self.drive_backout(ctx, transid);
                }
                TxState::Ended | TxState::Aborted => {
                    // the outcome is decided but its safe-delivery set
                    // (phase-2 / abort notices, lock releases) may have died
                    // with the primary; receivers are idempotent, so re-send
                    // everything
                    ctx.count(counter!("tmf.takeover_delivery_resends"), 1);
                    self.send_terminal_deliveries(ctx, transid);
                }
                TxState::Active if home && class == TxnClass::ReadOnly => {
                    // A read-only session has no durable work in flight and
                    // its snapshot fences died with the primary's session
                    // state: a takeover resolves it as a plain abort and the
                    // requester restarts (DESIGN.md §D13).
                    ctx.count(counter!("tmf.takeover_readonly_aborts"), 1);
                    self.abort_txn(ctx, transid);
                }
                TxState::Active => {
                    // still collecting work; the requester's timeout (or the
                    // janitor) decides its fate, not the takeover
                }
            }
        }
    }

    fn apply_checkpoint(&mut self, d: TmpDelta, _cp: &Checkpointed) {
        self.seq = self.seq.max(d.seq);
        if d.drop {
            self.txns.remove(&d.transid);
            return;
        }
        let t = self
            .txns
            .entry(d.transid)
            .or_insert_with(|| Txn::new(d.home, d.class));
        t.state = d.state;
        t.home = d.home;
        t.class = d.class;
        t.volumes = d.volumes;
        t.children = d.children;
    }

    fn snapshot(&self) -> TmpSnapshot {
        TmpSnapshot {
            seq: self.seq,
            txns: self
                .txns
                .iter()
                .map(|(t, e)| e.delta(*t, self.seq))
                .collect(),
            replies: self.replies.entries(),
        }
    }

    fn restore(&mut self, s: TmpSnapshot, cp: &Checkpointed) {
        self.seq = s.seq;
        self.txns.clear();
        for delta in s.txns {
            self.apply_checkpoint(delta, cp);
        }
        self.replies.restore(s.replies);
    }

    fn on_cpu_down(&mut self, node: NodeId, cpu: CpuId) {
        self.replies.forget_cpu(node, cpu);
    }
}

/// Spawn a `$TMP` pair on `node`.
pub fn spawn_tmp(
    world: &mut World,
    node: NodeId,
    cpu_primary: u8,
    cpu_backup: u8,
    cfg: TmpConfig,
) -> PairHandle {
    let monitor = world.stable_mut().id(&monitor_key(node));
    guardian::spawn_pair(world, node, cpu_primary, cpu_backup, move || {
        TmpProcess::new(cfg.clone(), monitor)
    })
}
