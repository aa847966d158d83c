//! The application-side File System extension for TMF.
//!
//! In real ENCOMPASS the File System transparently appends the *current
//! process transid* to every interprocess request, notifies the TMP before
//! the first transmission of a transid to a remote node, and routes
//! data-base requests to the DISCPROCESS owning the key's partition. The
//! [`TmfSession`] struct packages those duties for a simulated process:
//!
//! * `begin` / `end` / `abort` implement the Screen COBOL verbs against
//!   the *home* TMP;
//! * `adopt` sets the current process transid from an incoming request
//!   (the server side of a SEND);
//! * the data-base operations resolve the partition from the catalog,
//!   perform **remote transaction begin** and **volume registration**
//!   bookkeeping with the TMPs, and then issue the request to the right
//!   DISCPROCESS.
//!
//! The session is deliberately single-outstanding-operation: the paper's
//! servers are "simple and single-threaded: (1) read the transaction
//! request message; (2) perform the data base function requested;
//! (3) reply".

use crate::state::TxnClass;
use crate::tmp::{TmpMsg, TmpReply, TMP_SERVICE};
use bytes::Bytes;
use encompass_sim::{
    counter, Ctx, DetHashSet, FlightCause, Name, NodeId, Payload, SimDuration, SystemEvent,
};
use encompass_storage::discprocess::{DiscReply, DiscRequest};
use encompass_storage::types::{Transid, VolumeRef};
use encompass_storage::Catalog;
use guardian::{Rpc, Target, TimerOutcome};
use std::collections::BTreeMap;

/// How a transaction wants to run, declared at BEGIN-TRANSACTION and
/// carried to every server that adopts the transid.
///
/// The default is the paper's read-write transaction, which locks what
/// it reads with `ReadLock` and what it writes, exclusively. `read_only()`
/// declares the no-write promise; a read-only transaction reads
/// *snapshots* (no record locks at all — each volume serves the value as
/// of a pinned before-image fence).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SessionOptions {
    class: TxnClass,
}

impl SessionOptions {
    pub fn new() -> SessionOptions {
        SessionOptions::default()
    }

    /// Declare the transaction read-only: writes are refused with
    /// [`SessionError::ReadOnlyViolation`] and END-TRANSACTION resolves
    /// locally at the home TMP (no phase one, no forced commit record).
    pub fn read_only(mut self) -> SessionOptions {
        self.class = TxnClass::ReadOnly;
        self
    }
}

/// A typed data-base request — the File System surface a server step may
/// issue against the session. One enum value replaces the historical
/// per-verb method zoo, so callers build requests as data and hand them
/// to [`TmfSession::op`].
#[derive(Clone, Debug)]
pub enum DbOp {
    Read {
        file: Name,
        key: Bytes,
    },
    ReadLock {
        file: Name,
        key: Bytes,
    },
    Insert {
        file: Name,
        key: Bytes,
        value: Bytes,
    },
    Update {
        file: Name,
        key: Bytes,
        value: Bytes,
    },
    Delete {
        file: Name,
        key: Bytes,
    },
    InsertEntry {
        file: Name,
        value: Bytes,
    },
    ReadRange {
        file: Name,
        low: Bytes,
        high: Option<Bytes>,
        limit: usize,
    },
}

/// Why a session operation failed. Delivered in
/// [`SessionEvent::Failed`] — the single failure path for every verb and
/// data-base operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// Every retry of the underlying request timed out.
    Timeout,
    /// The TMP refused the operation (remote node unreachable, volume
    /// registration after completion, or phase-one refusal), or the
    /// volume's node was unreachable when the request was initiated.
    Refused,
    /// A reply arrived that does not answer the pending operation — a
    /// protocol-level surprise; abort and restart the transaction.
    Protocol,
    /// A write operation was issued under a transaction that declared
    /// itself read-only at BEGIN-TRANSACTION. Reported synchronously —
    /// nothing was sent to any DISCPROCESS.
    ReadOnlyViolation,
}

/// What a session operation produced.
#[derive(Debug)]
pub enum SessionEvent {
    /// `begin` completed.
    Began { transid: Transid },
    /// A data-base operation completed.
    OpDone { reply: DiscReply },
    /// `end` completed with a commit.
    Committed,
    /// `end`/`abort` completed with an abort (the transaction's updates
    /// were backed out).
    Aborted,
    /// The operation could not be carried out; `error` says why. The
    /// caller should abort or restart the transaction.
    Failed { error: SessionError },
}

#[derive(Clone, Copy, PartialEq)]
enum Stage {
    EnsureRemote,
    Register,
    Execute,
    TmpVerb,
    /// A bare remote-begin before a SEND to a remote server (no data op).
    EnsureOnly,
}

struct Pending {
    op: Option<DiscRequest>,
    volume: Option<VolumeRef>,
    stage: Stage,
    /// Does this op transmit the transid (and therefore need the
    /// remote-begin and volume-registration stages)? Snapshot reads carry
    /// no transid — the TMP never hears about the volumes they touch.
    register: bool,
}

/// Per-attempt timeout of a session's requests: the resend interval of a
/// request to another node. A data-base request within the node is
/// reported as Failed `(RETRIES + 1) × ATTEMPT_TIMEOUT` after it was made.
const ATTEMPT_TIMEOUT: SimDuration = SimDuration::from_millis(300);
/// Retries of a data-base request before it is reported as Failed.
const RETRIES: u32 = 10;

/// Per-process TMF session state.
pub struct TmfSession {
    catalog: Catalog,
    tmp_rpc: Rpc<TmpMsg, TmpReply>,
    disc_rpc: Rpc<DiscRequest, DiscReply>,
    current: Option<Transid>,
    options: SessionOptions,
    registered_volumes: DetHashSet<VolumeRef>,
    ensured_nodes: DetHashSet<NodeId>,
    /// Per-volume snapshot fences of the current read-only transaction:
    /// the first snapshot read against a volume pins that volume's
    /// before-image sequence and every later read reuses it, so the
    /// transaction sees one consistent cut per volume. (BTreeMap for
    /// deterministic debug output; never iterated on the hot path.)
    snapshot_fences: BTreeMap<VolumeRef, u64>,
    pending: Option<Pending>,
    /// Default lock-wait (deadlock timeout) attached to lock requests.
    pub lock_wait: SimDuration,
}

impl TmfSession {
    /// `id_space` must be distinct among `Rpc` users within one process.
    pub fn new(catalog: Catalog, id_space: u64) -> TmfSession {
        TmfSession {
            catalog,
            tmp_rpc: Rpc::new(32 + id_space * 2, ATTEMPT_TIMEOUT),
            disc_rpc: Rpc::new(33 + id_space * 2, ATTEMPT_TIMEOUT),
            current: None,
            options: SessionOptions::default(),
            registered_volumes: DetHashSet::default(),
            ensured_nodes: DetHashSet::default(),
            snapshot_fences: BTreeMap::new(),
            pending: None,
            lock_wait: SimDuration::from_millis(500),
        }
    }

    /// The id spaces of the session's two `Rpc`s (TMP, then DISCPROCESS):
    /// every reply [`Self::accept`] takes, and every timer
    /// [`Self::on_timer`] drives, carries one of them
    /// ([`guardian::space_of`]).
    pub fn id_spaces(&self) -> [u64; 2] {
        [self.tmp_rpc.id_space(), self.disc_rpc.id_space()]
    }

    /// The current process transid, if in transaction mode.
    pub fn transid(&self) -> Option<Transid> {
        self.current
    }

    /// Is an operation outstanding?
    pub fn busy(&self) -> bool {
        self.pending.is_some()
    }

    /// The options the current transaction was begun (or adopted) with.
    pub fn options(&self) -> SessionOptions {
        self.options
    }

    /// Adopt a transid delivered with an incoming request (server side);
    /// the File System made it the "current process transid". The
    /// requester's [`SessionOptions`] ride along with the transid so the
    /// server's reads run in the transaction's declared mode.
    pub fn adopt(&mut self, transid: Transid, options: SessionOptions) {
        self.reset();
        self.current = Some(transid);
        self.options = options;
    }

    /// Drop transaction mode without talking to the TMP (a context-free
    /// server finishing a request).
    pub fn clear(&mut self) {
        debug_assert!(self.pending.is_none(), "clear() while an op is pending");
        self.reset();
    }

    /// Leave transaction mode: forget the transid, its options and every
    /// per-transaction memo (registered volumes, ensured nodes, snapshot
    /// fences).
    fn reset(&mut self) {
        self.current = None;
        self.options = SessionOptions::default();
        self.registered_volumes.clear();
        self.ensured_nodes.clear();
        self.snapshot_fences.clear();
    }

    // ------------------------------------------------------------------
    // Verbs
    // ------------------------------------------------------------------

    /// BEGIN-TRANSACTION. The [`SessionOptions`] declare the transaction's
    /// class for its whole life; `SessionOptions::default()` is the plain
    /// read-write transaction.
    pub fn begin(&mut self, ctx: &mut Ctx<'_>, options: SessionOptions) {
        assert!(self.pending.is_none(), "session is single-threaded");
        assert!(self.current.is_none(), "already in transaction mode");
        self.reset();
        self.options = options;
        self.pending = Some(Pending {
            op: None,
            volume: None,
            stage: Stage::TmpVerb,
            register: false,
        });
        let node = ctx.node();
        let cpu = ctx.pid().cpu.0;
        self.call_tmp(
            ctx,
            node,
            TmpMsg::Begin {
                cpu,
                class: options.class,
            },
        );
    }

    /// END-TRANSACTION (routed to the transaction's home TMP).
    pub fn end(&mut self, ctx: &mut Ctx<'_>) {
        assert!(self.pending.is_none(), "session is single-threaded");
        let transid = self.current.expect("not in transaction mode");
        self.pending = Some(Pending {
            op: None,
            volume: None,
            stage: Stage::TmpVerb,
            register: false,
        });
        self.call_tmp(ctx, transid.home_node, TmpMsg::End { transid });
    }

    /// ABORT-TRANSACTION / RESTART-TRANSACTION (restart policy lives in
    /// the caller — typically the TCP's restart limit).
    pub fn abort(&mut self, ctx: &mut Ctx<'_>, reason: crate::state::AbortReason) {
        assert!(self.pending.is_none(), "session is single-threaded");
        let transid = self.current.expect("not in transaction mode");
        self.pending = Some(Pending {
            op: None,
            volume: None,
            stage: Stage::TmpVerb,
            register: false,
        });
        self.call_tmp(ctx, transid.home_node, TmpMsg::Abort { transid, reason });
    }

    /// Must [`Self::ensure_remote`] run before transmitting the current
    /// transid to `dest` (a SEND to a remote server class)?
    pub fn needs_remote(&self, my_node: NodeId, dest: NodeId) -> bool {
        self.current.is_some() && dest != my_node && !self.ensured_nodes.contains(&dest)
    }

    /// Perform remote transaction begin for `dest` before a SEND: "this
    /// 'remote transaction begin' occurs prior to any transmission of the
    /// transid by the File System to a server or DISCPROCESS on the
    /// destination node." Completes with `OpDone(DiscReply::Ok)`.
    pub fn ensure_remote(&mut self, ctx: &mut Ctx<'_>, dest: NodeId) {
        assert!(self.pending.is_none(), "session is single-threaded");
        let transid = self
            .current
            .expect("ensure_remote requires transaction mode");
        self.pending = Some(Pending {
            op: None,
            volume: None,
            stage: Stage::EnsureOnly,
            register: true,
        });
        let my_node = ctx.node();
        self.call_tmp(ctx, my_node, TmpMsg::EnsureRemoteSend { transid, dest });
        // remember optimistically; a Failed reply clears transaction state
        self.ensured_nodes.insert(dest);
    }

    // ------------------------------------------------------------------
    // Data-base operations
    // ------------------------------------------------------------------

    /// Issue a typed data-base operation. The session maps the operation
    /// to the wire request according to the transaction's declared mode:
    ///
    /// * read-write: `Read` is the plain unlocked read, `ReadLock` takes
    ///   an exclusive record lock;
    /// * read-only: both reads become [`DiscRequest::SnapshotRead`]
    ///   against the volume's pinned fence — no record locks, no transid
    ///   on the wire, no registration;
    /// * writes under a read-only transaction are refused synchronously:
    ///   the returned event is `Failed { error: ReadOnlyViolation }` and
    ///   nothing was sent.
    ///
    /// Returns `None` when the operation was submitted; completion then
    /// arrives as [`SessionEvent::OpDone`] (or [`SessionEvent::Failed`]).
    #[must_use = "a read-only violation completes synchronously and must be handled"]
    pub fn op(&mut self, ctx: &mut Ctx<'_>, op: DbOp) -> Option<SessionEvent> {
        let in_txn = self.current.is_some();
        let read_only = in_txn && self.options.class == TxnClass::ReadOnly;
        if read_only
            && matches!(
                op,
                DbOp::Insert { .. }
                    | DbOp::Update { .. }
                    | DbOp::Delete { .. }
                    | DbOp::InsertEntry { .. }
            )
        {
            ctx.count(counter!("tmf.readonly_violations"), 1);
            return Some(SessionEvent::Failed {
                error: SessionError::ReadOnlyViolation,
            });
        }
        let req = match op {
            DbOp::Read { file, key } | DbOp::ReadLock { file, key } if read_only => {
                let fence = self
                    .catalog
                    .volume_for(&file, &key)
                    .and_then(|v| self.snapshot_fences.get(&v).copied());
                DiscRequest::SnapshotRead { file, key, fence }
            }
            DbOp::Read { file, key } => DiscRequest::Read { file, key },
            DbOp::ReadLock { file, key } => {
                let transid = self.current.expect("ReadLock requires transaction mode");
                DiscRequest::ReadLock {
                    file,
                    key,
                    transid,
                    lock_wait: self.lock_wait,
                }
            }
            DbOp::Insert { file, key, value } => DiscRequest::Insert {
                file,
                key,
                value,
                transid: self.current,
                lock_wait: self.lock_wait,
            },
            DbOp::Update { file, key, value } => DiscRequest::Update {
                file,
                key,
                value,
                transid: self.current,
            },
            DbOp::Delete { file, key } => DiscRequest::Delete {
                file,
                key,
                transid: self.current,
            },
            DbOp::InsertEntry { file, value } => DiscRequest::InsertEntry {
                file,
                value,
                transid: self.current,
            },
            DbOp::ReadRange {
                file,
                low,
                high,
                limit,
            } => DiscRequest::ReadRange {
                file,
                low,
                high,
                limit,
            },
        };
        self.submit(ctx, req)
    }

    /// Route the request an operation built. Panics on files not in the
    /// catalog — that is a configuration bug, not a runtime condition.
    /// Returns the `Failed` event when the request could not be initiated
    /// (its volume's node is unreachable now); completion arrives later
    /// otherwise.
    #[must_use = "a request that cannot be initiated completes synchronously and must be handled"]
    fn submit(&mut self, ctx: &mut Ctx<'_>, op: DiscRequest) -> Option<SessionEvent> {
        assert!(self.pending.is_none(), "session is single-threaded");
        let volume = self
            .volume_of(&op)
            .unwrap_or_else(|| panic!("file of {op:?} not in the catalog"));
        // snapshot reads carry no transid, so the TMP is never told about
        // the node or the volume; everything else keeps the historical
        // remote-begin + registration stages
        let register = !matches!(op, DiscRequest::SnapshotRead { .. });
        self.pending = Some(Pending {
            op: Some(op),
            volume: Some(volume),
            stage: Stage::EnsureRemote,
            register,
        });
        self.advance(ctx)
    }

    fn volume_of(&self, op: &DiscRequest) -> Option<VolumeRef> {
        let (file, key) = match op {
            DiscRequest::Read { file, key }
            | DiscRequest::SnapshotRead { file, key, .. }
            | DiscRequest::ReadLock { file, key, .. }
            | DiscRequest::Insert { file, key, .. }
            | DiscRequest::Update { file, key, .. }
            | DiscRequest::Delete { file, key, .. } => (file.as_str(), key.as_ref()),
            // scans address the partition holding `low`; cross-partition
            // scans are the application's concern
            DiscRequest::ReadRange { file, low, .. } => (file.as_str(), low.as_ref()),
            DiscRequest::InsertEntry { file, .. } => (file.as_str(), &[][..]),
            // protocol / recovery / dump ops carry no data address
            DiscRequest::EndPhase1 { .. }
            | DiscRequest::FlushTxn { .. }
            | DiscRequest::ReleaseLocks { .. }
            | DiscRequest::Undo { .. }
            | DiscRequest::DumpBegin { .. }
            | DiscRequest::DumpScan { .. }
            | DiscRequest::DumpEnd { .. } => return None,
        };
        self.catalog.volume_for(file, key)
    }

    /// Drive the pending op through its stages: remote-begin →
    /// registration → execution. Each network step returns and resumes
    /// when its ack arrives. The one event it returns is the failure of a
    /// data-base request that could not be initiated.
    fn advance(&mut self, ctx: &mut Ctx<'_>) -> Option<SessionEvent> {
        loop {
            let p = self.pending.as_mut()?;
            let volume = p.volume.clone()?;
            let transactional = self.current.is_some() && p.register;
            match p.stage {
                Stage::EnsureRemote => {
                    let my_node = ctx.node();
                    if !transactional
                        || volume.node == my_node
                        || self.ensured_nodes.contains(&volume.node)
                    {
                        p.stage = Stage::Register;
                        continue;
                    }
                    let transid = self.current.expect("transactional");
                    p.stage = Stage::Register; // resumed by the ack
                    let dest = volume.node;
                    self.call_tmp(ctx, my_node, TmpMsg::EnsureRemoteSend { transid, dest });
                    return None;
                }
                Stage::Register => {
                    if !transactional || self.registered_volumes.contains(&volume) {
                        p.stage = Stage::Execute;
                        continue;
                    }
                    let transid = self.current.expect("transactional");
                    p.stage = Stage::Execute; // resumed by the ack
                    self.call_tmp(
                        ctx,
                        volume.node,
                        TmpMsg::RegisterVolume {
                            transid,
                            volume: volume.clone(),
                        },
                    );
                    return None;
                }
                Stage::Execute => {
                    let op = p.op.clone().expect("data op present");
                    let target = Target::new(volume.node, volume.volume);
                    // a DISCPROCESS of this node is waited for through a
                    // takeover; one on another node must be accessible now
                    if self.disc_rpc.call(ctx, target, op, RETRIES, ()).is_err() {
                        return Some(self.failed(ctx, SessionError::Refused));
                    }
                    return None;
                }
                Stage::TmpVerb | Stage::EnsureOnly => return None,
            }
        }
    }

    // ------------------------------------------------------------------
    // Completion plumbing
    // ------------------------------------------------------------------

    fn call_tmp(&mut self, ctx: &mut Ctx<'_>, node: NodeId, msg: TmpMsg) {
        // the TMP name survives takeovers, and a persistent call rides
        // out the takeover window (resent at the failure notice, or on the
        // clock to another node); critical-response semantics for
        // sessions come from the TMP's own replies (Failed / Phase1Refused)
        let _ = self
            .tmp_rpc
            .call_persistent(ctx, Target::new(node, TMP_SERVICE), msg, ());
    }

    /// The pending operation failed: it ends with `error`.
    fn failed(&mut self, ctx: &mut Ctx<'_>, error: SessionError) -> SessionEvent {
        self.pending = None;
        ctx.count(counter!("tmf.session_failures"), 1);
        SessionEvent::Failed { error }
    }

    /// Offer an incoming payload; `Ok(Some(event))` when the pending
    /// operation completed, `Ok(None)` if consumed but still in progress,
    /// `Err(payload)` if not ours.
    pub fn accept(
        &mut self,
        ctx: &mut Ctx<'_>,
        payload: Payload,
    ) -> Result<Option<SessionEvent>, Payload> {
        let payload = match self.tmp_rpc.accept(ctx, payload) {
            Ok(c) => return Ok(self.on_tmp_reply(ctx, c.body)),
            Err(p) => p,
        };
        match self.disc_rpc.accept(ctx, payload) {
            Ok(c) => match self.pending.take() {
                Some(p) => {
                    // A snapshot reply pins the volume's fence for the rest
                    // of the transaction and is normalized to the plain
                    // Value shape, so server logic stays mode-agnostic.
                    let reply = if let DiscReply::Snapshot { value, fence } = c.body {
                        if let Some(v) = p.volume.clone() {
                            self.snapshot_fences.entry(v).or_insert(fence);
                        }
                        DiscReply::Value(value)
                    } else {
                        c.body
                    };
                    Ok(Some(SessionEvent::OpDone { reply }))
                }
                None => Ok(None), // stale completion
            },
            Err(p) => Err(p),
        }
    }

    fn on_tmp_reply(&mut self, ctx: &mut Ctx<'_>, body: TmpReply) -> Option<SessionEvent> {
        // a reply with no operation pending answers nothing
        self.pending.as_ref()?;
        match body {
            TmpReply::Began { transid } => {
                self.current = Some(transid);
                self.pending = None;
                ctx.flight(transid.flight_id(), FlightCause::SessionBegan);
                Some(SessionEvent::Began { transid })
            }
            TmpReply::Committed => {
                if let Some(t) = self.current {
                    ctx.flight(t.flight_id(), FlightCause::SessionCommitted);
                }
                self.pending = None;
                self.reset();
                Some(SessionEvent::Committed)
            }
            TmpReply::Aborted => {
                if let Some(t) = self.current {
                    ctx.flight(t.flight_id(), FlightCause::SessionAborted);
                }
                self.pending = None;
                self.reset();
                Some(SessionEvent::Aborted)
            }
            TmpReply::Ok => {
                // a registration step completed: record it and continue.
                // stage was advanced when the request was sent, so the
                // *current* stage names the step after the acked one.
                let (stage, volume) = match &self.pending {
                    Some(p) => (p.stage, p.volume.clone()),
                    None => return None,
                };
                if stage == Stage::EnsureOnly {
                    self.pending = None;
                    return Some(SessionEvent::OpDone {
                        reply: DiscReply::Ok,
                    });
                }
                match (stage, volume) {
                    (Stage::Register, Some(v)) => {
                        self.ensured_nodes.insert(v.node);
                    }
                    (Stage::Execute, Some(v)) => {
                        self.registered_volumes.insert(v);
                    }
                    _ => {}
                }
                self.advance(ctx)
            }
            TmpReply::Failed | TmpReply::Phase1Refused => {
                Some(self.failed(ctx, SessionError::Refused))
            }
            TmpReply::Phase1Ok | TmpReply::Disposition { .. } => {
                // these replies answer TMP-internal or utility requests,
                // never a session verb
                Some(self.failed(ctx, SessionError::Protocol))
            }
        }
    }

    /// Drive timers; returns an event if a request finally expired.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> Option<SessionEvent> {
        let expired = matches!(
            self.tmp_rpc.on_timer(ctx, tag),
            TimerOutcome::Expired { .. }
        ) || matches!(
            self.disc_rpc.on_timer(ctx, tag),
            TimerOutcome::Expired { .. }
        );
        if expired && self.pending.is_some() {
            return Some(self.failed(ctx, SessionError::Timeout));
        }
        None
    }

    /// Where the session's outstanding requests are addressed (a TMP or a
    /// DISCPROCESS): nothing while it is idle.
    pub fn awaiting(&self) -> impl Iterator<Item = &Target> {
        self.tmp_rpc.targets().chain(self.disc_rpc.targets())
    }

    /// Take a failure notice: a request within the node whose
    /// destination's CPU failed is resent to the process that took over.
    /// The owning process subscribes to system events and forwards them
    /// here.
    pub fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
        self.tmp_rpc.on_system(ctx, ev);
        self.disc_rpc.on_system(ctx, ev);
    }
}
