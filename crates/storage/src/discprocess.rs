//! The DISCPROCESS: a process-pair per disc volume that owns *all* access
//! to that volume — reads, locked reads, inserts, updates, deletes, range
//! scans — plus the transaction-protocol operations TMF drives against it
//! (phase-one audit forcing, lock release, undo application) and archive
//! creation for ROLLFORWARD.
//!
//! ## Recovery modes (DESIGN.md decision D1)
//!
//! * [`RecoveryMode::NonStopCheckpoint`] — the paper's design: the audit
//!   records generated by an update are **checkpointed to the backup
//!   process before the update is performed**; the images travel to the
//!   AUDITPROCESS lazily and are forced to the trail only at phase one of
//!   commit. Because a crash can only happen *between* events, the backup
//!   always has everything needed to keep backout feasible — checkpointing
//!   is the functional equivalent of Write-Ahead-Log.
//! * [`RecoveryMode::WalForce`] — the conventional baseline: every update
//!   waits for its images to be force-written to the audit trail before it
//!   is applied and acknowledged. Same recoverability, more commit-path
//!   disc forces (measured in experiment T3).
//!
//! ## Consistency notes
//!
//! Plain [`DiscRequest::Read`] is *browse* access: it sees the current
//! content including uncommitted updates of other transactions (real
//! ENSCRIBE offered the same). Transactions that want Gray's consistency
//! clauses use [`DiscRequest::ReadLock`]; writes always require a held
//! lock on audited files, which is verified here.

use crate::audit_api::{AuditMsg, AuditReply, ImageRecord, AUDIT_SERVICE};
use crate::catalog::Catalog;
use crate::locks::{Acquire, GrantedWaiter, LockManager, LockScope};
use crate::media::{archive_key, media_key, ArchiveImage, FileImage, VolumeMedia};
use crate::overlay::{Overlay, ReadCache};
use crate::types::{num_key, FileDef, FileOrganization, RecoveryMode, Transid, VolumeRef};
use bytes::Bytes;
use encompass_sim::config::DISC_ACCESS;
use encompass_sim::{
    counter, DetHashMap, FlightCause, MediaId, Name, Payload, Pid, SimDuration, World,
};
use guardian::{
    Admitted, Checkpointed, Completion, Owed, PairApp, PairHandle, Rpc, Served, Target,
};
use std::collections::{BTreeMap, BTreeSet};

type PairCtx<'a, 'b> = guardian::PairCtx<'a, 'b, DiscDelta>;

// Timer-tag layout (application tags stay below guardian::RPC_TAG_BASE).
const TAG_FLUSH: u64 = 0;
const TAG_LOCK_BASE: u64 = 1 << 20;
const TAG_READ_BASE: u64 = 1 << 40;

/// Operations served by a DISCPROCESS.
#[derive(Clone, Debug)]
pub enum DiscRequest {
    /// Browse read: no lock, sees uncommitted data.
    Read { file: Name, key: Bytes },
    /// Snapshot read: no lock. Reconstructs the record's last value
    /// committed at or before the `fence` (a volume commit sequence) from
    /// the before-images the volume retains; `None` pins the fence to the
    /// current commit sequence, and the reply returns the fence so the
    /// session can reuse it for every later read on this volume.
    SnapshotRead {
        file: Name,
        key: Bytes,
        fence: Option<u64>,
    },
    /// Read and acquire the record's exclusive lock ("locks on existing
    /// records are obtained at read time by explicit … request").
    ReadLock {
        file: Name,
        key: Bytes,
        transid: Transid,
        lock_wait: SimDuration,
    },
    /// Insert a record; TMF "automatically generates locks on all new
    /// records inserted", so this may queue on the key's lock.
    Insert {
        file: Name,
        key: Bytes,
        value: Bytes,
        transid: Option<Transid>,
        lock_wait: SimDuration,
    },
    /// Update; on audited files the record must already be locked by the
    /// transaction.
    Update {
        file: Name,
        key: Bytes,
        value: Bytes,
        transid: Option<Transid>,
    },
    /// Delete; the lock on the deleted record's key value persists until
    /// the end of the transaction.
    Delete {
        file: Name,
        key: Bytes,
        transid: Option<Transid>,
    },
    /// Append to an entry-sequenced file; the entry number is assigned
    /// here and auto-locked.
    InsertEntry {
        file: Name,
        value: Bytes,
        transid: Option<Transid>,
    },
    /// Exclusive file-granularity lock.
    LockFile {
        file: Name,
        transid: Transid,
        lock_wait: SimDuration,
    },
    /// Ordered browse scan.
    ReadRange {
        file: Name,
        low: Bytes,
        high: Option<Bytes>,
        limit: usize,
    },
    /// Phase one of commit: ensure every audit record of the transaction
    /// is forced to the trail. Replies `Phase1Done`.
    EndPhase1 { transid: Transid },
    /// Barrier before backout: replies `Ok` only once every lazy audit
    /// append this volume issued for the transaction has been acknowledged
    /// by the AUDITPROCESS, so a subsequent `ReadTxnImages` there is
    /// complete.
    FlushTxn { transid: Transid },
    /// Phase two of commit / end of backout: release the transaction's
    /// locks (queued ops resume). `commit` tells the volume the outcome:
    /// a committed transaction's retained before-images move into the
    /// snapshot-undo ring (they define the next volume commit sequence);
    /// an aborted one's are simply dropped (backout already restored the
    /// overlay, so its versions never existed).
    ReleaseLocks { transid: Transid, commit: bool },
    /// Apply before-images (sent by the BACKOUTPROCESS); generates no
    /// audit of its own.
    Undo { images: Vec<ImageRecord> },
    /// Build archive generation `generation` of this volume (a logical
    /// snapshot plus the audit watermark) in stable storage.
    Archive { generation: u64 },
    /// Begin an online (fuzzy) dump: append a DumpBegin marker to the
    /// audit trail and reply [`DiscReply::DumpBegun`] with the dump's
    /// audit watermark, its purge floor, and the files to copy. Sent by
    /// the DUMPPROCESS; transactions keep updating throughout.
    DumpBegin { generation: u64 },
    /// Copy one bounded page of `file` for an online dump: up to `limit`
    /// records with keys strictly after `resume` (`None` = from the
    /// start). Each page costs one disc access and sees the live
    /// overlay-merged state — the fuzzy part recovery converges later.
    DumpScan {
        generation: u64,
        file: Name,
        resume: Option<Bytes>,
        limit: usize,
    },
    /// End of an online dump: force a DumpEnd marker to the audit trail
    /// (which also forces every image buffered before it — anything the
    /// copy may have caught mid-flight is then durable for recovery).
    /// Replies `Ok` only once the force is acknowledged.
    DumpEnd { generation: u64 },
}

/// Replies from a DISCPROCESS.
#[derive(Clone, Debug, PartialEq)]
pub enum DiscReply {
    Value(Option<Bytes>),
    /// Reply to [`DiscRequest::SnapshotRead`]: the value as of the fence,
    /// and the fence itself (echoed, or freshly pinned when the request
    /// carried `None`).
    Snapshot {
        value: Option<Bytes>,
        fence: u64,
    },
    Ok,
    EntryNumber(u64),
    Entries(Vec<(Bytes, Bytes)>),
    Phase1Done,
    /// Reply to [`DiscRequest::DumpBegin`].
    DumpBegun {
        /// The volume's audit sequence number at dump begin: every image
        /// at or below it by a transaction that released before the dump
        /// began is reflected in any page copied later.
        watermark: u64,
        /// Lowest trail sequence a recovery from this dump could need
        /// (first image of the oldest transaction still holding locks,
        /// clamped to `watermark + 1` when none is active).
        purge_floor: u64,
        /// The files to copy, with their organizations.
        files: Vec<(Name, FileOrganization)>,
    },
    /// Reply to [`DiscRequest::DumpScan`]: one page, and whether the file
    /// is exhausted.
    DumpPage {
        entries: Vec<(Bytes, Bytes)>,
        done: bool,
    },
    Err(DiscError),
}

/// Sizes of a DISCPROCESS's per-transaction retained state, read by
/// [`DiscProcess::state_report`]. The chaos soak tier's bounded-state
/// oracle checks these at epoch boundaries: anything that grows with the
/// number of transactions the volume *ever* saw (rather than the number
/// currently live or a configured ring capacity) is a leak.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiscStateReport {
    /// Live transactions: one record each from the transaction's first
    /// write or fence on this volume until its locks release (and, on the
    /// primary, its last lazy audit append is acknowledged).
    pub live_txns: usize,
    /// Settled-transaction fence ring (bounded by
    /// [`SETTLED_FENCE_CAPACITY`]).
    pub settled_fences: usize,
    /// Lock waits counted but not yet completed.
    pub counted_waits: usize,
    /// Total retained image records across live transactions.
    pub unforced_records: usize,
    /// Per-file entry counters (bounded by the catalog).
    pub entry_counters: usize,
    /// Snapshot-undo ring occupancy (bounded by
    /// `DiscConfig::snapshot_undo_capacity`).
    pub snapshot_undo: usize,
    /// Dirty records in the write-behind overlay.
    pub overlay: usize,
    /// Remembered replies (bounded by [`REPLY_CAPACITY`]).
    pub reply_cache: usize,
    /// Requests admitted and not yet answered: each is parked on a lock
    /// queue, a disc access or a call to the AUDITPROCESS, so this is zero
    /// on a quiet volume.
    pub pending_requests: usize,
    pub locks_held: usize,
    pub lock_waiters: usize,
}

/// Error codes (GUARDIAN file-system style).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiscError {
    /// Lock wait exceeded its timeout — the deadlock-detection signal; the
    /// application should RESTART-TRANSACTION.
    LockTimeout,
    /// Update/delete on an audited file without a prior lock.
    LockRequired,
    /// Insert of an existing key.
    DuplicateKey,
    /// Update/delete of a missing record.
    NotFound,
    /// Both mirrored drives are down (or content lost).
    VolumeDown,
    /// File not in the catalog.
    UnknownFile,
    /// The key's partition lives on a different volume.
    WrongVolume,
    /// Write to an audited file without a transaction.
    NeedTransid,
    /// Snapshot read whose fence has aged out of the volume's bounded
    /// snapshot-undo ring; the reader should restart with a fresh fence.
    SnapshotTooOld,
    /// Data op for a transaction that already entered phase one, backout,
    /// or lock release on this volume: commit processing has passed the
    /// point where further updates could be audited (and undone), so late
    /// or straggler writes are refused.
    TxnFenced,
}

/// Period of the background cache flush.
pub const FLUSH_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Max dirty records flushed per [`FLUSH_INTERVAL`].
pub const FLUSH_BATCH: usize = 64;
/// Replies remembered for retransmissions (see [`Served`]).
pub const REPLY_CAPACITY: usize = 8192;
/// Read-cache capacity (record identities).
pub const CACHE_CAPACITY: usize = 4096;
/// Settled-transaction fences retained to refuse straggler writes (FIFO
/// ring; see the `settled_fences` field). Old enough fences are evicted —
/// by then every retransmission of the transaction's requests has long
/// since drained.
pub const SETTLED_FENCE_CAPACITY: usize = 4096;

/// Configuration for one DISCPROCESS.
#[derive(Clone, Debug)]
pub struct DiscConfig {
    pub recovery_mode: RecoveryMode,
    /// Whether images go to the node's [`AUDIT_SERVICE`] (false = volume
    /// carries no audited activity; phase one is then trivially complete).
    pub audited: bool,
    /// Records per archive/dump read page (each page costs one disc
    /// access and one `disc.archive_read`).
    pub dump_page_size: usize,
    /// Before-images of committed transactions retained for snapshot
    /// reads; a fence older than the oldest retained commit gets
    /// [`DiscError::SnapshotTooOld`].
    pub snapshot_undo_capacity: usize,
}

impl Default for DiscConfig {
    fn default() -> Self {
        DiscConfig {
            recovery_mode: RecoveryMode::NonStopCheckpoint,
            audited: false,
            dump_page_size: 64,
            snapshot_undo_capacity: 4096,
        }
    }
}

type WriteSet = Vec<(Name, FileOrganization, Bytes, Option<Bytes>)>;

/// Where a transaction stands on this volume.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    /// Data ops accepted.
    #[default]
    Open,
    /// Past the no-more-updates point (phase one, backout, or lock
    /// release has begun): a straggler write arriving after backout read
    /// the images (or after phase one forced them) would silently escape
    /// undo/redo, so data ops are refused.
    Fenced,
    /// Locks released and the fence retired into the settled ring; the
    /// record only lingers, on the primary, until the lazy appends still
    /// in flight are acknowledged.
    Released,
}

/// Everything this volume remembers about one live transaction: created
/// by the transaction's first write or fence here, removed when its locks
/// release. One record, so that release (and the `Released` delta on the
/// backup) forgets the transaction in one step.
#[derive(Default)]
struct VolTxn {
    phase: Phase,
    /// Images generated so far (zero ⇒ nothing to force at phase one).
    images: u64,
    /// Lowest image sequence, set by the first audited write. The min
    /// over live transactions is the ONLINEDUMP purge floor: everything
    /// below it belongs to transactions that released before the dump
    /// began, whose effects any later page copy fully reflects.
    low_seq: Option<u64>,
    /// Images whose lazy audit append may still be in flight, retained
    /// until lock release. The append rpc itself is primary-memory state,
    /// so after a takeover the new primary re-sends these; the audit
    /// process deduplicates by (transid, seq).
    unforced: Vec<ImageRecord>,
    /// Un-acknowledged lazy appends (primary memory only).
    appends_in_flight: u32,
    /// Requests waiting for those appends to drain (primary memory only).
    append_waiters: Vec<AppendWaiter>,
}

impl VolTxn {
    /// The checkpoint-covered part, for a fresh backup's snapshot.
    fn replica(&self) -> VolTxn {
        VolTxn {
            phase: self.phase,
            images: self.images,
            low_seq: self.low_seq,
            unforced: self.unforced.clone(),
            appends_in_flight: 0,
            append_waiters: Vec::new(),
        }
    }
}

/// What one applied write adds to its transaction's [`VolTxn`].
struct TxnDelta {
    transid: Transid,
    /// The transaction's image count after this write.
    images: u64,
    low_seq: Option<u64>,
    /// This write's images, to retain while the primary lazily appends
    /// them to the audit trail. Riding in the same delta as the writes
    /// guarantees the backup has them iff it has the update, so a
    /// takeover can re-drive appends that died in flight with the
    /// primary. Empty in WAL mode (forced before the write completes).
    retained: Vec<ImageRecord>,
}

/// Everything a completed operation changes besides its reply.
#[derive(Default)]
struct Effects {
    writes: WriteSet,
    lock: Option<(Transid, LockScope)>,
    entry_counter: Option<(Name, u64)>,
    txn: Option<TxnDelta>,
}

/// Checkpoint deltas sent from the primary to the backup. The enum is
/// boxed once, as the checkpoint message; `Applied` is both its largest
/// and by far its most common variant, so boxing that again would buy
/// nothing.
#[allow(clippy::large_enum_variant)]
pub enum DiscDelta {
    /// An operation completed: its reply (for retry dedup) and its
    /// effects. This is the paper's "checkpointing the audit records
    /// generated by an update request to its backup prior to performing
    /// the update" — the delta carries the same information as the
    /// images.
    Applied(Applied),
    /// A transaction's locks were released; on commit the backup moves
    /// the retained images into its snapshot-undo ring exactly as the
    /// primary did.
    Released { transid: Transid, commit: bool },
    /// A transaction was fenced (no further data ops accepted).
    Fenced { transid: Transid },
    /// The request with this id parked on a lock queue for the first
    /// time. Replicating this keeps `disc.lock_waits` exact: after a
    /// takeover the requester retransmits and re-parks, and without the
    /// replicated set the new primary would count the same wait again.
    Parked(u64),
    /// The primary flushed these overlay entries to the media.
    Flushed { keys: Vec<(Name, Bytes)> },
}

/// What one completed operation tells the backup.
pub struct Applied {
    /// The request the operation answered and its reply; `None` when the
    /// delta completes no request (a lock grant, a sequence bump).
    answered: Option<(u64, DiscReply)>,
    audit_seq: u64,
    fx: Effects,
}

/// Full state for (re)initializing a backup.
pub struct DiscSnapshot {
    overlay: Vec<(Name, Bytes, Option<Bytes>)>,
    holdings: Vec<(Transid, LockScope)>,
    replies: Vec<(u64, DiscReply)>,
    audit_seq: u64,
    entry_counters: Vec<(Name, u64)>,
    txns: Vec<(Transid, VolTxn)>,
    /// Settled-fence ring in FIFO order (the set is rebuilt on restore).
    settled_fences: Vec<Transid>,
    counted_waits: Vec<u64>,
    snap_seq: u64,
    snap_evicted: u64,
    snapshot_undo: Vec<(u64, ImageRecord)>,
}

struct PendingLock {
    owed: Owed,
    op: DiscRequest,
    timer: encompass_sim::TimerId,
}

/// A read/scan reply parked on simulated disc latency.
enum Delayed {
    /// Re-evaluated at fire time (single-record reads).
    Read { owed: Owed, file: Name, key: Bytes },
    /// Already-computed reply (scans).
    Fixed { owed: Owed, reply: DiscReply },
}

/// A request parked until the transaction's lazy audit appends drain.
enum AppendWaiter {
    /// A `FlushTxn` barrier: reply `Ok` when drained.
    Flush(Owed),
    /// An `EndPhase1` that must not send `ForceTxn` before the appends
    /// reach the audit buffer (a premature force trivially acks and the
    /// transaction would commit without durable images).
    Phase1(Owed),
}

/// The completion plan of a WAL-mode write parked on its force ack.
struct WalPlan {
    owed: Owed,
    reply: DiscReply,
    fx: Effects,
    /// Lowest image sequence in the parked batch. A dump that begins
    /// while the plan is parked must clamp its watermark below this: the
    /// sequence is assigned but the update is not applied yet, so pages
    /// copied now do not reflect it.
    low_seq: u64,
}

/// What an outstanding call to the AUDITPROCESS is for.
enum AuditThen {
    /// The `ForceTxn` of a parked `EndPhase1`; reply `Phase1Done`.
    Phase1(Owed),
    /// A DumpBegin/DumpEnd marker append; reply `done`.
    DumpMarker { owed: Owed, done: DiscReply },
    /// The forced append of a WAL-mode write; complete the write.
    Wal(WalPlan),
    /// A lazy append of this transaction's images.
    Append(Transid),
}

/// The DISCPROCESS application (hosted in a `guardian` process-pair).
pub struct DiscProcess {
    volume: VolumeRef,
    /// The slot of `media_key` of `volume` in stable storage.
    media: MediaId,
    catalog: Catalog,
    cfg: DiscConfig,
    locks: LockManager,
    overlay: Overlay,
    cache: ReadCache,
    /// Every request admitted: pending while it is parked (in
    /// `pending_locks`, `delayed`, a transaction's `append_waiters` or an
    /// `audit_rpc` continuation), then its remembered reply.
    replies: Served<DiscReply>,
    audit_seq: u64,
    entry_counters: BTreeMap<Name, u64>,
    /// The live transactions (BTreeMap: takeover re-sends and snapshot
    /// reads walk it in transid order). At lock release a transaction's
    /// fence migrates into the settled ring below, so this map stays
    /// bounded by the transactions currently holding locks here.
    txns: BTreeMap<Transid, VolTxn>,
    /// Fences of settled (released) transactions, retired FIFO once the
    /// ring exceeds [`SETTLED_FENCE_CAPACITY`]. Straggler data ops for
    /// a settled transaction are still refused while its fence is
    /// retained; by eviction time every retransmission of the
    /// transaction's requests has drained (its sessions got their
    /// replies thousands of transactions ago). Without this ring the old
    /// never-pruned set grew with every transaction the volume ever saw —
    /// the unbounded-state leak the soak tier's oracle catches.
    settled_fences: std::collections::VecDeque<Transid>,
    /// Mirror of `settled_fences` for O(log n) membership tests.
    settled_fence_set: BTreeSet<Transid>,
    /// Requests whose lock wait has been counted in `disc.lock_waits`.
    /// Keyed by req_id so a retransmitted request that re-parks after a
    /// takeover is not counted as a fresh wait. Pruned when the request
    /// completes: from then on retransmissions hit the reply cache and
    /// can never re-park, so the entry can only leak.
    counted_waits: BTreeSet<u64>,
    /// Volume commit sequence: bumped once per committed transaction with
    /// images here, at the moment its locks release. A snapshot fence is
    /// a value of this counter.
    snap_seq: u64,
    /// Highest commit sequence evicted from the bounded ring below;
    /// fences at or below it are too old to reconstruct.
    snap_evicted: u64,
    /// Before-images of committed transactions in commit order (the
    /// snapshot-undo ring): `(commit_seq, image)`. Reconstructing a key
    /// as of fence F takes the `before` of the first entry with
    /// `commit_seq > F`, because per-key commit order equals append order
    /// (exclusive record locks serialize writers).
    snapshot_undo: std::collections::VecDeque<(u64, ImageRecord)>,
    audit_rpc: Rpc<AuditMsg, AuditReply, AuditThen>,
    pending_locks: BTreeMap<u64, PendingLock>,
    next_token: u64,
    delayed: DetHashMap<u64, Delayed>,
    next_read_tag: u64,
}

impl DiscProcess {
    /// `media` is the [`MediaId`] of the volume's [`media_key`] in the
    /// world the process will run in.
    pub fn new(
        volume: VolumeRef,
        media: MediaId,
        catalog: Catalog,
        cfg: DiscConfig,
    ) -> DiscProcess {
        DiscProcess {
            volume,
            media,
            catalog,
            cfg,
            locks: LockManager::new(),
            overlay: Overlay::new(),
            cache: ReadCache::new(CACHE_CAPACITY),
            replies: Served::new(REPLY_CAPACITY),
            audit_seq: 0,
            entry_counters: BTreeMap::new(),
            txns: BTreeMap::new(),
            settled_fences: std::collections::VecDeque::new(),
            settled_fence_set: BTreeSet::new(),
            counted_waits: BTreeSet::new(),
            snap_seq: 0,
            snap_evicted: 0,
            snapshot_undo: std::collections::VecDeque::new(),
            audit_rpc: Rpc::new(1),
            pending_locks: BTreeMap::new(),
            next_token: 1,
            delayed: DetHashMap::default(),
            next_read_tag: 1,
        }
    }

    /// The sizes of every piece of per-transaction state this volume
    /// retains, its locks among them.
    pub fn state_report(&self) -> DiscStateReport {
        DiscStateReport {
            live_txns: self.txns.len(),
            settled_fences: self.settled_fences.len(),
            counted_waits: self.counted_waits.len(),
            unforced_records: self.txns.values().map(|t| t.unforced.len()).sum(),
            entry_counters: self.entry_counters.len(),
            snapshot_undo: self.snapshot_undo.len(),
            overlay: self.overlay.len(),
            reply_cache: self.replies.answered(),
            pending_requests: self.replies.pending(),
            locks_held: self.locks.holdings().len(),
            lock_waiters: self.locks.waiting(),
        }
    }

    fn with_media<R>(&self, ctx: &mut PairCtx<'_, '_>, f: impl FnOnce(&mut VolumeMedia) -> R) -> R {
        let media = ctx
            .stable()
            .get_or_create_at(self.media, || VolumeMedia::new(&self.volume.volume));
        f(media)
    }

    fn def(&self, file: &str) -> Result<&FileDef, DiscError> {
        self.catalog.get(file).ok_or(DiscError::UnknownFile)
    }

    /// Current logical value of a record (overlay over media).
    fn logical_read(&self, ctx: &mut PairCtx<'_, '_>, file: &str, key: &[u8]) -> Option<Bytes> {
        match self.overlay.get(file, key) {
            Some(v) => v,
            None => self.with_media(ctx, |m| m.file(file).and_then(|f| f.read(key))),
        }
    }

    /// The record's value as of snapshot fence `fence` (a past value of
    /// this volume's commit counter `snap_seq`).
    ///
    /// Reconstruction walks backward from the present: the oldest
    /// before-image that post-dates the fence is the fence-time value.
    /// Three sources, in order:
    ///
    /// 1. the snapshot-undo ring — before-images of *committed* writers,
    ///    in commit order; the first entry for the key with
    ///    `commit_seq > fence` carries the value the key had at the fence;
    /// 2. live (uncommitted/unreleased) transactions' retained images —
    ///    their *earliest* before-image for the key is the last committed
    ///    value, which is also the fence-time value (exclusive record
    ///    locks mean at most one live writer per key, and any committed
    ///    writer after the fence would have matched in step 1);
    /// 3. the current logical value — no writer has touched the key since
    ///    the fence.
    fn snapshot_value(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        file: &str,
        key: &[u8],
        fence: u64,
    ) -> Option<Bytes> {
        for (commit_seq, img) in self.snapshot_undo.iter() {
            if *commit_seq > fence && img.file == file && img.key[..] == *key {
                return img.before.clone();
            }
        }
        // live writers: scan in transid order for determinism; per key at
        // most one live transaction holds images (X record locks), and its
        // lowest-seq image's `before` is the committed value
        let mut best: Option<(u64, Option<Bytes>)> = None;
        for txn in self.txns.values() {
            for img in &txn.unforced {
                if img.file == file && img.key[..] == *key {
                    match &best {
                        Some((seq, _)) if *seq <= img.seq => {}
                        _ => best = Some((img.seq, img.before.clone())),
                    }
                }
            }
        }
        if let Some((_, before)) = best {
            return before;
        }
        self.logical_read(ctx, file, key)
    }

    /// Forget a transaction whose locks just released. Its retained
    /// before-images are on the audit trail (commit forced them; abort
    /// read them back for undo): commit moves them into the snapshot-undo
    /// ring under the next commit sequence (defining "the volume state
    /// after this commit" for snapshot readers); abort just drops them —
    /// an aborted writer never changed the committed state. Its fence
    /// moves into the bounded settled ring. Pure (no ctx): the backup
    /// replays it from the `Released` delta, so both sides settle
    /// identically. Idempotent — a re-driven ReleaseLocks finds no record
    /// and the fence already settled.
    fn release_txn(&mut self, transid: Transid, commit: bool) {
        if let Some(txn) = self.txns.get_mut(&transid) {
            let images = std::mem::take(&mut txn.unforced);
            if txn.appends_in_flight == 0 {
                self.txns.remove(&transid);
            } else {
                // the acks of appends still in flight find (and then
                // remove) the record; parked barriers wait on it
                txn.phase = Phase::Released;
                txn.images = 0;
                txn.low_seq = None;
            }
            if commit && !images.is_empty() {
                self.snap_seq += 1;
                let commit_seq = self.snap_seq;
                for img in images {
                    self.snapshot_undo.push_back((commit_seq, img));
                }
                while self.snapshot_undo.len() > self.cfg.snapshot_undo_capacity {
                    if let Some((evicted, _)) = self.snapshot_undo.pop_front() {
                        self.snap_evicted = self.snap_evicted.max(evicted);
                    }
                }
            }
        }
        if !self.settled_fence_set.insert(transid) {
            return;
        }
        self.settled_fences.push_back(transid);
        while self.settled_fences.len() > SETTLED_FENCE_CAPACITY {
            if let Some(old) = self.settled_fences.pop_front() {
                self.settled_fence_set.remove(&old);
            }
        }
    }

    /// Is this transaction past the no-more-updates point (fenced and
    /// live, or already settled)?
    fn is_fenced(&self, transid: &Transid) -> bool {
        self.txns
            .get(transid)
            .is_some_and(|t| t.phase != Phase::Open)
            || self.settled_fence_set.contains(transid)
    }

    fn validate_data_op(
        &self,
        ctx: &mut PairCtx<'_, '_>,
        file: &str,
        key: &[u8],
    ) -> Result<(), DiscError> {
        let def = self.def(file)?;
        if def.volume_for(key) != &self.volume {
            return Err(DiscError::WrongVolume);
        }
        self.media_up(ctx)
    }

    fn media_up(&self, ctx: &mut PairCtx<'_, '_>) -> Result<(), DiscError> {
        if self.with_media(ctx, |m| m.available()) {
            Ok(())
        } else {
            Err(DiscError::VolumeDown)
        }
    }

    /// Why `op` cannot run at all: its transaction is fenced, its file is
    /// not in the catalog, its key lives on another volume, or the volume
    /// is down.
    fn refusal(&self, ctx: &mut PairCtx<'_, '_>, op: &DiscRequest) -> Result<(), DiscError> {
        if Self::fence_transid(op).is_some_and(|t| self.is_fenced(&t)) {
            ctx.count(counter!("disc.fenced_ops"), 1);
            return Err(DiscError::TxnFenced);
        }
        match op {
            DiscRequest::Read { file, key }
            | DiscRequest::SnapshotRead { file, key, .. }
            | DiscRequest::ReadLock { file, key, .. }
            | DiscRequest::Insert { file, key, .. }
            | DiscRequest::Update { file, key, .. }
            | DiscRequest::Delete { file, key, .. } => self.validate_data_op(ctx, file, key),
            DiscRequest::ReadRange { file, .. } | DiscRequest::InsertEntry { file, .. } => {
                self.def(file)?;
                self.media_up(ctx)
            }
            DiscRequest::LockFile { file, .. } => self.def(file).map(|_| ()),
            DiscRequest::DumpBegin { .. }
            | DiscRequest::DumpScan { .. }
            | DiscRequest::DumpEnd { .. } => self.media_up(ctx),
            DiscRequest::EndPhase1 { .. }
            | DiscRequest::FlushTxn { .. }
            | DiscRequest::ReleaseLocks { .. }
            | DiscRequest::Undo { .. }
            | DiscRequest::Archive { .. } => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Entry point + dispatch
    // ------------------------------------------------------------------

    /// Transid of a data op subject to the fence (reads without locks,
    /// recovery ops, and protocol ops are exempt).
    fn fence_transid(op: &DiscRequest) -> Option<Transid> {
        match op {
            DiscRequest::ReadLock { transid, .. } | DiscRequest::LockFile { transid, .. } => {
                Some(*transid)
            }
            DiscRequest::Insert { transid, .. }
            | DiscRequest::Update { transid, .. }
            | DiscRequest::Delete { transid, .. }
            | DiscRequest::InsertEntry { transid, .. } => *transid,
            // unlocked reads, protocol ops, and recovery/dump ops are exempt
            DiscRequest::Read { .. }
            | DiscRequest::SnapshotRead { .. }
            | DiscRequest::ReadRange { .. }
            | DiscRequest::EndPhase1 { .. }
            | DiscRequest::FlushTxn { .. }
            | DiscRequest::ReleaseLocks { .. }
            | DiscRequest::Undo { .. }
            | DiscRequest::Archive { .. }
            | DiscRequest::DumpBegin { .. }
            | DiscRequest::DumpScan { .. }
            | DiscRequest::DumpEnd { .. } => None,
        }
    }

    fn fence(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        // a settled transaction stays fenced through the ring — re-driving
        // its EndPhase1/ReleaseLocks must not resurrect a live entry that
        // nothing would ever settle again
        if !self.settled_fence_set.contains(&transid) {
            let txn = self.txns.entry(transid).or_default();
            if txn.phase == Phase::Open {
                txn.phase = Phase::Fenced;
                ctx.checkpoint(DiscDelta::Fenced { transid });
            }
        }
        // cancel the transaction's parked lock waits: a later grant would
        // be refused at execute time anyway, stranding the just-granted
        // lock with a transaction nobody will ever release again
        let stale: Vec<u64> = self
            .pending_locks
            .iter()
            .filter(|(_, p)| Self::fence_transid(&p.op) == Some(transid))
            .map(|(token, _)| *token)
            .collect();
        for token in stale {
            if let Some(p) = self.pending_locks.remove(&token) {
                let unfenced = self.locks.cancel_waiter(token).unwrap_or_default();
                ctx.cancel_timer(p.timer);
                ctx.count(counter!("disc.fenced_lock_waits"), 1);
                ctx.flight(transid.flight_id(), FlightCause::LockFenced);
                self.finish_simple(ctx, p.owed, DiscReply::Err(DiscError::TxnFenced));
                // cancelling a queued file waiter lifts the fairness fence
                self.resume_granted(ctx, unfenced);
            }
        }
    }

    /// Complete the parked requests whose locks a release or waiter
    /// cancellation just granted.
    fn resume_granted(&mut self, ctx: &mut PairCtx<'_, '_>, granted: Vec<GrantedWaiter>) {
        for g in granted {
            if let Some(p) = self.pending_locks.remove(&g.token) {
                ctx.cancel_timer(p.timer);
                // the lock manager already granted g.scope to g.txn;
                // mirror that grant on the backup
                self.checkpoint_applied(
                    ctx,
                    None,
                    Effects {
                        lock: Some((g.txn, g.scope)),
                        ..Effects::default()
                    },
                );
                ctx.flight(g.txn.flight_id(), FlightCause::LockGranted);
                self.execute(ctx, p.owed, p.op);
            }
        }
    }

    fn execute(&mut self, ctx: &mut PairCtx<'_, '_>, owed: Owed, op: DiscRequest) {
        if let Err(e) = self.refusal(ctx, &op) {
            self.finish_simple(ctx, owed, DiscReply::Err(e));
            return;
        }
        match op {
            DiscRequest::Read { ref file, ref key } => {
                ctx.count(counter!("disc.reads"), 1);
                let (file, key) = (file.clone(), key.clone());
                self.read_with_latency(ctx, owed, file, key);
            }
            DiscRequest::SnapshotRead {
                ref file,
                ref key,
                fence,
            } => {
                ctx.count(counter!("disc.snapshot_reads"), 1);
                let fence = fence.unwrap_or(self.snap_seq);
                if fence < self.snap_evicted {
                    ctx.count(counter!("disc.snapshot_too_old"), 1);
                    self.finish_simple(ctx, owed, DiscReply::Err(DiscError::SnapshotTooOld));
                    return;
                }
                let value = self.snapshot_value(ctx, file, key, fence);
                let reply = DiscReply::Snapshot { value, fence };
                // same cost model as a browse read
                if self.hot(ctx, file, key) {
                    self.finish_simple(ctx, owed, reply);
                } else {
                    self.park_on_disc(ctx, 1, Delayed::Fixed { owed, reply });
                }
            }
            DiscRequest::ReadLock {
                ref file,
                ref key,
                transid,
                lock_wait,
            } => {
                let scope = LockScope::Record {
                    file: file.clone(),
                    key: key.clone(),
                };
                let (file, key) = (file.clone(), key.clone());
                let lock = (transid, scope);
                let Some(owed) = self.park_unless_locked(ctx, owed, &op, &lock, lock_wait) else {
                    return;
                };
                ctx.count(counter!("disc.reads"), 1);
                // the lock grant must reach the backup even though reads
                // write nothing
                self.checkpoint_applied(
                    ctx,
                    None,
                    Effects {
                        lock: Some(lock),
                        ..Effects::default()
                    },
                );
                self.read_with_latency(ctx, owed, file, key);
            }
            DiscRequest::ReadRange {
                ref file,
                ref low,
                ref high,
                limit,
            } => {
                ctx.count(counter!("disc.scans"), 1);
                let entries = self.scan_merged(ctx, file, low, high.as_deref(), limit);
                // scans always touch the media: charge one access
                let reply = DiscReply::Entries(entries);
                self.park_on_disc(ctx, 1, Delayed::Fixed { owed, reply });
            }
            DiscRequest::Insert { .. }
            | DiscRequest::Update { .. }
            | DiscRequest::Delete { .. }
            | DiscRequest::InsertEntry { .. } => self.write_path(ctx, owed, op),
            DiscRequest::LockFile {
                ref file,
                transid,
                lock_wait,
            } => {
                let lock = (transid, LockScope::File { file: file.clone() });
                let Some(owed) = self.park_unless_locked(ctx, owed, &op, &lock, lock_wait) else {
                    return;
                };
                self.finish_applied(
                    ctx,
                    owed,
                    DiscReply::Ok,
                    Effects {
                        lock: Some(lock),
                        ..Effects::default()
                    },
                );
            }
            DiscRequest::EndPhase1 { transid } => {
                ctx.count(counter!("disc.phase1"), 1);
                self.fence(ctx, transid);
                // while an append is still in flight, a ForceTxn sent now
                // could overtake it at the audit process and trivially
                // ack, committing without durable images
                if let Some(owed) = self.park_on_appends(transid, owed, AppendWaiter::Phase1) {
                    self.start_phase1_force(ctx, owed, transid);
                }
            }
            DiscRequest::FlushTxn { transid } => {
                ctx.count(counter!("disc.flushes"), 1);
                // no updates may land after backout reads the images
                self.fence(ctx, transid);
                if let Some(owed) = self.park_on_appends(transid, owed, AppendWaiter::Flush) {
                    self.finish_simple(ctx, owed, DiscReply::Ok);
                }
            }
            DiscRequest::ReleaseLocks { transid, commit } => {
                self.fence(ctx, transid);
                let granted = self.locks.release_all(transid);
                // the transaction's outcome is settled: forget it, moving
                // committed images into the snapshot-undo ring (they define
                // this volume's next commit sequence) and the fence into
                // the settled ring
                self.release_txn(transid, commit);
                ctx.checkpoint(DiscDelta::Released { transid, commit });
                ctx.count(counter!("disc.releases"), 1);
                self.resume_granted(ctx, granted);
                self.finish_simple(ctx, owed, DiscReply::Ok);
            }
            DiscRequest::Undo { ref images } => {
                let mut images = images.clone();
                images.sort_by_key(|img| std::cmp::Reverse(img.seq)); // newest first
                let writes: WriteSet = images
                    .iter()
                    .map(|img| {
                        (
                            img.file.clone(),
                            img.organization,
                            img.key.clone(),
                            img.before.clone(),
                        )
                    })
                    .collect();
                ctx.count(counter!("disc.undo"), writes.len() as u64);
                let fx = Effects {
                    writes,
                    ..Effects::default()
                };
                self.finish_applied(ctx, owed, DiscReply::Ok, fx);
            }
            DiscRequest::Archive { generation } => {
                let snapshot = self.build_archive(ctx, generation);
                // reading the whole volume is not free: charge one
                // archive-read disc access per page it would take
                let records: usize = snapshot.files.values().map(|f| f.len()).sum();
                let pages = records.div_ceil(self.cfg.dump_page_size.max(1)).max(1) as u64;
                ctx.count(counter!("disc.archive_read"), pages);
                let key = archive_key(&self.volume, generation);
                ctx.stable().remove(&key);
                ctx.stable()
                    .get_or_create::<ArchiveImage, _>(&key, move || snapshot);
                ctx.count(counter!("disc.archives"), 1);
                let reply = DiscReply::Ok;
                self.park_on_disc(ctx, pages, Delayed::Fixed { owed, reply });
            }
            DiscRequest::DumpBegin { generation } => {
                // watermark: highest sequence whose effect every later
                // page copy is guaranteed to reflect. WAL-mode writes
                // parked on their force ack have assigned sequences but
                // unapplied updates, so clamp below the oldest of them.
                let parked_low = self
                    .audit_rpc
                    .awaiting()
                    .filter_map(|then| match then {
                        AuditThen::Wal(plan) => Some(plan.low_seq),
                        AuditThen::Phase1 { .. }
                        | AuditThen::DumpMarker { .. }
                        | AuditThen::Append(_) => None,
                    })
                    .min();
                let watermark = match parked_low {
                    Some(low) => self.audit_seq.min(low.saturating_sub(1)),
                    None => self.audit_seq,
                };
                let purge_floor = self.purge_floor(watermark);
                // copy set: every file on media or with overlay-resident
                // writes (BTreeSet ⇒ deterministic order)
                let files: Vec<(Name, FileOrganization)> = self
                    .with_media(ctx, |m| m.files.keys().cloned().collect::<Vec<_>>())
                    .into_iter()
                    .chain(self.overlay.iter().map(|(f, _, _)| f.clone()))
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .map(|f| {
                        let org = self.org_of(&f);
                        (f, org)
                    })
                    .collect();
                ctx.count(counter!("disc.dump_begins"), 1);
                ctx.flight(
                    Transid::dump_marker(self.volume.node, generation).flight_id(),
                    FlightCause::DumpBegin { generation },
                );
                let begun = DiscReply::DumpBegun {
                    watermark,
                    purge_floor,
                    files,
                };
                self.append_dump_marker(ctx, owed, generation, false, begun);
            }
            DiscRequest::DumpScan {
                generation,
                ref file,
                ref resume,
                limit,
            } => {
                let limit = limit.clamp(1, self.cfg.dump_page_size.max(1));
                let low = resume.clone().unwrap_or_default();
                // fetch one extra so `done` distinguishes a full last page
                // — plus one more on resumed pages, since the scan's low
                // bound is inclusive and the resume key (if still present)
                // burns a slot the filter below then discards
                let fetch = limit + 1 + usize::from(resume.is_some());
                let mut page: Vec<(Bytes, Bytes)> = self
                    .scan_merged(ctx, file, &low, None, fetch)
                    .into_iter()
                    .filter(|(k, _)| match resume {
                        Some(r) => k.as_ref() > r.as_ref(),
                        None => true,
                    })
                    .collect();
                let done = page.len() <= limit;
                page.truncate(limit);
                ctx.count(counter!("disc.dump_pages"), 1);
                ctx.count(counter!("disc.archive_read"), 1);
                ctx.flight(
                    Transid::dump_marker(self.volume.node, generation).flight_id(),
                    FlightCause::DumpScan {
                        records: page.len() as u32,
                    },
                );
                // each page costs one disc access
                let reply = DiscReply::DumpPage {
                    entries: page,
                    done,
                };
                self.park_on_disc(ctx, 1, Delayed::Fixed { owed, reply });
            }
            DiscRequest::DumpEnd { generation } => {
                ctx.count(counter!("disc.dump_ends"), 1);
                ctx.flight(
                    Transid::dump_marker(self.volume.node, generation).flight_id(),
                    FlightCause::DumpEnd { generation },
                );
                self.append_dump_marker(ctx, owed, generation, true, DiscReply::Ok);
            }
        }
    }

    /// Acquire `lock` or park the request on the lock queue: gives the
    /// request back unless it parked.
    fn park_unless_locked(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        owed: Owed,
        op: &DiscRequest,
        lock: &(Transid, LockScope),
        lock_wait: SimDuration,
    ) -> Option<Owed> {
        let (transid, scope) = (lock.0, &lock.1);
        let token = self.next_token;
        self.next_token += 1;
        match self.locks.acquire(transid, scope.clone(), token) {
            Acquire::Granted => {
                ctx.flight(transid.flight_id(), FlightCause::LockGranted);
                Some(owed)
            }
            Acquire::Queued => {
                // a retransmitted request that re-parks after a takeover is
                // the same logical wait, not a fresh one
                if self.counted_waits.insert(owed.id()) {
                    ctx.count(counter!("disc.lock_waits"), 1);
                    ctx.checkpoint(DiscDelta::Parked(owed.id()));
                }
                ctx.flight(transid.flight_id(), FlightCause::LockQueued);
                let timer = ctx.set_timer(lock_wait, TAG_LOCK_BASE + token);
                self.pending_locks.insert(
                    token,
                    PendingLock {
                        owed,
                        op: op.clone(),
                        timer,
                    },
                );
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Write pipeline
    // ------------------------------------------------------------------

    fn write_path(&mut self, ctx: &mut PairCtx<'_, '_>, mut owed: Owed, op: DiscRequest) {
        let (file, audited) = {
            let def = self.def(op_file(&op)).expect("validated");
            (def.name.clone(), def.audited)
        };
        let transid = Self::fence_transid(&op);
        if audited && transid.is_none() {
            self.finish_simple(ctx, owed, DiscReply::Err(DiscError::NeedTransid));
            return;
        }

        // lock discipline
        match (&op, transid) {
            (DiscRequest::Insert { key, lock_wait, .. }, Some(t)) => {
                let scope = LockScope::Record {
                    file: file.clone(),
                    key: key.clone(),
                };
                let lock = (t, scope);
                owed = match self.park_unless_locked(ctx, owed, &op, &lock, *lock_wait) {
                    Some(owed) => owed,
                    None => return,
                };
            }
            (DiscRequest::Update { key, .. }, Some(t))
            | (DiscRequest::Delete { key, .. }, Some(t)) => {
                let scope = LockScope::Record {
                    file: file.clone(),
                    key: key.clone(),
                };
                let file_scope = LockScope::File { file: file.clone() };
                if !self.locks.holds(t, &scope) && !self.locks.holds(t, &file_scope) {
                    self.finish_simple(ctx, owed, DiscReply::Err(DiscError::LockRequired));
                    return;
                }
            }
            _ => {} // InsertEntry (below) and non-transactional writes
        }

        // resolve the concrete write
        #[allow(
            clippy::wildcard_enum_match_arm,
            reason = "non-write ops are rejected upstream in execute()"
        )]
        let (key, after, lock_for_backup, entry_counter, ok_reply) = match &op {
            DiscRequest::Insert { key, value, .. } => {
                if self.logical_read(ctx, &file, key).is_some() {
                    self.finish_simple(ctx, owed, DiscReply::Err(DiscError::DuplicateKey));
                    return;
                }
                let lock = transid.map(|t| {
                    (
                        t,
                        LockScope::Record {
                            file: file.clone(),
                            key: key.clone(),
                        },
                    )
                });
                (key.clone(), Some(value.clone()), lock, None, DiscReply::Ok)
            }
            DiscRequest::Update { key, value, .. } => {
                if self.logical_read(ctx, &file, key).is_none() {
                    self.finish_simple(ctx, owed, DiscReply::Err(DiscError::NotFound));
                    return;
                }
                (key.clone(), Some(value.clone()), None, None, DiscReply::Ok)
            }
            DiscRequest::Delete { key, .. } => {
                if self.logical_read(ctx, &file, key).is_none() {
                    self.finish_simple(ctx, owed, DiscReply::Err(DiscError::NotFound));
                    return;
                }
                (key.clone(), None, None, None, DiscReply::Ok)
            }
            DiscRequest::InsertEntry { value, .. } => {
                let n = self.next_entry_number(ctx, &file);
                let key = num_key(n);
                let lock = transid.map(|t| {
                    let scope = LockScope::Record {
                        file: file.clone(),
                        key: key.clone(),
                    };
                    // a fresh entry number can never conflict
                    let granted = self.locks.acquire(t, scope.clone(), 0);
                    debug_assert_eq!(granted, Acquire::Granted);
                    (t, scope)
                });
                (
                    key,
                    Some(value.clone()),
                    lock,
                    Some((file.clone(), n + 1)),
                    DiscReply::EntryNumber(n),
                )
            }
            _ => unreachable!("write_path only receives write ops"),
        };

        // assemble writes (record + alternate-key index maintenance)
        let before = self.logical_read(ctx, &file, &key);
        let def = self.def(&file).expect("validated");
        let mut writes: WriteSet = Vec::new();
        writes.push((file.clone(), def.organization, key.clone(), after.clone()));
        for alt in &def.alternates {
            let idx_file = &alt.index_file;
            let old_alt = before.as_ref().map(|b| alt.extract(b));
            let new_alt = after.as_ref().map(|a| alt.extract(a));
            if old_alt == new_alt {
                continue;
            }
            if let Some(oa) = old_alt {
                let mut idx_key = oa.to_vec();
                idx_key.extend_from_slice(&key);
                writes.push((
                    idx_file.clone(),
                    FileOrganization::KeySequenced,
                    Bytes::from(idx_key),
                    None,
                ));
            }
            if let Some(na) = new_alt {
                let mut idx_key = na.to_vec();
                idx_key.extend_from_slice(&key);
                writes.push((
                    idx_file.clone(),
                    FileOrganization::KeySequenced,
                    Bytes::from(idx_key),
                    Some(Bytes::new()),
                ));
            }
        }

        // generate before/after images
        let images: Vec<ImageRecord> = if audited {
            let t = transid.expect("audited requires transid");
            let mut imgs = Vec::with_capacity(writes.len());
            for (wfile, worg, wkey, wafter) in &writes {
                self.audit_seq += 1;
                let wbefore = if wfile == &file {
                    before.clone()
                } else {
                    self.logical_read(ctx, wfile, wkey)
                };
                imgs.push(ImageRecord {
                    seq: self.audit_seq,
                    transid: t,
                    volume: self.volume.clone(),
                    file: wfile.clone(),
                    organization: *worg,
                    key: wkey.clone(),
                    before: wbefore,
                    after: wafter.clone(),
                });
            }
            imgs
        } else {
            Vec::new()
        };
        let txn = transid.map(|t| {
            let txn = self.txns.entry(t).or_default();
            txn.images += images.len() as u64;
            // the transaction's lowest image sequence on this volume pins
            // the ONLINEDUMP purge floor for as long as its locks are held
            if let Some(first) = images.first() {
                txn.low_seq.get_or_insert(first.seq);
            }
            TxnDelta {
                transid: t,
                images: txn.images,
                low_seq: txn.low_seq,
                retained: Vec::new(),
            }
        });
        let mut fx = Effects {
            writes,
            lock: lock_for_backup,
            entry_counter,
            txn,
        };
        ctx.count(counter!("disc.images"), images.len() as u64);

        let force_first = self.cfg.recovery_mode == RecoveryMode::WalForce
            && !images.is_empty()
            && self.cfg.audited;
        if force_first {
            // WAL baseline: the update waits for its force ack
            let low_seq = images.first().map(|i| i.seq).unwrap_or(0);
            let target = Target::Named(self.volume.node, AUDIT_SERVICE);
            self.audit_rpc.call_persistent(
                ctx,
                target,
                AuditMsg::Append {
                    records: images,
                    force: true,
                },
                SimDuration::from_millis(30),
                AuditThen::Wal(WalPlan {
                    owed,
                    reply: ok_reply,
                    fx,
                    low_seq,
                }),
            );
        } else {
            // NonStop design: checkpoint ≡ WAL, audit append is lazy
            if !images.is_empty() {
                let txn = fx.txn.as_mut().expect("audited requires transid");
                self.send_audit_append(ctx, txn.transid, images.clone());
                txn.retained = images;
            }
            self.finish_applied(ctx, owed, ok_reply, fx);
        }
    }

    fn next_entry_number(&mut self, ctx: &mut PairCtx<'_, '_>, file: &Name) -> u64 {
        if let Some(n) = self.entry_counters.get(&**file) {
            return *n;
        }
        let from_media =
            self.with_media(ctx, |m| m.file(file).map(|f| f.next_entry()).unwrap_or(0));
        self.entry_counters.insert(file.clone(), from_media);
        from_media
    }

    /// Lazily append `transid`'s `images` to the audit trail.
    fn send_audit_append(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        transid: Transid,
        images: Vec<ImageRecord>,
    ) {
        if !self.cfg.audited {
            return;
        }
        let target = Target::Named(self.volume.node, AUDIT_SERVICE);
        self.audit_rpc.call_persistent(
            ctx,
            target,
            AuditMsg::Append {
                records: images,
                force: false,
            },
            SimDuration::from_millis(30),
            AuditThen::Append(transid),
        );
        self.txns.entry(transid).or_default().appends_in_flight += 1;
    }

    /// Park a barrier request until `transid`'s lazy appends drain:
    /// gives the request back when none is in flight.
    fn park_on_appends(
        &mut self,
        transid: Transid,
        owed: Owed,
        waiter: fn(Owed) -> AppendWaiter,
    ) -> Option<Owed> {
        match self.txns.get_mut(&transid) {
            Some(txn) if txn.appends_in_flight > 0 => {
                txn.append_waiters.push(waiter(owed));
                None
            }
            _ => Some(owed),
        }
    }

    /// Lowest trail sequence a recovery could still need: the first image
    /// of the oldest transaction still holding locks, clamped to
    /// `watermark + 1` when none has written.
    fn purge_floor(&self, watermark: u64) -> u64 {
        self.txns
            .values()
            .filter_map(|t| t.low_seq)
            .min()
            .unwrap_or(watermark + 1)
            .min(watermark + 1)
    }

    /// Phase-one force, entered once no lazy append is in flight.
    fn start_phase1_force(&mut self, ctx: &mut PairCtx<'_, '_>, owed: Owed, transid: Transid) {
        let has_unforced = self.txns.get(&transid).is_some_and(|t| t.images > 0)
            && self.cfg.recovery_mode == RecoveryMode::NonStopCheckpoint;
        if self.cfg.audited && has_unforced {
            let target = Target::Named(self.volume.node, AUDIT_SERVICE);
            self.audit_rpc.call_persistent(
                ctx,
                target,
                AuditMsg::ForceTxn { transid },
                SimDuration::from_millis(30),
                AuditThen::Phase1(owed),
            );
        } else {
            self.finish_simple(ctx, owed, DiscReply::Phase1Done);
        }
    }

    // ------------------------------------------------------------------
    // Completion helpers
    // ------------------------------------------------------------------

    fn checkpoint_applied(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        answered: Option<(u64, DiscReply)>,
        fx: Effects,
    ) -> Checkpointed {
        if let Some(delta) = fx.txn.as_ref().filter(|d| !d.retained.is_empty()) {
            self.txns
                .entry(delta.transid)
                .or_default()
                .unforced
                .extend(delta.retained.iter().cloned());
        }
        ctx.checkpoint(DiscDelta::Applied(Applied {
            answered,
            audit_seq: self.audit_seq,
            fx,
        }))
    }

    /// Complete an op with no overlay change (errors, phase1-done, …).
    fn finish_simple(&mut self, ctx: &mut PairCtx<'_, '_>, owed: Owed, r: DiscReply) {
        // once replied, retransmissions are replayed from memory and never
        // re-park: the counted-wait entry would only leak from here on
        self.counted_waits.remove(&owed.id());
        self.checkpoint_applied(ctx, Some((owed.id(), r.clone())), Effects::default());
        self.replies.answer(ctx, owed, r);
    }

    /// Checkpoint, apply to the overlay, remember the reply, answer.
    fn finish_applied(&mut self, ctx: &mut PairCtx<'_, '_>, owed: Owed, r: DiscReply, fx: Effects) {
        self.counted_waits.remove(&owed.id());
        ctx.count(counter!("disc.writes"), fx.writes.len() as u64);
        let (writes, entry_counter) = (fx.writes.clone(), fx.entry_counter.clone());
        // 1. checkpoint to the backup (the WAL-equivalent step) …
        let cp = self.checkpoint_applied(ctx, Some((owed.id(), r.clone())), fx);
        // 2. … *then* perform the update (in the write-behind overlay)
        for (file, _org, key, value) in writes {
            self.overlay.put(&file, key, value, &cp);
        }
        if let Some((file, n)) = entry_counter {
            self.entry_counters.insert(file, n);
        }
        // 3. reply
        self.replies.answer(ctx, owed, r);
    }

    /// Is the record in memory (dirty in the overlay, or cached)? Reading
    /// a hot record is free; a cold one costs one disc access.
    fn hot(&mut self, ctx: &mut PairCtx<'_, '_>, file: &str, key: &[u8]) -> bool {
        let hot = self.overlay.get(file, key).is_some() || self.cache.access(file, key);
        let counter = if hot {
            counter!("disc.cache_hits")
        } else {
            counter!("disc.cache_misses")
        };
        ctx.count(counter, 1);
        hot
    }

    /// Reply to a single-record read, after simulated disc latency if the
    /// record is not cache-hot.
    fn read_with_latency(&mut self, ctx: &mut PairCtx<'_, '_>, owed: Owed, file: Name, key: Bytes) {
        if self.hot(ctx, &file, &key) {
            let v = self.logical_read(ctx, &file, &key);
            self.finish_simple(ctx, owed, DiscReply::Value(v));
        } else {
            self.park_on_disc(ctx, 1, Delayed::Read { owed, file, key });
        }
    }

    /// Park a request for the time `accesses` disc accesses take
    /// (multi-page archive reads charge one per page).
    fn park_on_disc(&mut self, ctx: &mut PairCtx<'_, '_>, accesses: u64, parked: Delayed) {
        let tag = TAG_READ_BASE + self.next_read_tag;
        self.next_read_tag += 1;
        ctx.set_timer(DISC_ACCESS.mul(accesses), tag);
        self.delayed.insert(tag, parked);
    }

    /// Append a DumpBegin/DumpEnd marker to the volume's audit trail and
    /// park the reply until the audit process acknowledges it. The
    /// DumpEnd marker is *forced*, so its ack additionally means every
    /// image buffered before it — anything the page copies may have
    /// caught mid-flight — is durable on the trail before the dump is
    /// registered complete. Unaudited volumes have no trail: reply
    /// immediately.
    fn append_dump_marker(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        owed: Owed,
        generation: u64,
        end: bool,
        done: DiscReply,
    ) {
        if !self.cfg.audited {
            self.finish_simple(ctx, owed, done);
            return;
        }
        self.audit_seq += 1;
        let marker = ImageRecord::dump_marker(self.audit_seq, self.volume.clone(), generation, end);
        // replicate the sequence bump so a takeover never reuses it
        self.checkpoint_applied(ctx, None, Effects::default());
        let target = Target::Named(self.volume.node, AUDIT_SERVICE);
        self.audit_rpc.call_persistent(
            ctx,
            target,
            AuditMsg::Append {
                records: vec![marker],
                force: end,
            },
            SimDuration::from_millis(30),
            AuditThen::DumpMarker { owed, done },
        );
    }

    fn scan_merged(
        &self,
        ctx: &mut PairCtx<'_, '_>,
        file: &str,
        low: &Bytes,
        high: Option<&[u8]>,
        limit: usize,
    ) -> Vec<(Bytes, Bytes)> {
        let mut base: std::collections::BTreeMap<Bytes, Bytes> = self
            .with_media(ctx, |m| {
                m.file(file)
                    .map(|f| f.scan(low, high, usize::MAX))
                    .unwrap_or_default()
            })
            .into_iter()
            .collect();
        for (key, value) in self.overlay.file_entries(file) {
            if key.as_ref() < low.as_ref() {
                continue;
            }
            if let Some(h) = high {
                if key.as_ref() > h {
                    continue;
                }
            }
            match value {
                Some(v) => {
                    base.insert(key.clone(), v.clone());
                }
                None => {
                    base.remove(key);
                }
            }
        }
        base.into_iter().take(limit).collect()
    }

    fn build_archive(&self, ctx: &mut PairCtx<'_, '_>, generation: u64) -> ArchiveImage {
        let mut files = self.with_media(ctx, |m| m.files.clone());
        for (file, key, value) in self.overlay.iter() {
            let org = self.org_of(file);
            files
                .entry(file.clone())
                .or_insert_with(|| FileImage::new(org))
                .apply(key, value.clone());
        }
        // the snapshot includes uncommitted overlay writes of transactions
        // still holding locks; their images (from their first one on) must
        // survive on the trail for recovery to undo losers
        let purge_floor = self.purge_floor(self.audit_seq);
        ArchiveImage {
            volume: self.volume.clone(),
            files,
            audit_watermark: self.audit_seq,
            purge_floor,
            generation,
        }
    }

    // ------------------------------------------------------------------
    // Background flush
    // ------------------------------------------------------------------

    fn flush(&mut self, ctx: &mut PairCtx<'_, '_>) {
        if self.overlay.is_empty() || !self.with_media(ctx, |m| m.available()) {
            return;
        }
        let cp = Checkpointed::reviewed(
            "every entry the batch drains was checkpointed to the backup when it \
             entered the overlay (finish_applied / Released), and re-flushing the \
             same entries after a takeover is idempotent: losing the Flushed delta \
             below can only make the backup flush them again",
        );
        let batch = self.overlay.take_batch(FLUSH_BATCH, &cp);
        ctx.count(counter!("disc.flush_writes"), batch.len() as u64);
        let mut keys = Vec::with_capacity(batch.len());
        for (file, key, value) in batch {
            let org = self.org_of(&file);
            self.with_media(ctx, |m| m.apply(&file, org, &key, value));
            keys.push((file, key));
        }
        ctx.checkpoint(DiscDelta::Flushed { keys });
    }

    fn org_of(&self, file: &str) -> FileOrganization {
        self.catalog
            .get(file)
            .map(|d| d.organization)
            .unwrap_or(FileOrganization::KeySequenced) // alternate-key index files
    }

    /// The AUDITPROCESS acknowledged one of our calls.
    fn on_audit_reply(&mut self, ctx: &mut PairCtx<'_, '_>, then: AuditThen) {
        match then {
            AuditThen::Phase1(owed) => {
                ctx.count(counter!("disc.phase1_forced"), 1);
                self.finish_simple(ctx, owed, DiscReply::Phase1Done);
            }
            AuditThen::DumpMarker { owed, done } => {
                ctx.count(counter!("disc.dump_markers"), 1);
                self.finish_simple(ctx, owed, done);
            }
            AuditThen::Wal(plan) => {
                ctx.count(counter!("disc.wal_forced_writes"), 1);
                // WAL mode forced the images before completing, so the
                // plan retains none
                self.finish_applied(ctx, plan.owed, plan.reply, plan.fx);
            }
            AuditThen::Append(transid) => self.append_acked(ctx, transid),
        }
    }

    /// One of `transid`'s lazy appends reached the audit buffer; when it
    /// was the last one in flight, resume the barriers parked on them.
    fn append_acked(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        let Some(txn) = self.txns.get_mut(&transid) else {
            return;
        };
        txn.appends_in_flight = txn.appends_in_flight.saturating_sub(1);
        if txn.appends_in_flight > 0 {
            return;
        }
        let waiters = std::mem::take(&mut txn.append_waiters);
        if txn.phase == Phase::Released {
            self.txns.remove(&transid);
        }
        ctx.flight(transid.flight_id(), FlightCause::AppendsDrained);
        for w in waiters {
            match w {
                AppendWaiter::Flush(owed) => self.finish_simple(ctx, owed, DiscReply::Ok),
                AppendWaiter::Phase1(owed) => self.start_phase1_force(ctx, owed, transid),
            }
        }
    }
}

impl PairApp for DiscProcess {
    type Delta = DiscDelta;
    type Snapshot = DiscSnapshot;

    fn service_name(&self) -> Name {
        self.volume.volume.clone()
    }

    fn kind(&self) -> &'static str {
        "discprocess"
    }

    fn on_primary_start(&mut self, ctx: &mut PairCtx<'_, '_>) {
        ctx.set_timer(FLUSH_INTERVAL, TAG_FLUSH);
    }

    fn on_request(&mut self, ctx: &mut PairCtx<'_, '_>, _src: Pid, payload: Payload) {
        // audit RPC replies come back on the same channel
        let payload = match self.audit_rpc.accept(ctx, payload) {
            Ok(Completion { then, .. }) => {
                self.on_audit_reply(ctx, then);
                return;
            }
            Err(p) => p,
        };
        match self.replies.admit(ctx, payload) {
            Admitted::Fresh(owed, op) => {
                ctx.count(counter!("disc.ops"), 1);
                self.execute(ctx, owed, op);
            }
            // a retried request, answered from memory or still parked on
            // a lock / disc read / audit force
            Admitted::Replayed | Admitted::Duplicate(..) => ctx.count(counter!("disc.ops"), 1),
            // stray replies (e.g. duplicates after retries) are dropped
            Admitted::NotARequest(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut PairCtx<'_, '_>, tag: u64) {
        if tag >= guardian::RPC_TAG_BASE {
            let _ = self.audit_rpc.on_timer(ctx, tag);
        } else if tag == TAG_FLUSH {
            self.flush(ctx);
            ctx.set_timer(FLUSH_INTERVAL, TAG_FLUSH);
        } else if (TAG_LOCK_BASE..TAG_READ_BASE).contains(&tag) {
            let token = tag - TAG_LOCK_BASE;
            if let Some(p) = self.pending_locks.remove(&token) {
                let unfenced = self.locks.cancel_waiter(token).unwrap_or_default();
                ctx.count(counter!("disc.lock_timeouts"), 1);
                if let Some(t) = Self::fence_transid(&p.op) {
                    ctx.flight(t.flight_id(), FlightCause::LockTimeout);
                }
                self.finish_simple(ctx, p.owed, DiscReply::Err(DiscError::LockTimeout));
                // a timed-out file waiter lifts the fairness fence
                self.resume_granted(ctx, unfenced);
            }
        } else if tag >= TAG_READ_BASE {
            match self.delayed.remove(&tag) {
                Some(Delayed::Read { owed, file, key }) => {
                    let v = self.logical_read(ctx, &file, &key);
                    self.finish_simple(ctx, owed, DiscReply::Value(v));
                }
                Some(Delayed::Fixed { owed, reply }) => {
                    self.finish_simple(ctx, owed, reply);
                }
                None => {}
            }
        }
    }

    fn on_takeover(&mut self, ctx: &mut PairCtx<'_, '_>) {
        // In-flight parked work (lock waits, delayed reads, calls to the
        // AUDITPROCESS and what they were for) died with the primary's
        // memory; this half has never served a request, so it holds none
        // of its own to discard. Clients retransmit and the operations
        // re-run idempotently (reply cache + locks are checkpointed state,
        // so nothing applied is ever applied twice).
        ctx.count(counter!("disc.takeovers"), 1);
        // lazy audit appends were rpc state in the dead primary's memory:
        // re-send every retained image batch (counting them in flight, so
        // flush/phase-1 barriers wait for the re-sends). The audit process
        // drops (transid, seq) duplicates, so over-sending is harmless.
        let retained: Vec<(Transid, Vec<ImageRecord>)> = self
            .txns
            .iter()
            .filter(|(_, txn)| !txn.unforced.is_empty())
            .map(|(t, txn)| (*t, txn.unforced.clone()))
            .collect();
        for (t, images) in retained {
            ctx.flight(t.flight_id(), FlightCause::Takeover);
            ctx.count(counter!("disc.takeover_image_resends"), images.len() as u64);
            self.send_audit_append(ctx, t, images);
        }
    }

    fn apply_checkpoint(&mut self, delta: DiscDelta, cp: &Checkpointed) {
        match delta {
            DiscDelta::Applied(Applied {
                answered,
                audit_seq,
                fx,
            }) => {
                for (file, _org, key, value) in fx.writes {
                    self.overlay.put(&file, key, value, cp);
                }
                if let Some((t, scope)) = fx.lock {
                    let _ = self.locks.acquire(t, scope, 0);
                }
                if let Some((req_id, reply)) = answered {
                    self.replies.record(req_id, reply);
                    // the primary pruned the counted wait when it replied
                    self.counted_waits.remove(&req_id);
                }
                self.audit_seq = audit_seq;
                if let Some((file, n)) = fx.entry_counter {
                    self.entry_counters.insert(file, n);
                }
                if let Some(delta) = fx.txn {
                    let txn = self.txns.entry(delta.transid).or_default();
                    txn.images = delta.images;
                    txn.low_seq = delta.low_seq;
                    txn.unforced.extend(delta.retained);
                }
            }
            DiscDelta::Released { transid, commit } => {
                let _ = self.locks.release_all(transid);
                self.release_txn(transid, commit);
            }
            DiscDelta::Fenced { transid } => {
                self.txns.entry(transid).or_default().phase = Phase::Fenced;
            }
            DiscDelta::Parked(req_id) => {
                self.counted_waits.insert(req_id);
            }
            DiscDelta::Flushed { keys } => {
                for (file, key) in keys {
                    self.overlay.remove(&file, &key, cp);
                }
            }
        }
    }

    fn snapshot(&self) -> DiscSnapshot {
        DiscSnapshot {
            overlay: self
                .overlay
                .iter()
                .map(|(f, k, v)| (f.clone(), k.clone(), v.clone()))
                .collect(),
            holdings: self.locks.holdings(),
            replies: self.replies.entries(),
            audit_seq: self.audit_seq,
            entry_counters: self
                .entry_counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            // a released record only awaits append acks, which are this
            // primary's business alone
            txns: self
                .txns
                .iter()
                .filter(|(_, txn)| txn.phase != Phase::Released)
                .map(|(t, txn)| (*t, txn.replica()))
                .collect(),
            settled_fences: self.settled_fences.iter().copied().collect(),
            counted_waits: self.counted_waits.iter().copied().collect(),
            snap_seq: self.snap_seq,
            snap_evicted: self.snap_evicted,
            snapshot_undo: self.snapshot_undo.iter().cloned().collect(),
        }
    }

    fn restore(&mut self, s: DiscSnapshot, cp: &Checkpointed) {
        self.overlay = Overlay::new();
        for (f, k, v) in s.overlay {
            self.overlay.put(&f, k, v, cp);
        }
        self.locks = LockManager::new();
        for (t, scope) in s.holdings {
            let _ = self.locks.acquire(t, scope, 0);
        }
        self.replies.restore(s.replies);
        self.audit_seq = s.audit_seq;
        self.entry_counters = s.entry_counters.into_iter().collect();
        self.txns = s.txns.into_iter().collect();
        self.settled_fences = s.settled_fences.into_iter().collect();
        self.settled_fence_set = self.settled_fences.iter().copied().collect();
        self.counted_waits = s.counted_waits.into_iter().collect();
        self.snap_seq = s.snap_seq;
        self.snap_evicted = s.snap_evicted;
        self.snapshot_undo = s.snapshot_undo.into_iter().collect();
    }
}

/// Spawn a DISCPROCESS pair for `volume` and create its media if absent.
pub fn spawn_disc_process(
    world: &mut World,
    cpu_primary: u8,
    cpu_backup: u8,
    volume: VolumeRef,
    catalog: Catalog,
    cfg: DiscConfig,
) -> PairHandle {
    let stable = world.stable_mut();
    let media = stable.id(&media_key(volume.node, &volume.volume));
    stable.get_or_create_at(media, || VolumeMedia::new(&volume.volume));
    let node = volume.node;
    guardian::spawn_pair(world, node, cpu_primary, cpu_backup, move || {
        DiscProcess::new(volume.clone(), media, catalog.clone(), cfg.clone())
    })
}

fn op_file(op: &DiscRequest) -> &str {
    match op {
        DiscRequest::Read { file, .. }
        | DiscRequest::ReadLock { file, .. }
        | DiscRequest::Insert { file, .. }
        | DiscRequest::Update { file, .. }
        | DiscRequest::Delete { file, .. }
        | DiscRequest::InsertEntry { file, .. }
        | DiscRequest::LockFile { file, .. }
        | DiscRequest::ReadRange { file, .. } => file,
        // snapshot reads take no locks (traced by fence, not file);
        // the rest are transaction- or volume-level operations with no
        // single subject file
        DiscRequest::SnapshotRead { .. }
        | DiscRequest::EndPhase1 { .. }
        | DiscRequest::FlushTxn { .. }
        | DiscRequest::ReleaseLocks { .. }
        | DiscRequest::Undo { .. }
        | DiscRequest::Archive { .. }
        | DiscRequest::DumpBegin { .. }
        | DiscRequest::DumpScan { .. }
        | DiscRequest::DumpEnd { .. } => "",
    }
}
