//! The DISCPROCESS wire format: the requests a volume serves, its
//! replies, and its error codes.

use crate::audit_api::ImageRecord;
use crate::types::{FileOrganization, Transid};
use bytes::Bytes;
use encompass_sim::{Name, SimDuration};

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

impl DiscRequest {
    /// Transid of a data op subject to the fence (reads without locks,
    /// recovery ops, and protocol ops are exempt).
    pub(super) fn fenced_transid(&self) -> Option<Transid> {
        match self {
            DiscRequest::ReadLock { transid, .. } => Some(*transid),
            DiscRequest::Insert { transid, .. }
            | DiscRequest::Update { transid, .. }
            | DiscRequest::Delete { transid, .. }
            | DiscRequest::InsertEntry { transid, .. } => *transid,
            DiscRequest::Read { .. }
            | DiscRequest::SnapshotRead { .. }
            | DiscRequest::ReadRange { .. }
            | DiscRequest::EndPhase1 { .. }
            | DiscRequest::FlushTxn { .. }
            | DiscRequest::ReleaseLocks { .. }
            | DiscRequest::Undo { .. }
            | DiscRequest::DumpBegin { .. }
            | DiscRequest::DumpScan { .. }
            | DiscRequest::DumpEnd { .. } => None,
        }
    }
}
