//! The wire protocol between a DISCPROCESS and its AUDITPROCESS.
//!
//! The types live here (the lower layer) so that `encompass-audit` can
//! implement the server side without a dependency cycle: the DISCPROCESS
//! *produces* before/after images; the audit crate *consumes* them.
//!
//! "Each DISCPROCESS which manages a disc volume configured as audited …
//! automatically provides before-images and after-images of data base
//! updates … to an AUDITPROCESS, which writes to an audit trail."

use crate::types::{FileOrganization, Transid, VolumeRef};
use bytes::Bytes;
use encompass_sim::{Members, Name};

/// Reserved pseudo-file name of ONLINEDUMP marker records (DumpBegin /
/// DumpEnd brackets). No real file may use this name; recovery filters
/// these records out instead of replaying them.
pub const DUMP_MARKER_FILE: &str = "$DUMPMARK";

/// One before/after image of a logical record update: every insert,
/// update, delete or entry append on an audited file yields exactly one.
#[derive(Clone, Debug, PartialEq)]
pub struct ImageRecord {
    /// Per-volume, strictly increasing audit sequence number.
    pub seq: u64,
    pub transid: Transid,
    pub volume: VolumeRef,
    pub file: Name,
    pub organization: FileOrganization,
    pub key: Bytes,
    /// `None` = the record did not exist before this update.
    pub before: Option<Bytes>,
    /// `None` = the update deleted the record.
    pub after: Option<Bytes>,
}

impl ImageRecord {
    /// An ONLINEDUMP marker record (DumpBegin when `end` is false,
    /// DumpEnd when true). Lives on the trail only; never applied to
    /// media and never replayed by recovery.
    pub fn dump_marker(seq: u64, volume: VolumeRef, generation: u64, end: bool) -> ImageRecord {
        ImageRecord {
            seq,
            transid: Transid::dump_marker(volume.node, generation),
            volume,
            file: Name::from_static(DUMP_MARKER_FILE),
            organization: FileOrganization::KeySequenced,
            key: Bytes::from(if end { "end" } else { "begin" }),
            before: None,
            after: None,
        }
    }

    /// True if this record is an ONLINEDUMP marker rather than a data
    /// image.
    pub fn is_dump_marker(&self) -> bool {
        self.file == DUMP_MARKER_FILE
    }
}

/// The service name of every node's one AUDITPROCESS pair.
pub const AUDIT_SERVICE: Name = Name::from_static("$AUDIT");

/// Requests a DISCPROCESS (or BACKOUTPROCESS / ROLLFORWARD) sends to an
/// AUDITPROCESS.
#[derive(Clone, Debug)]
pub enum AuditMsg {
    /// Buffer image records; if `force`, do not acknowledge until they are
    /// on the trail media (the Write-Ahead-Log baseline forces every
    /// append; the NonStop design appends lazily).
    ///
    /// The records come from one volume, and `floor` is that volume's
    /// re-send floor: no image below it will ever reach the AUDITPROCESS
    /// again, first time or re-sent, so the duplicate filter forgets the
    /// keys under it (DESIGN.md §D27). An append without records names no
    /// volume, and its floor is ignored. The records are the list the
    /// DISCPROCESS checkpoints and retains (§D19(f)): a retry's copy, the
    /// AUDITPROCESS's checkpoint and its backup all share one block.
    Append {
        records: Members<ImageRecord>,
        force: bool,
        floor: u64,
    },
    /// Phase one of commit: force every buffered record of this
    /// transaction (and everything queued before them) to the trail.
    ForceTxn { transid: Transid },
    /// All images of a transaction, buffered or on the trail — used by the
    /// BACKOUTPROCESS to drive undo.
    ReadTxnImages { transid: Transid },
    /// Capacity management: drop trail files whose records can never be
    /// needed by ROLLFORWARD. Sent by the TMP's purge pass with one entry
    /// per audited volume of the node: `Some(floor)` is the purge floor
    /// proven by the volume's latest completed dump, `None` means the
    /// volume has no completed dump yet. The AUDITPROCESS groups floors by
    /// trail partition and cuts each partition at the minimum floor of its
    /// volumes — a partition with any floorless volume is skipped. `open`
    /// lists the transids still open at the sending TMP; the AUDITPROCESS
    /// additionally clamps each cut below the first record of the oldest
    /// of them on that partition, so a backout can never find its
    /// before-images purged.
    Purge {
        floors: Vec<(Name, Option<u64>)>,
        open: Vec<Transid>,
    },
}

/// Replies from an AUDITPROCESS.
#[derive(Clone, Debug)]
pub enum AuditReply {
    /// Append accepted (and forced, if requested).
    Appended,
    /// ForceTxn complete: everything the transaction wrote is on the trail.
    Forced,
    /// The transaction's images, in ascending sequence order.
    Images(Vec<ImageRecord>),
    /// Purge complete; `files` trail files were dropped.
    Purged { files: u64 },
}
