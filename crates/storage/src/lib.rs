//! # encompass-storage
//!
//! The data-base management substrate of ENCOMPASS (the layer the paper
//! calls the relational data base manager plus the DISCPROCESS):
//!
//! * two structured file organizations — **key-sequenced** (an ordered
//!   map from primary key to record, [`media::FileImage`]) and
//!   **entry-sequenced** ([`entryseq`]); ENSCRIBE's page structure, key
//!   compression, relative files and alternate-key indices are not
//!   modelled, since nothing the paper claims rests on them;
//! * **partitioning** of files by primary-key range across volumes, possibly
//!   on multiple nodes ([`catalog`]);
//! * **mirrored disc volumes** with independently failable drives
//!   ([`media`]);
//! * a **write-behind cache**: updates are applied in DISCPROCESS memory
//!   (protected by checkpoints to the backup) and flushed to the media
//!   lazily ([`overlay`]) — the design that lets TMF defer audit forcing to
//!   commit time;
//! * a decentralized **lock manager** per volume — exclusive record and
//!   file locks, deadlock detection by timeout, no central lock manager
//!   ([`locks`]);
//! * the **DISCPROCESS** itself ([`discprocess`]): a process-pair per
//!   volume serving reads, locked reads, inserts, updates, deletes, range
//!   scans, transaction phase-1/phase-2 requests, and undo operations, and
//!   emitting before/after images to an audit process.
//!
//! The [`types::Transid`] type lives here (rather than in the `tmf` crate,
//! which conceptually owns it) because the DISCPROCESS tags locks, audit
//! images, and requests with it; `tmf` re-exports it.

pub mod audit_api;
pub mod catalog;
pub mod discprocess;
pub mod entryseq;
pub mod image_codec;
pub mod locks;
pub mod media;
pub mod overlay;
pub mod testkit;
pub mod transids;
pub mod types;

pub use audit_api::{AuditMsg, AuditReply, ImageRecord};
pub use catalog::Catalog;
pub use discprocess::{
    spawn_disc_process, DiscConfig, DiscError, DiscProcess, DiscReply, DiscRequest,
};
pub use media::{media_key, ArchiveImage, FileImage, VolumeMedia};
pub use types::{FileDef, FileOrganization, PartitionSpec, RecoveryMode, Transid, VolumeRef};
