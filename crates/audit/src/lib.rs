//! # encompass-audit
//!
//! TMF's recovery substrate, as the paper describes it:
//!
//! * **Distributed audit trails** ([`trail`]): numbered sequences of disc
//!   files holding before/after images of data-base updates. "For
//!   transactions that span data bases on multiple nodes of a network, all
//!   audit images for records residing on a particular node are contained
//!   in audit trails at that node" — each node's AUDITPROCESS writes only
//!   local trails, which is what lets backout run without network traffic.
//! * **The AUDITPROCESS** ([`auditprocess`]): one process-pair per node
//!   that buffers image records from the node's DISCPROCESSes and forces
//!   them to the trail media on demand — lazily in the NonStop design
//!   (group-committing concurrent force requests), eagerly per record in
//!   the Write-Ahead-Log baseline.
//! * **The Monitor Audit Trail** ([`monitor`]): the per-node history of
//!   transaction completion statuses. "A transaction commits at the time
//!   its commit record is written to the Monitor Audit Trail."
//! * **The BACKOUTPROCESS** ([`backout`]): a process-pair that backs out a
//!   transaction "using the transaction's before-images recorded in the
//!   audit trails".
//! * **The DUMPPROCESS** ([`dump`]): a process-pair that takes online
//!   *fuzzy* dumps — archived copies of audited volumes taken page by page
//!   while transactions keep updating, bracketed by DumpBegin/DumpEnd
//!   markers on the audit trail so recovery can converge the copy.
//! * **ROLLFORWARD** ([`rollforward`]): the utility that recovers a volume
//!   after total node failure from an archived copy plus the audit trails,
//!   reapplying the updates of committed transactions and consulting the
//!   (possibly remote) monitor trails for transactions that were still in
//!   "ending" state.

pub mod auditprocess;
pub mod backout;
pub mod dump;
pub mod monitor;
pub mod rollforward;
pub mod trail;

pub use auditprocess::{spawn_audit_process, AuditConfig, AuditProcess};
pub use backout::{spawn_backout_process, BackoutMsg, BackoutProcess, BackoutReply};
pub use dump::{request_dump, spawn_dump_process, DumpMsg, DumpProcess, DumpReply};
pub use monitor::{monitor_key, CompletionRecord, MonitorTrail};
pub use rollforward::{rollforward_volume, RollforwardReport};
pub use trail::{trail_key, TrailFile, TrailMedia};
