//! # encompass-shard
//!
//! The sharding and replication layer that generalizes the paper's Figure-4
//! manufacturing scheme (record-master node per partition, suspense-file
//! deferred replication, a suspense monitor draining after partition heal)
//! into a first-class subsystem:
//!
//! * [`ShardMap`] — a partition map assigning record-key ranges to master
//!   nodes, with partition-local addressing helpers (`master_of`,
//!   [`ShardMap::scan_bounds`] for `ReadRange`) and catalog construction
//!   (`partitions`, replicated files, suspense files).
//! * [`SuspenseRecord`] — a durable deferred-update record appended to the
//!   master node's suspense file inside the writing transaction. The
//!   suspense file is an ordinary audited entry-sequenced file, so the
//!   appends ride the normal WAL/checkpoint discipline of the DISCPROCESS
//!   pair and survive takeover and rollforward like any other per-node
//!   state.
//! * [`SuspenseMonitorApp`] — the suspense monitor as a **process pair**
//!   (`$SUSPENSE`): scans the local suspense file, and for the earliest
//!   pending entry of each currently-reachable destination runs one TMF
//!   transaction that installs the update at the replica and deletes the
//!   suspense entry. Per-destination order is entry order, which is the
//!   master's commit order — replicas converge in transid order after a
//!   partition heals, and a takeover resumes the drain from the durable
//!   file. Its drain progress is read off the live pair
//!   ([`SuspenseMonitorApp::pending`], [`SuspenseMonitorApp::applied`]).

pub mod map;
pub mod monitor;
pub mod suspense;

pub use map::ShardMap;
pub use monitor::{spawn_suspense_monitor, SuspenseMonitorApp};
pub use suspense::{
    add_replicated_file, add_suspense_files, replica_file, suspense_file, ReplicaNames,
    SuspenseRecord, SUSPENSE_SERVICE,
};
