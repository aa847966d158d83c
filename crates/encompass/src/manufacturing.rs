//! The manufacturing distributed data base (Figure 4 and §"A Distributed
//! Data Base Application").
//!
//! Four plants (Cupertino, Santa Clara, Reston, Neufahrn) share **global**
//! files — Item Master, Bill of Materials, Purchase Order Header —
//! replicated at every node, plus **local** files (Stock,
//! Work-in-Progress, Transaction History, PO Detail).
//!
//! The design trades replica consistency for **node autonomy**: every
//! global record has a *master node* (stored in the record); an update
//! runs a TMF transaction at the master which updates the master copy and
//! queues *deferred updates* for the other copies in the master's
//! **suspense file**. This module is now a thin application layer over the
//! general sharding subsystem in `encompass-shard`: the suspense-file
//! record format, naming, and the suspense monitor **process pair**
//! (`$SUSPENSE`) live there; what remains here is the paper's concrete
//! schema and the `mfg` server class.
//!
//! The rejected synchronous design (update every copy in one TMF
//! transaction) is also implemented (`sync-update`) for the node-autonomy
//! ablation, experiment T7.

use crate::messages::{AppReply, AppRequest};
use crate::server::{suspense_appends, upsert, DbOp, ServerLogic, ServerStep};
use bytes::{BufMut, Bytes, BytesMut};
use encompass_shard::add_suspense_files;
use encompass_sim::{Name, NodeId};
use encompass_storage::discprocess::{DiscError, DiscReply};
use encompass_storage::types::{FileDef, Transid, VolumeRef};
use encompass_storage::Catalog;

/// The four global files of the paper.
pub const GLOBAL_FILES: [&str; 3] = ["item", "bom", "pohead"];
/// The local files of the paper.
pub const LOCAL_FILES: [&str; 4] = ["stock", "wip", "hist", "podtl"];

/// The per-node replica of a global file.
pub fn replica(file: &str, node: NodeId) -> Name {
    encompass_shard::replica_file(file, node)
}

/// The per-node name of a local file.
pub fn local(file: &str, node: NodeId) -> Name {
    Name::from(format!("{file}@{}", node.0))
}

/// The suspense file of a node.
pub fn suspense(node: NodeId) -> Name {
    encompass_shard::suspense_file(node)
}

/// Build the catalog for a manufacturing network over `nodes` (one volume
/// `$MFG` per node).
pub fn manufacturing_catalog(nodes: &[NodeId]) -> Catalog {
    let mut c = Catalog::new();
    let vol_of = |n: NodeId| VolumeRef::new(n, "$MFG");
    for &n in nodes {
        let vol = vol_of(n);
        for f in GLOBAL_FILES {
            c.add(FileDef::key_sequenced(&replica(f, n), vol.clone()));
        }
        for f in LOCAL_FILES {
            if f == "hist" {
                c.add(FileDef::entry_sequenced(&local(f, n), vol.clone()));
            } else {
                c.add(FileDef::key_sequenced(&local(f, n), vol.clone()));
            }
        }
    }
    add_suspense_files(&mut c, nodes, vol_of);
    c
}

// ----------------------------------------------------------------------
// Global-record encoding: [master_node][payload]
// ----------------------------------------------------------------------

pub fn global_record(master: NodeId, payload: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(payload.len() + 1);
    b.put_u8(master.0);
    b.put_slice(payload);
    b.freeze()
}

pub fn master_of(record: &[u8]) -> Option<NodeId> {
    record.first().map(|&m| NodeId(m))
}

// ----------------------------------------------------------------------
// The manufacturing server class
// ----------------------------------------------------------------------

/// Context-free server for one node of the manufacturing network.
///
/// Ops:
/// * `read-global [file, key]` — read the local replica;
/// * `master-update [file, key, payload]` — master-node write: update the
///   master copy and queue a deferred
///   [`SuspenseRecord`](encompass_shard::SuspenseRecord) for every other
///   replica (the suspense monitor pair drains them);
/// * `put-local [file, key, value]` — read-lock + insert-or-update a local
///   file record;
/// * `sync-update [file, key, payload]` — the rejected design: update all
///   replicas in this one transaction.
pub struct MfgServer {
    node: NodeId,
    all_nodes: Vec<NodeId>,
    /// The writing transaction, adopted from the dispatch envelope;
    /// stamped into every suspense record this request queues.
    transid: Option<Transid>,
    step: u32,
    op: Name,
    file: Name,
    key: Bytes,
    value: Bytes,
    queue: Vec<DbOp>,
    remotes: Vec<NodeId>,
    cursor: usize,
}

impl MfgServer {
    pub fn new(node: NodeId, all_nodes: Vec<NodeId>) -> MfgServer {
        MfgServer {
            node,
            all_nodes,
            transid: None,
            step: 0,
            op: Name::default(),
            file: Name::default(),
            key: Bytes::new(),
            value: Bytes::new(),
            queue: Vec::new(),
            remotes: Vec::new(),
            cursor: 0,
        }
    }

    fn next_queued(&mut self) -> ServerStep {
        match self.queue.pop() {
            Some(op) => ServerStep::Db(op),
            None => ServerStep::Reply(AppReply::ok(vec![])),
        }
    }
}

impl ServerLogic for MfgServer {
    fn on_adopt(&mut self, transid: Option<Transid>) {
        self.transid = transid;
    }

    fn on_request(&mut self, req: &AppRequest) -> ServerStep {
        self.op = req.op.clone();
        self.file = Name::new(&String::from_utf8_lossy(&req.param(0)));
        self.key = req.param(1);
        self.value = req.param(2);
        match req.op.as_str() {
            "read-global" => ServerStep::Db(DbOp::Read {
                file: replica(&self.file, self.node),
                key: self.key.clone(),
            }),
            "master-update" | "sync-update" | "put-local" => {
                // all write paths start with a read-lock on the target
                let file = match self.op.as_str() {
                    "master-update" | "sync-update" => replica(&self.file, self.node),
                    _ => local(&self.file, self.node),
                };
                self.step = 1;
                ServerStep::Db(DbOp::ReadLock {
                    file,
                    key: self.key.clone(),
                })
            }
            _ => ServerStep::Reply(AppReply::error()),
        }
    }

    fn on_db(&mut self, db: &DiscReply) -> ServerStep {
        if let DiscReply::Err(DiscError::LockTimeout) = db {
            return ServerStep::Reply(AppReply::restart());
        }
        match self.op.as_str() {
            "read-global" => {
                if let DiscReply::Value(v) = db {
                    ServerStep::Reply(AppReply::ok(v.iter().cloned().collect()))
                } else {
                    ServerStep::Reply(AppReply::error())
                }
            }
            "put-local" => match (self.step, db) {
                (1, DiscReply::Value(existing)) => {
                    self.step = 2;
                    ServerStep::Db(upsert(
                        existing.is_some(),
                        local(&self.file, self.node),
                        self.key.clone(),
                        self.value.clone(),
                    ))
                }
                (2, DiscReply::Ok) => ServerStep::Reply(AppReply::ok(vec![])),
                _ => ServerStep::Reply(AppReply::error()),
            },
            "master-update" => match (self.step, db) {
                (1, DiscReply::Value(existing)) => {
                    // build the full work list: master copy + deferred
                    // updates for the other replicas
                    let record = global_record(self.node, &self.value);
                    let master_op = upsert(
                        existing.is_some(),
                        replica(&self.file, self.node),
                        self.key.clone(),
                        record.clone(),
                    );
                    self.queue.extend(suspense_appends(
                        suspense(self.node),
                        self.node,
                        self.transid,
                        self.all_nodes.iter().copied().filter(|&n| n != self.node),
                        self.file.clone(),
                        self.key.clone(),
                        record,
                    ));
                    self.step = 2;
                    ServerStep::Db(master_op)
                }
                (2, DiscReply::Ok) | (2, DiscReply::EntryNumber(_)) => self.next_queued(),
                _ => ServerStep::Reply(AppReply::error()),
            },
            // the design the paper rejects for lack of node autonomy:
            // update every replica in this one transaction. Steps:
            // 1 = master read-lock answered → write master copy
            // 2 = master write answered → lock next remote replica
            // 3 = remote replica locked → write it
            // 4 = remote write answered → lock next remote or finish
            "sync-update" => match (self.step, db) {
                (1, DiscReply::Value(existing)) => {
                    let record = global_record(self.node, &self.value);
                    self.remotes = self
                        .all_nodes
                        .iter()
                        .copied()
                        .filter(|n| *n != self.node)
                        .collect();
                    self.cursor = 0;
                    self.value = record.clone();
                    self.step = 2;
                    ServerStep::Db(upsert(
                        existing.is_some(),
                        replica(&self.file, self.node),
                        self.key.clone(),
                        record,
                    ))
                }
                (2, DiscReply::Ok) | (4, DiscReply::Ok) => {
                    if self.step == 4 {
                        self.cursor += 1;
                    }
                    if self.cursor >= self.remotes.len() {
                        return ServerStep::Reply(AppReply::ok(vec![]));
                    }
                    self.step = 3;
                    ServerStep::Db(DbOp::ReadLock {
                        file: replica(&self.file, self.remotes[self.cursor]),
                        key: self.key.clone(),
                    })
                }
                (3, DiscReply::Value(existing)) => {
                    self.step = 4;
                    ServerStep::Db(upsert(
                        existing.is_some(),
                        replica(&self.file, self.remotes[self.cursor]),
                        self.key.clone(),
                        self.value.clone(),
                    ))
                }
                _ => ServerStep::Reply(AppReply::error()),
            },
            _ => ServerStep::Reply(AppReply::error()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encompass_shard::SuspenseRecord;

    #[test]
    fn global_record_encoding() {
        let r = global_record(NodeId(2), b"data");
        assert_eq!(master_of(&r), Some(NodeId(2)));
        assert_eq!(master_of(b""), None);
    }

    #[test]
    fn catalog_has_all_files() {
        let nodes = [NodeId(0), NodeId(1)];
        let c = manufacturing_catalog(&nodes);
        // per node: 3 global + 4 local + 1 suspense = 8
        assert_eq!(c.len(), 16);
        assert!(c.get("item@0").is_some());
        assert!(c.get("suspense@1").is_some());
        assert!(c.get("hist@0").is_some());
    }

    #[test]
    fn replica_names() {
        assert_eq!(replica("item", NodeId(2)), "item@2");
        assert_eq!(suspense(NodeId(0)), "suspense@0");
    }

    #[test]
    fn master_update_stamps_the_adopted_transid() {
        let t = Transid {
            home_node: NodeId(1),
            cpu: 2,
            seq: 42,
        };
        let mut s = MfgServer::new(NodeId(1), (0..3).map(NodeId).collect());
        s.on_adopt(Some(t));
        let _ = s.on_request(&AppRequest::new(
            "master-update",
            vec![
                Bytes::from_static(b"item"),
                Bytes::from_static(b"widget"),
                Bytes::from_static(b"v1"),
            ],
        ));
        let _ = s.on_db(&DiscReply::Value(None));
        // two deferred records queued (nodes 0 and 2), both stamped
        let mut stamped = 0;
        for op in &s.queue {
            if let DbOp::InsertEntry { value, .. } = op {
                let rec = SuspenseRecord::decode(value).expect("valid record");
                assert_eq!(rec.transid, t);
                stamped += 1;
            }
        }
        assert_eq!(stamped, 2);
    }
}
