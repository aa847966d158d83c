//! Suspense-file records, naming, and the monitor's checkpoint deltas.
//!
//! A replicated file `f` has one physical copy per node, named
//! [`replica_file`]`(f, n)`. Every record has a master node (routed by the
//! [`crate::ShardMap`]); a write runs a TMF transaction **at the master**
//! that updates the master copy and appends one [`SuspenseRecord`] per
//! non-master replica to the master node's suspense file
//! ([`suspense_file`]). The suspense file is an ordinary audited
//! entry-sequenced file: the appends are part of the writing transaction,
//! WAL-disciplined and checkpointed to the DISCPROCESS backup like every
//! other per-node update, and they survive takeover and rollforward.
//!
//! Entry order in the suspense file is the master's commit order, so the
//! monitor draining "earliest entry first per destination" applies updates
//! to each replica in transid order. The writing transid is embedded in
//! the record for observability and for the drain-ordering e2e tests.

use bytes::{Buf, BufMut, Bytes};
use encompass_sim::{Name, NodeId};
use encompass_storage::types::{FileDef, Transid, VolumeRef};
use encompass_storage::Catalog;

/// The registered name of the suspense monitor pair on each node.
pub const SUSPENSE_SERVICE: &str = "$SUSPENSE";

/// The per-node copy of a replicated file.
pub fn replica_file(file: &str, node: NodeId) -> Name {
    Name::from(format!("{file}@{}", node.0))
}

/// The suspense file of a node.
pub fn suspense_file(node: NodeId) -> Name {
    Name::from(format!("suspense@{}", node.0))
}

/// The names a suspense drain meets, each made the first time it is met:
/// the logical files its records name, and their copies on the nodes the
/// records go to. A process that decodes records and names their
/// replicas keeps one, and formats no name per record after its first.
///
/// Made as met rather than from the catalog when the process is built: a
/// table of every node's copy in every monitor raised `shard64_x100`'s
/// peak heap by 0.5 MiB (10.95 → 11.47 MiB at seed 1, 2 s), where one
/// monitor drains to two or three ring replicas.
#[derive(Clone, Debug, Default)]
pub struct ReplicaNames(Vec<(Name, Vec<(NodeId, Name)>)>);

impl ReplicaNames {
    fn copies(&mut self, file: &str) -> &mut (Name, Vec<(NodeId, Name)>) {
        let at = (self.0.iter().position(|(f, _)| f == file)).unwrap_or_else(|| {
            self.0.push((Name::new(file), Vec::new()));
            self.0.len() - 1
        });
        &mut self.0[at]
    }

    /// The logical file `file`.
    pub fn file(&mut self, file: &str) -> Name {
        self.copies(file).0.clone()
    }

    /// [`replica_file`]`(file, node)`.
    pub fn replica(&mut self, file: &str, node: NodeId) -> Name {
        let copies = &mut self.copies(file).1;
        let at = (copies.iter().position(|(n, _)| *n == node)).unwrap_or_else(|| {
            copies.push((node, replica_file(file, node)));
            copies.len() - 1
        });
        copies[at].1.clone()
    }
}

/// Add the per-node copies of replicated file `file` for every node, each
/// on the volume named by `volume_of`.
pub fn add_replicated_file(
    catalog: &mut Catalog,
    file: &str,
    nodes: &[NodeId],
    volume_of: impl Fn(NodeId) -> VolumeRef,
) {
    for &n in nodes {
        catalog.add(FileDef::key_sequenced(&replica_file(file, n), volume_of(n)));
    }
}

/// Add each node's suspense file (entry-sequenced, audited).
pub fn add_suspense_files(
    catalog: &mut Catalog,
    nodes: &[NodeId],
    volume_of: impl Fn(NodeId) -> VolumeRef,
) {
    for &n in nodes {
        catalog.add(FileDef::entry_sequenced(&suspense_file(n), volume_of(n)));
    }
}

/// A deferred replica update queued in a suspense file.
#[derive(Clone, Debug, PartialEq)]
pub struct SuspenseRecord {
    /// The transaction that performed the master write (drain order per
    /// destination follows entry order, which is commit order of these).
    pub transid: Transid,
    /// The replica's node.
    pub dest: NodeId,
    /// Logical replicated file name (e.g. `"item"` or `"branch"`).
    pub file: Name,
    pub key: Bytes,
    pub value: Bytes,
}

impl SuspenseRecord {
    /// Bytes an encoding spends besides the file name, key and value: the
    /// transid, the destination and the three lengths.
    const FRAMING: usize = 1 + 1 + 8 + 1 + 2 + 2 + 4;

    /// The record as one value, written in place in its one block.
    pub fn encode(&self) -> Bytes {
        let len = Self::FRAMING + self.file.len() + self.key.len() + self.value.len();
        Bytes::from_fn(len, |mut b| {
            b.put_u8(self.transid.home_node.0);
            b.put_u8(self.transid.cpu);
            b.put_u64(self.transid.seq);
            b.put_u8(self.dest.0);
            b.put_u16(self.file.len() as u16);
            b.put_slice(self.file.as_bytes());
            b.put_u16(self.key.len() as u16);
            b.put_slice(&self.key);
            b.put_u32(self.value.len() as u32);
            b.put_slice(&self.value);
        })
    }

    pub fn decode(raw: &[u8]) -> Option<SuspenseRecord> {
        SuspenseRecord::decode_named(raw, &mut ReplicaNames::default())
    }

    /// [`decode`](SuspenseRecord::decode), its file named from `names`.
    pub fn decode_named(mut raw: &[u8], names: &mut ReplicaNames) -> Option<SuspenseRecord> {
        if raw.len() < 1 + 1 + 8 + 1 + 2 {
            return None;
        }
        let transid = Transid {
            home_node: NodeId(raw.get_u8()),
            cpu: raw.get_u8(),
            seq: raw.get_u64(),
        };
        let dest = NodeId(raw.get_u8());
        let flen = raw.get_u16() as usize;
        if raw.len() < flen + 2 {
            return None;
        }
        let file = names.file(std::str::from_utf8(&raw[..flen]).ok()?);
        raw.advance(flen);
        let klen = raw.get_u16() as usize;
        if raw.len() < klen + 4 {
            return None;
        }
        let key = Bytes::copy_from_slice(&raw[..klen]);
        raw.advance(klen);
        let vlen = raw.get_u32() as usize;
        if raw.len() < vlen {
            return None;
        }
        let value = Bytes::copy_from_slice(&raw[..vlen]);
        Some(SuspenseRecord {
            transid,
            dest,
            file,
            key,
            value,
        })
    }
}

/// Checkpoint deltas from the monitor primary to its backup: drain
/// progress survives takeover so backlog reporting never goes backwards
/// (the drain itself restarts from the durable suspense file).
#[derive(Clone, Debug, PartialEq)]
pub enum SuspenseDelta {
    /// One deferred update was applied and its suspense entry deleted.
    Applied { dest: NodeId, entry: u64 },
    /// A scan observed this many pending entries.
    Scanned { pending: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(seq: u64) -> Transid {
        Transid {
            home_node: NodeId(1),
            cpu: 2,
            seq,
        }
    }

    #[test]
    fn suspense_record_roundtrip() {
        let r = SuspenseRecord {
            transid: t(99),
            dest: NodeId(3),
            file: "branch".into(),
            key: Bytes::from_static(b"b01"),
            value: Bytes::from_static(b"\x02rate=7"),
        };
        assert_eq!(SuspenseRecord::decode(&r.encode()), Some(r));
        assert_eq!(SuspenseRecord::decode(b""), None);
        assert_eq!(SuspenseRecord::decode(b"\x01\x02\x00"), None);
    }

    #[test]
    fn replica_names_are_made_once() {
        let mut names = ReplicaNames::default();
        let first = names.replica("branch", NodeId(7));
        assert_eq!(first, replica_file("branch", NodeId(7)));
        let again = names.replica("branch", NodeId(7));
        assert!(
            matches!((&first, &again), (Name::Shared(a), Name::Shared(b)) if std::sync::Arc::ptr_eq(a, b)),
            "the second is the first's name"
        );
        assert_eq!(names.replica("item", NodeId(7)), "item@7");
        assert_eq!(names.file("branch"), "branch");
    }

    #[test]
    fn file_names() {
        assert_eq!(replica_file("branch", NodeId(7)), "branch@7");
        assert_eq!(suspense_file(NodeId(0)), "suspense@0");
    }

    #[test]
    fn catalog_helpers_add_every_node() {
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut c = Catalog::new();
        add_replicated_file(&mut c, "branch", &nodes, |n| VolumeRef::new(n, "$S"));
        add_suspense_files(&mut c, &nodes, |n| VolumeRef::new(n, "$S"));
        assert_eq!(c.len(), 6);
        assert!(c.get("branch@2").is_some());
        assert!(c.get("suspense@0").is_some());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            #[test]
            fn record_roundtrips(
                home in 0u8..64, cpu in 0u8..8, seq in 0u64..1_000_000,
                dest in 0u8..64,
                file in "[a-z]{1,12}",
                key in prop::collection::vec(any::<u8>(), 0..64),
                value in prop::collection::vec(any::<u8>(), 0..256),
            ) {
                let r = SuspenseRecord {
                    transid: Transid { home_node: NodeId(home), cpu, seq },
                    dest: NodeId(dest),
                    file: file.into(),
                    key: Bytes::from(key),
                    value: Bytes::from(value),
                };
                prop_assert_eq!(SuspenseRecord::decode(&r.encode()), Some(r));
            }

            #[test]
            fn decode_never_panics(raw in prop::collection::vec(any::<u8>(), 0..128)) {
                let _ = SuspenseRecord::decode(&raw);
            }
        }
    }
}
