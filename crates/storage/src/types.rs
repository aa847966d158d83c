//! Shared storage-layer types: transaction identifiers, volume references,
//! file definitions, partitioning, and recovery modes.

use bytes::Bytes;
use encompass_sim::{Name, NodeId};
use std::fmt;

/// A network-unique transaction identifier.
///
/// Exactly the structure the paper gives for the output of
/// `BEGIN-TRANSACTION`: "a sequence number, qualified by the number of the
/// processor in which BEGIN-TRANSACTION was called, qualified by the number
/// of the network node which originated the transaction, designated the
/// *home* node".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Transid {
    /// The node on which the transaction originated.
    pub home_node: NodeId,
    /// The processor on which `BEGIN-TRANSACTION` ran.
    pub cpu: u8,
    /// Sequence number, from the home node's one counter (the TMP's;
    /// DESIGN.md §D30).
    pub seq: u64,
}

impl Transid {
    /// The reserved pseudo-CPU number used by ONLINEDUMP marker records on
    /// the audit trail. Real processors are numbered far below this, so a
    /// marker transid can never collide with a live transaction.
    pub const DUMP_MARKER_CPU: u8 = 255;

    /// This transaction's identity in the sim-layer flight recorder
    /// (the sim crate sits below storage and mirrors the fields).
    pub fn flight_id(&self) -> encompass_sim::FlightTransid {
        encompass_sim::FlightTransid {
            home_node: self.home_node.0,
            cpu: self.cpu,
            seq: self.seq,
        }
    }

    /// The synthetic transid under which dump generation `generation`
    /// brackets its DumpBegin/DumpEnd records on a volume's audit trail.
    /// Never registered with any TMP, so the Monitor Audit Trails report
    /// it as not-committed and recovery treats marker records specially.
    pub fn dump_marker(home_node: NodeId, generation: u64) -> Transid {
        Transid {
            home_node,
            cpu: Transid::DUMP_MARKER_CPU,
            seq: generation,
        }
    }

    /// True if this is an ONLINEDUMP marker pseudo-transid.
    pub fn is_dump_marker(&self) -> bool {
        self.cpu == Transid::DUMP_MARKER_CPU
    }
}

impl fmt::Debug for Transid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}.{}", self.home_node.0, self.cpu, self.seq)
    }
}

impl fmt::Display for Transid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A disc volume somewhere in the network.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VolumeRef {
    pub node: NodeId,
    /// The volume's name, which is also its DISCPROCESS's service name
    /// (`$DATA` style).
    pub volume: Name,
}

impl VolumeRef {
    pub fn new(node: NodeId, volume: &str) -> VolumeRef {
        VolumeRef {
            node,
            volume: Name::new(volume),
        }
    }
}

impl fmt::Display for VolumeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.node, self.volume)
    }
}

/// The two ENSCRIBE structured file organizations this model keeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileOrganization {
    /// Ordered by an arbitrary byte-string primary key.
    KeySequenced,
    /// Append-only; records addressed by entry number assigned at insert.
    EntrySequenced,
}

/// One partition of a file: all keys `>= low_key` (up to the next
/// partition's `low_key`) live on `volume`.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    pub low_key: Bytes,
    pub volume: VolumeRef,
}

/// The catalog entry for a file.
#[derive(Clone, Debug)]
pub struct FileDef {
    pub name: Name,
    pub organization: FileOrganization,
    /// Whether TMF audits updates to this file (before/after images).
    pub audited: bool,
    /// Partitions in ascending `low_key` order; the first must be the empty
    /// key. A single-partition file is the common case.
    pub partitions: Vec<PartitionSpec>,
}

impl FileDef {
    /// A single-partition audited key-sequenced file.
    pub fn key_sequenced(name: &str, volume: VolumeRef) -> FileDef {
        FileDef {
            name: Name::new(name),
            organization: FileOrganization::KeySequenced,
            audited: true,
            partitions: vec![PartitionSpec {
                low_key: Bytes::new(),
                volume,
            }],
        }
    }

    /// A single-partition audited entry-sequenced file.
    pub fn entry_sequenced(name: &str, volume: VolumeRef) -> FileDef {
        FileDef {
            organization: FileOrganization::EntrySequenced,
            ..FileDef::key_sequenced(name, volume)
        }
    }

    /// Builder: mark unaudited.
    pub fn unaudited(mut self) -> FileDef {
        self.audited = false;
        self
    }

    /// Builder: partition by key ranges. `bounds` are the low keys of the
    /// second and subsequent partitions.
    pub fn partitioned(mut self, parts: Vec<PartitionSpec>) -> FileDef {
        assert!(!parts.is_empty(), "at least one partition");
        assert!(
            parts[0].low_key.is_empty(),
            "first partition must start at the empty key"
        );
        for w in parts.windows(2) {
            assert!(w[0].low_key < w[1].low_key, "partitions must be ordered");
        }
        self.partitions = parts;
        self
    }

    /// The volume holding `key`: the last partition whose low key is at
    /// or below it, found by binary search over the ordered partitions.
    pub fn volume_for(&self, key: &[u8]) -> &VolumeRef {
        let after = (self.partitions).partition_point(|p| p.low_key.as_ref() <= key);
        &self.partitions[after.saturating_sub(1)].volume
    }

    /// All volumes this file (or any partition of it) lives on.
    pub fn volumes(&self) -> Vec<&VolumeRef> {
        self.partitions.iter().map(|p| &p.volume).collect()
    }
}

/// How the DISCPROCESS guarantees that transaction backout stays feasible
/// (design decision D1 in DESIGN.md).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryMode {
    /// The paper's NonStop design: audit records are checkpointed to the
    /// backup DISCPROCESS before the update is performed; they reach disc
    /// lazily and are forced only at phase one of commit.
    NonStopCheckpoint,
    /// The conventional Write-Ahead-Log baseline: every update waits for
    /// its audit records to be force-written to the audit trail before the
    /// update is applied and acknowledged.
    WalForce,
}

/// Helper: encode a u64 as the 8-byte big-endian key used by
/// entry-sequenced files.
pub fn num_key(n: u64) -> Bytes {
    Bytes::copy_from_slice(&n.to_be_bytes())
}

/// Helper: decode a `num_key`.
pub fn key_num(key: &[u8]) -> Option<u64> {
    key.try_into().ok().map(u64::from_be_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vol(n: u8, name: &str) -> VolumeRef {
        VolumeRef::new(NodeId(n), name)
    }

    #[test]
    fn transid_display() {
        let t = Transid {
            home_node: NodeId(3),
            cpu: 1,
            seq: 42,
        };
        assert_eq!(t.to_string(), "T3.1.42");
    }

    #[test]
    fn partition_routing() {
        let def = FileDef::key_sequenced("stock", vol(0, "$D0")).partitioned(vec![
            PartitionSpec {
                low_key: Bytes::new(),
                volume: vol(0, "$D0"),
            },
            PartitionSpec {
                low_key: Bytes::from_static(b"m"),
                volume: vol(1, "$D1"),
            },
        ]);
        assert_eq!(def.volume_for(b"apple"), &vol(0, "$D0"));
        assert_eq!(def.volume_for(b"m"), &vol(1, "$D1"));
        assert_eq!(def.volume_for(b"zebra"), &vol(1, "$D1"));
        assert_eq!(def.volumes().len(), 2);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn partitions_must_be_ordered() {
        let _ = FileDef::key_sequenced("f", vol(0, "$D0")).partitioned(vec![
            PartitionSpec {
                low_key: Bytes::new(),
                volume: vol(0, "$D0"),
            },
            PartitionSpec {
                low_key: Bytes::from_static(b"z"),
                volume: vol(0, "$D0"),
            },
            PartitionSpec {
                low_key: Bytes::from_static(b"a"),
                volume: vol(0, "$D0"),
            },
        ]);
    }

    #[test]
    fn builders() {
        let def = FileDef::key_sequenced("item", vol(0, "$D0")).unaudited();
        assert!(!def.audited);
        assert_eq!(
            FileDef::entry_sequenced("e", vol(0, "$D0")).organization,
            FileOrganization::EntrySequenced
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// The scan `volume_for` replaced: the last partition whose low
        /// key is at or below `key`.
        fn scanned<'a>(def: &'a FileDef, key: &[u8]) -> &'a VolumeRef {
            let mut chosen = &def.partitions[0];
            for p in &def.partitions {
                if p.low_key.as_ref() <= key {
                    chosen = p;
                } else {
                    break;
                }
            }
            &chosen.volume
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn binary_search_finds_the_partition_the_scan_found(
                bounds in prop::collection::vec(prop::collection::vec(0u8..4, 1..4), 0..64),
                probes in prop::collection::vec(prop::collection::vec(0u8..5, 0..5), 1..32),
            ) {
                let mut bounds = bounds;
                bounds.sort();
                bounds.dedup();
                let parts: Vec<PartitionSpec> = std::iter::once(Vec::new())
                    .chain(bounds.iter().cloned())
                    .enumerate()
                    .map(|(i, low)| PartitionSpec {
                        low_key: Bytes::from(low),
                        volume: vol(i as u8, "$D"),
                    })
                    .collect();
                let def = FileDef::key_sequenced("f", vol(0, "$D")).partitioned(parts);
                // every bound, a byte past each, and keys beyond the last
                let keys = (bounds.iter().cloned())
                    .chain(bounds.iter().map(|b| [b.as_slice(), &[0]].concat()))
                    .chain(probes)
                    .chain([vec![], vec![9; 8]]);
                for key in keys {
                    prop_assert_eq!(def.volume_for(&key), scanned(&def, &key), "key {:?}", key);
                }
            }
        }
    }

    #[test]
    fn num_key_roundtrip() {
        assert_eq!(key_num(&num_key(77)), Some(77));
        assert_eq!(key_num(b"short"), None);
        // numeric ordering is preserved by byte ordering
        assert!(num_key(2) < num_key(10));
    }
}
