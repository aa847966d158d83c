//! Audit-trail media: "an audit trail is a numbered sequence of disc files
//! whose volume of residence is configurable and whose creation and purging
//! is managed by TMF".
//!
//! The media object lives in stable storage (it survives processor
//! failures, like any disc). Only *forced* records appear here; buffered
//! records live in the AUDITPROCESS pair's memory.

use encompass_sim::NodeId;
use encompass_storage::audit_api::{ImageRecord, AUDIT_SERVICE};
use encompass_storage::types::{Transid, VolumeRef};

/// Stable-storage key of trail partition `partition` of `node`'s
/// AUDITPROCESS. Partition 0 has no suffix, so an unpartitioned node keeps
/// the single-trail layout (and trace hashes) byte for byte.
pub fn trail_key(node: NodeId, partition: usize) -> String {
    if partition == 0 {
        format!("{node}.{AUDIT_SERVICE}:trail")
    } else {
        format!("{node}.{AUDIT_SERVICE}:trail.p{partition}")
    }
}

/// One file in the numbered sequence.
#[derive(Clone, Debug, Default)]
pub struct TrailFile {
    pub number: u64,
    pub records: Vec<ImageRecord>,
}

/// The persistent audit trail.
pub struct TrailMedia {
    pub files: Vec<TrailFile>,
    /// Records per file before rotating to a new file.
    pub rotate_every: usize,
    /// Physical force operations performed (each models one disc write).
    pub forces: u64,
    /// Highest audit sequence number ever dropped by [`purge_below`]
    /// (0 = nothing purged). ROLLFORWARD compares this against an
    /// archive's `purge_floor` to fail loudly instead of silently
    /// replaying an incomplete trail.
    ///
    /// [`purge_below`]: TrailMedia::purge_below
    pub purged_through: u64,
    next_file_number: u64,
}

impl TrailMedia {
    pub fn new(rotate_every: usize) -> TrailMedia {
        TrailMedia {
            files: vec![TrailFile {
                number: 0,
                records: Vec::new(),
            }],
            rotate_every: rotate_every.max(1),
            forces: 0,
            purged_through: 0,
            next_file_number: 1,
        }
    }

    /// Total records on the trail.
    pub fn len(&self) -> usize {
        self.files.iter().map(|f| f.records.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a batch of records as one physical force.
    pub fn force(&mut self, records: impl IntoIterator<Item = ImageRecord>) {
        let mut records = records.into_iter().peekable();
        if records.peek().is_none() {
            return;
        }
        self.forces += 1;
        for rec in records {
            if self.files.last().expect("at least one file").records.len() >= self.rotate_every {
                self.files.push(TrailFile {
                    number: self.next_file_number,
                    records: Vec::new(),
                });
                self.next_file_number += 1;
            }
            self.files
                .last_mut()
                .expect("just ensured")
                .records
                .push(rec);
        }
    }

    /// All records of one transaction, in ascending sequence order.
    pub fn txn_images(&self, transid: Transid) -> Vec<ImageRecord> {
        let mut out: Vec<ImageRecord> = self
            .files
            .iter()
            .flat_map(|f| f.records.iter())
            .filter(|r| r.transid == transid)
            .cloned()
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// All records touching one volume, ascending by sequence.
    pub fn volume_images(&self, volume: &VolumeRef) -> Vec<ImageRecord> {
        let mut out: Vec<ImageRecord> = self
            .files
            .iter()
            .flat_map(|f| f.records.iter())
            .filter(|r| &r.volume == volume)
            .cloned()
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Drop trail files whose records are all below `seq` (safe once every
    /// image at or above `seq` covers everything a backout or rollforward
    /// could still need — see the capacity manager in `encompass-core`).
    ///
    /// Returns the number of files dropped. Empty files are dropped too,
    /// except the current tail file (the one new records append to); if
    /// every file is purged, a fresh empty file is created so the trail
    /// remains appendable.
    pub fn purge_below(&mut self, seq: u64) -> usize {
        let tail = self.files.last().map(|f| f.number);
        let mut dropped = 0usize;
        let mut purged_through = self.purged_through;
        self.files.retain(|f| {
            let keep = if f.records.is_empty() {
                // only the current tail may stay empty; older empty files
                // are stale leftovers and get purged
                Some(f.number) == tail
            } else {
                f.records.iter().any(|r| r.seq >= seq)
            };
            if !keep {
                dropped += 1;
                if let Some(hi) = f.records.iter().map(|r| r.seq).max() {
                    purged_through = purged_through.max(hi);
                }
            }
            keep
        });
        self.purged_through = purged_through;
        if self.files.is_empty() {
            self.files.push(TrailFile {
                number: self.next_file_number,
                records: Vec::new(),
            });
            self.next_file_number += 1;
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use encompass_storage::types::FileOrganization;

    fn img(seq: u64, txn: u64, vol: &str) -> ImageRecord {
        ImageRecord {
            seq,
            transid: Transid {
                home_node: NodeId(0),
                cpu: 0,
                seq: txn,
            },
            volume: VolumeRef::new(NodeId(0), vol),
            file: "f".into(),
            organization: FileOrganization::KeySequenced,
            key: Bytes::from(format!("k{seq}")),
            before: None,
            after: Some(Bytes::from_static(b"v")),
        }
    }

    #[test]
    fn force_appends_and_rotates() {
        let mut t = TrailMedia::new(3);
        t.force(vec![img(1, 1, "$D"), img(2, 1, "$D")]);
        t.force(vec![img(3, 2, "$D"), img(4, 2, "$D")]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.forces, 2);
        assert_eq!(t.files.len(), 2, "rotated after 3 records");
        assert_eq!(t.files[1].number, 1);
        // empty force is free
        t.force(Vec::new());
        assert_eq!(t.forces, 2);
    }

    #[test]
    fn txn_and_volume_queries() {
        let mut t = TrailMedia::new(100);
        t.force(vec![img(2, 1, "$A"), img(1, 1, "$B"), img(3, 2, "$A")]);
        let txn1 = Transid {
            home_node: NodeId(0),
            cpu: 0,
            seq: 1,
        };
        let got = t.txn_images(txn1);
        assert_eq!(got.len(), 2);
        assert!(got[0].seq < got[1].seq, "ascending");
        assert_eq!(t.volume_images(&VolumeRef::new(NodeId(0), "$A")).len(), 2);
    }

    #[test]
    fn purge_drops_old_files() {
        let mut t = TrailMedia::new(2);
        t.force((1..=6).map(|i| img(i, 1, "$D")));
        assert_eq!(t.files.len(), 3);
        let dropped = t.purge_below(5);
        assert_eq!(dropped, 2);
        assert_eq!(t.purged_through, 4);
        assert_eq!(
            t.txn_images(Transid {
                home_node: NodeId(0),
                cpu: 0,
                seq: 1
            })
            .len(),
            2
        );
        // purging everything drops the last data file (counted!) and
        // leaves one fresh empty file
        let dropped = t.purge_below(100);
        assert_eq!(dropped, 1);
        assert_eq!(t.purged_through, 6);
        assert_eq!(t.len(), 0);
        assert_eq!(t.files.len(), 1);
        // idempotent: the fresh tail file is not repeatedly churned
        assert_eq!(t.purge_below(100), 0);
        assert_eq!(t.files.len(), 1);
    }

    #[test]
    fn partition_zero_key_is_the_legacy_key() {
        let n = NodeId(2);
        assert_eq!(trail_key(n, 0), "\\N2.$AUDIT:trail");
        assert_eq!(trail_key(n, 1), "\\N2.$AUDIT:trail.p1");
        assert_ne!(trail_key(n, 1), trail_key(n, 2));
    }

    #[test]
    fn force_rotating_mid_batch_keeps_order_and_purges_safely() {
        // one force whose batch spans a rotation boundary: records 1..=5
        // with rotate_every=2 land as files [1,2][3,4][5]
        let mut t = TrailMedia::new(2);
        t.force(vec![img(1, 1, "$D")]);
        // the second force starts mid-file and rotates twice while writing
        t.force(vec![
            img(2, 1, "$D"),
            img(3, 2, "$D"),
            img(4, 2, "$D"),
            img(5, 3, "$D"),
        ]);
        assert_eq!(t.forces, 2, "one physical write per batch, rotation or not");
        assert_eq!(t.files.len(), 3);
        assert_eq!(
            t.files.iter().map(|f| f.records.len()).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        // queries see ascending sequence order across the file boundary
        let txn2 = Transid {
            home_node: NodeId(0),
            cpu: 0,
            seq: 2,
        };
        let got = t.txn_images(txn2);
        assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4]);
        let vol = t.volume_images(&VolumeRef::new(NodeId(0), "$D"));
        assert_eq!(
            vol.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        // purging below 4 may only drop the first file: the second holds
        // seq 4 even though it also holds seq 3
        assert_eq!(t.purge_below(4), 1);
        assert_eq!(t.purged_through, 2);
        let vol = t.volume_images(&VolumeRef::new(NodeId(0), "$D"));
        assert_eq!(vol.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4, 5]);
    }

    #[test]
    fn purge_drops_stale_empty_files() {
        let mut t = TrailMedia::new(2);
        t.force((1..=4).map(|i| img(i, 1, "$D")));
        // fabricate a stale empty file in the middle (e.g. left over from
        // an older purge implementation)
        t.files.insert(
            1,
            TrailFile {
                number: 99,
                records: Vec::new(),
            },
        );
        assert_eq!(t.files.len(), 3);
        // nothing is below seq 1, but the stale empty file still goes
        assert_eq!(t.purge_below(1), 1);
        assert_eq!(t.files.len(), 2);
        assert_eq!(t.len(), 4);
        assert_eq!(t.purged_through, 0, "no records were dropped");
    }
}
