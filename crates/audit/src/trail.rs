//! Audit-trail media: "an audit trail is a numbered sequence of disc files
//! whose volume of residence is configurable and whose creation and purging
//! is managed by TMF".
//!
//! The media object lives in stable storage (it survives processor
//! failures, like any disc). Only *forced* records appear here; buffered
//! records live in the AUDITPROCESS pair's memory.
//!
//! A trail file holds its records encoded back to back in one byte buffer
//! and decodes them on read (DESIGN.md §D29). Each record starts with its
//! length, and its sequence number and transid sit at fixed offsets, so the
//! purge scan and the per-transaction and per-volume queries filter without
//! decoding a record they do not return.

use bytes::{BufMut, Bytes};
use encompass_sim::{Name, NodeId};
use encompass_storage::audit_api::{ImageRecord, AUDIT_SERVICE};
use encompass_storage::image_codec::{encoded_len, get_image, put_image};
use encompass_storage::types::{FileOrganization, Transid, VolumeRef};

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

// The fixed-width head of an encoded record (big-endian integers).
/// `u16`: the record's encoded length, this prefix included.
const LEN: usize = 0;
/// `u64`: the audit sequence number.
const SEQ: usize = 2;
/// The transid: home node `u8`, CPU `u8`, sequence `u64`.
const TRANSID: usize = 10;
/// The volume: node `u8`, then its name's `u16` index in the file's name
/// table.
const VOLUME: usize = 20;
/// `u16`: the file name's index in the name table.
const FILE: usize = 23;
/// `u8`: 0 key-sequenced, 1 entry-sequenced.
const ORGANIZATION: usize = 25;
/// The key, before image and after image, each a tag byte and its bytes
/// (`encompass_storage::image_codec`), a long one an index into the
/// file's long values.
const IMAGES: usize = 26;
/// Records a file's first buffer holds, at the first record's length
/// rounded up to a power of two, and the long values its first list
/// holds. Four times a `Vec<ImageRecord>`'s first block, so the buffer
/// takes two growth steps fewer than that vector did; doubling from a
/// power of two, a full file ends at the same capacity either way.
const FIRST_RECORDS: usize = 16;

/// One file in the numbered sequence.
#[derive(Clone, Debug, Default)]
pub struct TrailFile {
    pub number: u64,
    /// The encoded records, back to back.
    buf: Vec<u8>,
    /// How many records `buf` holds.
    len: usize,
    /// The volume and file names the records index, each once.
    names: Vec<Name>,
    /// The keys and images longer than [`Bytes::INLINE_CAP`], as the
    /// handles they arrived as: a clone is a reference-count bump, where
    /// copying them into `buf` would cost a decode a block each.
    long: Vec<Bytes>,
}

impl TrailFile {
    fn new(number: u64) -> TrailFile {
        TrailFile {
            number,
            ..TrailFile::default()
        }
    }

    /// Records in the file.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes reserved for the encoded records.
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The file's records, decoded, in the order they were forced.
    pub fn records(&self) -> impl Iterator<Item = ImageRecord> + '_ {
        self.encoded().map(|raw| self.decode(raw))
    }

    /// Each record's encoding, in order.
    fn encoded(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut rest = self.buf.as_slice();
        std::iter::from_fn(move || {
            let len = usize::from(u16::from_be_bytes(rest.get(LEN..LEN + 2)?.try_into().ok()?));
            let (raw, tail) = rest.split_at(len);
            rest = tail;
            Some(raw)
        })
    }

    fn push(&mut self, rec: ImageRecord) {
        let len = IMAGES + encoded_len(Some(&rec.key)) + encoded_len(rec.before.as_ref());
        let len = len + encoded_len(rec.after.as_ref());
        if self.buf.capacity() == 0 {
            self.buf
                .reserve_exact(FIRST_RECORDS * len.next_power_of_two());
        }
        let volume = self.name_index(rec.volume.volume);
        let file = self.name_index(rec.file);
        let b = &mut self.buf;
        b.put_u16(u16::try_from(len).expect("a record is under 64 KiB"));
        b.put_u64(rec.seq);
        b.put_u8(rec.transid.home_node.0);
        b.put_u8(rec.transid.cpu);
        b.put_u64(rec.transid.seq);
        b.put_u8(rec.volume.node.0);
        b.put_u16(volume);
        b.put_u16(file);
        b.put_u8(match rec.organization {
            FileOrganization::KeySequenced => 0,
            FileOrganization::EntrySequenced => 1,
        });
        self.put_image(Some(rec.key));
        self.put_image(rec.before);
        self.put_image(rec.after);
        self.len += 1;
    }

    fn name_index(&mut self, name: Name) -> u16 {
        let at = (self.names.iter().position(|n| *n == name)).unwrap_or_else(|| {
            self.names.push(name);
            self.names.len() - 1
        });
        u16::try_from(at).expect("a trail file names fewer than 64 Ki volumes and files")
    }

    fn put_image(&mut self, image: Option<Bytes>) {
        put_image(&mut self.buf, image, |b| {
            let at = u32::try_from(self.long.len()).expect("a trail file under 4 Gi images");
            if self.long.capacity() == 0 {
                self.long.reserve_exact(FIRST_RECORDS);
            }
            self.long.push(b);
            at
        });
    }

    fn decode(&self, raw: &[u8]) -> ImageRecord {
        let mut images = &raw[IMAGES..];
        ImageRecord {
            seq: seq_of(raw),
            transid: transid_of(raw),
            volume: VolumeRef {
                node: NodeId(raw[VOLUME]),
                volume: self.name_at(raw, VOLUME + 1).clone(),
            },
            file: self.name_at(raw, FILE).clone(),
            organization: match raw[ORGANIZATION] {
                0 => FileOrganization::KeySequenced,
                1 => FileOrganization::EntrySequenced,
                o => panic!("organization {o} was never encoded"),
            },
            key: self.image(&mut images).expect("a key is never absent"),
            before: self.image(&mut images),
            after: self.image(&mut images),
        }
    }

    fn name_at(&self, raw: &[u8], at: usize) -> &Name {
        &self.names[usize::from(u16::from_be_bytes([raw[at], raw[at + 1]]))]
    }

    /// The image at the head of `cur`, which moves past it.
    fn image(&self, cur: &mut &[u8]) -> Option<Bytes> {
        get_image(cur, |at| self.long[at as usize].clone())
    }

    /// True if the record encoded as `raw` is an image of `volume`, whose
    /// name is at `name` in this file's table.
    fn of_volume(raw: &[u8], volume: &VolumeRef, name: u16) -> bool {
        raw[VOLUME] == volume.node.0 && raw[VOLUME + 1..VOLUME + 3] == name.to_be_bytes()
    }
}

fn seq_of(raw: &[u8]) -> u64 {
    u64::from_be_bytes(raw[SEQ..SEQ + 8].try_into().expect("eight bytes"))
}

fn transid_of(raw: &[u8]) -> Transid {
    Transid {
        home_node: NodeId(raw[TRANSID]),
        cpu: raw[TRANSID + 1],
        seq: u64::from_be_bytes(
            raw[TRANSID + 2..TRANSID + 10]
                .try_into()
                .expect("eight bytes"),
        ),
    }
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
            files: vec![TrailFile::new(0)],
            rotate_every: rotate_every.max(1),
            forces: 0,
            purged_through: 0,
            next_file_number: 1,
        }
    }

    /// Total records on the trail.
    pub fn len(&self) -> usize {
        self.files.iter().map(TrailFile::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every record on the trail, file by file, in the order forced.
    pub fn records(&self) -> impl Iterator<Item = ImageRecord> + '_ {
        self.files.iter().flat_map(TrailFile::records)
    }

    /// Append a batch of records as one physical force.
    pub fn force(&mut self, records: impl IntoIterator<Item = ImageRecord>) {
        let mut records = records.into_iter().peekable();
        if records.peek().is_none() {
            return;
        }
        self.forces += 1;
        for rec in records {
            if self.files.last().expect("at least one file").len() >= self.rotate_every {
                self.files.push(TrailFile::new(self.next_file_number));
                self.next_file_number += 1;
            }
            self.files.last_mut().expect("just ensured").push(rec);
        }
    }

    /// All records of one transaction, in the order forced. Only the
    /// records returned are decoded.
    pub fn txn_records(&self, transid: Transid) -> impl Iterator<Item = ImageRecord> + '_ {
        (self.files.iter()).flat_map(move |f| {
            (f.encoded())
                .filter(move |raw| transid_of(raw) == transid)
                .map(|raw| f.decode(raw))
        })
    }

    /// All records of one transaction, in ascending sequence order.
    pub fn txn_images(&self, transid: Transid) -> Vec<ImageRecord> {
        let mut out: Vec<ImageRecord> = self.txn_records(transid).collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// All records touching one volume, ascending by sequence.
    pub fn volume_images(&self, volume: &VolumeRef) -> Vec<ImageRecord> {
        let mut out: Vec<ImageRecord> = (self.files.iter())
            .flat_map(|f| {
                let name = f.names.iter().position(|n| *n == volume.volume);
                let name = name.map(|at| u16::try_from(at).expect("indexed at push"));
                (f.encoded())
                    .filter(move |raw| name.is_some_and(|n| TrailFile::of_volume(raw, volume, n)))
                    .map(|raw| f.decode(raw))
            })
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// The lowest sequence number of a record whose transaction `open`
    /// holds, read without decoding a record.
    pub fn first_seq_of(&self, mut open: impl FnMut(&Transid) -> bool) -> Option<u64> {
        (self.files.iter().flat_map(TrailFile::encoded))
            .filter(|raw| open(&transid_of(raw)))
            .map(seq_of)
            .min()
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
            let keep = if f.is_empty() {
                // only the current tail may stay empty; older empty files
                // are stale leftovers and get purged
                Some(f.number) == tail
            } else {
                f.encoded().any(|r| seq_of(r) >= seq)
            };
            if !keep {
                dropped += 1;
                if let Some(hi) = f.encoded().map(seq_of).max() {
                    purged_through = purged_through.max(hi);
                }
            }
            keep
        });
        self.purged_through = purged_through;
        if self.files.is_empty() {
            self.files.push(TrailFile::new(self.next_file_number));
            self.next_file_number += 1;
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // a volume of the same name on another node is another volume
        assert!(t.volume_images(&VolumeRef::new(NodeId(1), "$A")).is_empty());
        assert!(t.volume_images(&VolumeRef::new(NodeId(0), "$C")).is_empty());
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
            t.files.iter().map(TrailFile::len).collect::<Vec<_>>(),
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
        t.files.insert(1, TrailFile::new(99));
        assert_eq!(t.files.len(), 3);
        // nothing is below seq 1, but the stale empty file still goes
        assert_eq!(t.purge_below(1), 1);
        assert_eq!(t.files.len(), 2);
        assert_eq!(t.len(), 4);
        assert_eq!(t.purged_through, 0, "no records were dropped");
    }

    #[test]
    fn a_long_value_comes_back_as_the_handle_it_arrived_as() {
        let long = Bytes::from(vec![7u8; 200]);
        let mut rec = img(1, 1, "$D");
        rec.after = Some(long.clone());
        let mut t = TrailMedia::new(8);
        t.force([rec]);
        let back = t.records().next().expect("one record").after;
        let back = back.expect("an after image");
        assert_eq!(back, long);
        assert_eq!(back.as_ptr(), long.as_ptr(), "shared, not copied");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A key or image of 0, 1, 22, 23 or 200 bytes, or none (`choice`
        /// 5): both sides of the inline limit.
        fn image(choice: usize, fill: u8) -> Option<Bytes> {
            let len = *[0usize, 1, 22, 23, 200].get(choice)?;
            Some(Bytes::from(
                (0..len)
                    .map(|i| fill.wrapping_add(i as u8))
                    .collect::<Vec<u8>>(),
            ))
        }

        fn transid(home: u8, cpu: u8, seq: u64) -> Transid {
            Transid {
                home_node: NodeId(home),
                cpu,
                seq,
            }
        }

        /// Records over three transids per CPU, three nodes, three
        /// volume names and three file names, with an ONLINEDUMP marker
        /// one time in eight.
        fn record() -> impl Strategy<Value = ImageRecord> {
            (
                (0u64..64, 0u8..2, 0u8..2, 0u64..3),
                (0u8..3, 0usize..3, 0usize..3, any::<bool>()),
                (0usize..5, 0usize..6, 0usize..6, any::<u8>()),
                0u8..8,
            )
                .prop_map(|((seq, home, cpu, txn), vol, imgs, marker)| {
                    let (node, vname, fname, entry) = vol;
                    let volume = VolumeRef::new(NodeId(node), ["$A", "$B", "$C"][vname]);
                    if marker == 0 {
                        return ImageRecord::dump_marker(seq, volume, txn, entry);
                    }
                    let (key, before, after, fill) = imgs;
                    ImageRecord {
                        seq,
                        transid: transid(home, cpu, txn),
                        volume,
                        file: Name::new(["acct", "hist", "item"][fname]),
                        organization: if entry {
                            FileOrganization::EntrySequenced
                        } else {
                            FileOrganization::KeySequenced
                        },
                        key: image(key, fill).expect("choices 0..5 are present"),
                        before: image(before, fill ^ 0x55),
                        after: image(after, fill ^ 0xAA),
                    }
                })
        }

        /// The trail as it was before its files held bytes: each file a
        /// `Vec<ImageRecord>`, every query a scan over clones.
        struct VecTrail {
            files: Vec<(u64, Vec<ImageRecord>)>,
            rotate_every: usize,
            forces: u64,
            purged_through: u64,
            next_file_number: u64,
        }

        impl VecTrail {
            fn new(rotate_every: usize) -> VecTrail {
                VecTrail {
                    files: vec![(0, Vec::new())],
                    rotate_every: rotate_every.max(1),
                    forces: 0,
                    purged_through: 0,
                    next_file_number: 1,
                }
            }

            fn len(&self) -> usize {
                self.files.iter().map(|f| f.1.len()).sum()
            }

            fn force(&mut self, records: Vec<ImageRecord>) {
                if records.is_empty() {
                    return;
                }
                self.forces += 1;
                for rec in records {
                    if self.files.last().expect("a file").1.len() >= self.rotate_every {
                        self.files.push((self.next_file_number, Vec::new()));
                        self.next_file_number += 1;
                    }
                    self.files.last_mut().expect("a file").1.push(rec);
                }
            }

            fn matching(&self, keep: impl Fn(&ImageRecord) -> bool) -> Vec<ImageRecord> {
                let mut out: Vec<ImageRecord> = (self.files.iter().flat_map(|f| f.1.iter()))
                    .filter(|r| keep(r))
                    .cloned()
                    .collect();
                out.sort_by_key(|r| r.seq);
                out
            }

            fn purge_below(&mut self, seq: u64) -> usize {
                let tail = self.files.last().map(|f| f.0);
                let mut dropped = 0;
                let mut purged_through = self.purged_through;
                self.files.retain(|(number, records)| {
                    let keep = if records.is_empty() {
                        Some(*number) == tail
                    } else {
                        records.iter().any(|r| r.seq >= seq)
                    };
                    if !keep {
                        dropped += 1;
                        if let Some(hi) = records.iter().map(|r| r.seq).max() {
                            purged_through = purged_through.max(hi);
                        }
                    }
                    keep
                });
                self.purged_through = purged_through;
                if self.files.is_empty() {
                    self.files.push((self.next_file_number, Vec::new()));
                    self.next_file_number += 1;
                }
                dropped
            }
        }

        /// One call on both trails: a force of a batch, a purge below a
        /// sequence number, or a query for one transid or one volume.
        #[derive(Debug)]
        enum Op {
            Force(Vec<ImageRecord>),
            Purge(u64),
            Txn(Transid),
            Volume(VolumeRef),
        }

        fn op() -> impl Strategy<Value = Op> {
            (
                0u8..8,
                prop::collection::vec(record(), 0..6),
                0u64..72,
                (0u8..2, 0u8..2, 0u64..3),
                (0u8..3, 0usize..4),
            )
                .prop_map(|(which, batch, below, (home, cpu, txn), (node, vol))| {
                    match which {
                        0..=3 => Op::Force(batch),
                        4 => Op::Purge(below),
                        5 | 6 => Op::Txn(transid(home, cpu, txn)),
                        _ => {
                            Op::Volume(VolumeRef::new(NodeId(node), ["$A", "$B", "$C", "$D"][vol]))
                        }
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn every_record_decodes_to_what_was_forced(
                records in prop::collection::vec(record(), 0..40),
                rotate_every in 1usize..16,
            ) {
                let mut t = TrailMedia::new(rotate_every);
                t.force(records.clone());
                prop_assert_eq!(t.records().collect::<Vec<_>>(), records);
            }

            #[test]
            fn the_byte_trail_answers_as_the_vec_trail_did(
                ops in prop::collection::vec(op(), 0..40),
                rotate_every in 1usize..8,
            ) {
                let mut t = TrailMedia::new(rotate_every);
                let mut model = VecTrail::new(rotate_every);
                for op in ops {
                    match op {
                        Op::Force(batch) => {
                            t.force(batch.clone());
                            model.force(batch);
                        }
                        Op::Purge(below) => {
                            prop_assert_eq!(t.purge_below(below), model.purge_below(below));
                        }
                        Op::Txn(txn) => {
                            let want = model.matching(|r| r.transid == txn);
                            prop_assert_eq!(t.txn_images(txn), want);
                        }
                        Op::Volume(volume) => {
                            let want = model.matching(|r| r.volume == volume);
                            prop_assert_eq!(t.volume_images(&volume), want);
                        }
                    }
                    prop_assert_eq!(t.len(), model.len());
                    prop_assert_eq!(t.is_empty(), model.len() == 0);
                    prop_assert_eq!(t.forces, model.forces);
                    prop_assert_eq!(t.purged_through, model.purged_through);
                    prop_assert_eq!(t.files.len(), model.files.len());
                    for (file, (number, records)) in t.files.iter().zip(&model.files) {
                        prop_assert_eq!(file.number, *number);
                        prop_assert_eq!(file.len(), records.len());
                        prop_assert_eq!(&file.records().collect::<Vec<_>>(), records);
                    }
                }
            }
        }
    }
}
