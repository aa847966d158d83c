//! Mirrored disc volumes as stable media.
//!
//! A [`VolumeMedia`] object lives in the simulation kernel's stable storage
//! (`encompass_sim::StableStorage`), so it survives the failure of the
//! DISCPROCESS pair's processors — the bits on the platters outlive the
//! software. Mirroring is modeled as one logical image guarded by two
//! independently failable drives: the volume serves I/O while at least one
//! drive is up; if *both* drives fail the content is scratched
//! (`lost = true`) and only ROLLFORWARD from an archive can restore it.
//!
//! The media holds only *flushed* state. Recent updates live in the
//! DISCPROCESS write-behind overlay (protected by checkpoints to the
//! backup), which is exactly why "audit records need not be written to
//! disc prior to updating the data base" holds in the NonStop design.

use crate::entryseq::{Entries, EntrySequencedFile};
use crate::types::{key_num, FileOrganization, VolumeRef};
use bytes::Bytes;
use encompass_sim::{Name, NodeId};
use std::collections::btree_map::Range;
use std::collections::BTreeMap;
use std::ops::{Bound, Deref};

/// The stable-storage key for a volume's media object.
pub fn media_key(node: NodeId, volume: &str) -> String {
    format!("{node}.{volume}")
}

/// The stable-storage key for generation `generation` of a volume archive.
pub fn archive_key(volume: &VolumeRef, generation: u64) -> String {
    format!("archive:{volume}:{generation}")
}

/// Stable-storage keys of archive generations a retention policy of
/// `retain` generations supersedes once generation `generation` is
/// registered: every `archive_key(volume, g)` with `g + retain <=
/// generation`. The caller deletes these only *after* the registry update
/// that makes the newer generation authoritative, so ROLLFORWARD can
/// always restore from any still-retained generation.
pub fn superseded_archive_keys(volume: &VolumeRef, generation: u64, retain: u64) -> Vec<String> {
    if generation < retain.max(1) {
        return Vec::new();
    }
    (0..=generation - retain.max(1))
        .map(|g| archive_key(volume, g))
        .collect()
}

/// The flushed content of one file. A key-sequenced file is an ordered
/// map: ENSCRIBE's page structure and key compression are not modelled,
/// since nothing above the file reads them.
#[derive(Clone, Debug)]
pub enum FileImage {
    KeySequenced(BTreeMap<Bytes, Bytes>),
    EntrySequenced(EntrySequencedFile),
}

impl FileImage {
    pub fn new(org: FileOrganization) -> FileImage {
        match org {
            FileOrganization::KeySequenced => FileImage::KeySequenced(BTreeMap::new()),
            FileOrganization::EntrySequenced => {
                FileImage::EntrySequenced(EntrySequencedFile::new())
            }
        }
    }

    pub fn len(&self) -> usize {
        match self {
            FileImage::KeySequenced(t) => t.len(),
            FileImage::EntrySequenced(f) => f.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read by uniform byte key (entry-sequenced keys are 8-byte
    /// big-endian numbers).
    pub fn read(&self, key: &[u8]) -> Option<Bytes> {
        match self {
            FileImage::KeySequenced(t) => t.get(key).cloned(),
            FileImage::EntrySequenced(f) => key_num(key).and_then(|n| f.get(n).cloned()),
        }
    }

    /// Write by uniform byte key: `Some` stores, `None` removes.
    pub fn apply(&mut self, key: &[u8], value: Option<Bytes>) {
        match self {
            FileImage::KeySequenced(t) => {
                match value {
                    Some(v) => t.insert(Bytes::copy_from_slice(key), v),
                    None => t.remove(key),
                };
            }
            FileImage::EntrySequenced(f) => {
                let n = key_num(key).expect("entry-sequenced files use 8-byte numeric keys");
                f.place(n, value);
            }
        }
    }

    /// Records with `low <= key` and (if given) `key <= high`, in key
    /// order, at most `limit`.
    pub fn scan(&self, low: &[u8], high: Option<&[u8]>, limit: usize) -> Vec<(Bytes, Bytes)> {
        (self.records_in(low, high))
            .take(limit)
            .map(|(k, v)| (k.to_bytes(), v.clone()))
            .collect()
    }

    /// Every record, in key order, borrowed: [`FileImage::records_in`]
    /// over the whole file.
    pub fn records(&self) -> Records<'_> {
        self.records_in(&[], None)
    }

    /// The records [`FileImage::scan`] returns, borrowed from the file and
    /// without a limit. An entry-sequenced bound that is not an 8-byte
    /// number does not bound.
    pub fn records_in<'a>(&'a self, low: &[u8], high: Option<&[u8]>) -> Records<'a> {
        match self {
            FileImage::KeySequenced(t) => Records::Keyed(match high {
                Some(h) if h < low => Range::default(),
                _ => {
                    let high = high.map_or(Bound::Unbounded, Bound::Included);
                    t.range::<[u8], _>((Bound::Included(low), high))
                }
            }),
            FileImage::EntrySequenced(f) => {
                let low = key_num(low).unwrap_or(0);
                Records::Entries(f.entries_in(low, high.and_then(key_num)))
            }
        }
    }

    /// For entry-sequenced files: the next entry number on the media.
    pub fn next_entry(&self) -> u64 {
        match self {
            FileImage::EntrySequenced(f) => f.next_entry(),
            FileImage::KeySequenced(_) => 0,
        }
    }
}

/// A record's key as [`FileImage::scan`] spells it: the stored key of a
/// key-sequenced record, borrowed, or an entry's number as an 8-byte
/// big-endian key. It derefs to those bytes, and two keys are equal when
/// their bytes are.
#[derive(Clone, Copy, Debug)]
pub enum RecordKey<'a> {
    Stored(&'a Bytes),
    Entry([u8; 8]),
}

impl RecordKey<'_> {
    /// The key as [`FileImage::scan`] returns it.
    pub fn to_bytes(&self) -> Bytes {
        match self {
            RecordKey::Stored(k) => Bytes::clone(k),
            RecordKey::Entry(n) => Bytes::copy_from_slice(n),
        }
    }
}

impl Deref for RecordKey<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            RecordKey::Stored(k) => k,
            RecordKey::Entry(n) => n,
        }
    }
}

impl PartialEq for RecordKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// A [`FileImage`]'s records in key order, borrowed: see
/// [`FileImage::records_in`].
#[derive(Clone, Debug)]
pub enum Records<'a> {
    Keyed(Range<'a, Bytes, Bytes>),
    Entries(Entries<'a>),
}

impl<'a> Iterator for Records<'a> {
    type Item = (RecordKey<'a>, &'a Bytes);

    fn next(&mut self) -> Option<(RecordKey<'a>, &'a Bytes)> {
        match self {
            Records::Keyed(r) => r.next().map(|(k, v)| (RecordKey::Stored(k), v)),
            Records::Entries(e) => e
                .next()
                .map(|(n, v)| (RecordKey::Entry(n.to_be_bytes()), v)),
        }
    }
}

/// A mirrored disc volume's persistent state.
pub struct VolumeMedia {
    pub name: String,
    /// Up/down state of the two mirrored drives.
    pub drives: [bool; 2],
    /// Flushed file images.
    pub files: BTreeMap<Name, FileImage>,
    /// True once both drives have been down simultaneously: the content is
    /// gone and only ROLLFORWARD can rebuild it.
    pub lost: bool,
    /// Count of physical writes applied (metrics for experiments).
    pub physical_writes: u64,
}

impl VolumeMedia {
    pub fn new(name: &str) -> VolumeMedia {
        VolumeMedia {
            name: name.to_string(),
            drives: [true, true],
            files: BTreeMap::new(),
            lost: false,
            physical_writes: 0,
        }
    }

    /// Can the volume serve I/O?
    pub fn available(&self) -> bool {
        !self.lost && (self.drives[0] || self.drives[1])
    }

    /// Fail one drive. Failing the second loses the volume content.
    pub fn fail_drive(&mut self, drive: usize) {
        self.drives[drive & 1] = false;
        if !self.drives[0] && !self.drives[1] && !self.lost {
            self.lost = true;
            self.files.clear();
        }
    }

    /// Bring a drive back. (Revive of a lost volume yields an *empty*
    /// volume: the data must be rolled forward.)
    pub fn revive_drive(&mut self, drive: usize) {
        self.drives[drive & 1] = true;
    }

    /// After ROLLFORWARD has repopulated `files`, mark the content valid.
    pub fn mark_recovered(&mut self) {
        if self.drives[0] || self.drives[1] {
            self.lost = false;
        }
    }

    pub fn ensure_file(&mut self, name: &str, org: FileOrganization) -> &mut FileImage {
        // every flushed write comes through here: name the file on its
        // first write only
        if !self.files.contains_key(name) {
            self.files.insert(Name::new(name), FileImage::new(org));
        }
        self.files.get_mut(name).expect("just ensured")
    }

    pub fn file(&self, name: &str) -> Option<&FileImage> {
        self.files.get(name)
    }

    /// Apply a flushed write. Panics if the volume is unavailable — the
    /// DISCPROCESS must check availability first.
    pub fn apply(&mut self, file: &str, org: FileOrganization, key: &[u8], value: Option<Bytes>) {
        assert!(
            self.available(),
            "write to unavailable volume {}",
            self.name
        );
        self.physical_writes += 1;
        self.ensure_file(file, org).apply(key, value);
    }
}

/// An archive of a volume, used by ROLLFORWARD.
///
/// An archive of a live volume is an ONLINEDUMP: a *fuzzy* copy taken page
/// by page while transactions keep updating. `audit_watermark` is the
/// volume's audit sequence number when the dump *began*, and each page may
/// reflect any state between begin and end — recovery must REDO committed
/// images after the watermark and UNDO captured-but-uncommitted ones to
/// converge. The one sharp copy is generation 0, taken from the media of
/// a volume no transaction has written yet (a bulk preload).
#[derive(Clone)]
pub struct ArchiveImage {
    pub volume: VolumeRef,
    pub files: BTreeMap<Name, FileImage>,
    /// Every image with `seq <= audit_watermark` by a transaction that
    /// released its locks before the archive began is fully reflected in
    /// `files`.
    pub audit_watermark: u64,
    /// Recovery from this archive needs no trail record below this
    /// sequence number: the lowest first-image seq of any transaction
    /// still holding locks when the archive began (clamped to
    /// `audit_watermark + 1` when none was active). The capacity manager
    /// may purge trail files entirely below the floor.
    pub purge_floor: u64,
    pub generation: u64,
}

/// The stable-storage key of a volume's dump registry.
pub fn dump_registry_key(volume: &VolumeRef) -> String {
    format!("dumpreg:{volume}")
}

/// Stable record of a volume's latest *completed* online dump — written by
/// the DUMPPROCESS only after the archive image and the DumpEnd trail
/// record are safely down. The TMP's trail-capacity manager reads it to
/// decide how far the volume's audit trail may be purged; ROLLFORWARD
/// reads it to pick the newest usable generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DumpRegistry {
    pub generation: u64,
    /// The completed dump's `audit_watermark`.
    pub watermark: u64,
    /// The completed dump's `purge_floor`: trail records below this are
    /// never needed by a recovery from this dump (nor by backout — any
    /// transaction old enough to have images below the floor released its
    /// locks before the dump began).
    pub purge_floor: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::num_key;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn uniform_key_interface_across_organizations() {
        for org in [
            FileOrganization::KeySequenced,
            FileOrganization::EntrySequenced,
        ] {
            let mut img = FileImage::new(org);
            let key = match org {
                FileOrganization::KeySequenced => Bytes::from_static(b"alpha"),
                FileOrganization::EntrySequenced => num_key(3),
            };
            img.apply(&key, Some(b("v1")));
            assert_eq!(img.read(&key), Some(b("v1")), "{org:?}");
            assert_eq!(img.len(), 1);
            img.apply(&key, None);
            assert_eq!(img.read(&key), None);
            assert!(img.is_empty(), "{org:?}");
        }
    }

    #[test]
    fn scans_are_ordered_per_organization() {
        let mut ks = FileImage::new(FileOrganization::KeySequenced);
        ks.apply(b"b", Some(b("2")));
        ks.apply(b"a", Some(b("1")));
        let got = ks.scan(b"", None, 10);
        assert_eq!(got[0].0, Bytes::from_static(b"a"));

        let mut es = FileImage::new(FileOrganization::EntrySequenced);
        es.apply(&num_key(0), Some(b("x")));
        es.apply(&num_key(1), Some(b("y")));
        let got = es.scan(&num_key(0), Some(&num_key(0)), 10);
        assert_eq!(got.len(), 1);
        assert_eq!(es.next_entry(), 2);
    }

    #[test]
    fn mirror_tolerates_one_drive_failure() {
        let mut v = VolumeMedia::new("$DATA");
        v.apply("f", FileOrganization::KeySequenced, b"k", Some(b("v")));
        v.fail_drive(0);
        assert!(v.available());
        assert_eq!(v.file("f").unwrap().read(b"k"), Some(b("v")));
        v.revive_drive(0);
        assert!(v.available());
        assert_eq!(v.physical_writes, 1);
    }

    #[test]
    fn double_drive_failure_loses_content() {
        let mut v = VolumeMedia::new("$DATA");
        v.apply("f", FileOrganization::KeySequenced, b"k", Some(b("v")));
        v.fail_drive(0);
        v.fail_drive(1);
        assert!(!v.available());
        assert!(v.lost);
        assert!(v.files.is_empty());
        // reviving a drive alone does not bring the data back
        v.revive_drive(0);
        assert!(!v.available());
        // only after recovery is it marked usable again
        v.mark_recovered();
        assert!(v.available());
        assert!(v.file("f").is_none());
    }

    #[test]
    #[should_panic(expected = "unavailable volume")]
    fn write_to_lost_volume_panics() {
        let mut v = VolumeMedia::new("$DATA");
        v.fail_drive(0);
        v.fail_drive(1);
        v.apply("f", FileOrganization::KeySequenced, b"k", Some(b("v")));
    }

    #[test]
    fn media_and_archive_keys() {
        assert_eq!(media_key(NodeId(2), "$DATA1"), "\\N2.$DATA1");
        let vr = VolumeRef::new(NodeId(0), "$D");
        assert_eq!(archive_key(&vr, 3), "archive:\\N0.$D:3");
    }

    #[test]
    fn superseded_archives_keep_last_retain_generations() {
        let vr = VolumeRef::new(NodeId(0), "$D");
        // nothing to delete while fewer than `retain` generations exist
        assert!(superseded_archive_keys(&vr, 0, 2).is_empty());
        assert!(superseded_archive_keys(&vr, 1, 2).is_empty());
        // generation 3 with retain 2 keeps {2, 3}, deletes {0, 1}
        assert_eq!(
            superseded_archive_keys(&vr, 3, 2),
            vec![archive_key(&vr, 0), archive_key(&vr, 1)]
        );
        // retain 1 keeps only the newest
        assert_eq!(superseded_archive_keys(&vr, 2, 1).len(), 2);
        // a zero retain is clamped to 1: the newest survives regardless
        assert_eq!(superseded_archive_keys(&vr, 2, 0).len(), 2);
    }
}
