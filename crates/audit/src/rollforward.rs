//! ROLLFORWARD: recovery from total node failure.
//!
//! "TMF's approach to recovery from total node failure is based on
//! occasional archived copies of audited data base files, plus an archive
//! of all audit trails written since the data base files were archived.
//! … TMF reconstructs any files open at the time of a total node failure
//! by using the after-images from the audit trail to reapply the updates
//! of committed transactions. ROLLFORWARD negotiates with other nodes of
//! the network about transactions which were in 'ending' state at the time
//! of the node failure."
//!
//! This is an offline utility run by the operator (the experiment driver):
//! it reads the archive and trail media directly from stable storage, and
//! resolves each transaction's outcome against the **home node's monitor
//! audit trail** — the "negotiation with other nodes" — since the commit
//! record there is the commit point.
//!
//! The algorithm is idempotent because images carry absolute values:
//!
//! 1. restore the volume's files from the archive;
//! 2. REDO: apply the after-images of every *committed* transaction whose
//!    sequence is **above the archive's audit watermark**, in ascending
//!    audit-sequence order;
//! 3. UNDO: apply the before-images of every *non-committed* transaction
//!    (aborted, or still in flight at the failure), in descending order —
//!    **except** where a committed write with a higher sequence touched
//!    the same record. Record locks serialize writers per record, so on
//!    the live volume BACKOUT restored the loser's before-image *before*
//!    the later transaction could lock the record; replaying that
//!    before-image after REDO would clobber the committed value.
//!
//! Record locks serialize writers per key, so this reconstructs exactly
//! the committed state.
//!
//! # Fuzzy ONLINEDUMP archives
//!
//! An archive produced by the DUMPPROCESS was copied page by page *while
//! transactions kept updating* (see DESIGN.md D10), so its image is fuzzy:
//!
//! * every write with `seq <= audit_watermark` is fully reflected (the
//!   watermark is taken when the DumpBegin marker is cut, before any page
//!   is read, and in either recovery mode a write applies in the event
//!   that assigns its sequences, so no sequence below it is still
//!   unapplied: DESIGN.md §D1);
//! * a write above the watermark may or may not be in the image, depending
//!   on whether its page was copied before or after the update.
//!
//! REDO therefore starts *above* the watermark — images carry absolute
//! values, so reapplying an update the page already caught is a no-op.
//! UNDO replays all surviving loser before-images: a loser undone on the
//! live volume before the dump began replays idempotently (or is
//! superseded by a later committed write), and a loser whose dirty value
//! the page caught is exactly what the replay repairs. The archive's
//! `purge_floor` proves which trail prefix is dispensable; a trail that
//! purged at or above that floor may have dropped records recovery still
//! needs, so this utility fails loudly rather than silently reconstructing
//! a wrong state. ONLINEDUMP marker records are bookkeeping, not data,
//! and are filtered out before replay.

use crate::monitor::{monitor_key, MonitorTrail};
use crate::trail::TrailMedia;
use encompass_sim::{counter, DetHashMap, MediaId, Name, NodeId, World};
use encompass_storage::audit_api::ImageRecord;
use encompass_storage::media::{archive_key, media_key, ArchiveImage, VolumeMedia};
use encompass_storage::types::{Transid, VolumeRef};

/// What a ROLLFORWARD run did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RollforwardReport {
    /// After-images reapplied (committed transactions).
    pub redone: usize,
    /// Before-images applied (non-committed transactions).
    pub undone: usize,
    /// Loser before-images skipped because a committed write with a higher
    /// audit sequence already rewrote the record.
    pub superseded: usize,
    /// Distinct committed transactions seen on the trails.
    pub committed_txns: usize,
    /// Distinct non-committed transactions rolled back.
    pub rolled_back_txns: usize,
    /// Records in the recovered volume, per file.
    pub file_sizes: Vec<(Name, usize)>,
}

/// Archive generation 0 of each volume straight from its current media:
/// where ROLLFORWARD starts for records written outside TMF (a bulk
/// preload), which no audit trail holds. A volume that already has a
/// generation-0 archive keeps it.
pub fn archive_generation_zero(world: &mut World, volumes: &[VolumeRef]) {
    for v in volumes {
        let files = world
            .stable()
            .get::<VolumeMedia>(&media_key(v.node, &v.volume))
            .map(|m| m.files.clone())
            .unwrap_or_default();
        let volume = v.clone();
        world
            .stable_mut()
            .get_or_create::<ArchiveImage, _>(&archive_key(v, 0), move || ArchiveImage {
                volume,
                files,
                audit_watermark: 0,
                purge_floor: 1,
                generation: 0,
            });
    }
}

/// Recover `volume` from archive `generation` plus `trail_key`, the one
/// trail partition holding the volume's images (`NodeHandles::trail_key_of`
/// in `encompass-core`; see [`crate::trail::trail_key`]). Only that trail
/// is read: a sibling partition may have purged past this volume's floor
/// (DESIGN.md §D12).
///
/// Panics if the archive is missing — recovery without an archive is
/// impossible, which is an operator error worth failing loudly on.
pub fn rollforward_volume(
    world: &mut World,
    volume: &VolumeRef,
    trail_key: &str,
    generation: u64,
) -> RollforwardReport {
    // 1. the archived copy: its files, copied once to rebuild from
    let akey = archive_key(volume, generation);
    let archive = (world.stable().get::<ArchiveImage>(&akey))
        .unwrap_or_else(|| panic!("no archive {akey} — cannot roll forward"));
    let (watermark, floor) = (archive.audit_watermark, archive.purge_floor);
    let mut files = archive.files.clone();

    // 2. gather this volume's images from its trail, in ascending sequence
    // order. The capacity manager must not have purged any record recovery
    // still needs — every sequence at or above the archive's purge floor.
    let mut images: Vec<ImageRecord> = match world.stable().get::<TrailMedia>(trail_key) {
        Some(trail) if trail.purged_through >= floor => panic!(
            "trail {trail_key} purged through seq {} but archive {akey} needs \
             every record from seq {floor} — cannot roll forward",
            trail.purged_through
        ),
        Some(trail) => trail.volume_images(volume),
        None => Vec::new(),
    };
    // ONLINEDUMP begin/end markers are trail bookkeeping, not data images
    images.retain(|r| !r.is_dump_marker());

    // 3. resolve outcomes against the home nodes' monitor trails, each
    // trail's key named once
    let mut outcomes: DetHashMap<Transid, bool> = DetHashMap::default();
    let mut monitors: DetHashMap<NodeId, MediaId> = DetHashMap::default();
    for img in &images {
        let t = img.transid;
        if let std::collections::hash_map::Entry::Vacant(e) = outcomes.entry(t) {
            let stable = world.stable_mut();
            let id = *(monitors.entry(t.home_node))
                .or_insert_with(|| stable.id(&monitor_key(t.home_node)));
            let committed = (stable.get_or_create_at(id, MonitorTrail::new))
                .outcome(t)
                .unwrap_or(false); // no completion record ⇒ never committed
            e.insert(committed);
        }
    }

    // 4. rebuild
    let mut report = RollforwardReport::default();
    // REDO committed, ascending; remember the newest committed sequence
    // per record for the UNDO pass below. The committed-high map covers
    // *all* committed images — including those at or below the watermark,
    // whose values the fuzzy image already holds — because a loser's undo
    // is superseded by any later committed write, replayed or not.
    let mut committed_high: DetHashMap<(&str, &bytes::Bytes), u64> = DetHashMap::default();
    for img in &images {
        if outcomes[&img.transid] {
            committed_high.insert((img.file.as_str(), &img.key), img.seq);
            if img.seq <= watermark {
                // applied to the volume before the dump began reading
                // pages, so the archive image already reflects this write
                continue;
            }
            files
                .entry(img.file.clone())
                .or_insert_with(|| encompass_storage::media::FileImage::new(img.organization))
                .apply(&img.key, img.after.clone());
            report.redone += 1;
        }
    }
    // UNDO non-committed, descending. Record locks serialize writers per
    // record, so BACKOUT restored a loser's before-image on the live volume
    // *before* any later committed transaction could lock the record: a
    // before-image with a committed write at a higher sequence on the same
    // record is already compensated, and replaying it here would clobber
    // the committed value.
    for img in images.iter().rev() {
        if !outcomes[&img.transid] {
            if committed_high
                .get(&(img.file.as_str(), &img.key))
                .is_some_and(|&s| s > img.seq)
            {
                report.superseded += 1;
                continue;
            }
            files
                .entry(img.file.clone())
                .or_insert_with(|| encompass_storage::media::FileImage::new(img.organization))
                .apply(&img.key, img.before.clone());
            report.undone += 1;
        }
    }
    // every transid with an outcome has an image: count them by outcome
    report.committed_txns = outcomes.values().filter(|&&c| c).count();
    report.rolled_back_txns = outcomes.len() - report.committed_txns;

    // 5. install the rebuilt files on the volume media
    let mkey = media_key(volume.node, &volume.volume);
    let vname = volume.volume.clone();
    let media = world
        .stable_mut()
        .get_or_create::<VolumeMedia, _>(&mkey, move || VolumeMedia::new(&vname));
    media.files = files;
    media.mark_recovered();
    report.file_sizes = media
        .files
        .iter()
        .map(|(name, img)| (name.clone(), img.len()))
        .collect();
    world.metrics_mut().add(counter!("rollforward.runs"), 1);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use encompass_sim::{NodeId, SimConfig};
    use encompass_storage::media::ArchiveImage;
    use encompass_storage::types::FileOrganization;

    fn t(seq: u64) -> Transid {
        Transid {
            home_node: NodeId(0),
            cpu: 0,
            seq,
        }
    }

    fn cp() -> guardian::Checkpointed {
        guardian::Checkpointed::reviewed("unit test: the trail is built by hand")
    }

    fn img(
        seq: u64,
        txn: Transid,
        key: &str,
        before: Option<&str>,
        after: Option<&str>,
    ) -> ImageRecord {
        ImageRecord {
            seq,
            transid: txn,
            volume: VolumeRef::new(NodeId(0), "$D"),
            file: "accounts".into(),
            organization: FileOrganization::KeySequenced,
            key: Bytes::copy_from_slice(key.as_bytes()),
            before: before.map(|s| Bytes::copy_from_slice(s.as_bytes())),
            after: after.map(|s| Bytes::copy_from_slice(s.as_bytes())),
        }
    }

    /// Build a world with an archive, a trail, and monitor outcomes, then
    /// roll forward and inspect the result.
    #[test]
    fn redo_committed_undo_losers() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let vol = VolumeRef::new(n, "$D");

        // archive: one pre-existing record, watermark 0
        let mut archive_files = std::collections::BTreeMap::new();
        let mut f = encompass_storage::media::FileImage::new(FileOrganization::KeySequenced);
        f.apply(b"old", Some(Bytes::from_static(b"archived")));
        archive_files.insert("accounts".into(), f);
        let akey = archive_key(&vol, 1);
        w.stable_mut()
            .get_or_create::<ArchiveImage, _>(&akey, || ArchiveImage {
                volume: vol.clone(),
                files: archive_files,
                audit_watermark: 0,
                purge_floor: 1,
                generation: 1,
            });

        // trail: t1 commits (insert + update), t2 aborts (overwrote "old"),
        // t3 was in flight (inserted a record, no completion record)
        let tk = crate::trail::trail_key(n, 0);
        let trail = w
            .stable_mut()
            .get_or_create::<TrailMedia, _>(&tk, || TrailMedia::new(100));
        trail.force(vec![
            img(1, t(1), "a", None, Some("1")),
            img(2, t(2), "old", Some("archived"), Some("dirty")),
            img(3, t(1), "a", Some("1"), Some("2")),
            img(4, t(3), "ghost", None, Some("zzz")),
        ]);

        // monitor trail: t1 committed, t2 aborted, t3 has no record
        MonitorTrail::of(w.stable_mut(), n).record(t(1), true, &cp());
        MonitorTrail::of(w.stable_mut(), n).record(t(2), false, &cp());

        // simulate total loss of the volume
        let mkey = media_key(n, "$D");
        w.stable_mut()
            .get_or_create::<VolumeMedia, _>(&mkey, || VolumeMedia::new("$D"));
        let media = w.stable_mut().get_mut::<VolumeMedia>(&mkey).unwrap();
        media.fail_drive(0);
        media.fail_drive(1);
        media.revive_drive(0);
        media.revive_drive(1);
        assert!(!media.available(), "lost until recovered");

        let report = rollforward_volume(&mut w, &vol, &tk, 1);
        assert_eq!(report.redone, 2);
        assert_eq!(report.undone, 2);
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.rolled_back_txns, 2);

        let media = w.stable().get::<VolumeMedia>(&mkey).unwrap();
        assert!(media.available());
        let accounts = media.file("accounts").unwrap();
        assert_eq!(
            accounts.read(b"a"),
            Some(Bytes::from_static(b"2")),
            "t1 redone"
        );
        assert_eq!(
            accounts.read(b"old"),
            Some(Bytes::from_static(b"archived")),
            "t2 undone"
        );
        assert_eq!(accounts.read(b"ghost"), None, "t3 (in-flight) undone");
    }

    #[test]
    fn rollforward_is_idempotent() {
        // running recovery twice yields the same state
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let vol = VolumeRef::new(n, "$D");
        let akey = archive_key(&vol, 1);
        w.stable_mut()
            .get_or_create::<ArchiveImage, _>(&akey, || ArchiveImage {
                volume: vol.clone(),
                files: std::collections::BTreeMap::new(),
                audit_watermark: 0,
                purge_floor: 1,
                generation: 1,
            });
        let tk = crate::trail::trail_key(n, 0);
        w.stable_mut()
            .get_or_create::<TrailMedia, _>(&tk, || TrailMedia::new(100))
            .force(vec![img(1, t(1), "k", None, Some("v"))]);
        MonitorTrail::of(w.stable_mut(), n).record(t(1), true, &cp());

        let r1 = rollforward_volume(&mut w, &vol, &tk, 1);
        let r2 = rollforward_volume(&mut w, &vol, &tk, 1);
        assert_eq!(r1, r2);
        let media = w.stable().get::<VolumeMedia>(&media_key(n, "$D")).unwrap();
        assert_eq!(
            media.file("accounts").unwrap().read(b"k"),
            Some(Bytes::from_static(b"v"))
        );
    }

    /// Regression: an aborted transaction's before-image must not clobber
    /// committed writes that landed on the record *after* BACKOUT undid the
    /// loser on the live volume. (Found by the chaos sweep: REDO produced
    /// the right value, then the descending UNDO pass replayed the loser's
    /// stale before-image over it.)
    #[test]
    fn superseded_loser_undo_is_skipped() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let vol = VolumeRef::new(n, "$D");
        let akey = archive_key(&vol, 0);
        w.stable_mut()
            .get_or_create::<ArchiveImage, _>(&akey, || ArchiveImage {
                volume: vol.clone(),
                files: std::collections::BTreeMap::new(),
                audit_watermark: 0,
                purge_floor: 1,
                generation: 0,
            });
        // Lock-serialized history of one record:
        //   t1 commits 1000 -> 900
        //   t2 writes 900 -> 850, aborts; BACKOUT restores 900 on the live
        //     volume before releasing the lock
        //   t3 commits 900 -> 870
        let tk = crate::trail::trail_key(n, 0);
        w.stable_mut()
            .get_or_create::<TrailMedia, _>(&tk, || TrailMedia::new(100))
            .force(vec![
                img(1, t(1), "k", Some("1000"), Some("900")),
                img(2, t(2), "k", Some("900"), Some("850")),
                img(3, t(3), "k", Some("900"), Some("870")),
            ]);
        MonitorTrail::of(w.stable_mut(), n).record(t(1), true, &cp());
        MonitorTrail::of(w.stable_mut(), n).record(t(2), false, &cp());
        MonitorTrail::of(w.stable_mut(), n).record(t(3), true, &cp());

        let report = rollforward_volume(&mut w, &vol, &tk, 0);
        assert_eq!(report.redone, 2);
        assert_eq!(report.undone, 0, "loser undo superseded by t3's commit");
        assert_eq!(report.superseded, 1);
        let media = w.stable().get::<VolumeMedia>(&media_key(n, "$D")).unwrap();
        assert_eq!(
            media.file("accounts").unwrap().read(b"k"),
            Some(Bytes::from_static(b"870")),
            "committed value survives recovery"
        );
    }

    #[test]
    #[should_panic(expected = "no archive")]
    fn missing_archive_fails_loudly() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let vol = VolumeRef::new(n, "$D");
        let _ = rollforward_volume(&mut w, &vol, &crate::trail::trail_key(n, 0), 9);
    }

    /// Fuzzy ONLINEDUMP recovery: the archive was copied while
    /// transactions updated, so it holds a dirty value a loser wrote
    /// mid-dump and misses a committed write that landed after its page
    /// was read. The trail also carries the DumpBegin/DumpEnd markers,
    /// which must be filtered out, and rotates across several files.
    #[test]
    fn fuzzy_archive_recovers_committed_state() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let vol = VolumeRef::new(n, "$D");

        // History (audit sequence order):
        //   seq 1: t1 commits k1 1000 -> 900 before the dump
        //   seq 2: DumpBegin marker, watermark = 1
        //   seq 3: t2 writes k1 900 -> 850, later aborts; the dump page
        //          catches the dirty 850
        //   seq 4: t3 inserts k2 = 7 and commits after its page was read
        //   seq 5: DumpEnd marker
        let mut archive_files = std::collections::BTreeMap::new();
        let mut f = encompass_storage::media::FileImage::new(FileOrganization::KeySequenced);
        f.apply(b"k1", Some(Bytes::from_static(b"850"))); // dirty loser value
        archive_files.insert("accounts".into(), f);
        let akey = archive_key(&vol, 2);
        w.stable_mut()
            .get_or_create::<ArchiveImage, _>(&akey, || ArchiveImage {
                volume: vol.clone(),
                files: archive_files,
                audit_watermark: 1,
                purge_floor: 2,
                generation: 2,
            });

        let tk = crate::trail::trail_key(n, 0);
        let trail = w
            .stable_mut()
            .get_or_create::<TrailMedia, _>(&tk, || TrailMedia::new(2));
        trail.force(vec![
            img(1, t(1), "k1", Some("1000"), Some("900")),
            ImageRecord::dump_marker(2, vol.clone(), 2, false),
            img(3, t(2), "k1", Some("900"), Some("850")),
            img(4, t(3), "k2", None, Some("7")),
            ImageRecord::dump_marker(5, vol.clone(), 2, true),
        ]);
        assert!(trail.files.len() > 1, "trail rotated across files");
        MonitorTrail::of(w.stable_mut(), n).record(t(1), true, &cp());
        MonitorTrail::of(w.stable_mut(), n).record(t(2), false, &cp());
        MonitorTrail::of(w.stable_mut(), n).record(t(3), true, &cp());

        let report = rollforward_volume(&mut w, &vol, &tk, 2);
        assert_eq!(report.redone, 1, "only t3's post-watermark write replays");
        assert_eq!(report.undone, 1, "t2's dirty write is repaired");
        assert_eq!(report.committed_txns, 2);
        let media = w.stable().get::<VolumeMedia>(&media_key(n, "$D")).unwrap();
        let accounts = media.file("accounts").unwrap();
        assert_eq!(accounts.read(b"k1"), Some(Bytes::from_static(b"900")));
        assert_eq!(accounts.read(b"k2"), Some(Bytes::from_static(b"7")));
        assert!(
            media
                .file(encompass_storage::audit_api::DUMP_MARKER_FILE)
                .is_none(),
            "marker records were filtered, not replayed"
        );
    }

    /// Capacity management interplay: once a dump's purge floor covers a
    /// trail prefix, purging that prefix must not break recovery from the
    /// dump — the purged records were all reflected in the archive image.
    #[test]
    fn purge_covered_by_dump_floor_recovers() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let vol = VolumeRef::new(n, "$D");

        // Everything committed before the dump; the fuzzy image holds the
        // final values and the floor proves seqs 1..=3 are dispensable.
        let mut archive_files = std::collections::BTreeMap::new();
        let mut f = encompass_storage::media::FileImage::new(FileOrganization::KeySequenced);
        f.apply(b"a", Some(Bytes::from_static(b"2")));
        f.apply(b"b", Some(Bytes::from_static(b"9")));
        archive_files.insert("accounts".into(), f);
        let akey = archive_key(&vol, 3);
        w.stable_mut()
            .get_or_create::<ArchiveImage, _>(&akey, || ArchiveImage {
                volume: vol.clone(),
                files: archive_files,
                audit_watermark: 3,
                purge_floor: 4,
                generation: 3,
            });

        let tk = crate::trail::trail_key(n, 0);
        let trail = w
            .stable_mut()
            .get_or_create::<TrailMedia, _>(&tk, || TrailMedia::new(2));
        trail.force(vec![
            img(1, t(1), "a", None, Some("1")),
            img(2, t(1), "a", Some("1"), Some("2")),
            img(3, t(2), "b", None, Some("9")),
        ]);
        let dropped = trail.purge_below(4);
        assert!(dropped >= 1, "old trail files purged");
        assert_eq!(trail.purged_through, 3);
        MonitorTrail::of(w.stable_mut(), n).record(t(1), true, &cp());
        MonitorTrail::of(w.stable_mut(), n).record(t(2), true, &cp());

        let report = rollforward_volume(&mut w, &vol, &tk, 3);
        assert_eq!(report.redone, 0, "purged prefix was already in the image");
        let media = w.stable().get::<VolumeMedia>(&media_key(n, "$D")).unwrap();
        let accounts = media.file("accounts").unwrap();
        assert_eq!(accounts.read(b"a"), Some(Bytes::from_static(b"2")));
        assert_eq!(accounts.read(b"b"), Some(Bytes::from_static(b"9")));
    }

    /// A trail purged past the archive's floor may have dropped records
    /// recovery still needs: fail loudly, never reconstruct silently.
    #[test]
    #[should_panic(expected = "purged through")]
    fn purged_needed_trail_fails_loudly() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let vol = VolumeRef::new(n, "$D");
        let akey = archive_key(&vol, 0);
        w.stable_mut()
            .get_or_create::<ArchiveImage, _>(&akey, || ArchiveImage {
                volume: vol.clone(),
                files: std::collections::BTreeMap::new(),
                audit_watermark: 0,
                purge_floor: 1,
                generation: 0,
            });
        let tk = crate::trail::trail_key(n, 0);
        let trail = w
            .stable_mut()
            .get_or_create::<TrailMedia, _>(&tk, || TrailMedia::new(1));
        trail.force(vec![
            img(1, t(1), "a", None, Some("1")),
            img(2, t(1), "a", Some("1"), Some("2")),
        ]);
        trail.purge_below(2); // drops seq 1, which gen-0 recovery needs
        MonitorTrail::of(w.stable_mut(), n).record(t(1), true, &cp());
        let _ = rollforward_volume(&mut w, &vol, &tk, 0);
    }
}
