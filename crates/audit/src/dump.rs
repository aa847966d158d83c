//! The DUMPPROCESS: a process-pair that takes **online fuzzy dumps** of
//! audited volumes.
//!
//! "TMF's approach to recovery from total node failure is based on
//! occasional archived copies of audited data base files" — and taking
//! those copies must not stop transaction processing. The DUMPPROCESS
//! copies a volume file by file in bounded pages (`DiscRequest::DumpScan`)
//! while the DISCPROCESS keeps applying updates; the copy is *fuzzy*, and
//! the DumpBegin/DumpEnd markers it brackets onto the volume's audit trail
//! are what lets ROLLFORWARD converge the image to the committed state
//! (see DESIGN.md D10 and [`crate::rollforward`]).
//!
//! Protocol per dump:
//!
//! 1. `DumpBegin` — the DISCPROCESS cuts a begin marker into the audit
//!    stream and reports the dump's audit watermark, its purge floor, and
//!    the files to copy;
//! 2. `DumpScan` per file, resuming page by page until exhausted — each
//!    page costs one disc access and sees the live state of the volume;
//! 3. the [`ArchiveImage`] is written to archive media (stable storage);
//! 4. `DumpEnd` — the end marker is *forced*, so everything buffered
//!    before it (including any dirty value a page may have caught) is
//!    durable on the trail;
//! 5. only then is the [`DumpRegistry`] updated — the record the TMP's
//!    trail-capacity manager trusts when purging.
//!
//! The pair is deliberately stateless across failures, like the
//! BACKOUTPROCESS: the in-flight copy dies with a failed primary, and the
//! requester's safe-delivery resend at the failure notice restarts the
//! dump from scratch. Duplicate begin/end markers from a restarted dump
//! are harmless — recovery filters them.

use encompass_sim::{counter, CpuId, Name, NodeId, Payload, Pid, SystemEvent, World};
use encompass_storage::discprocess::{DiscReply, DiscRequest};
use encompass_storage::media::{
    archive_key, dump_registry_key, superseded_archive_keys, ArchiveImage, DumpRegistry, FileImage,
};
use encompass_storage::types::{FileOrganization, VolumeRef};
use guardian::{Admitted, Checkpointed, Owed, PairApp, PairHandle, Rpc, Served, Target};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::rc::Rc;

type PairCtx<'a, 'b> = guardian::PairCtx<'a, 'b, Infallible>;

/// The service name every node's DUMPPROCESS registers.
pub const DUMP_SERVICE: Name = Name::from_static("$DUMP");

/// Requests to the DUMPPROCESS.
#[derive(Clone, Debug)]
pub enum DumpMsg {
    /// Take an online dump of `volume` as archive `generation`.
    DumpVolume { volume: VolumeRef, generation: u64 },
}

/// Reply from the DUMPPROCESS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DumpReply {
    /// Archive and registry are durable; the trail may now be purged below
    /// `purge_floor`.
    Done {
        watermark: u64,
        purge_floor: u64,
        records: u64,
    },
    /// The volume was unavailable; retry once it is back.
    Failed,
}

/// One dump being taken (primary-memory only; reconstructible).
struct Job {
    /// The `DumpVolume` request this dump answers.
    owed: Owed,
    volume: VolumeRef,
    generation: u64,
    watermark: u64,
    purge_floor: u64,
    /// Files still to copy, in deterministic (sorted) order; `current`
    /// indexes the one being paged.
    file_list: Vec<(Name, FileOrganization)>,
    current: usize,
    /// Key to resume the current file's scan after.
    resume: Option<bytes::Bytes>,
    files: BTreeMap<Name, FileImage>,
    records: u64,
}

/// The DUMPPROCESS application.
pub struct DumpProcess {
    /// Dump steps sent to the volume. A dump has one step outstanding at
    /// a time, so the continuation is the job itself: an in-flight dump
    /// lives in its pending call and nowhere else.
    disc_rpc: Rpc<DiscRequest, DiscReply, Job>,
    replies: Served<DumpReply>,
}

/// Archive generations the DUMPPROCESS retains per volume. When a newer
/// dump supersedes the registry entry, archives older than the last
/// `ARCHIVE_RETAIN` generations are deleted from stable storage —
/// ROLLFORWARD can still restore from any retained generation.
pub const ARCHIVE_RETAIN: u64 = 2;

impl Default for DumpProcess {
    fn default() -> DumpProcess {
        DumpProcess {
            disc_rpc: Rpc::local(1),
            replies: Served::new(),
        }
    }
}

impl DumpProcess {
    fn send_disc(&mut self, ctx: &mut PairCtx<'_, '_>, job: Job, req: DiscRequest) {
        let target = Target::new(job.volume.node, job.volume.volume.clone());
        self.disc_rpc.call_persistent(ctx, target, req, job);
    }

    /// Request the next page, or move to archiving + DumpEnd when every
    /// file is copied.
    fn advance(&mut self, ctx: &mut PairCtx<'_, '_>, mut job: Job) {
        if let Some((file, _)) = job.file_list.get(job.current).cloned() {
            let req = DiscRequest::DumpScan {
                generation: job.generation,
                file,
                resume: job.resume.clone(),
                limit: usize::MAX, // DISCPROCESS clamps to its page size
            };
            self.send_disc(ctx, job, req);
            return;
        }
        // every file copied: write the archive image, then cut the forced
        // end marker — the registry is only updated once that marker (and
        // with it every image the copy may have caught) is durable
        let akey = archive_key(&job.volume, job.generation);
        let snapshot = ArchiveImage {
            volume: job.volume.clone(),
            files: std::mem::take(&mut job.files),
            audit_watermark: job.watermark,
            purge_floor: job.purge_floor,
            generation: job.generation,
        };
        let generation = job.generation;
        ctx.stable().remove(&akey);
        ctx.stable()
            .get_or_create::<ArchiveImage, _>(&akey, move || snapshot);
        ctx.count(counter!("dump.archives"), 1);
        self.send_disc(ctx, job, DiscRequest::DumpEnd { generation });
    }

    fn on_disc_reply(&mut self, ctx: &mut PairCtx<'_, '_>, mut job: Job, body: DiscReply) {
        match body {
            DiscReply::DumpBegun {
                watermark,
                purge_floor,
                files,
            } => {
                job.watermark = watermark;
                job.purge_floor = purge_floor;
                for (name, org) in &files {
                    job.files.insert(name.clone(), FileImage::new(*org));
                }
                job.file_list = files;
                job.current = 0;
                job.resume = None;
                self.advance(ctx, job);
            }
            DiscReply::DumpPage { entries, done } => {
                job.records += entries.len() as u64;
                ctx.count(counter!("dump.records"), entries.len() as u64);
                if let Some((file, _)) = job.file_list.get(job.current) {
                    let image = job.files.get_mut(file).expect("inserted at DumpBegun");
                    for (k, v) in &entries {
                        image.apply(k, Some(v.clone()));
                    }
                }
                job.resume = entries.last().map(|(k, _)| k.clone()).or(job.resume.take());
                if done {
                    job.current += 1;
                    job.resume = None;
                }
                self.advance(ctx, job);
            }
            DiscReply::Ok => {
                // DumpEnd acknowledged: register the completed dump
                let entry = DumpRegistry {
                    generation: job.generation,
                    watermark: job.watermark,
                    purge_floor: job.purge_floor,
                };
                let rkey = dump_registry_key(&job.volume);
                let current = ctx.stable().get::<DumpRegistry>(&rkey).copied();
                // never let a stale retried dump roll the registry back
                if current.is_none_or(|c| c.generation <= entry.generation) {
                    ctx.stable().remove(&rkey);
                    ctx.stable()
                        .get_or_create::<DumpRegistry, _>(&rkey, move || entry);
                    // the registry update above made this generation
                    // authoritative; archives older than the retention
                    // window can never again be the newest usable one
                    let mut deleted = 0u64;
                    for key in superseded_archive_keys(&job.volume, job.generation, ARCHIVE_RETAIN)
                    {
                        if ctx.stable().get::<ArchiveImage>(&key).is_some() {
                            ctx.stable().remove(&key);
                            deleted += 1;
                        }
                    }
                    if deleted > 0 {
                        ctx.count(counter!("dump.archives_deleted"), deleted);
                    }
                }
                ctx.count(counter!("dump.completed"), 1);
                let done = DumpReply::Done {
                    watermark: job.watermark,
                    purge_floor: job.purge_floor,
                    records: job.records,
                };
                self.replies.answer(ctx, job.owed, done);
            }
            // volume down mid-dump (or a reply to a request a dump never
            // sends): abandon; the operator retries later
            DiscReply::Err(_)
            | DiscReply::Value(_)
            | DiscReply::Snapshot { .. }
            | DiscReply::EntryNumber(_)
            | DiscReply::Entries(_)
            | DiscReply::Phase1Done => {
                ctx.count(counter!("dump.failed"), 1);
                self.replies.answer(ctx, job.owed, DumpReply::Failed);
            }
        }
    }
}

impl PairApp for DumpProcess {
    /// Stateless by design: there is nothing to mirror, so no delta can
    /// be built.
    type Delta = Infallible;
    type Snapshot = ();

    fn service_name(&self) -> Name {
        DUMP_SERVICE
    }

    fn kind(&self) -> &'static str {
        "dumpprocess"
    }

    fn on_request(&mut self, ctx: &mut PairCtx<'_, '_>, _src: Pid, payload: Payload) {
        let payload = match self.disc_rpc.accept(ctx, payload) {
            Ok(c) => {
                self.on_disc_reply(ctx, c.then, c.body);
                return;
            }
            Err(p) => p,
        };
        // a retransmission is answered from memory, or its dump is still
        // in flight
        let Admitted::Fresh(owed, DumpMsg::DumpVolume { volume, generation }) =
            self.replies.admit(ctx, payload)
        else {
            return;
        };
        ctx.count(counter!("dump.requests"), 1);
        let job = Job {
            owed,
            volume,
            generation,
            watermark: 0,
            purge_floor: 1,
            file_list: Vec::new(),
            current: 0,
            resume: None,
            files: BTreeMap::new(),
            records: 0,
        };
        self.send_disc(ctx, job, DiscRequest::DumpBegin { generation });
    }

    fn on_timer(&mut self, ctx: &mut PairCtx<'_, '_>, tag: u64) {
        let _ = self.disc_rpc.on_timer(ctx, tag);
    }

    fn on_system(&mut self, ctx: &mut PairCtx<'_, '_>, ev: SystemEvent) {
        self.disc_rpc.on_system(ctx, ev);
    }

    fn on_takeover(&mut self, ctx: &mut PairCtx<'_, '_>) {
        // the copy in progress died with the primary (this half has never
        // run one); the requester's safe-delivery resend at the failure
        // notice restarts the dump from DumpBegin
        ctx.count(counter!("dump.takeovers"), 1);
    }

    fn apply_checkpoint(&mut self, delta: Infallible, _cp: &Checkpointed) {
        match delta {}
    }

    fn snapshot(&self) {}

    fn restore(&mut self, _snapshot: (), _cp: &Checkpointed) {}

    fn on_cpu_down(&mut self, node: NodeId, cpu: CpuId) {
        self.replies.forget_cpu(node, cpu);
    }
}

/// Spawn a DUMPPROCESS pair named [`DUMP_SERVICE`] on `node`.
pub fn spawn_dump_process(
    world: &mut World,
    node: encompass_sim::NodeId,
    cpu_primary: u8,
    cpu_backup: u8,
) -> PairHandle {
    guardian::spawn_pair(world, node, cpu_primary, cpu_backup, DumpProcess::default)
}

/// Ask the DUMPPROCESS of `volume`'s node for an online dump of `volume`
/// as archive `generation`, from a one-shot requester on CPU `cpu` whose
/// calls use `id_space` ([`guardian::ask`]). The request is safe-delivery:
/// a takeover mid-copy restarts the dump. The reply lands in the returned
/// slot.
pub fn request_dump(
    world: &mut World,
    cpu: u8,
    id_space: u64,
    volume: &VolumeRef,
    generation: u64,
) -> Rc<RefCell<Option<DumpReply>>> {
    let node = volume.node;
    guardian::ask(
        world,
        node,
        cpu,
        id_space,
        Target::new(node, DUMP_SERVICE),
        DumpMsg::DumpVolume {
            volume: volume.clone(),
            generation,
        },
    )
}
