//! The AUDITPROCESS: the one process-pair per node, named
//! [`AUDIT_SERVICE`], that owns the node's audit trail.
//!
//! "All audited discs on a given controller share an AUDITPROCESS and an
//! audit trail" — every DISCPROCESS on the node sends its image records
//! here (DESIGN.md §D7).
//! Records are *buffered* in the pair's memory (each append is checkpointed
//! to the backup, so a single processor failure loses nothing) and *forced*
//! to the trail media:
//!
//! * lazily, at phase one of commit (`ForceTxn`) — concurrent force
//!   requests are **group-committed** under a single physical write;
//! * eagerly, when a DISCPROCESS in the Write-Ahead-Log baseline appends
//!   with `force: true`.
//!
//! The trail may be **partitioned** by volume group (see DESIGN.md §D12):
//! each partition owns its own media sequence, boxcar buffer, waiter queue
//! and — critically — its own in-flight force slot, so independent volume
//! groups force in parallel instead of serializing behind one disc arm. A
//! `ForceTxn` fans out to exactly the partitions holding the transaction's
//! images and completes when all of them acknowledge. Partition 0 keeps
//! the legacy trail key and timer tags, so `partitions == 1` reproduces
//! the historical stable-storage layout.

use crate::trail::{trail_key, TrailMedia};
use encompass_sim::config::DISC_ACCESS;
use encompass_sim::{
    counter, histogram, CpuId, DetHashMap, FlightCause, Floored, MediaId, Members, Name, NodeId,
    Payload, Pid, World,
};
use encompass_storage::audit_api::{AuditMsg, AuditReply, ImageRecord, AUDIT_SERVICE};
use encompass_storage::types::{Transid, VolumeRef};
use guardian::{Admitted, Asked, Checkpointed, Owed, PairApp, PairHandle, Served, ServedSnapshot};
use std::collections::{BTreeMap, BTreeSet};

type PairCtx<'a, 'b> = guardian::PairCtx<'a, 'b, AuditDelta>;

/// Identity of one image record within its volume: duplicates arise when
/// a DISCPROCESS takeover re-sends retained images whose original append
/// already arrived.
type ImageKey = (u64, Transid);

fn image_key(r: &ImageRecord) -> ImageKey {
    (r.seq, r.transid)
}

/// Put an append's records on each transaction's flight timeline, in
/// transid order. An append holds a few records, all of one transaction
/// when a DISCPROCESS sends it, so they are counted without a map.
fn flight_appended(ctx: &mut PairCtx<'_, '_>, records: &[ImageRecord]) {
    let mut after = None;
    while let Some(t) = (records.iter().map(|r| r.transid))
        .filter(|&t| after < Some(t))
        .min()
    {
        let n = records.iter().filter(|r| r.transid == t).count() as u32;
        ctx.flight(t.flight_id(), FlightCause::AuditAppend { records: n });
        after = Some(t);
    }
}

/// Timer tag of partition `p`'s physical force completion. Partition 0
/// keeps the historical tag 1.
fn tag_force(p: usize) -> u64 {
    1 + 2 * p as u64
}

/// Timer tag of partition `p`'s group-commit window. Partition 0 keeps
/// the historical tag 2.
fn tag_window(p: usize) -> u64 {
    2 + 2 * p as u64
}

/// Cumulative bucket bounds for the boxcar-size histograms: the
/// AUDITPROCESS counts force waiters, the TMP monitor-trail records.
pub const BOXCAR_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32];

/// Configuration for one AUDITPROCESS.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Trail-file rotation threshold (records per file).
    pub rotate_every: usize,
    /// How long to hold an eligible force open so that later requesters can
    /// board the same boxcar. Zero forces as soon as one waiter is queued.
    pub group_commit_window: encompass_sim::SimDuration,
    /// Number of trail partitions (volume groups forcing in parallel).
    pub partitions: usize,
    /// Volume name → partition index. Volumes not listed land on
    /// partition 0.
    pub partition_of: BTreeMap<Name, usize>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            rotate_every: 4096,
            group_commit_window: encompass_sim::SimDuration::ZERO,
            partitions: 1,
            partition_of: BTreeMap::new(),
        }
    }
}

struct Waiter {
    /// Id of the fanned-out request (its key in `pending`).
    force: u64,
    /// Partition forced-record count that satisfies this waiter.
    needed: u64,
    /// The transaction this force is on behalf of (`ForceTxn` only; WAL
    /// appends force anonymously).
    transid: Option<Transid>,
}

/// A force request fanned out across partitions; the reply goes out when
/// every touched partition has acknowledged.
struct PendingForce {
    owed: Owed,
    reply: AuditReply,
    remaining: usize,
    transid: Option<Transid>,
}

/// Sizes of an AUDITPROCESS's in-memory state, read by
/// [`AuditProcess::state_report`] for the bounded-state and liveness
/// checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditStateReport {
    /// Records appended but not yet forced, across all partitions.
    pub buffered: usize,
    /// Force waiters queued across all partitions.
    pub waiters: usize,
    /// Partitions with a physical force in flight.
    pub inflight_forces: usize,
    /// Fanned-out force requests awaiting partition acknowledgements.
    pub pending_forces: usize,
    /// Remembered replies: the answers at or above their requesters'
    /// floors (see [`Served`]).
    pub reply_cache: usize,
    /// Remembered replies below their requester's floor: always 0.
    pub replies_below_floor: usize,
    /// Image keys the duplicate filter holds, across volumes: those at or
    /// above each volume's re-send floor.
    pub image_keys: usize,
    /// Requests admitted and not yet answered: each is a fanned-out force,
    /// so this equals `pending_forces`.
    pub pending_requests: usize,
}

/// Checkpoint deltas sent from the primary to the backup.
pub enum AuditDelta {
    /// One append request: its records all come from one volume, so they
    /// go to one partition.
    Append {
        /// The append request this delta answers, with its requester's
        /// floor.
        answers: Asked,
        /// The volume the append came from and the re-send floor it
        /// carried (`None` for an append without records): the backup's
        /// filter learns what the primary's did.
        floor: Option<(VolumeRef, u64)>,
        partition: usize,
        /// The append's own list when the filter dropped none of it.
        records: Members<ImageRecord>,
    },
    Forced {
        partition: usize,
        count: usize,
    },
}

pub struct AuditSnapshot {
    /// Per partition: (buffer, forced_count).
    partitions: Vec<(Vec<ImageRecord>, u64)>,
    replies: ServedSnapshot<AuditReply>,
    filter: Vec<(VolumeRef, Floored<ImageKey, ()>)>,
}

/// One trail partition's force machinery.
struct Partition {
    /// Appended but not yet forced.
    buffer: Vec<ImageRecord>,
    /// Total records forced to this partition's trail over all time.
    forced_count: u64,
    force_in_progress: Option<usize>,
    /// The window timer of the boxcar now accumulating is armed; its
    /// firing starts the force. Primary-memory only: the timer dies with
    /// the primary, and retransmitted requests re-arm it after a takeover.
    window_armed: bool,
    waiters: Vec<Waiter>,
}

impl Partition {
    fn new() -> Partition {
        Partition {
            buffer: Vec::new(),
            forced_count: 0,
            force_in_progress: None,
            window_armed: false,
            waiters: Vec::new(),
        }
    }
}

/// The AUDITPROCESS application.
pub struct AuditProcess {
    cfg: AuditConfig,
    /// The slot of each partition's trail in stable storage.
    trails: Vec<MediaId>,
    parts: Vec<Partition>,
    /// Fanned-out force requests awaiting partition acknowledgements, by
    /// request id.
    pending: DetHashMap<u64, PendingForce>,
    replies: Served<AuditReply>,
    /// The duplicate filter (DESIGN.md §D27), one entry per volume that
    /// has appended (a node has a few): the highest re-send floor its
    /// appends have carried, and the keys of its images at or above it.
    /// Replicated with each append's checkpoint, so a takeover starts from
    /// the keys its primary held.
    filter: Vec<(VolumeRef, Floored<ImageKey, ()>)>,
}

impl AuditProcess {
    /// `trails` holds, per partition, the [`MediaId`] of its
    /// [`trail_key`] in the world the process will run in.
    pub fn new(cfg: AuditConfig, trails: Vec<MediaId>) -> AuditProcess {
        assert_eq!(
            trails.len(),
            cfg.partitions.max(1),
            "one trail per partition"
        );
        AuditProcess {
            cfg,
            parts: trails.iter().map(|_| Partition::new()).collect(),
            trails,
            pending: DetHashMap::default(),
            replies: Served::new(),
            filter: Vec::new(),
        }
    }

    /// The sizes of this AUDITPROCESS's in-memory state.
    pub fn state_report(&self) -> AuditStateReport {
        AuditStateReport {
            buffered: self.parts.iter().map(|p| p.buffer.len()).sum(),
            waiters: self.parts.iter().map(|p| p.waiters.len()).sum(),
            inflight_forces: self
                .parts
                .iter()
                .filter(|p| p.force_in_progress.is_some())
                .count(),
            pending_forces: self.pending.len(),
            reply_cache: self.replies.answered(),
            replies_below_floor: self.replies.below_floor(),
            image_keys: self.filter.iter().map(|(_, v)| v.len()).sum(),
            pending_requests: self.replies.pending(),
        }
    }

    /// Which partition a volume's records go to.
    fn partition_of(&self, volume: &str) -> usize {
        self.cfg
            .partition_of
            .get(volume)
            .copied()
            .unwrap_or(0)
            .min(self.parts.len() - 1)
    }

    /// Drop the records `volume` has already appended, and refuse those
    /// below its re-send `floor`. An append that drops none, the common
    /// case, keeps its list.
    fn dedup(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        volume: &VolumeRef,
        floor: u64,
        records: Members<ImageRecord>,
    ) -> Members<ImageRecord> {
        let keys = self.volume_keys(volume, floor);
        let mut stale = 0;
        let mut keep = |r: &ImageRecord| {
            let above = r.seq >= keys.floor();
            stale += u64::from(!above);
            above && keys.insert(image_key(r), ()).is_none()
        };
        // the records up to the first drop are kept as they are
        let kept = records.iter().take_while(|r| keep(r)).count();
        let fresh: Members<ImageRecord> = match records.get(kept..) {
            Some([_, rest @ ..]) => (records[..kept].iter())
                .chain(rest.iter().filter(|r| keep(r)))
                .cloned()
                .collect(),
            _ => records.clone(),
        };
        let dropped = (records.len() - fresh.len()) as u64;
        ctx.count(counter!("audit.duplicate_records"), dropped - stale);
        if stale > 0 {
            ctx.count(counter!("audit.stale_images"), stale);
        }
        fresh
    }

    /// `volume`'s filter, its floor raised to `floor`.
    fn volume_keys(&mut self, volume: &VolumeRef, floor: u64) -> &mut Floored<ImageKey, ()> {
        let at = (self.filter.iter().position(|(v, _)| v == volume)).unwrap_or_else(|| {
            self.filter.push((volume.clone(), Floored::new(floor)));
            self.filter.len() - 1
        });
        let keys = &mut self.filter[at].1;
        keys.raise(floor, |_| false);
        keys
    }

    fn with_trail<R>(
        &self,
        ctx: &mut PairCtx<'_, '_>,
        partition: usize,
        f: impl FnOnce(&mut TrailMedia) -> R,
    ) -> R {
        let rotate = self.cfg.rotate_every;
        let trail = ctx
            .stable()
            .get_or_create_at(self.trails[partition], || TrailMedia::new(rotate));
        f(trail)
    }

    /// Fan a force request out to the partitions it waits on, each
    /// completing when everything it currently buffers is on its trail.
    /// A force for `transid` waits on the partitions buffering its
    /// records; one for no transaction (a forced append, the flush
    /// barrier) on every partition buffering anything.
    fn enqueue_force(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        owed: Owed,
        r: AuditReply,
        transid: Option<Transid>,
    ) {
        let force = owed.id();
        let mut remaining = 0;
        for p in 0..self.parts.len() {
            let buffer = &self.parts[p].buffer;
            let waits = match transid {
                Some(t) => buffer.iter().any(|r| r.transid == t),
                None => !buffer.is_empty(),
            };
            if !waits {
                continue;
            }
            if let Some(t) = transid.filter(|_| remaining == 0) {
                ctx.flight(t.flight_id(), FlightCause::AuditForceStart);
            }
            remaining += 1;
            let needed = self.parts[p].forced_count + buffer.len() as u64;
            self.parts[p].waiters.push(Waiter {
                force,
                needed,
                transid,
            });
            self.maybe_start_force(ctx, p);
        }
        if remaining == 0 {
            // nothing to force (e.g. an append fully deduplicated away)
            self.replies.answer(ctx, owed, r);
            return;
        }
        self.pending.insert(
            force,
            PendingForce {
                owed,
                reply: r,
                remaining,
                transid,
            },
        );
    }

    fn maybe_start_force(&mut self, ctx: &mut PairCtx<'_, '_>, p: usize) {
        let part = &self.parts[p];
        if part.force_in_progress.is_some() || part.buffer.is_empty() || part.waiters.is_empty() {
            return;
        }
        if self.cfg.group_commit_window > encompass_sim::SimDuration::ZERO {
            // hold the boxcar open for late boarders, for its whole window
            if !part.window_armed {
                self.parts[p].window_armed = true;
                ctx.set_timer(self.cfg.group_commit_window, tag_window(p));
            }
            return;
        }
        self.start_force(ctx, p);
    }

    fn start_force(&mut self, ctx: &mut PairCtx<'_, '_>, p: usize) {
        let upto = self.parts[p].buffer.len();
        self.parts[p].force_in_progress = Some(upto);
        ctx.count(counter!("audit.force_started"), 1);
        let will_force = self.parts[p].forced_count + upto as u64;
        let boarding = (self.parts[p].waiters.iter())
            .filter(|w| w.needed <= will_force)
            .filter_map(|w| w.transid);
        for t in boarding {
            ctx.flight(
                t.flight_id(),
                FlightCause::PartitionForceStart {
                    partition: p as u32,
                },
            );
        }
        // one rotating-media write per force, regardless of batch size:
        // this is the group commit
        ctx.set_timer(DISC_ACCESS, tag_force(p));
    }

    fn complete_force(&mut self, ctx: &mut PairCtx<'_, '_>, p: usize) {
        let Some(upto) = self.parts[p].force_in_progress.take() else {
            return;
        };
        ctx.count(counter!("audit.forces"), 1);
        ctx.count(counter!("audit.forced_records"), upto as u64);
        ctx.count(counter!("audit.group_size_total"), upto as u64);
        // the batch streams from the buffer onto the trail
        let rotate = self.cfg.rotate_every;
        let trail = ctx
            .stable()
            .get_or_create_at(self.trails[p], || TrailMedia::new(rotate));
        trail.force(self.parts[p].buffer.drain(..upto));
        self.parts[p].forced_count += upto as u64;
        ctx.checkpoint(AuditDelta::Forced {
            partition: p,
            count: upto,
        });
        // satisfy waiters: a waiter needs the partition's append count at
        // its push, which never decreases, so the satisfied ones are a
        // prefix, drained in place
        let forced = self.parts[p].forced_count;
        let mut waiters = std::mem::take(&mut self.parts[p].waiters);
        debug_assert!(waiters.is_sorted_by_key(|w| w.needed));
        let boxcar = waiters.partition_point(|w| w.needed <= forced);
        // an append-only force (no waiter satisfied) is not a boxcar:
        // observing 0 here would skew the group-size mean
        if boxcar > 0 {
            ctx.observe(
                histogram!("audit.boxcar_size", BOXCAR_BOUNDS),
                boxcar as u64,
            );
        }
        let boxcar = boxcar as u32;
        for w in waiters.drain(..boxcar as usize) {
            if let Some(t) = w.transid {
                ctx.flight(
                    t.flight_id(),
                    FlightCause::PartitionForced {
                        partition: p as u32,
                    },
                );
            }
            self.partition_acked(ctx, w.force, boxcar);
        }
        self.parts[p].waiters = waiters;
        self.maybe_start_force(ctx, p);
    }

    /// One partition acknowledged a fanned-out force; reply once all have.
    fn partition_acked(&mut self, ctx: &mut PairCtx<'_, '_>, force: u64, boxcar: u32) {
        let Some(pending) = self.pending.get_mut(&force) else {
            return;
        };
        pending.remaining = pending.remaining.saturating_sub(1);
        if pending.remaining > 0 {
            return;
        }
        let pending = self.pending.remove(&force).expect("present above");
        if let Some(t) = pending.transid {
            ctx.flight(t.flight_id(), FlightCause::AuditForced { boxcar });
        }
        self.replies.answer(ctx, pending.owed, pending.reply);
    }
}

impl PairApp for AuditProcess {
    type Delta = AuditDelta;
    type Snapshot = AuditSnapshot;

    fn service_name(&self) -> Name {
        AUDIT_SERVICE
    }

    fn kind(&self) -> &'static str {
        "auditprocess"
    }

    fn on_request(&mut self, ctx: &mut PairCtx<'_, '_>, _src: Pid, payload: Payload) {
        // a retried request is answered from memory, or is still waiting
        // on its force
        let Admitted::Fresh(owed, msg) = self.replies.admit(ctx, payload) else {
            return;
        };
        match msg {
            AuditMsg::Append {
                records,
                force,
                floor,
            } => {
                ctx.count(counter!("audit.appends"), 1);
                // an append's records come from one volume, whose floor it
                // carries, so they land in one partition's delta
                let volume = records.first().map(|r| r.volume.clone());
                assert!(
                    records.iter().all(|r| Some(&r.volume) == volume.as_ref()),
                    "an append's records come from one volume"
                );
                let records = match &volume {
                    Some(volume) => self.dedup(ctx, volume, floor, records),
                    None => records,
                };
                ctx.count(counter!("audit.records"), records.len() as u64);
                // an append that deduplicated away entirely still
                // checkpoints once, so the backup replicates the reply
                let p = match (&volume, records.is_empty()) {
                    (Some(volume), false) => self.partition_of(&volume.volume),
                    _ => 0,
                };
                flight_appended(ctx, &records);
                self.parts[p].buffer.extend(records.iter().cloned());
                ctx.checkpoint(AuditDelta::Append {
                    answers: owed.asked(),
                    floor: volume.map(|v| (v, floor)),
                    partition: p,
                    records,
                });
                if force {
                    // a forced append is a flush barrier: everything
                    // queued before it, on every partition, must land
                    self.enqueue_force(ctx, owed, AuditReply::Appended, None);
                } else {
                    self.replies.answer(ctx, owed, AuditReply::Appended);
                }
            }
            AuditMsg::ForceTxn { transid } => {
                ctx.count(counter!("audit.force_txn"), 1);
                self.enqueue_force(ctx, owed, AuditReply::Forced, Some(transid));
            }
            AuditMsg::Purge { floors, open } => {
                ctx.count(counter!("audit.purges"), 1);
                // group the per-volume dump floors by partition: a
                // partition is purgeable only when *every* volume it
                // audits has a completed dump (Some floor)
                let mut cut: BTreeMap<usize, Option<u64>> = BTreeMap::new();
                for (volume, floor) in &floors {
                    let p = self.partition_of(volume);
                    cut.entry(p)
                        .and_modify(|c| {
                            *c = match (*c, *floor) {
                                (Some(a), Some(b)) => Some(a.min(b)),
                                _ => None,
                            }
                        })
                        .or_insert(*floor);
                }
                let open: BTreeSet<Transid> = open.into_iter().collect();
                let mut total_files = 0u64;
                for (p, below) in cut {
                    let Some(below) = below else { continue };
                    if below <= 1 {
                        continue; // nothing purgeable yet
                    }
                    // belt and braces under the dump-floor proof: never
                    // cut past the first image of a transaction that is
                    // still open (its before-images may yet drive a
                    // backout)
                    let oldest_open =
                        self.with_trail(ctx, p, |t| t.first_seq_of(|t| open.contains(t)));
                    let oldest_open = self.parts[p]
                        .buffer
                        .iter()
                        .filter(|r| open.contains(&r.transid))
                        .map(|r| r.seq)
                        .min()
                        .into_iter()
                        .chain(oldest_open)
                        .min();
                    let below = match oldest_open {
                        Some(first) => below.min(first),
                        None => below,
                    };
                    let files = self.with_trail(ctx, p, |t| t.purge_below(below)) as u64;
                    total_files += files;
                    let marker = Transid::dump_marker(ctx.node(), below);
                    ctx.flight(
                        marker.flight_id(),
                        FlightCause::TrailPurge {
                            files: files as u32,
                        },
                    );
                }
                ctx.count(counter!("audit.purged_files"), total_files);
                // The duplicate filter never reads the trail, so a purge
                // leaves it alone: a key goes when its volume's re-send
                // floor passes it.
                let r = AuditReply::Purged { files: total_files };
                self.replies.answer(ctx, owed, r);
            }
            AuditMsg::ReadTxnImages { transid } => {
                let mut images: Vec<ImageRecord> = Vec::new();
                for p in 0..self.parts.len() {
                    // unsorted: the sort below orders the lot, and a
                    // stable sort leaves equal sequences in trail order
                    self.with_trail(ctx, p, |t| images.extend(t.txn_records(transid)));
                    images.extend(
                        self.parts[p]
                            .buffer
                            .iter()
                            .filter(|r| r.transid == transid)
                            .cloned(),
                    );
                }
                images.sort_by_key(|r| r.seq);
                self.replies
                    .answer_uncached(ctx, owed, AuditReply::Images(images));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut PairCtx<'_, '_>, tag: u64) {
        if tag == 0 || tag > 2 * self.parts.len() as u64 {
            return;
        }
        let p = ((tag - 1) / 2) as usize;
        if tag % 2 == 1 {
            self.complete_force(ctx, p);
            return;
        }
        // the window ends: the boxcar armed it with a waiter on board, and
        // nothing but this firing starts its force
        debug_assert!(self.parts[p].window_armed && self.parts[p].force_in_progress.is_none());
        self.parts[p].window_armed = false;
        self.start_force(ctx, p);
    }

    fn on_takeover(&mut self, ctx: &mut PairCtx<'_, '_>) {
        // In-flight forces and their waiters died with the primary's
        // memory; this half has never served a request, so it holds none
        // of its own to discard. Requesters retransmit. The duplicate
        // filter came with the checkpoints, so nothing is rebuilt.
        ctx.count(counter!("audit.takeovers"), 1);
    }

    fn apply_checkpoint(&mut self, delta: AuditDelta, _cp: &Checkpointed) {
        match delta {
            AuditDelta::Append {
                answers,
                floor,
                partition,
                records,
            } => {
                if let Some((volume, floor)) = floor {
                    let keys = self.volume_keys(&volume, floor);
                    for r in records.iter() {
                        keys.insert(image_key(r), ());
                    }
                }
                let p = partition.min(self.parts.len() - 1);
                self.parts[p].buffer.extend(records.iter().cloned());
                self.replies.record(answers, AuditReply::Appended);
            }
            AuditDelta::Forced { partition, count } => {
                let p = partition.min(self.parts.len() - 1);
                let n = count.min(self.parts[p].buffer.len());
                self.parts[p].buffer.drain(..n);
                self.parts[p].forced_count += count as u64;
            }
        }
    }

    fn snapshot(&self) -> AuditSnapshot {
        AuditSnapshot {
            partitions: self
                .parts
                .iter()
                .map(|p| (p.buffer.clone(), p.forced_count))
                .collect(),
            replies: self.replies.entries(),
            filter: self.filter.clone(),
        }
    }

    fn restore(&mut self, s: AuditSnapshot, _cp: &Checkpointed) {
        for (i, (buffer, forced)) in s.partitions.into_iter().enumerate() {
            if let Some(p) = self.parts.get_mut(i) {
                p.buffer = buffer;
                p.forced_count = forced;
            }
        }
        self.replies.restore(s.replies);
        self.filter = s.filter;
    }

    fn on_cpu_down(&mut self, node: NodeId, cpu: CpuId) {
        self.replies.forget_cpu(node, cpu);
    }
}

/// Spawn `node`'s [`AUDIT_SERVICE`] pair and create its trail media (one
/// per partition) if absent.
pub fn spawn_audit_process(
    world: &mut World,
    node: encompass_sim::NodeId,
    cpu_primary: u8,
    cpu_backup: u8,
    cfg: AuditConfig,
) -> PairHandle {
    let stable = world.stable_mut();
    let trails: Vec<MediaId> = (0..cfg.partitions.max(1))
        .map(|p| {
            let trail = stable.id(&trail_key(node, p));
            stable.get_or_create_at(trail, || TrailMedia::new(cfg.rotate_every));
            trail
        })
        .collect();
    guardian::spawn_pair(world, node, cpu_primary, cpu_backup, move || {
        AuditProcess::new(cfg.clone(), trails.clone())
    })
}
