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
    counter, DetHashMap, DetHashSet, FlightCause, HistogramHandle, MediaId, Name, NodeId, Payload,
    Pid, SimTime, World,
};
use encompass_storage::audit_api::{AuditMsg, AuditReply, ImageRecord, AUDIT_SERVICE};
use encompass_storage::types::Transid;
use guardian::{Admitted, Checkpointed, Owed, PairApp, PairHandle, Served};
use std::collections::{BTreeMap, BTreeSet};

type PairCtx<'a, 'b> = guardian::PairCtx<'a, 'b, AuditDelta>;

/// Identity of one image record: duplicates arise when a DISCPROCESS
/// takeover re-sends retained images whose original append already
/// arrived. `seq` is only unique per volume, so the volume is part of
/// the key.
type ImageKey = (Transid, u64, NodeId, Name);

fn image_key(r: &ImageRecord) -> ImageKey {
    (r.transid, r.seq, r.volume.node, r.volume.volume.clone())
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

/// Cumulative bucket bounds for the boxcar-size histogram.
const BOXCAR_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32];
/// A boxcar this full forces at once, without waiting out its window: the
/// AUDITPROCESS counts force waiters, the TMP monitor-trail records.
pub const GROUP_COMMIT_MAX: usize = 64;
/// Replies remembered for retransmissions (see [`Served`]).
pub const REPLY_CAPACITY: usize = 8192;

/// Configuration for one AUDITPROCESS.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Trail-file rotation threshold (records per file).
    pub rotate_every: usize,
    /// How long to hold an eligible force open so that later requesters can
    /// board the same boxcar (up to [`GROUP_COMMIT_MAX`] waiters). Zero
    /// forces as soon as one waiter is queued.
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
    /// Remembered replies (bounded by [`REPLY_CAPACITY`]).
    pub reply_cache: usize,
    /// Requests admitted and not yet answered: each is a fanned-out force,
    /// so this equals `pending_forces`.
    pub pending_requests: usize,
}

/// Checkpoint deltas sent from the primary to the backup.
pub enum AuditDelta {
    Append {
        /// The append request this delta answers. Only the first of an
        /// append's per-partition deltas carries it: a backup records each
        /// reply once.
        answers: Option<u64>,
        partition: usize,
        records: Vec<ImageRecord>,
    },
    Forced {
        partition: usize,
        count: usize,
    },
}

pub struct AuditSnapshot {
    /// Per partition: (buffer, forced_count).
    partitions: Vec<(Vec<ImageRecord>, u64)>,
    replies: Vec<(u64, AuditReply)>,
}

/// One trail partition's force machinery.
struct Partition {
    /// Appended but not yet forced.
    buffer: Vec<ImageRecord>,
    /// Total records forced to this partition's trail over all time.
    forced_count: u64,
    force_in_progress: Option<usize>,
    /// Deadline of the window timer armed for the boxcar now
    /// accumulating. A firing before this deadline is a *stale* timer
    /// from an earlier, max-filled boxcar and must be ignored — closing
    /// the new boxcar early would defeat the group-commit window.
    /// Primary-memory only: the timer dies with the primary, and
    /// retransmitted requests re-arm it after a takeover.
    window_deadline: Option<SimTime>,
    waiters: Vec<Waiter>,
}

impl Partition {
    fn new() -> Partition {
        Partition {
            buffer: Vec::new(),
            forced_count: 0,
            force_in_progress: None,
            window_deadline: None,
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
    /// Keys of every record on the trails or in the buffers; `None` until
    /// first needed (rebuilt by scanning the trails after a takeover).
    seen: Option<DetHashSet<ImageKey>>,
    boxcar_hist: HistogramHandle,
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
            replies: Served::new(REPLY_CAPACITY),
            seen: None,
            boxcar_hist: HistogramHandle::new("audit.boxcar_size", BOXCAR_BOUNDS),
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

    /// Drop records already on a trail or in a buffer.
    fn dedup(&mut self, ctx: &mut PairCtx<'_, '_>, records: Vec<ImageRecord>) -> Vec<ImageRecord> {
        if self.seen.is_none() {
            let mut s: DetHashSet<ImageKey> = DetHashSet::default();
            for p in 0..self.parts.len() {
                self.with_trail(ctx, p, |t| {
                    for f in &t.files {
                        for r in &f.records {
                            s.insert(image_key(r));
                        }
                    }
                });
            }
            for part in &self.parts {
                for r in &part.buffer {
                    s.insert(image_key(r));
                }
            }
            self.seen = Some(s);
        }
        let seen = self.seen.as_mut().expect("built above");
        let before = records.len();
        let fresh: Vec<ImageRecord> = records
            .into_iter()
            .filter(|r| seen.insert(image_key(r)))
            .collect();
        ctx.count(
            counter!("audit.duplicate_records"),
            (before - fresh.len()) as u64,
        );
        fresh
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

    /// Partitions currently buffering records of `transid`.
    fn parts_buffering(&self, transid: Transid) -> Vec<usize> {
        (0..self.parts.len())
            .filter(|&p| self.parts[p].buffer.iter().any(|r| r.transid == transid))
            .collect()
    }

    /// Partitions with anything buffered at all.
    fn parts_nonempty(&self) -> Vec<usize> {
        (0..self.parts.len())
            .filter(|&p| !self.parts[p].buffer.is_empty())
            .collect()
    }

    /// Fan a force request out to `targets`, each partition completing
    /// when everything it currently buffers is on its trail.
    fn enqueue_force(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        owed: Owed,
        r: AuditReply,
        transid: Option<Transid>,
        targets: Vec<usize>,
    ) {
        if targets.is_empty() {
            // nothing to force (e.g. an append fully deduplicated away)
            self.replies.answer(ctx, owed, r);
            return;
        }
        if let Some(t) = transid {
            ctx.flight(t.flight_id(), FlightCause::AuditForceStart);
        }
        let force = owed.id();
        self.pending.insert(
            force,
            PendingForce {
                owed,
                reply: r,
                remaining: targets.len(),
                transid,
            },
        );
        for p in targets {
            let needed = self.parts[p].forced_count + self.parts[p].buffer.len() as u64;
            self.parts[p].waiters.push(Waiter {
                force,
                needed,
                transid,
            });
            self.maybe_start_force(ctx, p);
        }
    }

    fn maybe_start_force(&mut self, ctx: &mut PairCtx<'_, '_>, p: usize) {
        let part = &self.parts[p];
        if part.force_in_progress.is_some() || part.buffer.is_empty() || part.waiters.is_empty() {
            return;
        }
        if self.cfg.group_commit_window > encompass_sim::SimDuration::ZERO
            && part.waiters.len() < GROUP_COMMIT_MAX
        {
            // hold the boxcar open for late boarders; the recorded
            // deadline lets on_timer ignore stale firings from earlier,
            // max-filled boxcars
            if part.window_deadline.is_none() {
                let deadline = ctx.now() + self.cfg.group_commit_window;
                self.parts[p].window_deadline = Some(deadline);
                ctx.set_timer(self.cfg.group_commit_window, tag_window(p));
            }
            return;
        }
        self.start_force(ctx, p);
    }

    fn start_force(&mut self, ctx: &mut PairCtx<'_, '_>, p: usize) {
        self.parts[p].window_deadline = None;
        let upto = self.parts[p].buffer.len();
        self.parts[p].force_in_progress = Some(upto);
        ctx.count(counter!("audit.force_started"), 1);
        let will_force = self.parts[p].forced_count + upto as u64;
        let boarding: Vec<Transid> = self.parts[p]
            .waiters
            .iter()
            .filter(|w| w.needed <= will_force)
            .filter_map(|w| w.transid)
            .collect();
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
        let batch: Vec<ImageRecord> = self.parts[p].buffer.drain(..upto).collect();
        ctx.count(counter!("audit.forces"), 1);
        ctx.count(counter!("audit.forced_records"), batch.len() as u64);
        ctx.count(counter!("audit.group_size_total"), batch.len() as u64);
        self.with_trail(ctx, p, |t| t.force(batch));
        self.parts[p].forced_count += upto as u64;
        ctx.checkpoint(AuditDelta::Forced {
            partition: p,
            count: upto,
        });
        // satisfy waiters
        let forced = self.parts[p].forced_count;
        let (done, rest): (Vec<Waiter>, Vec<Waiter>) = self.parts[p]
            .waiters
            .drain(..)
            .partition(|w| w.needed <= forced);
        self.parts[p].waiters = rest;
        // an append-only force (no waiter satisfied) is not a boxcar:
        // observing 0 here would skew the group-size mean
        if !done.is_empty() {
            ctx.observe_handle(&self.boxcar_hist, done.len() as u64);
        }
        let boxcar = done.len() as u32;
        for w in done {
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
            AuditMsg::Append { records, force } => {
                ctx.count(counter!("audit.appends"), 1);
                let records = self.dedup(ctx, records);
                ctx.count(counter!("audit.records"), records.len() as u64);
                let mut split: BTreeMap<usize, Vec<ImageRecord>> = BTreeMap::new();
                for r in records {
                    let p = self.partition_of(&r.volume.volume);
                    split.entry(p).or_default().push(r);
                }
                // an append that deduplicated away entirely still
                // checkpoints once, so the backup replicates the reply
                if split.is_empty() {
                    split.insert(0, Vec::new());
                }
                let mut per_txn: BTreeMap<Transid, u32> = BTreeMap::new();
                let mut answers = Some(owed.id());
                for (p, recs) in split {
                    ctx.checkpoint(AuditDelta::Append {
                        answers: answers.take(),
                        partition: p,
                        records: recs.clone(),
                    });
                    for r in &recs {
                        *per_txn.entry(r.transid).or_insert(0) += 1;
                    }
                    self.parts[p].buffer.extend(recs);
                }
                for (t, n) in per_txn {
                    ctx.flight(t.flight_id(), FlightCause::AuditAppend { records: n });
                }
                if force {
                    // a forced append is a flush barrier: everything
                    // queued before it, on every partition, must land
                    let targets = self.parts_nonempty();
                    self.enqueue_force(ctx, owed, AuditReply::Appended, None, targets);
                } else {
                    self.replies.answer(ctx, owed, AuditReply::Appended);
                }
            }
            AuditMsg::ForceTxn { transid } => {
                ctx.count(counter!("audit.force_txn"), 1);
                let targets = self.parts_buffering(transid);
                self.enqueue_force(ctx, owed, AuditReply::Forced, Some(transid), targets);
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
                    let oldest_open = self.with_trail(ctx, p, |t| {
                        t.files
                            .iter()
                            .flat_map(|f| f.records.iter())
                            .filter(|r| open.contains(&r.transid))
                            .map(|r| r.seq)
                            .min()
                    });
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
                // The seen-set (if built) still names purged records; that
                // is harmless — it only makes dedup drop re-sent copies of
                // records the capacity manager proved dispensable.
                let r = AuditReply::Purged { files: total_files };
                self.replies.answer(ctx, owed, r);
            }
            AuditMsg::ReadTxnImages { transid } => {
                let mut images: Vec<ImageRecord> = Vec::new();
                for p in 0..self.parts.len() {
                    images.extend(self.with_trail(ctx, p, |t| t.txn_images(transid)));
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
        // window firing: ignore stale timers armed for an earlier boxcar
        // (one that filled to GROUP_COMMIT_MAX and forced before its
        // window elapsed) — the accumulating boxcar deserves its own full
        // window
        match self.parts[p].window_deadline {
            Some(deadline) if ctx.now() >= deadline => {
                self.parts[p].window_deadline = None;
                if self.parts[p].force_in_progress.is_none()
                    && !self.parts[p].buffer.is_empty()
                    && !self.parts[p].waiters.is_empty()
                {
                    self.start_force(ctx, p);
                }
            }
            _ => ctx.count(counter!("audit.stale_window_ignored"), 1),
        }
    }

    fn on_takeover(&mut self, ctx: &mut PairCtx<'_, '_>) {
        // In-flight forces, their waiters and the seen-set died with the
        // primary's memory; this half has never served a request, so it
        // holds none of its own to discard. Requesters retransmit, and
        // the seen-set is rebuilt from the trails and buffers on the next
        // append.
        ctx.count(counter!("audit.takeovers"), 1);
    }

    fn apply_checkpoint(&mut self, delta: AuditDelta, _cp: &Checkpointed) {
        match delta {
            AuditDelta::Append {
                answers,
                partition,
                records,
            } => {
                let p = partition.min(self.parts.len() - 1);
                self.parts[p].buffer.extend(records);
                if let Some(req_id) = answers {
                    self.replies.record(req_id, AuditReply::Appended);
                }
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
