//! The suspense monitor as a process pair.
//!
//! "A dedicated process, called the 'suspense monitor', scans the suspense
//! file looking for work to do." The original hand-wired monitor was a
//! plain process: a processor failure silenced the drain until the run
//! ended. Here it is a **guardian pair** registered as
//! [`SUSPENSE_SERVICE`] (`$SUSPENSE`): the primary drains, checkpoints
//! drain progress to the backup, and a takeover resumes scanning the
//! durable suspense file — in-flight apply transactions are backed out by
//! TMF exactly like any other client death, so per-destination order is
//! never broken.
//!
//! Each cycle the primary reads the earliest pending entry per
//! destination; for the first destination that is currently reachable it
//! runs one TMF transaction that:
//!
//! 1. read-locks the replica record at the destination and installs the
//!    deferred value (insert or update),
//! 2. read-locks and deletes the suspense entry at home,
//! 3. commits.
//!
//! One poll timer drives the scans: `on_primary_start` arms it (at spawn
//! and after a takeover), each firing scans if idle and re-arms it, and a
//! scan that finds no work just goes idle until the next firing — so a
//! primary holds exactly one armed [`TAG_POLL`] timer.
//!
//! Applying in entry order per destination is transid order: entries were
//! appended by the master transactions in commit order. A destination
//! behind a partition simply blocks its own queue ([`Ctx::reachable`](encompass_sim::Ctx::reachable)
//! gating) while other destinations keep draining — the paper's node
//! autonomy — and after the partition heals the backlog drains to zero,
//! which the chaos drain-liveness oracle enforces.

use crate::suspense::{
    suspense_file, ReplicaNames, SuspenseDelta, SuspenseRecord, SUSPENSE_SERVICE,
};
use encompass_sim::{counter, Name, NodeId, Payload, Pid, SimDuration, SystemEvent, World};
use encompass_storage::discprocess::DiscReply;
use encompass_storage::types::{key_num, num_key};
use encompass_storage::Catalog;
use guardian::{Cadence, Checkpointed, PairApp, PairHandle};
use tmf::session::{DbOp, SessionEvent, SessionOptions, TmfSession};
use tmf::state::AbortReason;

type PairCtx<'a, 'b> = guardian::PairCtx<'a, 'b, SuspenseDelta>;

/// The one poll timer's tag: a primary keeps exactly one armed.
pub const TAG_POLL: u64 = 1;
/// Scan cadence while idle. The poll ticks whether or not the file holds
/// anything: a commit writes the records, and nothing tells the monitor
/// (DESIGN.md §D31).
const POLL: SimDuration = SimDuration::from_millis(100);
/// `ReadRange` page size per scan.
const SCAN_BATCH: usize = 64;

/// Full state for (re)initializing a backup: the drain progress.
pub struct SuspenseSnapshot {
    applied: u64,
    pending: u64,
}

#[derive(PartialEq, Debug, Clone, Copy)]
enum MonState {
    Idle,
    Scanning,
    Beginning,
    EnsuringRemote,
    LockingReplica,
    WritingReplica,
    LockingEntry,
    Deleting,
    Ending,
    Aborting,
}

/// The suspense monitor pair application.
pub struct SuspenseMonitorApp {
    /// The suspense file of the node this monitor drains.
    suspense_file: Name,
    /// The replicated files its records name, each named once.
    names: ReplicaNames,
    session: TmfSession,
    state: MonState,
    /// The poll's clock, re-armed at every firing.
    poll: Cadence,
    /// The entry being applied: its number, the record, and the replica
    /// file at the record's destination.
    current: Option<(u64, SuspenseRecord, Name)>,
    // --- drain progress, checkpointed to the backup ---
    applied: u64,
    pending: u64,
}

impl SuspenseMonitorApp {
    pub fn new(node: NodeId, catalog: Catalog) -> SuspenseMonitorApp {
        SuspenseMonitorApp {
            suspense_file: suspense_file(node),
            names: ReplicaNames::default(),
            session: TmfSession::new(catalog, 2),
            state: MonState::Idle,
            poll: Cadence::new(POLL, TAG_POLL),
            current: None,
            applied: 0,
            pending: 0,
        }
    }

    /// Entries still in the suspense file at the last scan.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Deferred updates applied (and deleted) since the pair started.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Go idle until the next poll.
    fn go_idle(&mut self) {
        self.state = MonState::Idle;
        self.current = None;
    }

    fn scan(&mut self, ctx: &mut PairCtx<'_, '_>) {
        let op = DbOp::ReadRange {
            file: self.suspense_file.clone(),
            low: num_key(0),
            high: None,
            limit: SCAN_BATCH,
        };
        self.issue(ctx, MonState::Scanning, op);
    }

    /// A retryable failure: back out if in transaction mode, else go idle.
    fn retry(&mut self, ctx: &mut PairCtx<'_, '_>) {
        ctx.count(counter!("suspense.retries"), 1);
        if self.session.transid().is_some() && !self.session.busy() {
            self.state = MonState::Aborting;
            self.session.abort(ctx, AbortReason::Restart);
        } else {
            self.go_idle();
        }
    }

    /// Move to `next` and issue `op`; a refused op is a retryable failure.
    fn issue(&mut self, ctx: &mut PairCtx<'_, '_>, next: MonState, op: DbOp) {
        self.state = next;
        if let Some(SessionEvent::Failed { .. }) = self.session.op(ctx, op) {
            self.retry(ctx);
        }
    }

    fn lock_replica(&mut self, ctx: &mut PairCtx<'_, '_>) {
        let (_, rec, replica) = self.current.as_ref().expect("work chosen");
        let op = DbOp::ReadLock {
            file: replica.clone(),
            key: rec.key.clone(),
        };
        self.issue(ctx, MonState::LockingReplica, op);
    }

    fn on_event(&mut self, ctx: &mut PairCtx<'_, '_>, ev: SessionEvent) {
        match (self.state, ev) {
            (MonState::Scanning, SessionEvent::OpDone { reply, .. }) => {
                let DiscReply::Entries(entries) = reply else {
                    self.go_idle();
                    return;
                };
                self.pending = entries.len() as u64;
                ctx.checkpoint(SuspenseDelta::Scanned {
                    pending: self.pending,
                });
                // earliest entry per destination, in entry (= transid) order
                let mut chosen: Option<(u64, SuspenseRecord, Name)> = None;
                let mut seen_dests: Vec<NodeId> = Vec::new();
                for (k, v) in &entries {
                    let Some(entry) = key_num(k) else { continue };
                    let Some(rec) = SuspenseRecord::decode_named(v, &mut self.names) else {
                        continue;
                    };
                    if seen_dests.contains(&rec.dest) {
                        continue; // a younger entry for this dest must wait
                    }
                    seen_dests.push(rec.dest);
                    if chosen.is_none() && ctx.reachable(rec.dest) {
                        let replica = self.names.replica(&rec.file, rec.dest);
                        chosen = Some((entry, rec, replica));
                    }
                }
                match chosen {
                    Some(work) => {
                        ctx.count(counter!("suspense.picked"), 1);
                        self.current = Some(work);
                        self.state = MonState::Beginning;
                        self.session.begin(ctx, SessionOptions::default());
                    }
                    None => self.go_idle(),
                }
            }
            (MonState::Beginning, SessionEvent::Began { .. }) => {
                // remote transaction begin precedes the first transmission
                // of the transid to the destination node
                let dest = self.current.as_ref().expect("work chosen").1.dest;
                let my_node = ctx.node();
                if self.session.needs_remote(my_node, dest) {
                    self.state = MonState::EnsuringRemote;
                    self.session.ensure_remote(ctx, dest);
                    return;
                }
                self.lock_replica(ctx);
            }
            (MonState::EnsuringRemote, SessionEvent::OpDone { .. }) => {
                self.lock_replica(ctx);
            }
            (MonState::LockingReplica, SessionEvent::OpDone { reply, .. }) => {
                if let DiscReply::Value(existing) = reply {
                    let (_, rec, replica) = self.current.as_ref().expect("work chosen");
                    let (file, key, value) = (replica.clone(), rec.key.clone(), rec.value.clone());
                    let op = match existing {
                        Some(_) => DbOp::Update { file, key, value },
                        None => DbOp::Insert { file, key, value },
                    };
                    self.issue(ctx, MonState::WritingReplica, op);
                } else {
                    self.retry(ctx);
                }
            }
            (MonState::WritingReplica, SessionEvent::OpDone { reply, .. }) => {
                if let DiscReply::Ok = reply {
                    let entry = self.current.as_ref().expect("work chosen").0;
                    let op = DbOp::ReadLock {
                        file: self.suspense_file.clone(),
                        key: num_key(entry),
                    };
                    self.issue(ctx, MonState::LockingEntry, op);
                } else {
                    self.retry(ctx);
                }
            }
            (MonState::LockingEntry, SessionEvent::OpDone { reply, .. }) => {
                if let DiscReply::Value(_) = reply {
                    let entry = self.current.as_ref().expect("work chosen").0;
                    let op = DbOp::Delete {
                        file: self.suspense_file.clone(),
                        key: num_key(entry),
                    };
                    self.issue(ctx, MonState::Deleting, op);
                } else {
                    self.retry(ctx);
                }
            }
            (MonState::Deleting, SessionEvent::OpDone { reply, .. }) => {
                if let DiscReply::Ok = reply {
                    self.state = MonState::Ending;
                    self.session.end(ctx);
                } else {
                    self.retry(ctx);
                }
            }
            (MonState::Ending, SessionEvent::Committed) => {
                let (entry, rec, _) = self.current.take().expect("work chosen");
                ctx.count(counter!("suspense.applied"), 1);
                self.applied += 1;
                self.pending = self.pending.saturating_sub(1);
                ctx.checkpoint(SuspenseDelta::Applied {
                    dest: rec.dest,
                    entry,
                });
                // look for more work immediately
                self.state = MonState::Idle;
                self.scan(ctx);
            }
            (_, SessionEvent::Aborted) | (_, SessionEvent::Failed { .. }) => {
                self.retry(ctx);
            }
            _ => self.go_idle(),
        }
    }
}

impl PairApp for SuspenseMonitorApp {
    type Delta = SuspenseDelta;
    type Snapshot = SuspenseSnapshot;

    fn service_name(&self) -> Name {
        Name::from_static(SUSPENSE_SERVICE)
    }

    fn kind(&self) -> &'static str {
        "suspense-monitor"
    }

    /// At spawn and again after a takeover: start the one poll chain.
    fn on_primary_start(&mut self, ctx: &mut PairCtx<'_, '_>) {
        self.poll.start(ctx);
        self.poll.arm(ctx);
    }

    fn on_request(&mut self, ctx: &mut PairCtx<'_, '_>, _src: Pid, payload: Payload) {
        if let Ok(Some(ev)) = self.session.accept(ctx, payload) {
            self.on_event(ctx, ev);
        }
    }

    fn on_timer(&mut self, ctx: &mut PairCtx<'_, '_>, tag: u64) {
        if self.poll.fired(tag) {
            if self.state == MonState::Idle {
                self.scan(ctx);
            }
            self.poll.arm(ctx);
            return;
        }
        if let Some(ev) = self.session.on_timer(ctx, tag) {
            self.on_event(ctx, ev);
        }
    }

    fn on_system(&mut self, ctx: &mut PairCtx<'_, '_>, ev: SystemEvent) {
        self.session.on_system(ctx, ev);
    }

    fn on_takeover(&mut self, ctx: &mut PairCtx<'_, '_>) {
        // the in-flight apply transaction (if any) dies with the old
        // primary and is backed out by TMF; the durable suspense file is
        // the work list, so the next poll resumes the drain in order
        ctx.count(counter!("suspense.takeovers"), 1);
        self.go_idle();
        self.session.clear();
    }

    fn apply_checkpoint(&mut self, delta: SuspenseDelta, _cp: &Checkpointed) {
        match delta {
            SuspenseDelta::Applied { .. } => {
                self.applied += 1;
                self.pending = self.pending.saturating_sub(1);
            }
            SuspenseDelta::Scanned { pending } => self.pending = pending,
        }
    }

    fn snapshot(&self) -> SuspenseSnapshot {
        SuspenseSnapshot {
            applied: self.applied,
            pending: self.pending,
        }
    }

    fn restore(&mut self, s: SuspenseSnapshot, _cp: &Checkpointed) {
        self.applied = s.applied;
        self.pending = s.pending;
    }
}

/// Spawn a suspense monitor pair on `node` (primary on `cpu_primary`,
/// backup on `cpu_backup`).
pub fn spawn_suspense_monitor(
    world: &mut World,
    node: NodeId,
    cpu_primary: u8,
    cpu_backup: u8,
    catalog: Catalog,
) -> PairHandle {
    guardian::spawn_pair(world, node, cpu_primary, cpu_backup, move || {
        SuspenseMonitorApp::new(node, catalog.clone())
    })
}
