//! The `--soak` tier: simulated hours per seed.
//!
//! A soak run stretches one seed over at least one simulated hour,
//! structured as repeating fault *epochs*. Each epoch delivers one
//! CPU-kill/takeover wave, one rolling ONLINEDUMP generation on a drawn
//! node, and a restore; throughout, long-lived writer transactions (held
//! open across epochs) and long-lived snapshot readers (fences pinned
//! across fault waves, restarted on `SnapshotTooOld`) run alongside the
//! normal bank terminals. A quarter of seeds additionally run one
//! full-disaster drill: both mirrored drives of one volume fail
//! mid-traffic, and the volume is recovered with ROLLFORWARD from its
//! latest fuzzy archive while the survivors keep serving.
//!
//! On top of the oracles every tier runs (atomicity, conservation,
//! exactly-once, the drained world, bounded state and the timer census
//! on the final read, convergence), the soak tier evaluates two families
//! that only make sense over a long horizon — see [`crate::oracles`]:
//!
//! * **liveness** — purge floors advance, and every long-lived client
//!   finishes;
//! * **bounded state** at every epoch boundary — per-transid maps,
//!   snapshot-undo rings, reply caches, and stable-storage archive sets
//!   stay within their caps (a leak shows up as monotonic growth long
//!   before it hurts a short run), and no reply cache holds an answer
//!   below its requester's floor.

use crate::oracles::{
    bounded_violations, liveness_violations, state_observations, timer_violations, ClientStatus,
    PurgeFloorTrack, StateKind, StateObservation,
};
use crate::runner::{
    apply, bank_terminals, build_tmf, check_atomicity, check_conservation, check_convergence,
    check_exactly_once, check_final_read, end_run, heal_everything, launch_bank, live_cpu, observe,
    request_dumps, rollforward_from_registry, run_out, tmf_builder, RunReport, TierStats, ACCOUNTS,
};
use crate::schedule::{BankShape, ChaosAction, Schedule, SoakPlan};
use bytes::Bytes;
use encompass::workload::account_key;
use encompass_sim::{
    counter, Ctx, Fault, NodeId, Payload, Pid, Process, SimDuration, SimTime, SystemEvent, TimerId,
    World,
};
use encompass_storage::discprocess::{DiscError, DiscReply};
use encompass_storage::media::{
    archive_key, dump_registry_key, media_key, ArchiveImage, DumpRegistry, VolumeMedia,
};
use encompass_storage::types::{Transid, VolumeRef};
use encompass_storage::Catalog;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use tmf::session::{DbOp, SessionEvent, SessionOptions, TmfSession};
use tmf::state::AbortReason;

/// Snapshot-undo ring capacity while soaking: small enough that a
/// long-lived reader's fence falls off the ring within an epoch or two,
/// exercising the `SnapshotTooOld` restart path. The bounded-state
/// oracle reads it back off the run's config.
const SNAPSHOT_UNDO_CAPACITY: usize = 64;

/// How many epochs a soak writer holds its transaction open.
pub(crate) const WRITER_HOLD_EPOCHS: u64 = 2;

/// Play `plan` over the bank cluster `shape` to completion and evaluate
/// every oracle.
pub(crate) fn run(
    schedule: &Schedule,
    shape: &BankShape,
    plan: &SoakPlan,
    flight_recorder: bool,
) -> RunReport {
    let gap = plan.epoch_gap_us;
    let horizon = SimTime::from_micros(plan.epochs.len() as u64 * gap);
    let tmf = build_tmf(tmf_builder(schedule).snapshot_undo_capacity(SNAPSHOT_UNDO_CAPACITY));
    let snapshot_undo = tmf.snapshot_undo_capacity();
    // Terminals pace themselves over the horizon: cap the drawn think
    // time so each terminal's budget fits in ~60% of it, leaving the
    // run-out phase to absorb fault-induced restarts.
    let think_ms = plan
        .think_ms
        .min(horizon.as_millis() * 3 / 5 / shape.transactions_per_terminal.max(1));
    let (mut app, volumes) = launch_bank(
        schedule,
        shape,
        SimDuration::from_millis(think_ms.max(1)),
        tmf,
        flight_recorder,
    );

    // In (node, name) order the volumes are the accounts file's partition
    // slots: slot j covers accounts [ACCOUNTS*j/slots, ...), `vpn` to a node.
    let vpn = schedule.volumes_per_node.max(1);
    let drill: Option<(usize, usize)> = plan.disaster.map(|(e, s)| (e, s % volumes.len()));
    let drill_slot = drill.map(|(_, s)| s);

    // ---- long-lived soak clients ------------------------------------
    // One long-hold writer and one long-lived snapshot reader per node.
    // Writers never touch the drill volume: a transaction spanning the
    // outage could have flushed-and-evicted images wiped by the drive
    // loss yet commit after the drill's rollforward, which live media
    // would then be missing — the end-of-run convergence oracle (which
    // rolls forward again, with the commit on the trail) covers that
    // data; the in-run drill intentionally only recovers what had
    // settled by its own rollforward point.
    let hold = SimDuration::from_micros(gap.saturating_mul(WRITER_HOLD_EPOCHS));
    let pause = SimDuration::from_millis(plan.reader_pause_ms);
    let mut clients: Vec<ClientHandle> = Vec::new();
    for (i, &node) in app.nodes.iter().enumerate() {
        let slot = writer_slot(i, vpn, volumes.len(), drill_slot);
        let writer = ClientKind::Writer {
            slot,
            n_slots: volumes.len(),
            hold,
        };
        clients.push(spawn_client(
            &mut app.world,
            &app.catalog,
            node,
            writer,
            1,
            horizon,
        ));
        let reader = ClientKind::Reader { pause };
        clients.push(spawn_client(
            &mut app.world,
            &app.catalog,
            node,
            reader,
            1,
            horizon,
        ));
    }

    // ---- the epoch loop ---------------------------------------------
    let mut bounded_obs: Vec<StateObservation> = Vec::new();
    let mut timer_findings: Vec<String> = Vec::new();
    let mut floors: BTreeMap<String, PurgeFloorTrack> = BTreeMap::new();
    let mut drill_desc: Option<String> = None;
    let mut respawns = 0u64;
    let max_generation = plan.epochs.len() as u64 + 1;
    for (e, ep) in plan.epochs.iter().enumerate() {
        let base = e as u64 * gap;
        // the instant `pct` percent into this epoch
        let at = |pct: u64| SimTime::from_micros(base + gap * pct / 100);
        let drill_volume: Option<&VolumeRef> =
            drill.filter(|&(de, _)| de == e).map(|(_, s)| &volumes[s]);

        // kill wave at 15% — skipped when the drill owns this epoch's
        // node, so the lost volume's DISCPROCESS pair stays whole
        let kill_skipped = drill_volume.is_some_and(|v| v.node == ep.kill_node);
        if !kill_skipped {
            app.world.run_until(at(15));
            match &ep.kill_service {
                Some(svc) => apply(
                    &mut app.world,
                    &ChaosAction::KillServiceCpu {
                        node: ep.kill_node,
                        service: svc.clone(),
                    },
                ),
                None => {
                    if app.world.cpu_up(ep.kill_node, ep.kill_cpu) {
                        app.world.inject(Fault::KillCpu(ep.kill_node, ep.kill_cpu));
                    }
                }
            }
        }

        // disaster drill part 1 at 25%: both mirrored drives lost
        if let Some(v) = drill_volume {
            app.world.run_until(at(25));
            let key = media_key(v.node, &v.volume);
            if let Some(media) = app.world.stable_mut().get_mut::<VolumeMedia>(&key) {
                media.fail_drive(0);
                media.fail_drive(1);
            }
            app.world
                .metrics_mut()
                .add(counter!("chaos.drill_losses"), 1);
        }

        // rolling dump generation at 35% on the drawn node
        app.world.run_until(at(35));
        request_dumps(&mut app.world, &volumes, ep.dump_node, e as u64 + 1);

        // restore wave at 55%
        if !kill_skipped {
            app.world.run_until(at(55));
            apply(
                &mut app.world,
                &ChaosAction::RestoreDownCpus { node: ep.kill_node },
            );
        }

        // disaster drill part 2 at 75%: revive the drives and recover
        // the volume with ROLLFORWARD from its registry archive while
        // the rest of the cluster keeps serving
        if let Some(v) = drill_volume {
            app.world.run_until(at(75));
            let key = media_key(v.node, &v.volume);
            if let Some(media) = app.world.stable_mut().get_mut::<VolumeMedia>(&key) {
                media.revive_drive(0);
                media.revive_drive(1);
            }
            let generation = rollforward_from_registry(&mut app.world, v, &app.tmf);
            app.world
                .metrics_mut()
                .add(counter!("chaos.drill_recoveries"), 1);
            drill_desc = Some(format!(
                "epoch {e}: {}.{} lost both drives mid-traffic, rolled forward from \
                 archive generation {generation}",
                v.node, v.volume
            ));
        }

        // epoch-boundary reads (everything is healed by now)
        app.world
            .run_until(SimTime::from_micros(base + gap - 1_000_000));
        let seen = observe(&app.world, &app.tmf);
        state_observations(&seen, e, &mut bounded_obs);
        timer_findings.extend(timer_violations(&seen.timers));
        observe_stable_state(&app.world, &volumes, e, max_generation, &mut bounded_obs);
        track_purge_floors(&app.world, &volumes, &mut floors);

        app.world.run_until(at(100));
        // respawn soak clients that died with their processor (a plain
        // process does not survive a CPU kill); the replacement gets a
        // fresh key generation so its inserts never collide
        for idx in 0..clients.len() {
            let c = &clients[idx];
            if c.finished.borrow().is_none() && !app.world.is_alive(c.pid) {
                *c.finished.borrow_mut() = Some("died with its processor; respawned".to_string());
                respawns += 1;
                app.world
                    .metrics_mut()
                    .add(counter!("chaos.soak_respawns"), 1);
                let (node, kind, generation) = (c.node, c.kind, c.generation + 1);
                let replacement = spawn_client(
                    &mut app.world,
                    &app.catalog,
                    node,
                    kind,
                    generation,
                    horizon,
                );
                clients.push(replacement);
            }
        }
    }

    // ---- heal, run out the workload and the long-lived clients -------
    heal_everything(&mut app.world, &app.nodes);
    let mut violations = Vec::new();
    let step = SimDuration::from_secs(2);
    let stall_deadline = horizon + SimDuration::from_secs(900);
    run_out(
        &mut app.world,
        &app.nodes,
        bank_terminals(schedule, shape),
        step,
        stall_deadline,
        &mut violations,
    );
    // ... and the long-lived clients, on the same poll and deadline
    while app.world.now() < stall_deadline
        && !clients
            .iter()
            .all(|c| c.finished.borrow().is_some() || !app.world.is_alive(c.pid))
    {
        app.world.run_for(step);
    }
    // a client that died inside the final epoch has no boundary left to
    // respawn it; excuse it (its transactions are still covered by the
    // drained-world and atomicity oracles)
    for c in &clients {
        if c.finished.borrow().is_none() && !app.world.is_alive(c.pid) {
            *c.finished.borrow_mut() = Some("died in the final epoch".to_string());
        }
    }

    // ---- the end phase, and the soak's own final reads ---------------
    let seen = end_run(&mut app.world, &app.nodes, &app.tmf);
    observe_stable_state(
        &app.world,
        &volumes,
        usize::MAX,
        max_generation,
        &mut bounded_obs,
    );
    track_purge_floors(&app.world, &volumes, &mut floors);
    let m = app.world.metrics();
    let stats = TierStats::Soak {
        epochs: plan.epochs.len(),
        reader_restarts: m.get("chaos.reader_restarts"),
        writer_commits: m.get("chaos.soak_writer_commits"),
        client_respawns: respawns,
        drill: drill_desc,
    };
    let mut report = RunReport::read_out(schedule, &app.world, violations, stats);

    // ---- oracles ----------------------------------------------------
    let mut implicated: Vec<Transid> = Vec::new();
    let violations = &mut report.violations;
    check_atomicity(&app.world, &app.nodes, violations, &mut implicated);
    let tags = check_conservation(&mut app.world, &app.catalog, violations);
    check_exactly_once(&app.world, &app.nodes, shape, &tags, violations);
    check_final_read(&seen, snapshot_undo, violations, &mut implicated);
    let client_statuses: Vec<ClientStatus> = clients
        .iter()
        .map(|c| ClientStatus {
            name: c.name.clone(),
            finished: c.finished.borrow().clone(),
            last_state: c.last_state.borrow().clone(),
        })
        .collect();
    let floor_tracks: Vec<PurgeFloorTrack> = floors.into_values().collect();
    violations.extend(liveness_violations(&client_statuses, &floor_tracks));
    violations.extend(bounded_violations(&bounded_obs, snapshot_undo));
    violations.extend(timer_findings);
    check_convergence(&mut app.world, &volumes, &app.tmf, violations);
    report.finish(&app.world, &app.nodes, implicated, flight_recorder)
}

/// Pick the partition slot a node's long-hold writer works, preferring a
/// slot local to the node and never the drill volume's.
fn writer_slot(node_idx: usize, vpn: usize, slots: usize, drill: Option<usize>) -> usize {
    for j in node_idx * vpn..(node_idx + 1) * vpn {
        if Some(j) != drill {
            return j;
        }
    }
    (0..slots).find(|&j| Some(j) != drill).unwrap_or(0)
}

// ---------------------------------------------------------------------
// observations

/// Count the `archive:` keys each volume retains on stable storage —
/// the bounded-state check for satellite retention: rolling dump
/// generations must delete superseded archives.
fn observe_stable_state(
    world: &World,
    volumes: &[VolumeRef],
    epoch: usize,
    max_generation: u64,
    out: &mut Vec<StateObservation>,
) {
    for v in volumes {
        let count = (0..=max_generation)
            .filter(|&g| {
                world
                    .stable()
                    .get::<ArchiveImage>(&archive_key(v, g))
                    .is_some()
            })
            .count();
        out.push(StateObservation {
            process: "stable-storage".to_string(),
            epoch,
            kind: StateKind::ArchiveKeys {
                volume: format!("{}.{}", v.node, v.volume),
                count,
            },
        });
    }
}

/// Record each volume's dump-registry progress (generation and proven
/// purge floor) for the liveness oracle's floor-advance check.
fn track_purge_floors(
    world: &World,
    volumes: &[VolumeRef],
    floors: &mut BTreeMap<String, PurgeFloorTrack>,
) {
    for v in volumes {
        let Some(reg) = world.stable().get::<DumpRegistry>(&dump_registry_key(v)) else {
            continue;
        };
        let name = format!("{}.{}", v.node, v.volume);
        floors
            .entry(name.clone())
            .and_modify(|t| {
                t.last_generation = reg.generation;
                t.last_floor = reg.purge_floor;
            })
            .or_insert(PurgeFloorTrack {
                volume: name,
                first_generation: reg.generation,
                last_generation: reg.generation,
                first_floor: reg.purge_floor,
                last_floor: reg.purge_floor,
            });
    }
}

// ---------------------------------------------------------------------
// long-lived soak clients

#[derive(Clone, Copy)]
enum ClientKind {
    /// Works partition slot `slot` of `n_slots`, holding each transaction
    /// open for `hold`.
    Writer {
        slot: usize,
        n_slots: usize,
        hold: SimDuration,
    },
    /// Pauses `pause` between snapshot reads.
    Reader { pause: SimDuration },
}

struct ClientHandle {
    name: String,
    pid: Pid,
    node: NodeId,
    generation: u32,
    kind: ClientKind,
    finished: Rc<RefCell<Option<String>>>,
    last_state: Rc<RefCell<String>>,
}

/// Spawn one long-lived client on a live processor of `node`, to wind
/// down by `deadline`.
fn spawn_client(
    world: &mut World,
    catalog: &Catalog,
    node: NodeId,
    kind: ClientKind,
    generation: u32,
    deadline: SimTime,
) -> ClientHandle {
    let finished: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));
    let last_state = Rc::new(RefCell::new("spawned".to_string()));
    let (name, process): (String, Box<dyn Process>) = match kind {
        ClientKind::Writer {
            slot,
            n_slots,
            hold,
        } => {
            let low = ACCOUNTS * slot as u64 / n_slots as u64;
            let writer = SoakWriter {
                session: TmfSession::new(catalog.clone(), 7),
                key_prefix: format!(
                    "{}:w{}g{}",
                    String::from_utf8_lossy(&account_key(low)),
                    node.0,
                    generation
                ),
                attempt: 0,
                hold,
                deadline,
                state: WriterState::Idle,
                commits: 0,
                aborts: 0,
                finished: finished.clone(),
                last_state: last_state.clone(),
            };
            let name = format!("soak-writer[{node} slot {slot} g{generation}]");
            (name, Box::new(writer))
        }
        ClientKind::Reader { pause } => {
            let reader = SoakReader {
                session: TmfSession::new(catalog.clone(), 8),
                pause,
                deadline,
                step: node.0 as u64,
                reads: 0,
                restarts: 0,
                state: ReaderState::Idle,
                finished: finished.clone(),
                last_state: last_state.clone(),
            };
            (
                format!("soak-reader[{node} g{generation}]"),
                Box::new(reader),
            )
        }
    };
    ClientHandle {
        name,
        pid: world.spawn(node, live_cpu(world, node), process),
        node,
        generation,
        kind,
        finished,
        last_state,
    }
}

const TAG_HOLD: u64 = 1;
const TAG_RETRY: u64 = 2;
const TAG_PAUSE: u64 = 3;

#[derive(Clone, Copy, PartialEq)]
enum WriterState {
    Idle,
    WaitBegin,
    WaitInsert1,
    WaitInsert2,
    Holding,
    WaitEnd,
    WaitAbort,
    Done,
}

/// A long-hold writer: begins a transaction, inserts a balanced pair of
/// records (+7 / −7, so conservation is untouched) into its partition
/// slot, then sits on its locks for [`WRITER_HOLD_EPOCHS`] epochs before
/// committing — a transaction that spans fault epochs,
/// pins purge floors, and exercises multi-epoch lock retention. On any
/// failure it aborts, halves its hold, and retries with fresh keys.
struct SoakWriter {
    session: TmfSession,
    key_prefix: String,
    attempt: u64,
    hold: SimDuration,
    deadline: SimTime,
    state: WriterState,
    commits: u64,
    aborts: u64,
    finished: Rc<RefCell<Option<String>>>,
    last_state: Rc<RefCell<String>>,
}

impl SoakWriter {
    fn note(&self, s: String) {
        *self.last_state.borrow_mut() = s;
    }

    fn key(&self, leg: char) -> Bytes {
        Bytes::from(format!("{}.{}.{}", self.key_prefix, self.attempt, leg))
    }

    fn start_attempt(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.now() + SimDuration::from_secs(30) >= self.deadline {
            self.state = WriterState::Done;
            *self.finished.borrow_mut() =
                Some(format!("commits={} aborts={}", self.commits, self.aborts));
            self.note("done".to_string());
            ctx.exit();
            return;
        }
        self.attempt += 1;
        self.state = WriterState::WaitBegin;
        self.note(format!("beginning attempt {}", self.attempt));
        self.session.begin(ctx, SessionOptions::default());
    }

    /// Abort if a transaction is open, otherwise back off and retry.
    fn recover(&mut self, ctx: &mut Ctx<'_>) {
        if self.session.transid().is_some() && !self.session.busy() {
            self.state = WriterState::WaitAbort;
            self.note("aborting".to_string());
            self.session.abort(ctx, AbortReason::Voluntary);
        } else {
            self.state = WriterState::Idle;
            ctx.set_timer(SimDuration::from_secs(5), TAG_RETRY);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: SessionEvent) {
        match (self.state, ev) {
            (WriterState::WaitBegin, SessionEvent::Began { transid, .. }) => {
                self.state = WriterState::WaitInsert1;
                self.note(format!("in {transid}, inserting"));
                let refused = self.session.op(
                    ctx,
                    DbOp::Insert {
                        file: "accounts".into(),
                        key: self.key('a'),
                        value: Bytes::from_static(b"7"),
                    },
                );
                if let Some(ev) = refused {
                    self.on_event(ctx, ev);
                }
            }
            (
                WriterState::WaitInsert1,
                SessionEvent::OpDone {
                    reply: DiscReply::Ok,
                    ..
                },
            ) => {
                self.state = WriterState::WaitInsert2;
                let refused = self.session.op(
                    ctx,
                    DbOp::Insert {
                        file: "accounts".into(),
                        key: self.key('b'),
                        value: Bytes::from_static(b"-7"),
                    },
                );
                if let Some(ev) = refused {
                    self.on_event(ctx, ev);
                }
            }
            (
                WriterState::WaitInsert2,
                SessionEvent::OpDone {
                    reply: DiscReply::Ok,
                    ..
                },
            ) => {
                self.state = WriterState::Holding;
                let remaining = self.deadline.since(ctx.now()) - SimDuration::from_secs(25);
                let hold = self.hold.min(remaining).max(SimDuration::from_secs(1));
                self.note(format!(
                    "holding {} for {}s",
                    self.session
                        .transid()
                        .map(|t| t.to_string())
                        .unwrap_or_default(),
                    hold.as_millis() / 1000
                ));
                ctx.set_timer(hold, TAG_HOLD);
            }
            (_, SessionEvent::OpDone { .. }) => self.recover(ctx),
            (WriterState::WaitEnd, SessionEvent::Committed) => {
                self.commits += 1;
                ctx.count(counter!("chaos.soak_writer_commits"), 1);
                self.start_attempt(ctx);
            }
            (_, SessionEvent::Aborted) => {
                self.aborts += 1;
                ctx.count(counter!("chaos.soak_writer_aborts"), 1);
                // halve the hold so a fault-prone epoch converges on a
                // hold short enough to commit between waves
                self.hold = self
                    .hold
                    .min(SimDuration::from_micros(self.hold.as_micros() / 2))
                    .max(SimDuration::from_secs(10));
                self.state = WriterState::Idle;
                ctx.set_timer(SimDuration::from_secs(5), TAG_RETRY);
            }
            (_, SessionEvent::Failed { .. }) => self.recover(ctx),
            (_, SessionEvent::Began { .. }) | (_, SessionEvent::Committed) => {
                // stale event for a state we already left; ignore
            }
        }
    }
}

impl Process for SoakWriter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.subscribe_system();
        self.start_attempt(ctx);
    }

    fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
        self.session.on_system(ctx, ev);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if let Ok(Some(ev)) = self.session.accept(ctx, payload) {
            self.on_event(ctx, ev);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        match tag {
            TAG_HOLD => {
                if self.state == WriterState::Holding {
                    self.state = WriterState::WaitEnd;
                    self.note("ending".to_string());
                    self.session.end(ctx);
                }
            }
            TAG_RETRY => {
                if self.state != WriterState::Idle {
                    return;
                }
                if self.session.transid().is_some() {
                    self.recover(ctx);
                } else {
                    self.start_attempt(ctx);
                }
            }
            _ => {
                if let Some(ev) = self.session.on_timer(ctx, tag) {
                    self.on_event(ctx, ev);
                }
            }
        }
    }

    fn kind(&self) -> &'static str {
        "soak-writer"
    }
}

#[derive(Clone, Copy, PartialEq)]
enum ReaderState {
    Idle,
    WaitBegin,
    WaitRead,
    Pausing,
    WaitRestartAbort,
    WaitEnd,
    Done,
}

/// A long-lived snapshot reader: one read-only transaction held open
/// across fault epochs, snapshot-reading a rotating account every
/// [`crate::schedule::SoakPlan::reader_pause_ms`]. The small soak
/// snapshot-undo ring guarantees its pinned fences eventually fall off;
/// the reader then restarts the read-only transaction with a fresh
/// fence, counted as `chaos.reader_restarts`.
struct SoakReader {
    session: TmfSession,
    pause: SimDuration,
    deadline: SimTime,
    step: u64,
    reads: u64,
    restarts: u64,
    state: ReaderState,
    finished: Rc<RefCell<Option<String>>>,
    last_state: Rc<RefCell<String>>,
}

impl SoakReader {
    fn note(&self, s: String) {
        *self.last_state.borrow_mut() = s;
    }

    fn begin(&mut self, ctx: &mut Ctx<'_>) {
        self.state = ReaderState::WaitBegin;
        self.note("beginning read-only transaction".to_string());
        self.session.begin(ctx, SessionOptions::new().read_only());
    }

    fn finish_or_pause(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.now() + SimDuration::from_secs(10) >= self.deadline {
            if self.session.transid().is_some() && !self.session.busy() {
                self.state = ReaderState::WaitEnd;
                self.note("ending".to_string());
                self.session.end(ctx);
            } else {
                self.done(ctx);
            }
        } else {
            self.state = ReaderState::Pausing;
            ctx.set_timer(self.pause, TAG_PAUSE);
        }
    }

    fn done(&mut self, ctx: &mut Ctx<'_>) {
        self.state = ReaderState::Done;
        *self.finished.borrow_mut() =
            Some(format!("reads={} restarts={}", self.reads, self.restarts));
        self.note("done".to_string());
        ctx.exit();
    }

    fn read_next(&mut self, ctx: &mut Ctx<'_>) {
        self.state = ReaderState::WaitRead;
        let idx = (self.step * 37) % ACCOUNTS;
        self.step += 1;
        self.note(format!("snapshot-reading acct{idx:08}"));
        let refused = self.session.op(
            ctx,
            DbOp::Read {
                file: "accounts".into(),
                key: account_key(idx),
            },
        );
        if let Some(ev) = refused {
            self.on_event(ctx, ev);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: SessionEvent) {
        match (self.state, ev) {
            (ReaderState::WaitBegin, SessionEvent::Began { .. }) => self.read_next(ctx),
            (ReaderState::WaitRead, SessionEvent::OpDone { reply, .. }) => {
                if let DiscReply::Err(DiscError::SnapshotTooOld) = reply {
                    // the pinned fence fell off the snapshot-undo ring:
                    // restart the read-only transaction for a fresh one
                    self.restarts += 1;
                    ctx.count(counter!("chaos.reader_restarts"), 1);
                    self.state = ReaderState::WaitRestartAbort;
                    self.note("restarting on SnapshotTooOld".to_string());
                    self.session.abort(ctx, AbortReason::Voluntary);
                } else {
                    // values (and transient VolumeDown during a fault
                    // wave) are all fine — snapshot reads assert nothing
                    self.reads += 1;
                    self.finish_or_pause(ctx);
                }
            }
            (ReaderState::WaitRestartAbort, SessionEvent::Aborted) => self.begin(ctx),
            (ReaderState::WaitEnd, SessionEvent::Committed)
            | (ReaderState::WaitEnd, SessionEvent::Aborted) => self.done(ctx),
            (_, SessionEvent::Aborted) => {
                // aborted from outside (e.g. the TMP died with our
                // processor's transactions): begin anew or wind down
                if ctx.now() + SimDuration::from_secs(10) >= self.deadline {
                    self.done(ctx);
                } else {
                    self.begin(ctx);
                }
            }
            (_, SessionEvent::Failed { .. }) => {
                if self.session.transid().is_some() && !self.session.busy() {
                    self.state = ReaderState::WaitRestartAbort;
                    self.session.abort(ctx, AbortReason::Voluntary);
                } else {
                    self.state = ReaderState::Idle;
                    ctx.set_timer(SimDuration::from_secs(5), TAG_RETRY);
                }
            }
            _ => {}
        }
    }
}

impl Process for SoakReader {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.subscribe_system();
        self.begin(ctx);
    }

    fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
        self.session.on_system(ctx, ev);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if let Ok(Some(ev)) = self.session.accept(ctx, payload) {
            self.on_event(ctx, ev);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        match tag {
            TAG_PAUSE => {
                if self.state == ReaderState::Pausing {
                    if self.session.transid().is_some() {
                        self.read_next(ctx);
                    } else {
                        self.begin(ctx);
                    }
                }
            }
            TAG_RETRY => {
                if self.state == ReaderState::Idle {
                    if ctx.now() + SimDuration::from_secs(10) >= self.deadline {
                        self.done(ctx);
                    } else if self.session.transid().is_none() {
                        self.begin(ctx);
                    }
                }
            }
            _ => {
                if let Some(ev) = self.session.on_timer(ctx, tag) {
                    self.on_event(ctx, ev);
                }
            }
        }
    }

    fn kind(&self) -> &'static str {
        "soak-reader"
    }
}
