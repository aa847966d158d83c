//! Run one schedule end-to-end and check every TMF invariant.
//!
//! [`run_schedule_with`] is the one way in: it dispatches on the
//! schedule's [`FaultPlan`] to a driver — `run_sweep` here, `soak::run`,
//! `shard::run` — and every driver hands back the same [`RunReport`]. A
//! driver owns its fault plan; the phases around it are written once,
//! below the sweep driver. A run proceeds in deterministic phases:
//!
//! 1. build the schedule's workload and, over the bank cluster, snapshot
//!    a generation-0 archive of every volume (the
//!    preload writes the account records straight to the media, bypassing
//!    TMF, so the audit trail alone cannot reproduce them — exactly like
//!    a real pre-TMF bulk load followed by an online dump);
//! 2. play the fault timeline, resolving name-addressed actions against
//!    the live world, and take the timer census (`census`) at each
//!    event's instant, before the event;
//! 3. heal everything and run the workload out (the driver's own
//!    run-out: the soak also waits for its long-lived clients, the shard
//!    tier for its suspense drain);
//! 4. the one end phase (`end_run`): flush every AUDITPROCESS buffer,
//!    let the safe-delivery tail (phase 2, abort notifications, backouts)
//!    drain, then settle: read every TMP, AUDITPROCESS and DISCPROCESS
//!    and the kernel's armed timers at one instant (`observe`) and, while
//!    the drained-world oracle finds something, advance 1 ms and read
//!    again, for at most 1 s. The last read is the run's final one;
//! 5. read the counters, then evaluate the oracles.
//!
//! The oracles are the paper's own guarantees:
//!
//! * **atomicity** — a transid's outcome must agree across every node's
//!   Monitor Audit Trail (committed everywhere or aborted everywhere);
//! * **conservation** — debits move money, so
//!   `initial_total - sum(history amounts) == final_total`, which only
//!   holds if backout undid the history appends of every aborted
//!   transaction and phase 2 landed every committed one;
//! * **exactly-once** — each terminal's logical transaction commits once:
//!   no two history records carry the same debit tag, and each
//!   read-write terminal has as many records as its TCP counts commits;
//! * **drained world** — on the final read every TMP, AUDITPROCESS and
//!   DISCPROCESS has a primary that holds no transaction, boxcar, call,
//!   buffered image, waiter, lock or unanswered request; the same read is
//!   held to the bounded-state caps and the timer census, in every tier
//!   (`check_final_read`);
//! * **durability / convergence** — ROLLFORWARD from the generation-0
//!   archive plus the audit trails rebuilds media byte-identical to the
//!   live volumes, i.e. every committed transaction survives recovery
//!   from total node failure and nothing uncommitted does.

use crate::oracles::{
    bounded_violations, drained_violations, exactly_once_violations, state_observations,
    timer_violations, TerminalCommits, TimerCensus,
};
use crate::schedule::{
    BankShape, ChaosAction, FaultPlan, Schedule, ScheduledDump, Timeline, Workload, CPUS_PER_NODE,
};
use bytes::Bytes;
use encompass::app::{launch_bank_app, tcp_name, AppHandles, BankAppParams};
use encompass::tcp::TerminalControlProcess;
use encompass::workload::{history_records, total_balance, DebitTag};
use encompass_audit::auditprocess::{AuditProcess, AuditStateReport};
use encompass_audit::dump::request_dump;
use encompass_audit::monitor::{monitor_key, MonitorTrail};
use encompass_audit::rollforward::{archive_generation_zero, rollforward_volume};
use encompass_sim::{
    format_timeline, CpuId, DetHashMap, Fault, FlightEvent, FlightTransid, Members, Name, NodeId,
    Pid, SimConfig, SimDuration, SimTime, World,
};
use encompass_storage::audit_api::{AuditMsg, AuditReply, AUDIT_SERVICE};
use encompass_storage::discprocess::{DiscProcess, DiscStateReport};
use encompass_storage::media::{
    dump_registry_key, media_key, DumpRegistry, FileImage, VolumeMedia,
};
use encompass_storage::types::{Transid, VolumeRef};
use guardian::{ask, PairApp, PairHandle, Target};
use std::collections::BTreeMap;
use tmf::facility::{trail_key_of, NodeHandles, TmfNodeConfig, TmfNodeConfigBuilder};
use tmf::tmp::{TmpProcess, TmpStateReport};

/// Accounts preloaded per run (balance 1000 each).
pub(crate) const ACCOUNTS: u64 = 120;

/// What one chaos run produced, whatever its fault plan.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub seed: u64,
    /// The determinism hash: same seed ⇒ same hash, always.
    pub trace_hash: u64,
    pub commits: u64,
    pub aborts: u64,
    pub takeover_commit_completions: u64,
    /// Online dumps that completed (archive + registry durable).
    pub dumps_completed: u64,
    /// Trail files dropped by the TMP's capacity-purge pass.
    pub purged_trail_files: u64,
    pub end_ms: u64,
    pub violations: Vec<String>,
    /// Transids implicated in oracle failures (atomicity disagreements
    /// and transactions leaked in a TMP table), as display strings.
    pub implicated: Vec<String>,
    /// Flight-recorder artifacts; `Some` only on recorder-enabled runs.
    pub flight: Option<FlightDump>,
    /// What only the schedule's fault plan tallies.
    pub tier: TierStats,
}

/// The fault-plan-specific tallies of a [`RunReport`].
#[derive(Clone, Debug)]
pub enum TierStats {
    Sweep,
    Soak {
        /// Soak epochs played.
        epochs: usize,
        /// Read-only transactions restarted on `SnapshotTooOld`.
        reader_restarts: u64,
        /// Long-hold writer commits.
        writer_commits: u64,
        /// Soak clients respawned after dying with their processor.
        client_respawns: u64,
        /// `Some(description)` when the full-disaster drill ran.
        drill: Option<String>,
    },
    Shards {
        /// Deferred updates the suspense monitors applied to replicas.
        applied: u64,
        /// `$SUSPENSE` takeovers (nonzero whenever the monitor-kill landed).
        takeovers: u64,
    },
}

/// What a recorder-enabled run exports for post-mortems.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// The full recorder export — the `flightrec.json` payload.
    pub json: String,
    /// Rendered per-transaction timelines of the implicated transids.
    pub timelines: Vec<String>,
    /// Merged per-transaction event timelines, every transaction.
    pub timelines_by_txn: BTreeMap<FlightTransid, Vec<FlightEvent>>,
    /// Transids the Monitor Audit Trails record as committed.
    pub committed: Vec<FlightTransid>,
}

impl RunReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn summary_line(&self) -> String {
        let (seed, hash, commits, aborts, end_ms) = (
            self.seed,
            self.trace_hash,
            self.commits,
            self.aborts,
            self.end_ms,
        );
        let verdict = if self.ok() {
            "ok".to_string()
        } else {
            format!("FAIL ({})", self.violations.len())
        };
        match &self.tier {
            TierStats::Sweep => format!(
                "seed {seed:>6}  hash {hash:016x}  commits {commits:>4}  aborts {aborts:>3}  \
                 t_end {end_ms:>6}ms  {verdict}"
            ),
            TierStats::Soak {
                epochs,
                reader_restarts,
                writer_commits,
                drill,
                ..
            } => format!(
                "seed {seed:>6}  hash {hash:016x}  commits {commits:>5}  aborts {aborts:>4}  \
                 t_end {end_ms:>8}ms  epochs {epochs}  restarts {reader_restarts:>2}  \
                 holds {writer_commits:>3}  {}{verdict}",
                if drill.is_some() { "drill " } else { "" },
            ),
            TierStats::Shards { applied, takeovers } => format!(
                "seed {seed:>6}  hash {hash:016x}  commits {commits:>4}  aborts {aborts:>3}  \
                 drained {applied:>4}  takeovers {takeovers:>2}  t_end {end_ms:>6}ms  {verdict}"
            ),
        }
    }

    /// Read the counters and the clock at the instant the processes are
    /// read — before the oracles, whose rollforward passes would disturb
    /// them.
    pub(crate) fn read_out(
        schedule: &Schedule,
        world: &World,
        violations: Vec<String>,
        tier: TierStats,
    ) -> RunReport {
        let m = world.metrics();
        RunReport {
            seed: schedule.seed,
            trace_hash: world.trace_hash(),
            commits: m.get("tmf.commits"),
            aborts: m.get("tmf.aborts"),
            takeover_commit_completions: m.get("tmf.takeover_commit_completions"),
            dumps_completed: m.get("dump.completed"),
            purged_trail_files: m.get("tmf.purged_trail_files"),
            end_ms: world.now().as_millis(),
            violations,
            implicated: Vec::new(),
            flight: None,
            tier,
        }
    }

    /// Name the implicated transactions and, on a recorded run, export
    /// their flight timelines.
    pub(crate) fn finish(
        mut self,
        world: &World,
        nodes: &[NodeId],
        mut implicated: Vec<Transid>,
        flight_recorder: bool,
    ) -> RunReport {
        implicated.sort();
        implicated.dedup();
        if flight_recorder {
            let by_txn = world.flightrec().timelines();
            let empty = Vec::new();
            let timelines = implicated
                .iter()
                .map(|t| {
                    let ft = t.flight_id();
                    format_timeline(ft, by_txn.get(&ft).unwrap_or(&empty))
                })
                .collect();
            self.flight = Some(FlightDump {
                json: world.flightrec().to_json(),
                timelines,
                timelines_by_txn: by_txn,
                committed: committed_transids(world, nodes),
            });
        }
        self.implicated = implicated.iter().map(|t| t.to_string()).collect();
        self
    }
}

/// Generate the schedule for `seed` and run it.
pub fn run_seed(seed: u64) -> RunReport {
    run_schedule(&Schedule::generate(seed))
}

/// Run the schedule to completion and evaluate every oracle.
pub fn run_schedule(schedule: &Schedule) -> RunReport {
    run_schedule_with(schedule, false)
}

/// [`run_schedule`], optionally with the flight recorder on. Recording is
/// a pure side channel, so the trace hash is identical either way — a
/// failing seed can be re-run recorded and the same execution replays.
pub fn run_schedule_with(schedule: &Schedule, flight_recorder: bool) -> RunReport {
    match (&schedule.workload, &schedule.faults) {
        (Workload::Bank(shape), FaultPlan::Timeline(timeline)) => {
            run_sweep(schedule, shape, timeline, flight_recorder)
        }
        (Workload::Bank(shape), FaultPlan::Soak(plan)) => {
            crate::soak::run(schedule, shape, plan, flight_recorder)
        }
        (Workload::Shards(plan), FaultPlan::ShardCut(cut)) => {
            crate::shard::run(schedule, plan, cut, flight_recorder)
        }
        (Workload::Bank(_), FaultPlan::ShardCut(_))
        | (Workload::Shards(_), FaultPlan::Timeline(_) | FaultPlan::Soak(_)) => {
            panic!("a shard cut needs the sharded bank, and only it")
        }
    }
}

/// The short fault timeline over the bank cluster: the phases of the
/// module docs.
fn run_sweep(
    schedule: &Schedule,
    shape: &BankShape,
    timeline: &Timeline,
    flight_recorder: bool,
) -> RunReport {
    let tmf = build_tmf(tmf_builder(schedule));
    let snapshot_undo = tmf.snapshot_undo_capacity();
    let think = SimDuration::from_millis(5);
    let (mut app, volumes) = launch_bank(schedule, shape, think, tmf, flight_recorder);

    // ---- phase 2: the fault timeline (+ online dumps, if planned) ---
    let dumps: &[ScheduledDump] = schedule.dumps.as_ref().map_or(&[], |d| &d.scheduled);
    let mut next_dump = 0usize;
    let mut violations = Vec::new();
    let mut timers = TimerCensus::default();
    for ev in &timeline.events {
        start_due_dumps(&mut app.world, &volumes, dumps, &mut next_dump, ev.at);
        app.world.run_until(ev.at);
        census(&app.world, &app.tmf, &mut timers);
        violations.extend(timer_violations(&timers));
        apply(&mut app.world, &ev.action);
    }
    start_due_dumps(
        &mut app.world,
        &volumes,
        dumps,
        &mut next_dump,
        timeline.heal_at,
    );
    app.world.run_until(timeline.heal_at);
    heal_everything(&mut app.world, &app.nodes);

    // ---- phase 3: run the workload out ------------------------------
    run_out(
        &mut app.world,
        &app.nodes,
        bank_terminals(schedule, shape),
        SimDuration::from_millis(500),
        timeline.heal_at + SimDuration::from_secs(120),
        &mut violations,
    );

    // ---- phase 4: the end phase, then the counters ------------------
    let seen = end_run(&mut app.world, &app.nodes, &app.tmf);
    let mut report = RunReport::read_out(schedule, &app.world, violations, TierStats::Sweep);

    // ---- phase 5: oracles -------------------------------------------
    let mut implicated: Vec<Transid> = Vec::new();
    let violations = &mut report.violations;
    check_atomicity(&app.world, &app.nodes, violations, &mut implicated);
    let tags = check_conservation(&mut app.world, &app.catalog, violations);
    check_exactly_once(&app.world, &app.nodes, shape, &tags, violations);
    check_final_read(&seen, snapshot_undo, violations, &mut implicated);
    check_convergence(&mut app.world, &volumes, &app.tmf, violations);
    report.finish(&app.world, &app.nodes, implicated, flight_recorder)
}

// ---------------------------------------------------------------------
// Phases every driver shares. Each takes data (a volume list, a poll step,
// a deadline), never the fault plan: where drivers differ in a way the
// trace hash sees, the difference lives in the driver.

/// The schedule's TMF config: its group-commit window, trail partitions
/// and recovery mode and, when it plans dumps, trail purging over small
/// files. A CLI checks a schedule's flags against its `build()` before
/// running it.
pub fn tmf_builder(schedule: &Schedule) -> TmfNodeConfigBuilder {
    let builder = TmfNodeConfig::builder()
        .group_commit_window(SimDuration::from_micros(schedule.group_commit_window_us))
        .audit_partitions(schedule.audit_partitions.max(1))
        .recovery_mode(schedule.recovery_mode);
    match &schedule.dumps {
        Some(d) => builder
            .trail_purge_interval(SimDuration::from_micros(d.trail_purge_interval_us))
            .audit_rotate_every(d.audit_rotate_every),
        None => builder,
    }
}

pub(crate) fn build_tmf(builder: TmfNodeConfigBuilder) -> TmfNodeConfig {
    builder
        .build()
        .expect("schedule produced an invalid TMF config")
}

pub(crate) fn sim_config(flight_recorder: bool) -> SimConfig {
    SimConfig {
        flight_recorder,
        ..SimConfig::default()
    }
}

/// Phase 1 over the bank cluster: the bank application for the
/// schedule's shape, and a generation-0 archive of every volume.
pub(crate) fn launch_bank(
    schedule: &Schedule,
    shape: &BankShape,
    think: SimDuration,
    tmf: TmfNodeConfig,
    flight_recorder: bool,
) -> (AppHandles, Vec<VolumeRef>) {
    let mut app = launch_bank_app(BankAppParams {
        node_cpus: vec![CPUS_PER_NODE; shape.nodes],
        volumes_per_node: schedule.volumes_per_node.max(1),
        accounts: ACCOUNTS,
        terminals_per_node: shape.terminals_per_node,
        readonly_terminals_per_node: schedule.readonly_terminals_per_node,
        transactions_per_terminal: shape.transactions_per_terminal,
        think,
        hot_fraction: shape.hot_fraction,
        hot_set: 8,
        seed: schedule.seed,
        lock_wait: SimDuration::from_millis(300),
        sim: sim_config(flight_recorder),
        tmf,
        ..BankAppParams::default()
    });
    let volumes: Vec<VolumeRef> = app.catalog.all_volumes();
    archive_generation_zero(&mut app.world, &volumes);
    (app, volumes)
}

/// Terminals a bank run waits for.
pub(crate) fn bank_terminals(schedule: &Schedule, shape: &BankShape) -> u64 {
    (shape.nodes * (shape.terminals_per_node + schedule.readonly_terminals_per_node)) as u64
}

/// A processor of `node` that can host a client now: faults may have one
/// down.
pub(crate) fn live_cpu(world: &World, node: NodeId) -> u8 {
    (0..world.cpu_count(node))
        .find(|&c| world.cpu_up(node, CpuId(c)))
        .unwrap_or(0)
}

/// Start every scheduled dump due at or before `upto`, at its own time.
fn start_due_dumps(
    world: &mut World,
    volumes: &[VolumeRef],
    dumps: &[ScheduledDump],
    next: &mut usize,
    upto: SimTime,
) {
    while *next < dumps.len() && dumps[*next].at <= upto {
        let d = &dumps[*next];
        world.run_until(d.at);
        request_dumps(world, volumes, d.node, d.generation);
        *next += 1;
    }
}

/// Ask `node`'s `$DUMP` pair for one online dump of each of its volumes.
/// The request retries persistently — a CPU fault mid-copy forces a
/// takeover that drops the dump, and the retry is what restarts it after
/// the heal.
pub(crate) fn request_dumps(
    world: &mut World,
    volumes: &[VolumeRef],
    node: NodeId,
    generation: u64,
) {
    let cpu = live_cpu(world, node);
    for v in volumes.iter().filter(|v| v.node == node) {
        request_dump(world, cpu, 2, v, generation);
    }
}

/// Run until every one of `terminals` on `nodes` finished, polling every
/// `step`; giving up at `deadline` is a stall violation, and each
/// unfinished terminal is named with the calls it waits on.
pub(crate) fn run_out(
    world: &mut World,
    nodes: &[NodeId],
    terminals: u64,
    step: SimDuration,
    deadline: SimTime,
    violations: &mut Vec<String>,
) {
    while world.metrics().get("tcp.terminals_finished") < terminals && world.now() < deadline {
        world.run_for(step);
    }
    let finished = world.metrics().get("tcp.terminals_finished");
    if finished == terminals {
        return;
    }
    violations.push(format!(
        "workload stalled: {finished}/{terminals} terminals finished by t={}ms",
        world.now().as_millis()
    ));
    for &node in nodes {
        let name = tcp_name(node);
        let Some(tcp) = guardian::primary::<TerminalControlProcess>(world, node, &name) else {
            continue;
        };
        for (terminal, calls) in tcp.unfinished() {
            let calls: Vec<String> = calls.iter().map(|t| t.to_string()).collect();
            violations.push(format!(
                "liveness: terminal {terminal} of {node}.{name} never finished, \
                 waiting on calls to [{}]",
                calls.join(", ")
            ));
        }
    }
}

/// The safe-delivery tail after the run-out: phase 2, abort
/// notifications, backouts.
const SAFE_DELIVERY_TAIL: SimDuration = SimDuration::from_secs(5);

/// The settle's step. A drained world reads drained at the first read;
/// what the settle waits out is a call in flight on one of the two
/// clocks that tick with no work (DESIGN.md §D31) — a `$SUSPENSE` scan of
/// its file, a TMP purge sweep — which lands within milliseconds.
const SETTLE_STEP: SimDuration = SimDuration::from_millis(1);
/// The longest the settle waits: a leak outlasts it and is reported.
const SETTLE_BOUND: SimDuration = SimDuration::from_secs(1);

/// The end phase every driver calls after its own run-out: flush every
/// node's AUDITPROCESS buffers, run the safe-delivery tail, then settle —
/// read the world and, while the drained-world oracle finds something,
/// advance one [`SETTLE_STEP`], for at most [`SETTLE_BOUND`]. Returns the
/// settle's last read: the run's final [`Observation`].
///
/// The flush lands inside the tail, before the final read and before the
/// convergence oracle reads the trails: a fuzzy archive may have caught a
/// dirty value whose undo image is still buffered, and a buffered image
/// is one the drained world must not hold. The workload is over, so no
/// image is appended after the barrier.
pub(crate) fn end_run(world: &mut World, nodes: &[NodeId], tmf: &[NodeHandles]) -> Observation {
    flush_audit_buffers(world, nodes);
    world.run_for(SAFE_DELIVERY_TAIL);
    let give_up = world.now() + SETTLE_BOUND;
    loop {
        let seen = observe(world, tmf);
        if world.now() >= give_up || drained_violations(&seen).is_empty() {
            return seen;
        }
        world.run_for(SETTLE_STEP);
    }
}

/// Send every node's `$AUDIT` an empty forced append — the flush barrier
/// that pushes every buffered image onto the trail. It names no volume,
/// so its floor moves none.
fn flush_audit_buffers(world: &mut World, nodes: &[NodeId]) {
    for &node in nodes {
        ask::<AuditMsg, AuditReply>(
            world,
            node,
            0,
            3,
            Target::new(node, AUDIT_SERVICE),
            AuditMsg::Append {
                records: Members::default(),
                force: true,
                floor: 0,
            },
        );
    }
}

/// Every TMP, AUDITPROCESS and DISCPROCESS primary of a run, read at one
/// instant between events (DESIGN.md §D22): a consistent cut that sends
/// nothing. Each read is keyed by its pair and is `None` where the
/// service has no live primary.
pub(crate) struct Observation {
    pub(crate) tmps: Vec<(PairHandle, Option<TmpRead>)>,
    pub(crate) audits: Vec<(PairHandle, Option<AuditStateReport>)>,
    pub(crate) discs: Vec<(PairHandle, Option<DiscStateReport>)>,
    /// The kernel's armed timers at the same instant.
    pub(crate) timers: TimerCensus,
}

/// A TMP's transaction table and the sizes of its state.
pub(crate) struct TmpRead {
    pub(crate) open: Vec<Transid>,
    pub(crate) state: TmpStateReport,
}

/// Read every node's TMP, AUDITPROCESS and DISCPROCESSes, and take the
/// timer census.
pub(crate) fn observe(world: &World, tmf: &[NodeHandles]) -> Observation {
    fn read<A: PairApp, R>(
        world: &World,
        pair: &PairHandle,
        f: impl Fn(&A) -> R,
    ) -> (PairHandle, Option<R>) {
        let app = guardian::primary(world, pair.node, &pair.name);
        (pair.clone(), app.map(f))
    }
    let tmp = |t: &TmpProcess| TmpRead {
        open: t.open_transids(),
        state: t.state_report(),
    };
    Observation {
        tmps: tmf.iter().map(|h| read(world, &h.tmp, tmp)).collect(),
        audits: (tmf.iter())
            .map(|h| read(world, &h.audit, AuditProcess::state_report))
            .collect(),
        discs: (tmf.iter().flat_map(|h| &h.discs))
            .map(|p| read(world, p, DiscProcess::state_report))
            .collect(),
        timers: {
            let mut timers = TimerCensus::default();
            census(world, tmf, &mut timers);
            timers
        },
    }
}

/// The timer census alone, into `census`: the kernel's armed timers, and
/// the rpc calls of every TMP and DISCPROCESS primary that may hold one.
/// Like [`observe`] it sends nothing, so a driver takes it at every fault
/// instant, where a clock armed on a call the fault does not concern
/// would otherwise be gone by the final read. A driver keeps one census
/// for the run and refills it at each instant. The armed timers are
/// sorted by pid and tag, as [`timer_violations`] reads them.
pub(crate) fn census(world: &World, tmf: &[NodeHandles], census: &mut TimerCensus) {
    fn timed<A: PairApp>(
        world: &World,
        pair: &PairHandle,
        rpcs: impl Fn(&A) -> usize,
    ) -> Option<(Pid, usize)> {
        let app = guardian::primary(world, pair.node, &pair.name)?;
        Some((world.lookup_name(pair.node, &pair.name)?, rpcs(app)))
    }
    let tmps = (tmf.iter())
        .filter_map(|h| timed(world, &h.tmp, |t: &TmpProcess| t.state_report().timed_rpcs));
    let discs = (tmf.iter().flat_map(|h| &h.discs))
        .filter_map(|p| timed(world, p, |d: &DiscProcess| d.state_report().timed_rpcs));
    census.armed.clear();
    census.armed.extend(world.armed_timers().map(|(pid, tag)| {
        let kind = world
            .process_kind(pid)
            .expect("a timer's owner was spawned");
        (pid, kind, tag)
    }));
    census
        .armed
        .sort_unstable_by_key(|&(pid, _, tag)| (pid, tag));
    census.rpcs.clear();
    census.rpcs.extend(tmps.chain(discs));
}

/// The oracles every tier holds its final read to: the drained world
/// (each transid still open at a TMP is implicated), bounded state with
/// the run's snapshot-undo capacity, and the timer census.
pub(crate) fn check_final_read(
    seen: &Observation,
    snapshot_undo: usize,
    violations: &mut Vec<String>,
    implicated: &mut Vec<Transid>,
) {
    violations.extend(drained_violations(seen));
    implicated.extend(
        seen.tmps
            .iter()
            .flat_map(|(_, r)| r.iter().flat_map(|r| &r.open)),
    );
    let mut state = Vec::new();
    state_observations(seen, usize::MAX, &mut state);
    violations.extend(bounded_violations(&state, snapshot_undo));
    violations.extend(timer_violations(&seen.timers));
}

/// ROLLFORWARD `v` from its latest registered dump (the fuzzy online
/// archive, when one registered; the generation-0 snapshot otherwise)
/// plus its trail partition. Returns the archive generation used.
pub(crate) fn rollforward_from_registry(
    world: &mut World,
    v: &VolumeRef,
    tmf: &[NodeHandles],
) -> u64 {
    let generation = world
        .stable()
        .get::<DumpRegistry>(&dump_registry_key(v))
        .map(|r| r.generation)
        .unwrap_or(0);
    let trail = trail_key_of(tmf, v).expect("every catalog volume is audited");
    let _ = rollforward_volume(world, v, trail, generation);
    generation
}

pub(crate) fn apply(world: &mut World, action: &ChaosAction) {
    match action {
        ChaosAction::Fault(f) => world.inject(f.clone()),
        ChaosAction::KillServiceCpu { node, service } => {
            if let Some(pid) = world.lookup_name(*node, service) {
                if world.cpu_up(*node, pid.cpu) {
                    world.inject(Fault::KillCpu(*node, pid.cpu));
                }
            }
        }
        ChaosAction::RestoreDownCpus { node } => restore_down_cpus(world, *node),
        ChaosAction::KillServerProcess { node, nth } => {
            let mut servers = Vec::new();
            for c in 0..world.cpu_count(*node) {
                for pid in world.procs_on_cpu(*node, CpuId(c)) {
                    if world.process_kind(pid) == Some("server") && world.is_alive(pid) {
                        servers.push(pid);
                    }
                }
            }
            if !servers.is_empty() {
                world.inject(Fault::KillProcess(servers[nth % servers.len()]));
            }
        }
    }
}

pub(crate) fn restore_down_cpus(world: &mut World, node: NodeId) {
    for c in 0..world.cpu_count(node) {
        if !world.cpu_up(node, CpuId(c)) {
            world.inject(Fault::RestoreCpu(node, CpuId(c)));
        }
    }
}

/// The bank cluster's heal barrier: every link, bus and processor.
pub(crate) fn heal_everything(world: &mut World, nodes: &[NodeId]) {
    world.inject(Fault::HealAllLinks);
    for &node in nodes {
        world.inject(Fault::HealBus(node, 0));
        world.inject(Fault::HealBus(node, 1));
        restore_down_cpus(world, node);
    }
}

/// Every transid any node's Monitor Audit Trail records as committed,
/// sorted and deduplicated — the ground truth the timeline-completeness
/// test checks flight records against.
pub(crate) fn committed_transids(world: &World, nodes: &[NodeId]) -> Vec<FlightTransid> {
    let mut out: Vec<FlightTransid> = Vec::new();
    for &node in nodes {
        let Some(trail) = world.stable().get::<MonitorTrail>(&monitor_key(node)) else {
            continue;
        };
        out.extend(
            trail
                .records()
                .filter(|r| r.committed)
                .map(|r| r.transid.flight_id()),
        );
    }
    out.sort();
    out.dedup();
    out
}

/// Oracle: a transid is committed everywhere or aborted everywhere, as
/// judged by each node's Monitor Audit Trail. Violations are listed node
/// by node, each node's in its trail's transid order (home node, then
/// sequence number).
pub(crate) fn check_atomicity(
    world: &World,
    nodes: &[NodeId],
    violations: &mut Vec<String>,
    implicated: &mut Vec<Transid>,
) {
    let mut first_seen: DetHashMap<Transid, (bool, NodeId)> = DetHashMap::default();
    for &node in nodes {
        let Some(trail) = world.stable().get::<MonitorTrail>(&monitor_key(node)) else {
            continue;
        };
        for rec in trail.records() {
            match first_seen.get(&rec.transid) {
                None => {
                    first_seen.insert(rec.transid, (rec.committed, node));
                }
                Some(&(committed, first_node)) if committed != rec.committed => {
                    implicated.push(rec.transid);
                    violations.push(format!(
                        "atomicity: {:?} is {} on {first_node} but {} on {node}",
                        rec.transid,
                        outcome(committed),
                        outcome(rec.committed),
                    ));
                }
                Some(_) => {}
            }
        }
    }
}

fn outcome(committed: bool) -> &'static str {
    if committed {
        "committed"
    } else {
        "aborted"
    }
}

/// Oracle: money is conserved. Every committed debit appended exactly one
/// history record (`account:tag:amount`), and backout removed the records
/// of every aborted transaction, so the history file's sum must equal the
/// total drained from the account balances. Returns the records' debit
/// tags, for [`check_exactly_once`].
pub(crate) fn check_conservation(
    world: &mut World,
    catalog: &encompass_storage::Catalog,
    violations: &mut Vec<String>,
) -> Vec<DebitTag> {
    let initial_total = ACCOUNTS as i64 * 1000;
    let final_total = total_balance(world, catalog, "accounts");
    let mut history_sum: i64 = 0;
    let mut tags = Vec::new();
    for record in history_records(world, catalog, "history") {
        match record {
            Ok((tag, a)) => {
                tags.push(tag);
                history_sum += a;
            }
            Err(v) => violations.push(format!(
                "conservation: unparseable history record {:?}",
                String::from_utf8_lossy(&v)
            )),
        }
    }
    if initial_total - history_sum != final_total {
        violations.push(format!(
            "conservation: initial {initial_total} - {} debits summing \
             {history_sum} != final {final_total} (off by {})",
            tags.len(),
            initial_total - history_sum - final_total
        ));
    }
    tags
}

/// Oracle: every read-write terminal's logical transactions committed
/// once each — [`exactly_once_violations`] over the history file's `tags`
/// and the commit counts of each node's TCP primary.
pub(crate) fn check_exactly_once(
    world: &World,
    nodes: &[NodeId],
    shape: &BankShape,
    tags: &[DebitTag],
    violations: &mut Vec<String>,
) {
    let mut terminals = Vec::new();
    for &node in nodes {
        let name = tcp_name(node);
        let Some(tcp) = guardian::primary::<TerminalControlProcess>(world, node, &name) else {
            violations.push(format!("exactly-once: {name} on {node} has no primary"));
            continue;
        };
        // the read-write terminals come first
        let writers = tcp.committed().take(shape.terminals_per_node);
        terminals.extend(writers.enumerate().map(|(t, committed)| TerminalCommits {
            node,
            terminal: t as u8,
            committed,
        }));
    }
    violations.extend(exactly_once_violations(tags, &terminals));
}

/// Oracle: ROLLFORWARD from the latest completed dump plus the surviving
/// audit trail reproduces the live media exactly. The live files are
/// taken off the media while ROLLFORWARD rebuilds it (it reads only the
/// archive and the trail), then compared with the rebuilt ones record by
/// record.
pub(crate) fn check_convergence(
    world: &mut World,
    volumes: &[VolumeRef],
    tmf: &[NodeHandles],
    violations: &mut Vec<String>,
) {
    for v in volumes {
        let key = media_key(v.node, &v.volume);
        let live = (world.stable_mut().get_mut::<VolumeMedia>(&key))
            .map(|media| std::mem::take(&mut media.files))
            .unwrap_or_default();
        rollforward_from_registry(world, v, tmf);
        let none = BTreeMap::new();
        let rebuilt = (world.stable().get::<VolumeMedia>(&key)).map_or(&none, |m| &m.files);
        if !same_records(&live, rebuilt) {
            let detail = diff_summary(&snapshot(&live), &snapshot(rebuilt));
            violations.push(format!(
                "durability: rollforward of {}.{} diverges from the live volume: {detail}",
                v.node, v.volume
            ));
        }
    }
}

/// The same files, each holding the same records.
fn same_records(live: &BTreeMap<Name, FileImage>, rebuilt: &BTreeMap<Name, FileImage>) -> bool {
    live.len() == rebuilt.len()
        && (live.iter().zip(rebuilt))
            .all(|((a, live), (b, rebuilt))| a == b && live.records().eq(rebuilt.records()))
}

type VolumeSnapshot = BTreeMap<Name, Vec<(Bytes, Bytes)>>;

fn snapshot(files: &BTreeMap<Name, FileImage>) -> VolumeSnapshot {
    (files.iter())
        .map(|(name, img)| (name.clone(), img.scan(&[], None, usize::MAX)))
        .collect()
}

fn diff_summary(live: &VolumeSnapshot, rebuilt: &VolumeSnapshot) -> String {
    for (name, records) in live {
        match rebuilt.get(name) {
            None => return format!("file {name} missing after recovery"),
            Some(r) if r != records => {
                let mismatches: Vec<String> = records
                    .iter()
                    .filter(|(k, v)| r.iter().find(|(k2, _)| k2 == k).map(|(_, v2)| v2) != Some(v))
                    .map(|(k, v)| {
                        let recovered = r
                            .iter()
                            .find(|(k2, _)| k2 == k)
                            .map(|(_, v2)| String::from_utf8_lossy(v2).into_owned());
                        format!(
                            "{}: live {:?} recovered {recovered:?}",
                            String::from_utf8_lossy(k),
                            String::from_utf8_lossy(v)
                        )
                    })
                    .take(5)
                    .collect();
                return format!(
                    "file {name}: {} live vs {} recovered records [{}]",
                    records.len(),
                    r.len(),
                    mismatches.join("; ")
                );
            }
            Some(_) => {}
        }
    }
    for name in rebuilt.keys() {
        if !live.contains_key(name) {
            return format!("file {name} appeared only after recovery");
        }
    }
    "no textual diff (ordering?)".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use encompass::workload::account_key;
    use encompass_storage::types::FileOrganization;
    use tmf::script::{run_txn_script, Step};

    /// A fault-free run of seed 0's bank workload, run out and drained:
    /// ROLLFORWARD reproduces every volume.
    fn converged_run() -> (AppHandles, Vec<VolumeRef>) {
        let schedule = Schedule::generate(0);
        let Workload::Bank(shape) = &schedule.workload else {
            panic!("seed 0 draws the bank cluster");
        };
        let tmf = build_tmf(tmf_builder(&schedule));
        let think = SimDuration::from_millis(5);
        let (mut app, volumes) = launch_bank(&schedule, shape, think, tmf, false);
        let mut violations = Vec::new();
        let (terminals, step) = (
            bank_terminals(&schedule, shape),
            SimDuration::from_millis(500),
        );
        let deadline = SimTime::ZERO + SimDuration::from_secs(120);
        run_out(
            &mut app.world,
            &app.nodes,
            terminals,
            step,
            deadline,
            &mut violations,
        );
        end_run(&mut app.world, &app.nodes, &app.tmf);
        check_convergence(&mut app.world, &volumes, &app.tmf, &mut violations);
        assert_eq!(violations, Vec::<String>::new());
        assert!(
            app.world.metrics().get("tmf.commits") > 0,
            "the run committed"
        );
        (app, volumes)
    }

    /// The live media of `v`.
    fn media<'w>(world: &'w mut World, v: &VolumeRef) -> &'w mut VolumeMedia {
        let key = media_key(v.node, &v.volume);
        (world.stable_mut().get_mut::<VolumeMedia>(&key)).expect("the volume's media")
    }

    /// One record of a volume's live media changed behind TMF's back:
    /// the rebuilt volume differs, and the oracle names the file, the key
    /// and both values. The rebuilt files stay on the media, so a second
    /// check passes.
    #[test]
    fn a_corrupted_record_is_named_by_the_convergence_oracle() {
        let (mut app, volumes) = converged_run();
        let v = &volumes[0];
        let accounts = media(&mut app.world, v).files.get_mut("accounts");
        let FileImage::KeySequenced(records) = accounts.expect("accounts on the first volume")
        else {
            panic!("accounts is key-sequenced");
        };
        let n = records.len();
        let (key, value) = records.iter_mut().nth(3).expect("a fourth account");
        let key = String::from_utf8_lossy(key).into_owned();
        let was = String::from_utf8_lossy(value).into_owned();
        *value = Bytes::from_static(b"-1");

        let mut violations = Vec::new();
        check_convergence(&mut app.world, &volumes, &app.tmf, &mut violations);
        assert_eq!(
            violations,
            [format!(
                "durability: rollforward of {}.{} diverges from the live volume: file accounts: \
                 {n} live vs {n} recovered records [{key}: live \"-1\" recovered Some({was:?})]",
                v.node, v.volume
            )]
        );

        violations.clear();
        check_convergence(&mut app.world, &volumes, &app.tmf, &mut violations);
        assert_eq!(
            violations,
            Vec::<String>::new(),
            "ROLLFORWARD left the rebuilt files"
        );
    }

    /// An empty file on the live media is not an absent one.
    #[test]
    fn an_empty_live_file_is_not_an_absent_one() {
        let (mut app, volumes) = converged_run();
        let v = &volumes[0];
        media(&mut app.world, v).ensure_file("scratch", FileOrganization::EntrySequenced);
        let mut violations = Vec::new();
        check_convergence(&mut app.world, &volumes, &app.tmf, &mut violations);
        assert_eq!(
            violations,
            [format!(
                "durability: rollforward of {}.{} diverges from the live volume: \
                 file scratch missing after recovery",
                v.node, v.volume
            )]
        );
    }

    /// A transaction left open (no END) with a record locked: one read of
    /// the world names it twice, as a transid still open at its TMP and as
    /// a lock still held on its volume, and implicates the transid.
    #[test]
    fn one_read_names_an_open_transaction_and_its_lock() {
        let mut app = launch_bank_app(BankAppParams {
            terminals_per_node: 0,
            ..BankAppParams::default()
        });
        let node = app.nodes[0];
        let script = vec![
            Step::Begin,
            Step::ReadLock("accounts".into(), account_key(3)),
        ];
        let log = run_txn_script(&mut app.world, node, 0, app.catalog.clone(), script);
        app.world.run_for(SimDuration::from_secs(1));
        assert_eq!(
            log.borrow().len(),
            2,
            "began and locked: {:?}",
            log.borrow()
        );
        let began = log.borrow()[0].clone();
        let transid = began.strip_prefix("began:").expect("a began entry");

        let seen = observe(&app.world, &app.tmf);
        let (mut violations, mut implicated) = (Vec::new(), Vec::new());
        let undo = TmfNodeConfig::default().snapshot_undo_capacity();
        check_final_read(&seen, undo, &mut violations, &mut implicated);
        assert_eq!(
            violations,
            [
                format!(
                    "liveness: transaction {transid} never reached a terminal state \
                     (still open at $TMP@{node})"
                ),
                format!("liveness: 1 locks still held at $BANK@{node}"),
            ]
        );
        let implicated: Vec<String> = implicated.iter().map(Transid::to_string).collect();
        assert_eq!(implicated, [transid]);
    }

    /// The end phase over a finished, fault-free run reads a drained world
    /// at once: the settle takes no step, so the run ends at the tail.
    #[test]
    fn a_drained_world_ends_at_the_tail() {
        let (mut app, _) = converged_run();
        let before = app.world.now();
        let seen = end_run(&mut app.world, &app.nodes, &app.tmf);
        assert_eq!(app.world.now(), before + SAFE_DELIVERY_TAIL);
        assert_eq!(drained_violations(&seen), Vec::<String>::new());
    }
}
