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
//!    the live world;
//! 3. heal everything, run the workload to completion, and let the
//!    safe-delivery tail (phase 2, abort notifications, backouts) drain;
//! 4. read every TMP, AUDITPROCESS and DISCPROCESS and the kernel's armed
//!    timers at one instant (`observe`), then the counters;
//! 5. evaluate the oracles.
//!
//! The oracles are the paper's own guarantees:
//!
//! * **atomicity** — a transid's outcome must agree across every node's
//!   Monitor Audit Trail (committed everywhere or aborted everywhere);
//! * **conservation** — debits move money, so
//!   `initial_total - sum(history amounts) == final_total`, which only
//!   holds if backout undid the history appends of every aborted
//!   transaction and phase 2 landed every committed one;
//! * **no leaks** — after quiesce + heal, every TMP transaction table is
//!   empty and every lock manager holds nothing and queues nobody;
//! * **durability / convergence** — ROLLFORWARD from the generation-0
//!   archive plus the audit trails rebuilds media byte-identical to the
//!   live volumes, i.e. every committed transaction survives recovery
//!   from total node failure and nothing uncommitted does.

use crate::oracles::{timer_violations, TimerCensus};
use crate::schedule::{
    BankShape, ChaosAction, FaultPlan, Schedule, ScheduledDump, Timeline, Workload, CPUS_PER_NODE,
};
use bytes::Bytes;
use encompass::app::{launch_bank_app, AppHandles, BankAppParams};
use encompass::workload::total_balance;
use encompass_audit::auditprocess::{AuditProcess, AuditStateReport};
use encompass_audit::dump::{DumpMsg, DumpReply, DUMP_SERVICE};
use encompass_audit::monitor::{monitor_key, MonitorTrail};
use encompass_audit::rollforward::{archive_generation_zero, rollforward_volume};
use encompass_sim::{
    format_timeline, CpuId, DetHashMap, Fault, FlightEvent, FlightTransid, Name, NodeId, SimConfig,
    SimDuration, SimTime, World,
};
use encompass_storage::audit_api::{AuditMsg, AuditReply, AUDIT_SERVICE};
use encompass_storage::discprocess::{DiscProcess, DiscStateReport};
use encompass_storage::media::{dump_registry_key, media_key, DumpRegistry, VolumeMedia};
use encompass_storage::types::{Transid, VolumeRef};
use guardian::{ask, PairApp, PairHandle, Target};
use std::collections::BTreeMap;
use tmf::facility::{trail_key_of, NodeHandles, TmfNodeConfig, TmfNodeConfigBuilder};
use tmf::tmp::{TmpProcess, TmpStateReport};

/// Accounts preloaded per run (balance 1000 each).
pub(crate) const ACCOUNTS: u64 = 120;

/// Retry interval of every one-shot command the harness sends.
pub(crate) const ASK_RETRY: SimDuration = SimDuration::from_millis(100);

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
    let (mut app, volumes) = launch_bank(
        schedule,
        shape,
        SimDuration::from_millis(5),
        build_tmf(tmf_builder(schedule)),
        flight_recorder,
    );

    // ---- phase 2: the fault timeline (+ online dumps, if planned) ---
    let dumps: &[ScheduledDump] = schedule.dumps.as_ref().map_or(&[], |d| &d.scheduled);
    let mut next_dump = 0usize;
    for ev in &timeline.events {
        start_due_dumps(&mut app.world, &volumes, dumps, &mut next_dump, ev.at);
        app.world.run_until(ev.at);
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

    // ---- phase 3: run the workload out, then drain ------------------
    let mut violations = Vec::new();
    run_out(
        &mut app.world,
        bank_terminals(schedule, shape),
        SimDuration::from_millis(500),
        timeline.heal_at + SimDuration::from_secs(120),
        &mut violations,
    );
    // When dumps ran, drain every AUDITPROCESS buffer to the trail media,
    // landing inside the tail, before the convergence oracle reads the
    // trails: a fuzzy archive may have caught a dirty value whose undo
    // image is still sitting in a buffer. The workload is over, so no
    // image is appended after the barrier.
    if schedule.dumps.is_some() {
        flush_audit_buffers(&mut app.world, &app.nodes);
    }
    app.world.run_for(SAFE_DELIVERY_TAIL);

    // ---- phase 4: one read of every process, and the counters -------
    let seen = observe(&app.world, &app.tmf);
    let mut report = RunReport::read_out(schedule, &app.world, violations, TierStats::Sweep);

    // ---- phase 5: oracles -------------------------------------------
    let mut implicated: Vec<Transid> = Vec::new();
    let violations = &mut report.violations;
    check_atomicity(&app.world, &app.nodes, violations, &mut implicated);
    check_conservation(&mut app.world, &app.catalog, &app.nodes, violations);
    check_tmp_tables(&seen, violations, &mut implicated);
    check_locks(&seen, violations);
    violations.extend(timer_violations(&seen.timers));
    check_convergence(&mut app.world, &volumes, &app.tmf, violations);
    report.finish(&app.world, &app.nodes, implicated, flight_recorder)
}

// ---------------------------------------------------------------------
// Phases every driver shares. Each takes data (a volume list, a poll step,
// a deadline), never the fault plan: where drivers differ in a way the
// trace hash sees, the difference lives in the driver.

/// The schedule's TMF config: its group-commit window and trail
/// partitions and, when it plans dumps, trail purging over small files.
pub(crate) fn tmf_builder(schedule: &Schedule) -> TmfNodeConfigBuilder {
    let builder = TmfNodeConfig::builder()
        .group_commit_window(SimDuration::from_micros(schedule.group_commit_window_us))
        .audit_partitions(schedule.audit_partitions.max(1));
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
        ask::<DumpMsg, DumpReply>(
            world,
            node,
            cpu,
            2,
            Target::Named(node, DUMP_SERVICE),
            DumpMsg::DumpVolume {
                volume: v.clone(),
                generation,
            },
            ASK_RETRY,
        );
    }
}

/// Run until every one of `terminals` finished, polling every `step`;
/// giving up at `deadline` is a stall violation.
pub(crate) fn run_out(
    world: &mut World,
    terminals: u64,
    step: SimDuration,
    deadline: SimTime,
    violations: &mut Vec<String>,
) {
    while world.metrics().get("tcp.terminals_finished") < terminals && world.now() < deadline {
        world.run_for(step);
    }
    let finished = world.metrics().get("tcp.terminals_finished");
    if finished < terminals {
        violations.push(format!(
            "workload stalled: {finished}/{terminals} terminals finished by t={}ms",
            world.now().as_millis()
        ));
    }
}

/// The safe-delivery tail after the run-out: phase 2, abort
/// notifications, backouts.
pub(crate) const SAFE_DELIVERY_TAIL: SimDuration = SimDuration::from_secs(5);

/// Send every node's `$AUDIT` an empty forced append — the flush barrier
/// that pushes every buffered image onto the trail.
pub(crate) fn flush_audit_buffers(world: &mut World, nodes: &[NodeId]) {
    for &node in nodes {
        ask::<AuditMsg, AuditReply>(
            world,
            node,
            0,
            3,
            Target::Named(node, AUDIT_SERVICE),
            AuditMsg::Append {
                records: Vec::new(),
                force: true,
            },
            ASK_RETRY,
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
    let tmps: Vec<_> = tmf.iter().map(|h| read(world, &h.tmp, tmp)).collect();
    let timers = TimerCensus {
        armed: (world.armed_timers())
            .map(|(pid, tag)| {
                let kind = world
                    .process_kind(pid)
                    .expect("a timer's owner was spawned");
                (pid, kind, tag)
            })
            .collect(),
        rpcs: (tmps.iter())
            .filter_map(|(pair, read)| {
                let pid = world.lookup_name(pair.node, &pair.name)?;
                Some((pid, read.as_ref()?.state.outstanding_rpcs))
            })
            .collect(),
    };
    Observation {
        tmps,
        audits: (tmf.iter())
            .map(|h| read(world, &h.audit, AuditProcess::state_report))
            .collect(),
        discs: (tmf.iter().flat_map(|h| &h.discs))
            .map(|p| read(world, p, DiscProcess::state_report))
            .collect(),
        timers,
    }
}

// The sweep and shard tiers check leaks with these two oracles, not the
// soak's wider `oracles::liveness_violations`, because two of its checks
// trip on benign leftovers there:
// - with no flush barrier (the sweep tier flushes AUDITPROCESS buffers
//   only when dumps ran), 1–3 images can stay buffered at an
//   AUDITPROCESS after quiesce — 4 of 400 `--sweep` seeds, 3 more under
//   `--readers 2`, 1 under `--window 2000`;
// - the `$SUSPENSE` monitor polls every 100 ms, so a `$SB` volume often
//   holds one suspense-file scan in flight (11 of 32 `--shards` seeds).
// Neither is a leaked transaction, lock or waiter, which is what these
// two look for.

/// Oracle: after quiesce + heal every TMP has a primary, with an empty
/// table.
pub(crate) fn check_tmp_tables(
    obs: &Observation,
    violations: &mut Vec<String>,
    implicated: &mut Vec<Transid>,
) {
    for (tmp, read) in &obs.tmps {
        let node = tmp.node;
        match read {
            None => violations.push(format!("{node}: $TMP unreachable after heal")),
            Some(TmpRead { open, .. }) if !open.is_empty() => {
                violations.push(format!(
                    "{node}: {} transaction(s) leaked in the TMP table: {open:?}",
                    open.len()
                ));
                implicated.extend(open);
            }
            Some(_) => {}
        }
    }
}

/// Oracle: after quiesce + heal no lock is held and no waiter parked.
pub(crate) fn check_locks(obs: &Observation, violations: &mut Vec<String>) {
    for (disc, read) in &obs.discs {
        let (node, volume) = (disc.node, &disc.name);
        match read {
            Some(r) if r.locks_held == 0 && r.lock_waiters == 0 => {}
            Some(r) => violations.push(format!(
                "{node}.{volume}: {} lock(s) still held, {} waiter(s) parked after quiesce",
                r.locks_held, r.lock_waiters
            )),
            None => violations.push(format!("{node}.{volume}: unreachable after heal")),
        }
    }
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
/// judged by each node's Monitor Audit Trail.
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
/// history record (`account:amount`), and backout removed the records of
/// every aborted transaction, so the history file's sum must equal the
/// total drained from the account balances.
pub(crate) fn check_conservation(
    world: &mut World,
    catalog: &encompass_storage::Catalog,
    nodes: &[NodeId],
    violations: &mut Vec<String>,
) {
    let initial_total = ACCOUNTS as i64 * 1000;
    let final_total = total_balance(world, catalog, "accounts");
    let mut history_sum: i64 = 0;
    let mut history_records = 0usize;
    if let Some(media) = world
        .stable()
        .get::<VolumeMedia>(&media_key(nodes[0], "$BANK"))
    {
        if let Some(img) = media.file("history") {
            for (_, v) in img.scan(&[], None, usize::MAX) {
                history_records += 1;
                match parse_history_amount(&v) {
                    Some(a) => history_sum += a,
                    None => violations.push(format!(
                        "conservation: unparseable history record {:?}",
                        String::from_utf8_lossy(&v)
                    )),
                }
            }
        }
    }
    if initial_total - history_sum != final_total {
        violations.push(format!(
            "conservation: initial {initial_total} - {history_records} debits summing \
             {history_sum} != final {final_total} (off by {})",
            initial_total - history_sum - final_total
        ));
    }
}

fn parse_history_amount(v: &Bytes) -> Option<i64> {
    let s = std::str::from_utf8(v).ok()?;
    s.rsplit(':').next()?.parse().ok()
}

/// Oracle: ROLLFORWARD from the latest completed dump plus the surviving
/// audit trail reproduces the live media exactly.
pub(crate) fn check_convergence(
    world: &mut World,
    volumes: &[VolumeRef],
    tmf: &[NodeHandles],
    violations: &mut Vec<String>,
) {
    for v in volumes {
        let live = snapshot_volume(world, v);
        rollforward_from_registry(world, v, tmf);
        let rebuilt = snapshot_volume(world, v);
        if live != rebuilt {
            let detail = diff_summary(&live, &rebuilt);
            violations.push(format!(
                "durability: rollforward of {}.{} diverges from the live volume: {detail}",
                v.node, v.volume
            ));
        }
    }
}

type VolumeSnapshot = BTreeMap<Name, Vec<(Bytes, Bytes)>>;

fn snapshot_volume(world: &World, v: &VolumeRef) -> VolumeSnapshot {
    let mut out = BTreeMap::new();
    if let Some(media) = world
        .stable()
        .get::<VolumeMedia>(&media_key(v.node, &v.volume))
    {
        for (name, img) in &media.files {
            out.insert(name.clone(), img.scan(&[], None, usize::MAX));
        }
    }
    out
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
    use tmf::script::{run_txn_script, Step};

    /// A transaction left open (no END) with a record locked: one read of
    /// the world names it twice, as a transid leaked in its TMP table and
    /// as a lock still held on its volume.
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
        check_tmp_tables(&seen, &mut violations, &mut implicated);
        check_locks(&seen, &mut violations);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(
            violations[0].contains("leaked in the TMP table") && violations[0].contains(transid),
            "{violations:?}"
        );
        assert!(
            violations[1].contains(&format!("{node}.$BANK: 1 lock(s) still held")),
            "{violations:?}"
        );
        let implicated: Vec<String> = implicated.iter().map(Transid::to_string).collect();
        assert_eq!(implicated, [transid]);
    }
}
