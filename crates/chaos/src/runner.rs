//! Run one schedule end-to-end and check every TMF invariant.
//!
//! The run proceeds in deterministic phases:
//!
//! 1. build the bank application for the schedule's cluster shape and
//!    snapshot a generation-0 archive of every volume (the preload writes
//!    the account records straight to the media, bypassing TMF, so the
//!    audit trail alone cannot reproduce them — exactly like a real
//!    pre-TMF bulk load followed by an online dump);
//! 2. play the fault timeline, resolving name-addressed actions against
//!    the live world;
//! 3. heal everything, run the workload to completion, and let the
//!    safe-delivery tail (phase 2, abort notifications, backouts) drain;
//! 4. probe every TMP and DISCPROCESS for leaked state;
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

use crate::probe::TmpProbe;
use crate::schedule::{ChaosAction, Schedule, ScheduledDump};
use bytes::Bytes;
use encompass::app::{launch_bank_app, BankAppParams};
use encompass::workload::total_balance;
use encompass_audit::dump::{DumpMsg, DumpReply};
use encompass_audit::monitor::{monitor_key, MonitorTrail};
use encompass_audit::rollforward::rollforward_volume;
use encompass_sim::{
    format_timeline, CpuId, Ctx, DetHashMap, Fault, FlightEvent, FlightTransid, NodeId, Payload,
    Pid, SimConfig, SimDuration, SimTime, TimerId, World,
};
use encompass_storage::audit_api::{AuditMsg, AuditReply};
use encompass_storage::discprocess::{DiscReply, DiscRequest};
use encompass_storage::media::{archive_key, ArchiveImage, VolumeMedia};
use encompass_storage::media::{dump_registry_key, media_key, DumpRegistry};
use encompass_storage::types::{Transid, VolumeRef};
use guardian::{Rpc, Target, TimerOutcome};
use std::collections::BTreeMap;

/// Accounts preloaded per run (balance 1000 each).
pub(crate) const ACCOUNTS: u64 = 120;

/// What one chaos run produced.
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
    /// The fault timeline, for one-line repro reports.
    pub schedule_desc: String,
    /// Transids implicated in oracle failures (atomicity disagreements
    /// and transactions leaked in a TMP table), as display strings.
    pub implicated: Vec<String>,
    /// Flight-recorder artifacts; `Some` only on recorder-enabled runs.
    pub flight: Option<FlightDump>,
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
        format!(
            "seed {:>6}  hash {:016x}  commits {:>4}  aborts {:>3}  t_end {:>6}ms  {}",
            self.seed,
            self.trace_hash,
            self.commits,
            self.aborts,
            self.end_ms,
            if self.ok() {
                "ok".to_string()
            } else {
                format!("FAIL ({})", self.violations.len())
            }
        )
    }
}

/// Generate the schedule for `seed` and run it.
pub fn run_seed(seed: u64) -> RunReport {
    run_schedule(&Schedule::generate(seed))
}

/// Run one schedule to completion and evaluate every oracle.
pub fn run_schedule(schedule: &Schedule) -> RunReport {
    run_schedule_with(schedule, false)
}

/// [`run_schedule`], optionally with the flight recorder on. Recording is
/// a pure side channel, so the trace hash is identical either way — a
/// failing seed can be re-run recorded and the same execution replays.
pub fn run_schedule_with(schedule: &Schedule, flight_recorder: bool) -> RunReport {
    let mut builder = tmf::facility::TmfNodeConfig::builder()
        .group_commit_window(SimDuration::from_micros(schedule.group_commit_window_us))
        .audit_partitions(schedule.audit_partitions.max(1));
    if schedule.dumps_enabled {
        builder = builder
            .trail_purge_interval(SimDuration::from_micros(schedule.trail_purge_interval_us))
            .audit_rotate_every(schedule.audit_rotate_every);
    }
    let tmf = builder
        .build()
        .expect("schedule produced an invalid TMF config");
    let sim = if flight_recorder {
        SimConfig::default().flight_recording()
    } else {
        SimConfig::default()
    };
    let mut app = launch_bank_app(BankAppParams {
        node_cpus: vec![schedule.cpus_per_node; schedule.nodes],
        volumes_per_node: schedule.volumes_per_node.max(1),
        accounts: ACCOUNTS,
        terminals_per_node: schedule.terminals_per_node,
        readonly_terminals_per_node: schedule.readonly_terminals_per_node,
        transactions_per_terminal: schedule.transactions_per_terminal,
        think: SimDuration::from_millis(5),
        hot_fraction: schedule.hot_fraction,
        hot_set: 8,
        seed: schedule.seed,
        lock_wait: SimDuration::from_millis(300),
        sim,
        tmf,
        ..BankAppParams::default()
    });
    let volumes: Vec<VolumeRef> = app.catalog.all_volumes();
    snapshot_archives(&mut app.world, &volumes);

    // ---- phase 2: the fault timeline (+ online dumps, if enabled) ---
    let dumps: &[ScheduledDump] = if schedule.dumps_enabled {
        &schedule.dumps
    } else {
        &[]
    };
    let mut next_dump = 0usize;
    for ev in &schedule.events {
        start_due_dumps(&mut app.world, &volumes, dumps, &mut next_dump, ev.at);
        app.world.run_until(ev.at);
        apply(&mut app.world, &ev.action);
    }
    start_due_dumps(
        &mut app.world,
        &volumes,
        dumps,
        &mut next_dump,
        schedule.heal_at,
    );
    app.world.run_until(schedule.heal_at);
    heal_everything(&mut app.world, schedule);

    // ---- phase 3: run the workload out, then drain ------------------
    let mut violations = Vec::new();
    let total_terminals = (schedule.nodes
        * (schedule.terminals_per_node + schedule.readonly_terminals_per_node))
        as u64;
    let stall_deadline = schedule.heal_at + SimDuration::from_secs(120);
    while app.world.metrics().get("tcp.terminals_finished") < total_terminals
        && app.world.now() < stall_deadline
    {
        app.world.run_for(SimDuration::from_millis(500));
    }
    if app.world.metrics().get("tcp.terminals_finished") < total_terminals {
        violations.push(format!(
            "workload stalled: {}/{} terminals finished by t={}ms",
            app.world.metrics().get("tcp.terminals_finished"),
            total_terminals,
            app.world.now().as_millis()
        ));
    }
    // safe-delivery tail: phase 2, abort notifications, backouts
    app.world.run_for(SimDuration::from_secs(5));

    // When dumps ran, drain every AUDITPROCESS buffer to the trail media
    // before the convergence oracle reads the trails: a fuzzy archive may
    // have caught a dirty value whose undo image is still sitting in a
    // buffer (an empty forced append is the AUDITPROCESS flush barrier).
    if schedule.dumps_enabled {
        for &node in &app.nodes {
            app.world
                .spawn(node, 0, Box::new(AuditFlushClient::new(node)));
        }
    }

    // ---- phase 4: leak probes ---------------------------------------
    let open_probes: Vec<_> = app
        .nodes
        .iter()
        .map(|&n| (n, TmpProbe::spawn(&mut app.world, n)))
        .collect();
    let lock_probes: Vec<_> = volumes
        .iter()
        .map(|v| {
            let replies = encompass_storage::testkit::run_script(
                &mut app.world,
                v.node,
                0,
                Target::Named(v.node, v.volume.clone()),
                vec![DiscRequest::LockAudit],
            );
            (v.clone(), replies)
        })
        .collect();
    app.world.run_for(SimDuration::from_secs(3));

    let trace_hash = app.world.trace_hash();
    let commits = app.world.metrics().get("tmf.commits");
    let aborts = app.world.metrics().get("tmf.aborts");
    let takeover_commit_completions = app
        .world
        .metrics()
        .get("tmf.takeover_commit_completions");
    let dumps_completed = app.world.metrics().get("dump.completed");
    let purged_trail_files = app.world.metrics().get("tmf.purged_trail_files");
    let end_ms = app.world.now().as_millis();

    // ---- phase 5: oracles -------------------------------------------
    let mut implicated: Vec<Transid> = Vec::new();
    check_atomicity(&mut app.world, &app.nodes, &mut violations, &mut implicated);
    check_conservation(&mut app.world, &app.catalog, &app.nodes, &mut violations);
    for (node, slot) in &open_probes {
        match &*slot.borrow() {
            None => violations.push(format!("{node}: $TMP unreachable after heal")),
            Some(open) if !open.is_empty() => {
                implicated.extend(open.iter().copied());
                violations.push(format!(
                    "{node}: {} transaction(s) leaked in the TMP table: {open:?}",
                    open.len()
                ));
            }
            Some(_) => {}
        }
    }
    implicated.sort();
    implicated.dedup();
    for (vol, replies) in &lock_probes {
        match replies.borrow().first() {
            Some(DiscReply::LockAudit { held: 0, waiting: 0 }) => {}
            Some(DiscReply::LockAudit { held, waiting }) => violations.push(format!(
                "{}.{}: {held} lock(s) still held, {waiting} waiter(s) parked after quiesce",
                vol.node, vol.volume
            )),
            other => violations.push(format!(
                "{}.{}: lock audit failed: {other:?}",
                vol.node, vol.volume
            )),
        }
    }
    // Per-volume trail keys: with partitioned trails a volume's images
    // live on exactly one partition, and a *sibling* partition may have
    // purged past this volume's floor — scanning every trail of the
    // service would trip ROLLFORWARD's purge-floor check spuriously.
    let trail_key_of: BTreeMap<(NodeId, String), String> = app
        .tmf
        .iter()
        .flat_map(|h| {
            let node = h.node;
            h.trail_key_of
                .iter()
                .map(move |(vol, key)| ((node, vol.clone()), key.clone()))
        })
        .collect();
    check_convergence(&mut app.world, &volumes, &trail_key_of, &mut violations);

    let flight = if flight_recorder {
        let by_txn = app.world.flightrec().timelines();
        let empty = Vec::new();
        let timelines = implicated
            .iter()
            .map(|t| {
                let ft = t.flight_id();
                format_timeline(ft, by_txn.get(&ft).unwrap_or(&empty))
            })
            .collect();
        Some(FlightDump {
            json: app.world.flightrec().to_json(),
            timelines,
            timelines_by_txn: by_txn,
            committed: committed_transids(&app.world, &app.nodes),
        })
    } else {
        None
    };

    RunReport {
        seed: schedule.seed,
        trace_hash,
        commits,
        aborts,
        takeover_commit_completions,
        dumps_completed,
        purged_trail_files,
        end_ms,
        violations,
        schedule_desc: schedule.describe(),
        implicated: implicated.iter().map(|t| t.to_string()).collect(),
        flight,
    }
}

/// Snapshot a generation-0 archive of every volume, straight from the
/// (preloaded) media — the online-dump the paper's ROLLFORWARD starts
/// from.
pub(crate) fn snapshot_archives(world: &mut World, volumes: &[VolumeRef]) {
    for v in volumes {
        let files = world
            .stable()
            .get::<VolumeMedia>(&media_key(v.node, &v.volume))
            .map(|m| m.files.clone())
            .unwrap_or_default();
        let key = archive_key(v, 0);
        let vol = v.clone();
        world.stable_mut().get_or_create::<ArchiveImage, _>(&key, move || ArchiveImage {
            volume: vol,
            files,
            audit_watermark: 0,
            purge_floor: 1,
            generation: 0,
        });
    }
}

/// Start every scheduled dump due at or before `upto`: one [`DumpClient`]
/// per volume of the dump's node, spawned at the dump's own time.
pub(crate) fn start_due_dumps(
    world: &mut World,
    volumes: &[VolumeRef],
    dumps: &[ScheduledDump],
    next: &mut usize,
    upto: SimTime,
) {
    while *next < dumps.len() && dumps[*next].at <= upto {
        let d = dumps[*next].clone();
        world.run_until(d.at);
        // the dump may be scheduled while a processor of the node is
        // down; host the client on any live one
        let cpu = (0..world.cpu_count(d.node))
            .find(|&c| world.cpu_up(d.node, CpuId(c)))
            .unwrap_or(0);
        for v in volumes.iter().filter(|v| v.node == d.node) {
            world.spawn(
                d.node,
                cpu,
                Box::new(DumpClient {
                    volume: v.clone(),
                    generation: d.generation,
                    rpc: Rpc::new(2),
                }),
            );
        }
        *next += 1;
    }
}

/// One-shot client asking a node's `$DUMP` pair for one online dump. The
/// request retries persistently — a CPU fault mid-copy forces a takeover
/// that drops the dump, and the retry is what restarts it after the heal.
pub(crate) struct DumpClient {
    pub(crate) volume: VolumeRef,
    pub(crate) generation: u64,
    pub(crate) rpc: Rpc<DumpMsg, DumpReply>,
}

impl encompass_sim::Process for DumpClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.rpc.call_persistent(
            ctx,
            Target::Named(self.volume.node, "$DUMP".into()),
            DumpMsg::DumpVolume {
                volume: self.volume.clone(),
                generation: self.generation,
            },
            SimDuration::from_millis(100),
            (),
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if self.rpc.accept(ctx, payload).is_ok() {
            ctx.exit();
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if let TimerOutcome::Expired { .. } = self.rpc.on_timer(ctx, tag) {
            ctx.exit();
        }
    }

    fn kind(&self) -> &'static str {
        "dump-client"
    }
}

/// One-shot client that sends a node's `$AUDIT` an empty forced append —
/// the flush barrier that pushes every buffered image onto the trail.
pub(crate) struct AuditFlushClient {
    node: NodeId,
    rpc: Rpc<AuditMsg, AuditReply>,
}

impl AuditFlushClient {
    pub(crate) fn new(node: NodeId) -> AuditFlushClient {
        AuditFlushClient {
            node,
            rpc: Rpc::new(3),
        }
    }
}

impl encompass_sim::Process for AuditFlushClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.rpc.call_persistent(
            ctx,
            Target::Named(self.node, "$AUDIT".into()),
            AuditMsg::Append {
                records: Vec::new(),
                force: true,
            },
            SimDuration::from_millis(100),
            (),
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if self.rpc.accept(ctx, payload).is_ok() {
            ctx.exit();
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if let TimerOutcome::Expired { .. } = self.rpc.on_timer(ctx, tag) {
            ctx.exit();
        }
    }

    fn kind(&self) -> &'static str {
        "audit-flush-client"
    }
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
        ChaosAction::RestoreDownCpus { node } => {
            for c in 0..world.cpu_count(*node) {
                if !world.cpu_up(*node, CpuId(c)) {
                    world.inject(Fault::RestoreCpu(*node, CpuId(c)));
                }
            }
        }
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

pub(crate) fn heal_everything(world: &mut World, schedule: &Schedule) {
    world.inject(Fault::HealAllLinks);
    for n in 0..schedule.nodes as u8 {
        let node = NodeId(n);
        world.inject(Fault::HealBus(node, 0));
        world.inject(Fault::HealBus(node, 1));
        for c in 0..world.cpu_count(node) {
            if !world.cpu_up(node, CpuId(c)) {
                world.inject(Fault::RestoreCpu(node, CpuId(c)));
            }
        }
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
                .records
                .iter()
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
    world: &mut World,
    nodes: &[NodeId],
    violations: &mut Vec<String>,
    implicated: &mut Vec<Transid>,
) {
    let mut first_seen: DetHashMap<Transid, (bool, NodeId)> = DetHashMap::default();
    for &node in nodes {
        let Some(trail) = world.stable().get::<MonitorTrail>(&monitor_key(node)) else {
            continue;
        };
        for rec in &trail.records {
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

/// Oracle: ROLLFORWARD from the latest completed dump (the fuzzy online
/// archive, when one registered; the generation-0 snapshot otherwise)
/// plus every surviving audit trail reproduces the live media exactly.
pub(crate) fn check_convergence(
    world: &mut World,
    volumes: &[VolumeRef],
    trail_key_of: &BTreeMap<(NodeId, String), String>,
    violations: &mut Vec<String>,
) {
    for v in volumes {
        let generation = world
            .stable()
            .get::<DumpRegistry>(&dump_registry_key(v))
            .map(|r| r.generation)
            .unwrap_or(0);
        let keys: Vec<String> = trail_key_of
            .get(&(v.node, v.volume.clone()))
            .map(|k| vec![k.clone()])
            .unwrap_or_default();
        let live = snapshot_volume(world, v);
        let _ = rollforward_volume(world, v, &keys, generation);
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

type VolumeSnapshot = BTreeMap<String, Vec<(Bytes, Bytes)>>;

fn snapshot_volume(world: &World, v: &VolumeRef) -> VolumeSnapshot {
    let mut out = BTreeMap::new();
    if let Some(media) = world.stable().get::<VolumeMedia>(&media_key(v.node, &v.volume)) {
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
                    .filter(|(k, v)| {
                        r.iter().find(|(k2, _)| k2 == k).map(|(_, v2)| v2) != Some(v)
                    })
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
