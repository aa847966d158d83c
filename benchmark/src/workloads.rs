//! The five workloads and one repetition of each.
//!
//! Every workload is a closed loop: terminals under a TCP each wait for
//! their reply before sending the next transaction, as in the paper. All
//! are fixed-count, so the work in a repetition is identical on both sides
//! of a comparison; a run repeats the same repetition (same seed, same
//! inputs) for its measuring time and reports medians. The program under
//! test receives only the generated inputs: the seed goes into
//! `BankAppParams.seed` / `ShardBankAppParams.seed` / the chaos schedule
//! generator and nowhere else.
//!
//! Inside a repetition, `launch_*` plus a virtual warm-up prefix is
//! set-up; the timed window runs from there until every terminal has
//! finished, polled at 1 ms virtual ticks; counters are deltas over the
//! window.

use crate::alloc;
use crate::layers::{self, Layer, LayerTimes, Parsed};
use encompass::app::{
    launch_bank_app, launch_shard_bank, suspense_backlog, BankAppParams, ShardBankAppParams,
};
use encompass::workload::total_balance;
use encompass_chaos::{run_schedule, run_schedule_with, Schedule};
use encompass_sim::{
    attribute_commit, CommitAttribution, CpuId, Fault, FlightCause, FlightEvent, NodeId, SimConfig,
    SimDuration, SimTime, World,
};
use std::collections::BTreeMap;
use std::time::Instant;

const TICK: SimDuration = SimDuration::from_millis(1);
/// Virtual-time budget of a window; running out is a stalled workload.
const STALL_LIMIT: SimDuration = SimDuration::from_secs(1_200);
/// Per-node flight ring size: large enough that nothing is ever dropped
/// (checked), so every transaction of the window is attributed.
const FLIGHT_CAPACITY: usize = 1 << 22;

#[derive(Clone, Copy, Debug)]
pub struct BankSpec {
    pub rw_terminals: usize,
    pub rw_transactions: u64,
    pub ro_terminals: usize,
    pub ro_transactions: u64,
    /// Two kill/restore cycles `(kill_at, restore_at)` in virtual time,
    /// the first aimed at the CPU of the `$BANK` DISCPROCESS primary, the
    /// second at the CPU the TMP primary will be on by then.
    pub failover: Option<[(SimDuration, SimDuration); 2]>,
}

#[derive(Clone, Copy, Debug)]
pub struct ShardSpec {
    pub nodes: usize,
    pub accounts_per_node: u64,
    pub terminals_per_node: usize,
    pub transactions: u64,
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Bank(BankSpec),
    Shard(ShardSpec),
    /// `schedules` consecutive chaos seeds, every oracle evaluated.
    Chaos {
        schedules: u64,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// Virtual warm-up prefix that belongs to set-up: servers spawned, caches
/// and queues in steady state before the window opens.
const BANK_PREFIX: SimDuration = SimDuration::from_secs(2);
const SHARD_PREFIX: SimDuration = SimDuration::from_millis(200);

const BANK1_WRITE: BankSpec = BankSpec {
    rw_terminals: 8,
    rw_transactions: 600,
    ro_terminals: 0,
    ro_transactions: 0,
    failover: None,
};

/// The frozen inputs (README.md lists them with the reason for each).
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "bank1_write",
        kind: Kind::Bank(BANK1_WRITE),
    },
    Workload {
        name: "bank1_readmostly",
        kind: Kind::Bank(BankSpec {
            rw_terminals: 4,
            rw_transactions: 300,
            ro_terminals: 12,
            ro_transactions: 3_000,
            failover: None,
        }),
    },
    Workload {
        name: "bank1_failover",
        kind: Kind::Bank(BankSpec {
            failover: Some([
                (SimDuration::from_secs(10), SimDuration::from_secs(15)),
                (SimDuration::from_secs(25), SimDuration::from_secs(30)),
            ]),
            ..BANK1_WRITE
        }),
    },
    Workload {
        name: "shard64_x100",
        kind: Kind::Shard(ShardSpec {
            nodes: 64,
            accounts_per_node: 64,
            terminals_per_node: 4,
            transactions: 16,
        }),
    },
    Workload {
        name: "chaos_sweep400",
        kind: Kind::Chaos { schedules: 400 },
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// How a repetition is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    /// `run_for` at full speed; tracing, flight recording off.
    Plain,
    /// As `Plain` with the flight recorder on (hash-neutral by contract).
    Flight,
    /// One `World::step()` per event, each timed and attributed to a layer.
    Stepped,
}

/// What must be identical across repetitions of one workload and seed,
/// whatever the drive: any difference is a benchmark or determinism bug.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Signature {
    /// Trace hash after the drain and the tail, which covers every event
    /// of the repetition (chaos: folded over the schedules).
    pub hash: u64,
    /// Commits inside the window.
    pub commits: u64,
    /// Virtual length of the window.
    pub virt_window_us: u64,
}

/// Virtual-time latencies from the flight recorder, microseconds.
#[derive(Clone, Debug, Default)]
pub struct FlightStats {
    /// BEGIN → commit point of committed read-write transactions.
    pub write_total: Vec<u64>,
    /// The same for committed read-only transactions.
    pub read_total: Vec<u64>,
    pub lock_wait: Vec<u64>,
    pub force: Vec<u64>,
    pub checkpoint: Vec<u64>,
    pub bus: Vec<u64>,
    /// END-TRANSACTION → commit point.
    pub end_to_commit: Vec<u64>,
    /// Longest gap between two consecutive commit points: one entry for a
    /// world-driving workload, one per schedule for the chaos sweep.
    pub commit_gaps: Vec<u64>,
}

#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub setup_ns: u64,
    pub window_ns: u64,
    /// Events dispatched in the window (0 for chaos: its worlds are built
    /// and dropped inside `run_schedule`).
    pub events: u64,
    /// Last terminal finished → every suspense backlog empty.
    pub drain_us: u64,
    pub counters: BTreeMap<&'static str, u64>,
    /// Heap allocations inside the window, when counted.
    pub allocs_window: u64,
    /// Peak live heap over the whole repetition, when counted.
    pub peak_bytes: u64,
    pub flight: Option<FlightStats>,
    pub layer_times: Option<LayerTimes>,
    /// The window's host time cut into segments that are the same work in
    /// every repetition: one per chaos schedule, else the whole window.
    pub segments_ns: Vec<u64>,
    /// Input operations (terminal transactions; chaos: schedules) and how
    /// many of them did not complete correctly.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty on a correct repetition.
    pub check_failures: Vec<String>,
}

impl Rep {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Counters read through `World::metrics().get(..)` at both ends of the
/// window.
pub const COUNTERS: [&str; 37] = [
    "sim.msgs.local",
    "sim.msgs.bus",
    "sim.msgs.net",
    "sim.msgs.lost",
    "sim.msgs.lost_in_flight",
    "sim.msgs.to_dead",
    "pair.checkpoints",
    "pair.takeovers",
    "pair.backup_respawned",
    "disc.ops",
    "disc.lock_waits",
    "disc.lock_timeouts",
    "disc.cache_hits",
    "disc.cache_misses",
    "disc.flush_writes",
    "disc.snapshot_reads",
    "disc.snapshot_too_old",
    "audit.forces",
    "audit.forced_records",
    "audit.records",
    "backout.images",
    "tmf.begins",
    "tmf.commits",
    "tmf.readonly_commits",
    "tmf.aborts",
    "tmf.monitor_forces",
    "tmf.state_broadcasts",
    "tmf.msgs.phase1_net",
    "tmf.msgs.phase2_net",
    "tmf.msgs.remote_begin",
    "tmf.takeover_commit_completions",
    "tcp.sends",
    "tcp.restarts",
    "tcp.restart_limit_hit",
    "server.requests_served",
    "suspense.applied",
    "suspense.retries",
];

fn snapshot(world: &World) -> Vec<u64> {
    COUNTERS.iter().map(|c| world.metrics().get(c)).collect()
}

/// Delivery jitter of the world-driving workloads, a third of a bus hop.
/// With the default of zero the cost model quantizes every latency — the
/// median read-write commit takes exactly 74.2 virtual ms on every seed —
/// and closed-loop terminals phase-lock into seed-dependent regimes; a
/// little jitter lets seeds differ the way real hardware would.
const JITTER: SimDuration = SimDuration::from_micros(50);

fn sim_config(seed: u64, drive: Drive) -> SimConfig {
    SimConfig {
        seed,
        jitter: JITTER,
        flight_recorder: drive == Drive::Flight,
        flight_capacity: FLIGHT_CAPACITY,
        // the stepped drive reads back the one event `step()` just traced
        trace_enabled: drive == Drive::Stepped,
        trace_capacity: 1,
        ..SimConfig::default()
    }
}

/// Run one repetition. `count_allocs` switches the counting allocator on
/// for its duration.
pub fn repetition(w: Workload, seed: u64, drive: Drive, count_allocs: bool) -> (Rep, Signature) {
    if count_allocs {
        alloc::start();
    }
    let out = match w.kind {
        Kind::Bank(spec) => bank_repetition(spec, seed, drive),
        Kind::Shard(spec) => shard_repetition(spec, seed, drive),
        Kind::Chaos { schedules } => chaos_repetition(schedules, seed, drive),
    };
    let (mut rep, sig) = out;
    if count_allocs {
        alloc::stop();
        rep.peak_bytes = alloc::peak_bytes();
    }
    (rep, sig)
}

// ----------------------------------------------------------------------
// World-driving workloads
// ----------------------------------------------------------------------

struct WindowPlan {
    terminals: u64,
    /// Transactions the terminals must commit in total.
    transactions: u64,
    /// Nodes whose `$SB` suspense file must drain to zero.
    suspense_nodes: Vec<NodeId>,
}

/// Quiescence tail after the window and the suspense drain: phase two,
/// abort notifications, backouts.
const TAIL: SimDuration = SimDuration::from_secs(2);

fn bank_repetition(spec: BankSpec, seed: u64, drive: Drive) -> (Rep, Signature) {
    let started = Instant::now();
    let mut app = launch_bank_app(BankAppParams {
        node_cpus: vec![4],
        history: false,
        accounts: 1_000,
        terminals_per_node: spec.rw_terminals,
        readonly_terminals_per_node: spec.ro_terminals,
        transactions_per_terminal: spec.rw_transactions,
        readonly_transactions_per_terminal: Some(spec.ro_transactions),
        think: SimDuration::from_micros(500),
        seed,
        sim: sim_config(seed, drive),
        ..BankAppParams::default()
    });
    let plan = WindowPlan {
        terminals: (spec.rw_terminals + spec.ro_terminals) as u64,
        transactions: spec.rw_terminals as u64 * spec.rw_transactions
            + spec.ro_terminals as u64 * spec.ro_transactions,
        suspense_nodes: Vec::new(),
    };
    app.world.run_for(BANK_PREFIX);
    let mut early = Vec::new();
    if let Some(cycles) = spec.failover {
        schedule_failover(&mut app.world, cycles, &mut early);
    }
    let setup_ns = started.elapsed().as_nanos() as u64;

    let (mut rep, sig) = measure_window(&mut app.world, &plan, drive, setup_ns);
    rep.check_failures.splice(0..0, early);

    if spec.failover.is_some() {
        if rep.counter("pair.takeovers") < 2 {
            rep.check_failures.push(format!(
                "failover: {} pair takeovers in the window, expected at least 2",
                rep.counter("pair.takeovers")
            ));
        }
    } else if rep.counter("pair.takeovers") != 0 {
        rep.check_failures
            .push("fault-free workload saw a pair takeover".to_string());
    }
    // read-only commits force nothing: every trail force and monitor force
    // in the window belongs to a read-write commit or an abort
    let writes = rep.counter("tmf.commits") - rep.counter("tmf.readonly_commits");
    let forced = writes + rep.counter("tmf.aborts");
    if spec.ro_terminals > 0
        && (rep.counter("tmf.monitor_forces") > forced || rep.counter("audit.forces") > forced)
    {
        rep.check_failures.push(format!(
            "read-only commits forced the trail: {} monitor forces, {} audit forces for {} \
             read-write outcomes",
            rep.counter("tmf.monitor_forces"),
            rep.counter("audit.forces"),
            forced
        ));
    }
    (rep, sig)
}

/// Pre-schedule both kill/restore cycles at the window's start, so the
/// plain and the stepped drive see the same fault timeline without the
/// driver touching the world mid-run. The first kill takes the CPU of the
/// `$BANK` primary. The second takes the TMP's primary as of then: its
/// current primary CPU, unless the first kill already forces a TMP
/// takeover, in which case the pair's other CPU.
fn schedule_failover(
    world: &mut World,
    cycles: [(SimDuration, SimDuration); 2],
    failures: &mut Vec<String>,
) {
    let node = NodeId(0);
    let primary_cpu = |world: &World, service: &str, kind: &str| {
        world
            .lookup_name(node, service)
            .filter(|&pid| world.process_kind(pid) == Some(kind))
            .map(|pid| pid.cpu)
    };
    let (Some(disc_cpu), Some(tmp_cpu)) = (
        primary_cpu(world, "$BANK", "discprocess"),
        primary_cpu(world, "$TMP", "tmp"),
    ) else {
        failures.push("failover: $BANK or $TMP primary not found".to_string());
        return;
    };
    let tmp_cpus: Vec<CpuId> = (0..world.cpu_count(node))
        .map(CpuId)
        .filter(|&cpu| {
            world
                .procs_on_cpu(node, cpu)
                .iter()
                .any(|&p| world.process_kind(p) == Some("tmp"))
        })
        .collect();
    let second = if tmp_cpu == disc_cpu {
        tmp_cpus.iter().copied().find(|&c| c != tmp_cpu)
    } else {
        Some(tmp_cpu)
    };
    let Some(second) = second else {
        failures.push("failover: TMP backup CPU not found".to_string());
        return;
    };
    let now = world.now();
    for ((kill_at, restore_at), cpu) in cycles.into_iter().zip([disc_cpu, second]) {
        world.schedule_fault(now + kill_at, Fault::KillCpu(node, cpu));
        world.schedule_fault(now + restore_at, Fault::RestoreCpu(node, cpu));
    }
}

fn shard_repetition(spec: ShardSpec, seed: u64, drive: Drive) -> (Rep, Signature) {
    let started = Instant::now();
    let (mut app, _map) = launch_shard_bank(ShardBankAppParams {
        nodes: spec.nodes,
        accounts: spec.nodes as u64 * spec.accounts_per_node,
        terminals_per_node: spec.terminals_per_node,
        transactions_per_terminal: spec.transactions,
        cross_shard_permille: 100,
        branch_permille: 100,
        branch_replicas: 2,
        think: SimDuration::from_millis(1),
        seed,
        sim: sim_config(seed, drive),
        ..ShardBankAppParams::default()
    });
    let terminals = (spec.nodes * spec.terminals_per_node) as u64;
    let plan = WindowPlan {
        terminals,
        transactions: terminals * spec.transactions,
        suspense_nodes: app.nodes.clone(),
    };
    let before = total_balance(&mut app.world, &app.catalog, "accounts");
    app.world.run_for(SHARD_PREFIX);
    let setup_ns = started.elapsed().as_nanos() as u64;

    let (mut rep, sig) = measure_window(&mut app.world, &plan, drive, setup_ns);

    // transfers conserve exactly
    let after = total_balance(&mut app.world, &app.catalog, "accounts");
    if before != after {
        rep.check_failures
            .push(format!("accounts total moved from {before} to {after}"));
    }
    if rep.counter("pair.takeovers") != 0 {
        rep.check_failures
            .push("fault-free workload saw a pair takeover".to_string());
    }
    (rep, sig)
}

/// The timed window, the drain after it, and the checks every
/// world-driving workload shares.
fn measure_window(
    world: &mut World,
    plan: &WindowPlan,
    drive: Drive,
    setup_ns: u64,
) -> (Rep, Signature) {
    let mut rep = Rep {
        setup_ns,
        attempted: plan.transactions,
        ..Rep::default()
    };
    let window_start = world.now();
    let deadline = window_start + STALL_LIMIT;
    let finished = |world: &World| world.metrics().get("tcp.terminals_finished");
    let before = snapshot(world);
    let events_before = world.events_processed();
    let allocs_before = alloc::allocations();
    let mut layer_times = LayerTimes::default();

    let clock = Instant::now();
    if drive == Drive::Stepped {
        while finished(world) < plan.terminals && world.now() < deadline {
            let hash = world.trace_hash();
            let t = Instant::now();
            let more = world.step();
            let ns = t.elapsed().as_nanos() as u64;
            let (layer, timer) = attribute_step(world, hash);
            layer_times.record(layer, timer, ns);
            if !more {
                break;
            }
        }
    } else {
        while finished(world) < plan.terminals && world.now() < deadline {
            world.run_for(TICK);
        }
    }
    rep.window_ns = clock.elapsed().as_nanos() as u64;
    rep.segments_ns = vec![rep.window_ns];
    rep.allocs_window = alloc::allocations() - allocs_before;

    // The stepped drive stops on the finishing event, the others on the
    // tick after it: bring the stepped world to the same tick, so that the
    // counter deltas, everything from here on, and the final hash are
    // comparable across drives.
    let past = world.now().since(window_start).as_micros();
    let tick = TICK.as_micros();
    let window_end = window_start + SimDuration::from_micros(past.div_ceil(tick) * tick);
    world.run_for(window_end.since(world.now()));
    let virt_window_us = window_end.since(window_start).as_micros();

    rep.events = world.events_processed() - events_before;
    for (name, (a, b)) in COUNTERS.iter().zip(before.iter().zip(snapshot(world))) {
        rep.counters.insert(name, b - a);
    }
    layer_times.commits = rep.counter("tmf.commits");

    if finished(world) < plan.terminals {
        rep.check_failures.push(format!(
            "stalled: {}/{} terminals finished after {} virtual ms",
            finished(world),
            plan.terminals,
            virt_window_us / 1_000
        ));
    }

    // drain: every deferred replica update applied
    let backlog = |world: &World| -> usize {
        plan.suspense_nodes
            .iter()
            .map(|&n| suspense_backlog(world, n, "$SB"))
            .sum()
    };
    let drain_limit = window_end + SimDuration::from_secs(60);
    while backlog(world) > 0 && world.now() < drain_limit {
        world.run_for(SimDuration::from_millis(10));
    }
    rep.drain_us = world.now().since(window_end).as_micros();
    if backlog(world) > 0 {
        rep.check_failures
            .push(format!("{} suspense entries never drained", backlog(world)));
    }
    world.run_for(TAIL);

    let committed = world.metrics().get("tcp.commits");
    if committed != plan.transactions {
        rep.check_failures.push(format!(
            "terminals committed {committed} transactions, the inputs hold {}",
            plan.transactions
        ));
    }
    rep.failed = plan.transactions.saturating_sub(committed);

    match drive {
        Drive::Flight => {
            let stats = flight_stats_of_world(world, window_start, &mut rep.check_failures);
            rep.flight = Some(stats);
        }
        Drive::Stepped => rep.layer_times = Some(layer_times),
        Drive::Plain => {}
    }
    let sig = Signature {
        hash: world.trace_hash(),
        commits: rep.counter("tmf.commits"),
        virt_window_us,
    };
    (rep, sig)
}

/// Which layer the event `step()` just dispatched belongs to. An unchanged
/// trace hash means the kernel noted nothing: it dropped the event without
/// running a handler.
fn attribute_step(world: &World, hash_before: u64) -> (Layer, bool) {
    if world.trace_hash() == hash_before {
        return (Layer::Sim, false);
    }
    let events = world.trace_events();
    let Some(ev) = events.last() else {
        return (Layer::Unattributed, false);
    };
    let parsed = layers::parse_event(ev.kind, &ev.detail);
    let timer = matches!(parsed, Parsed::Handler { timer: true, .. });
    (
        layers::classify(parsed, |pid| world.process_kind(pid)),
        timer,
    )
}

// ----------------------------------------------------------------------
// Flight-recorder statistics
// ----------------------------------------------------------------------

impl FlightStats {
    /// File the transactions of one world that began at or after `since`
    /// and committed, and the longest gap between their commit points.
    fn add_world<'e>(
        &mut self,
        timelines: impl Iterator<Item = (&'e [FlightEvent], Option<CommitAttribution>)>,
        since: SimTime,
        failures: &mut Vec<String>,
    ) {
        let mut commit_points = Vec::new();
        for (events, attribution) in timelines {
            let in_window = events.first().is_some_and(|e| e.at >= since);
            let end_requested = events.iter().find(|e| e.cause == FlightCause::EndRequested);
            if let (true, Some(a), Some(end)) = (in_window, attribution, end_requested) {
                self.add(&a, failures);
                commit_points.push(end.at.as_micros() + a.commit_us);
            }
        }
        commit_points.sort_unstable();
        self.commit_gaps
            .extend(commit_points.windows(2).map(|w| w[1] - w[0]).max());
    }

    /// File one committed transaction. The four components partition the
    /// BEGIN → commit window by construction; a read-only commit forces
    /// nothing, which is how the two classes are told apart.
    fn add(&mut self, a: &CommitAttribution, failures: &mut Vec<String>) {
        if a.component_sum() != a.total_us && failures.len() < 8 {
            failures.push(format!(
                "latency components sum to {} us, the window is {} us",
                a.component_sum(),
                a.total_us
            ));
        }
        if a.force_us == 0 {
            self.read_total.push(a.total_us);
            return;
        }
        self.write_total.push(a.total_us);
        self.lock_wait.push(a.lock_wait_us);
        self.force.push(a.force_us);
        self.checkpoint.push(a.checkpoint_us);
        self.bus.push(a.bus_us);
        self.end_to_commit.push(a.commit_us);
    }

    fn sort(&mut self) {
        for v in [
            &mut self.write_total,
            &mut self.read_total,
            &mut self.lock_wait,
            &mut self.force,
            &mut self.checkpoint,
            &mut self.bus,
            &mut self.end_to_commit,
            &mut self.commit_gaps,
        ] {
            v.sort_unstable();
        }
    }
}

fn flight_stats_of_world(
    world: &World,
    window_start: SimTime,
    failures: &mut Vec<String>,
) -> FlightStats {
    let mut stats = FlightStats::default();
    if world.flightrec().dropped() != 0 {
        failures.push(format!(
            "flight recorder dropped {} events: raise FLIGHT_CAPACITY",
            world.flightrec().dropped()
        ));
    }
    let reports = tmf::flight_reports(world);
    stats.add_world(
        reports.iter().map(|r| (r.events.as_slice(), r.attribution)),
        window_start,
        failures,
    );
    stats.sort();
    stats
}

// ----------------------------------------------------------------------
// The chaos sweep
// ----------------------------------------------------------------------

/// What developers actually run: short worlds where set-up, faults,
/// takeover, backout, rollforward and the oracles dominate. The worlds are
/// built and dropped inside `run_schedule`, so world set-up is *inside*
/// the timed window; what is left as set-up is generating the schedules.
fn chaos_repetition(schedules: u64, seed: u64, drive: Drive) -> (Rep, Signature) {
    let started = Instant::now();
    let first = seed.wrapping_mul(schedules);
    let plan: Vec<Schedule> = (0..schedules)
        .map(|i| Schedule::generate(first.wrapping_add(i)))
        .collect();
    let mut rep = Rep {
        setup_ns: started.elapsed().as_nanos() as u64,
        attempted: schedules,
        ..Rep::default()
    };
    let mut sig = Signature::default();
    let mut aborts = 0;
    let mut stats = FlightStats::default();
    let allocs_before = alloc::allocations();
    let clock = Instant::now();
    for schedule in &plan {
        let t = Instant::now();
        let report = match drive {
            Drive::Flight => run_schedule_with(schedule, true),
            _ => run_schedule(schedule),
        };
        rep.segments_ns.push(t.elapsed().as_nanos() as u64);
        sig.hash = sig.hash.rotate_left(7) ^ report.trace_hash;
        sig.commits += report.commits;
        sig.virt_window_us += report.end_ms * 1_000;
        aborts += report.aborts;
        if !report.ok() {
            rep.failed += 1;
            rep.check_failures.push(format!(
                "chaos seed {}: {}",
                report.seed,
                report.violations.join("; ")
            ));
        }
        if let Some(flight) = &report.flight {
            stats.add_world(
                flight
                    .timelines_by_txn
                    .values()
                    .map(|events| (events.as_slice(), attribute_commit(events))),
                SimTime::ZERO,
                &mut rep.check_failures,
            );
        }
    }
    rep.window_ns = clock.elapsed().as_nanos() as u64;
    rep.allocs_window = alloc::allocations() - allocs_before;
    rep.counters.insert("tmf.commits", sig.commits);
    rep.counters.insert("tmf.aborts", aborts);
    if drive == Drive::Flight {
        stats.sort();
        rep.flight = Some(stats);
    }
    (rep, sig)
}
