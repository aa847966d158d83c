//! Seeded chaos run specs.
//!
//! A [`Schedule`] is a complete description of one chaos run, composed of
//! independent parts: a base workload (the bank cluster's shape or the
//! sharded bank's [`ShardPlan`]), the group-commit window, the trail
//! partitioning, the read-only terminals, an optional [`DumpPlan`], and
//! one [`FaultPlan`] — the short fault timeline, the simulated-hours
//! [`SoakPlan`], or the sharded bank's partition/heal [`ShardCut`]. Three
//! presets assemble the parts: [`Schedule::generate`] (the sweep),
//! [`Schedule::soak`] and [`Schedule::shards`].
//!
//! Each part is one *dimension*, drawn by its own function from its own
//! RNG stream, seeded with `mix(seed, dimension)`. A dimension may read
//! the values an earlier one drew (the fault timeline reads the node
//! count), never its RNG, so a change to how one dimension draws — a new
//! fault kind, another knob — moves that dimension's values and nothing
//! else's. The same seed always produces the same schedule and, because
//! the simulator itself is deterministic, the same run.
//!
//! Generation respects the repairability rules of the simulated hardware:
//!
//! * at most one processor of a node is down at a time (process-pairs are
//!   spread over adjacent CPUs, so two concurrent kills could take out
//!   both halves of a pair — a total failure, which is ROLLFORWARD's
//!   domain, not online recovery's);
//! * at most one interprocessor bus of a node is down at a time (the
//!   paper's dual-bus design tolerates any single bus failure);
//! * every destructive action is paired with a heal, and a final
//!   heal-everything barrier precedes the quiesce phase.

use encompass::app::tcp_name;
use encompass_sim::{CpuId, Fault, LinkId, NodeId, SimTime};
use encompass_storage::types::RecoveryMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::RangeInclusive;

/// Processors per node of the bank cluster.
pub(crate) const CPUS_PER_NODE: u8 = 4;

/// Services whose primary's processor a timeline or soak kill aims at
/// (`$TMP` twice: the commit path's coordinator is the richest target).
const SERVICES: [&str; 5] = ["$TMP", "$TMP", "$BANK", "$BACKOUT", "$AUDIT"];

/// One action on the chaos timeline. `Fault` variants are injected
/// verbatim; the other variants need the live world to resolve (a service
/// name to its current primary, the set of processors currently down),
/// which the runner does at injection time — still deterministically,
/// since the world itself is deterministic.
#[derive(Clone, Debug)]
pub enum ChaosAction {
    /// Inject a raw simulator fault.
    Fault(Fault),
    /// Kill the processor currently hosting the named service's primary
    /// (e.g. `$TMP` — the satellite window: the primary dying between the
    /// commit record and the drop-checkpoint).
    KillServiceCpu { node: NodeId, service: String },
    /// Restore every processor of `node` that is currently down.
    RestoreDownCpus { node: NodeId },
    /// Kill one application server process on `node` (the `nth` of the
    /// node's live `server`-kind processes, wrapping). Models an
    /// application failure as distinct from a CPU failure; the server
    /// class monitor respawns it.
    KillServerProcess { node: NodeId, nth: usize },
}

/// A timestamped action.
#[derive(Clone, Debug)]
pub struct ScheduledEvent {
    pub at: SimTime,
    pub action: ChaosAction,
}

/// One planned ONLINEDUMP: at `at`, dump every volume of `node` as
/// archive `generation`. Dumps are anchored shortly before a scheduled
/// CPU kill when the timeline has one, so the sweep routinely exercises
/// faults landing mid-copy.
#[derive(Clone, Debug)]
pub struct ScheduledDump {
    pub at: SimTime,
    pub node: NodeId,
    pub generation: u64,
}

/// A complete chaos run description.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub seed: u64,
    pub workload: Workload,
    /// Group-commit window, in microseconds (0 = immediate forces, the
    /// pre-boxcarring behavior). Most schedules draw a nonzero window so
    /// the sweep exercises boxcar takeovers.
    pub group_commit_window_us: u64,
    /// Audited volumes per node the bank app spreads its accounts over
    /// (`$BANK`, `$BANK1`, …); the sharded bank has one.
    pub volumes_per_node: usize,
    /// Audit-trail partitions per AUDITPROCESS.
    pub audit_partitions: usize,
    /// Read-only (snapshot) terminals per node of the bank app.
    pub readonly_terminals_per_node: usize,
    /// `Some`: the TMP purges trail files past the dump watermarks, and
    /// the scheduled ONLINEDUMPs run.
    pub dumps: Option<DumpPlan>,
    pub faults: FaultPlan,
    /// How every DISCPROCESS makes its writes recoverable. Every preset
    /// runs the paper's design and no seed draws it (the Write-Ahead-Log
    /// baseline is about twice as slow, and drawing it would move every
    /// sweep's runs); `--wal` forces the baseline.
    pub recovery_mode: RecoveryMode,
}

/// What the run's terminals drive.
#[derive(Clone, Debug)]
pub enum Workload {
    /// The bank application on a small cluster.
    Bank(BankShape),
    /// The sharded bank.
    Shards(ShardPlan),
}

/// The bank cluster's shape.
#[derive(Clone, Debug)]
pub struct BankShape {
    /// Nodes of four processors each.
    pub nodes: usize,
    pub terminals_per_node: usize,
    /// Transactions per terminal: a handful in a short run, a soak's
    /// whole horizon's worth in a soak.
    pub transactions_per_terminal: u64,
    pub hot_fraction: f64,
}

/// The dump-and-purge subsystem's plan.
#[derive(Clone, Debug)]
pub struct DumpPlan {
    /// ONLINEDUMPs started at fixed times; a soak starts its own each
    /// epoch, so its list is empty.
    pub scheduled: Vec<ScheduledDump>,
    /// TMP trail-capacity purge interval (µs).
    pub trail_purge_interval_us: u64,
    /// Audit-trail rotation size (small, so capacity purging has whole
    /// files to drop).
    pub audit_rotate_every: usize,
}

/// What fails, and when.
#[derive(Clone, Debug)]
pub enum FaultPlan {
    /// The sweep's short timeline over the bank cluster.
    Timeline(Timeline),
    /// Simulated hours of fault epochs over the bank cluster.
    Soak(SoakPlan),
    /// One partition/heal cycle over the sharded bank.
    ShardCut(ShardCut),
}

/// A short fault timeline and its heal barrier.
#[derive(Clone, Debug)]
pub struct Timeline {
    pub events: Vec<ScheduledEvent>,
    /// When the final heal-everything barrier runs.
    pub heal_at: SimTime,
}

/// The sharded bank: a 4–6-node shard map with cross-shard transfers and
/// replicated branch records.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Shard count (one master node per shard).
    pub nodes: usize,
    /// Accounts per shard (total = `nodes * accounts_per_node`).
    pub accounts_per_node: u64,
    pub terminals_per_node: usize,
    pub transactions_per_terminal: u64,
    /// Out of 1000 transfers, how many cross a shard boundary.
    pub cross_shard_permille: u32,
    /// Out of 1000 transactions, how many are replicated branch credits.
    pub branch_permille: u32,
}

/// The sharded bank's faults: one partition/heal cycle (every shard seed
/// exercises deferred-update accumulation and the post-heal drain), and
/// for some seeds an extra CPU kill aimed at a suspense monitor's primary
/// so takeover-resume is exercised too.
#[derive(Clone, Debug)]
pub struct ShardCut {
    /// Node partitioned away from the rest mid-run.
    pub partition_node: NodeId,
    /// When the partition lands (µs).
    pub partition_at_us: u64,
    /// How long it lasts before the heal-everything barrier (µs).
    pub heal_after_us: u64,
    /// `Some((node, at))`: at `at` µs, kill the processor hosting that
    /// node's `$SUSPENSE` primary (drain must resume from the backup).
    pub monitor_kill: Option<(NodeId, u64)>,
}

/// One soak epoch's fault-and-dump plan.
#[derive(Clone, Debug)]
pub struct SoakEpoch {
    /// Node whose processor dies this epoch.
    pub kill_node: NodeId,
    /// Processor killed when `kill_service` is `None`.
    pub kill_cpu: CpuId,
    /// When `Some`, kill the processor hosting this service's primary
    /// instead of `kill_cpu` — the takeover window aimed at a specific
    /// process pair.
    pub kill_service: Option<String>,
    /// Node whose volumes ONLINEDUMP this epoch (one rolling dump
    /// generation per volume of the node).
    pub dump_node: NodeId,
}

/// Simulated hours per seed, structured as repeating epochs of kill →
/// dump → restore waves with long-lived writer and snapshot-reader
/// transactions spanning the epochs, plus an optional full-disaster drill
/// (both mirrored drives of one volume lost mid-traffic, ROLLFORWARD from
/// the latest fuzzy archive while the survivors keep serving).
#[derive(Clone, Debug)]
pub struct SoakPlan {
    /// Epoch length in microseconds; the horizon is `epochs.len() * gap`
    /// plus the run-out, at least one simulated hour.
    pub epoch_gap_us: u64,
    pub epochs: Vec<SoakEpoch>,
    /// `Some((epoch, slot))`: during that epoch, fail both mirrored
    /// drives of the volume at `slot` (modulo the actual slot count),
    /// then recover it with ROLLFORWARD from the registry archive while
    /// traffic continues elsewhere.
    pub disaster: Option<(usize, usize)>,
    /// Terminal think time (ms) — soak terminals pace themselves over
    /// the horizon instead of burning through their budget up front.
    pub think_ms: u64,
    /// Pause between a soak reader's snapshot reads (ms) — long enough
    /// that the small snapshot-undo ring overflows under it and the
    /// reader exercises the `SnapshotTooOld` restart path.
    pub reader_pause_ms: u64,
}

/// The dimensions of a schedule, each drawn from its own stream.
#[derive(Clone, Copy)]
enum Dim {
    Shape,
    Faults,
    Window,
    Dumps,
    Partitions,
    Readers,
    Soak,
    Shards,
}

/// The seed of `dim`'s stream for run `seed`: one SplitMix64 step — the
/// salted seed advanced by the dimension's index plus one times the
/// golden-ratio increment, then SplitMix64's finalizer. The finalizer is a
/// bijection, so two dimensions of one seed never share a stream.
fn mix(seed: u64, dim: Dim) -> u64 {
    let mut z =
        (seed ^ 0xC4A0_5CED).wrapping_add((dim as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn stream(seed: u64, dim: Dim) -> StdRng {
    StdRng::seed_from_u64(mix(seed, dim))
}

impl Schedule {
    /// The sweep preset for `seed`: the bank cluster under a short fault
    /// timeline. [`Schedule::with_dumps`] adds the online-dump plan.
    pub fn generate(seed: u64) -> Schedule {
        let shape = bank_shape(seed, 4..=8);
        let timeline = timeline(seed, shape.nodes);
        Schedule::bank(seed, shape, FaultPlan::Timeline(timeline), None)
    }

    /// The soak preset for `seed`: the bank cluster over simulated hours.
    pub fn soak(seed: u64) -> Schedule {
        let shape = bank_shape(seed, 120..=180);
        let (plan, trail) = soak(seed, shape.nodes);
        Schedule::bank(seed, shape, FaultPlan::Soak(plan), Some(trail))
    }

    /// The sharded-bank preset for `seed`: one volume and one trail per
    /// node, no read-only terminals, no dumps.
    pub fn shards(seed: u64) -> Schedule {
        let (plan, cut) = shards(seed);
        Schedule {
            seed,
            workload: Workload::Shards(plan),
            group_commit_window_us: window(seed),
            volumes_per_node: 1,
            audit_partitions: 1,
            readonly_terminals_per_node: 0,
            dumps: None,
            faults: FaultPlan::ShardCut(cut),
            recovery_mode: RecoveryMode::NonStopCheckpoint,
        }
    }

    /// Add the drawn online-dump plan (`--dumps`). Only a short timeline
    /// takes one: a soak already dumps every epoch.
    pub fn with_dumps(mut self) -> Schedule {
        if let (Workload::Bank(shape), FaultPlan::Timeline(t)) = (&self.workload, &self.faults) {
            // the anchors: when each processor kill starts, in timeline order
            let kill_starts: Vec<u64> = (t.events.iter())
                .filter(|e| {
                    matches!(
                        e.action,
                        ChaosAction::Fault(Fault::KillCpu(..)) | ChaosAction::KillServiceCpu { .. }
                    )
                })
                .map(|e| e.at.as_micros())
                .collect();
            self.dumps = Some(dump_plan(self.seed, shape.nodes, &kill_starts));
        }
        self
    }

    fn bank(seed: u64, shape: BankShape, faults: FaultPlan, dumps: Option<DumpPlan>) -> Schedule {
        let (volumes_per_node, audit_partitions) = partitions(seed);
        Schedule {
            seed,
            workload: Workload::Bank(shape),
            group_commit_window_us: window(seed),
            volumes_per_node,
            audit_partitions,
            readonly_terminals_per_node: readers(seed),
            dumps,
            faults,
            recovery_mode: RecoveryMode::NonStopCheckpoint,
        }
    }

    /// Human-readable schedule, for failure reports.
    pub fn describe(&self) -> String {
        let mut out = format!("seed {}: ", self.seed);
        match &self.workload {
            Workload::Bank(b) => out.push_str(&format!(
                "{} nodes x {} cpus, {} terminals/node x {} txns, hot {:.2}, \
                 {} vols/node, {} trail partitions, {} readers/node",
                b.nodes,
                CPUS_PER_NODE,
                b.terminals_per_node,
                b.transactions_per_terminal,
                b.hot_fraction,
                self.volumes_per_node,
                self.audit_partitions,
                self.readonly_terminals_per_node,
            )),
            Workload::Shards(p) => out.push_str(&format!(
                "{} shards x {} accounts, {} terminals/node x {} txns, \
                 cross-shard {}‰, branch {}‰",
                p.nodes,
                p.accounts_per_node,
                p.terminals_per_node,
                p.transactions_per_terminal,
                p.cross_shard_permille,
                p.branch_permille,
            )),
        }
        out.push_str(&format!(", gc-window {}us", self.group_commit_window_us));
        if self.recovery_mode != RecoveryMode::NonStopCheckpoint {
            out.push_str(&format!(", {:?}", self.recovery_mode));
        }
        out.push('\n');
        match &self.faults {
            FaultPlan::Timeline(t) => {
                for ev in &t.events {
                    let what = match &ev.action {
                        ChaosAction::Fault(f) => f.label(),
                        ChaosAction::KillServiceCpu { node, service } => {
                            format!("kill-service-cpu {node} {service}")
                        }
                        ChaosAction::RestoreDownCpus { node } => {
                            format!("restore-down-cpus {node}")
                        }
                        ChaosAction::KillServerProcess { node, nth } => {
                            format!("kill-server {node} #{nth}")
                        }
                    };
                    out.push_str(&format!("  t={:>7}ms  {}\n", ev.at.as_millis(), what));
                }
                out.push_str(&format!(
                    "  t={:>7}ms  heal-everything\n",
                    t.heal_at.as_millis()
                ));
            }
            FaultPlan::Soak(s) => {
                out.push_str(&format!(
                    "  soak: {} epochs x {}s, think {}ms, reader pause {}ms\n",
                    s.epochs.len(),
                    s.epoch_gap_us / 1_000_000,
                    s.think_ms,
                    s.reader_pause_ms,
                ));
                for (e, ep) in s.epochs.iter().enumerate() {
                    let kill = match &ep.kill_service {
                        Some(svc) => format!("kill-service-cpu {} {}", ep.kill_node, svc),
                        None => format!("kill-cpu {} cpu{}", ep.kill_node, ep.kill_cpu.0),
                    };
                    out.push_str(&format!(
                        "  soak epoch {e}: {kill}, dump {}\n",
                        ep.dump_node
                    ));
                }
                if let Some((epoch, slot)) = s.disaster {
                    out.push_str(&format!(
                        "  soak disaster drill: epoch {epoch}, volume slot {slot}\n"
                    ));
                }
            }
            FaultPlan::ShardCut(c) => {
                out.push_str(&format!(
                    "  shard partition: {} cut at t={}ms, healed at t={}ms\n",
                    c.partition_node,
                    c.partition_at_us / 1_000,
                    (c.partition_at_us + c.heal_after_us) / 1_000,
                ));
                if let Some((node, at)) = c.monitor_kill {
                    out.push_str(&format!(
                        "  shard monitor kill: $SUSPENSE primary at {} killed at t={}ms\n",
                        node,
                        at / 1_000,
                    ));
                }
            }
        }
        if let Some(d) = &self.dumps {
            for d in &d.scheduled {
                out.push_str(&format!(
                    "  t={:>7}ms  online-dump {} gen {}\n",
                    d.at.as_millis(),
                    d.node,
                    d.generation
                ));
            }
            out.push_str(&format!(
                "  trail-purge every {}us, rotate every {} records\n",
                d.trail_purge_interval_us, d.audit_rotate_every
            ));
        }
        out
    }
}

/// The bank cluster's shape, with `transactions` per terminal.
fn bank_shape(seed: u64, transactions: RangeInclusive<u64>) -> BankShape {
    let rng = &mut stream(seed, Dim::Shape);
    BankShape {
        nodes: rng.random_range(2..=3usize),
        terminals_per_node: rng.random_range(2..=3usize),
        transactions_per_terminal: rng.random_range(transactions),
        hot_fraction: if rng.random_bool(0.3) { 0.25 } else { 0.0 },
    }
}

/// The group-commit window (µs): zero in two draws of five.
fn window(seed: u64) -> u64 {
    match stream(seed, Dim::Window).random_range(0..5u8) {
        0 | 1 => 0,
        2 => 1_000,
        3 => 2_000,
        _ => 5_000,
    }
}

/// 3–8 faults over `nodes` nodes, each paired with its heal.
fn timeline(seed: u64, nodes: usize) -> Timeline {
    let rng = &mut stream(seed, Dim::Faults);
    let n_links = (nodes * (nodes - 1) / 2) as u32;
    let mut events: Vec<ScheduledEvent> = Vec::new();
    let mut at = |t: u64, action: ChaosAction| {
        events.push(ScheduledEvent {
            at: SimTime::from_micros(t),
            action,
        })
    };
    // per-node time (µs) before which no new CPU kill may start
    let mut cpu_free_at = vec![0u64; nodes];
    // per-node time before which no new bus kill may start
    let mut bus_free_at = vec![0u64; nodes];

    let mut t: u64 = 100_000 + rng.random_range(0..100_000u64);
    let n_faults = rng.random_range(3..=8usize);
    let mut last = t;
    for _ in 0..n_faults {
        t += rng.random_range(30_000..250_000u64);
        let heal_after = rng.random_range(80_000..500_000u64);
        let node = NodeId(rng.random_range(0..nodes as u8));
        let ni = node.0 as usize;
        match rng.random_range(0..8u8) {
            // 0-1: kill a random processor
            0 | 1 => {
                if t < cpu_free_at[ni] {
                    continue; // this node is already degraded
                }
                let cpu = CpuId(rng.random_range(0..CPUS_PER_NODE));
                at(t, ChaosAction::Fault(Fault::KillCpu(node, cpu)));
                at(t + heal_after, ChaosAction::RestoreDownCpus { node });
                cpu_free_at[ni] = t + heal_after + 50_000;
            }
            // 2-3: kill the processor hosting a service primary
            2 | 3 => {
                if t < cpu_free_at[ni] {
                    continue;
                }
                let service = service(rng, node);
                at(t, ChaosAction::KillServiceCpu { node, service });
                at(t + heal_after, ChaosAction::RestoreDownCpus { node });
                cpu_free_at[ni] = t + heal_after + 50_000;
            }
            // 4: one interprocessor bus
            4 => {
                if t < bus_free_at[ni] {
                    continue;
                }
                let bus = rng.random_range(0..2u8);
                at(t, ChaosAction::Fault(Fault::KillBus(node, bus)));
                at(
                    t + heal_after,
                    ChaosAction::Fault(Fault::HealBus(node, bus)),
                );
                bus_free_at[ni] = t + heal_after + 50_000;
            }
            // 5: partition one node from the rest
            5 => {
                at(t, ChaosAction::Fault(Fault::Partition(vec![node])));
                at(t + heal_after, ChaosAction::Fault(Fault::HealAllLinks));
            }
            // 6: cut a single link
            6 => {
                let link = LinkId(rng.random_range(0..n_links.max(1)));
                at(t, ChaosAction::Fault(Fault::CutLink(link)));
                at(t + heal_after, ChaosAction::Fault(Fault::HealLink(link)));
            }
            // 7: kill an application server process
            _ => {
                let nth = rng.random_range(0..8usize);
                at(t, ChaosAction::KillServerProcess { node, nth });
            }
        }
        last = last.max(t + heal_after);
    }
    events.sort_by_key(|e| e.at);
    Timeline {
        events,
        heal_at: SimTime::from_micros(last + 300_000),
    }
}

/// A service on `node` whose primary's processor to kill: its TCP one
/// time in five.
fn service(rng: &mut StdRng, node: NodeId) -> String {
    if rng.random_bool(0.2) {
        tcp_name(node).to_string()
    } else {
        SERVICES[rng.random_range(0..SERVICES.len())].to_string()
    }
}

/// One or two ONLINEDUMPs over `nodes` nodes, each starting ~30 ms before
/// one of the timeline's processor kills (`kill_starts`, µs) when there
/// is one, so takeovers land mid-copy; and the purge knobs.
fn dump_plan(seed: u64, nodes: usize, kill_starts: &[u64]) -> DumpPlan {
    let rng = &mut stream(seed, Dim::Dumps);
    let n_dumps = rng.random_range(1..=2usize);
    let mut scheduled = Vec::new();
    for _ in 0..n_dumps {
        let node = NodeId(rng.random_range(0..nodes as u8));
        let at = if kill_starts.is_empty() {
            150_000 + rng.random_range(0..200_000u64)
        } else {
            let anchor = kill_starts[rng.random_range(0..kill_starts.len())];
            anchor.saturating_sub(30_000).max(50_000)
        };
        scheduled.push(ScheduledDump {
            at: SimTime::from_micros(at),
            node,
            generation: 0,
        });
    }
    scheduled.sort_by_key(|d| d.at);
    // generation 0 is the runner's pre-run snapshot; dumps count up
    // from 1 in timeline order so the registry never rolls back
    for (i, d) in scheduled.iter_mut().enumerate() {
        d.generation = i as u64 + 1;
    }
    DumpPlan {
        scheduled,
        trail_purge_interval_us: rng.random_range(40_000..=150_000u64),
        // small trail files so a short run rotates (and can purge) several
        audit_rotate_every: rng.random_range(16..=64usize),
    }
}

/// `(volumes_per_node, audit_partitions)`.
fn partitions(seed: u64) -> (usize, usize) {
    let rng = &mut stream(seed, Dim::Partitions);
    (rng.random_range(1..=2usize), rng.random_range(1..=3usize))
}

/// Read-only terminals per node.
fn readers(seed: u64) -> usize {
    stream(seed, Dim::Readers).random_range(0..=2usize)
}

/// The soak plan over `nodes` nodes, and its trail plan: purges seconds
/// apart, not the aggressive short-run interval, and no fixed-time dumps.
fn soak(seed: u64, nodes: usize) -> (SoakPlan, DumpPlan) {
    let rng = &mut stream(seed, Dim::Soak);
    let n_epochs = rng.random_range(6..=9usize);
    let total_us = rng.random_range(3_700_000_000..=4_500_000_000u64);
    let epochs = (0..n_epochs)
        .map(|_| {
            let kill_node = NodeId(rng.random_range(0..nodes as u8));
            SoakEpoch {
                kill_node,
                kill_cpu: CpuId(rng.random_range(0..CPUS_PER_NODE)),
                kill_service: rng.random_bool(0.4).then(|| service(rng, kill_node)),
                dump_node: NodeId(rng.random_range(0..nodes as u8)),
            }
        })
        .collect();
    let plan = SoakPlan {
        epoch_gap_us: total_us / n_epochs as u64,
        epochs,
        disaster: (rng.random_range(0..4u8) == 0)
            .then(|| (rng.random_range(1..n_epochs), rng.random_range(0..16usize))),
        think_ms: rng.random_range(15_000..=30_000u64),
        reader_pause_ms: rng.random_range(45_000..=90_000u64),
    };
    let trail = DumpPlan {
        scheduled: Vec::new(),
        trail_purge_interval_us: rng.random_range(5_000_000..=15_000_000u64),
        audit_rotate_every: rng.random_range(16..=64usize),
    };
    (plan, trail)
}

/// The sharded bank and its partition/heal cycle.
fn shards(seed: u64) -> (ShardPlan, ShardCut) {
    let rng = &mut stream(seed, Dim::Shards);
    let plan = ShardPlan {
        nodes: rng.random_range(4..=6usize),
        accounts_per_node: rng.random_range(40..=80u64),
        terminals_per_node: rng.random_range(2..=3usize),
        transactions_per_terminal: rng.random_range(6..=10u64),
        cross_shard_permille: [0u32, 150, 300, 500][rng.random_range(0..4usize)],
        branch_permille: rng.random_range(150..=300u32),
    };
    let partition_at_us = 500_000 + rng.random_range(0..1_000_000u64);
    let heal_after_us = rng.random_range(2_000_000..=5_000_000u64);
    let cut = ShardCut {
        partition_node: NodeId(rng.random_range(0..plan.nodes as u8)),
        partition_at_us,
        heal_after_us,
        monitor_kill: rng.random_bool(0.5).then(|| {
            let node = NodeId(rng.random_range(0..plan.nodes as u8));
            let at = partition_at_us + heal_after_us + rng.random_range(200_000..800_000u64);
            (node, at)
        }),
    };
    (plan, cut)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over each seed's drawn values, as `Debug` prints them.
    fn fold<T: std::fmt::Debug>(draw: impl Fn(u64) -> T) -> u64 {
        (0..256u64).fold(0xcbf2_9ce4_8422_2325, |h, seed| {
            format!("{:?}", draw(seed))
                .bytes()
                .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// One literal per dimension, each folded over seeds 0..256 from that
    /// dimension's function alone (values it reads from earlier dimensions
    /// are fixed here): a change to one dimension's draws edits exactly
    /// one literal.
    #[test]
    fn each_dimension_draws_what_it_drew() {
        let nodes = |seed: u64| 2 + seed as usize % 2;
        let kills = |seed: u64| [200_000, 450_000][..seed as usize % 3].to_vec();
        let folds = [
            (
                "shape",
                fold(|s| (bank_shape(s, 4..=8), bank_shape(s, 120..=180))),
            ),
            ("faults", fold(|s| timeline(s, nodes(s)))),
            ("window", fold(window)),
            ("dumps", fold(|s| dump_plan(s, nodes(s), &kills(s)))),
            ("partitions", fold(partitions)),
            ("readers", fold(readers)),
            ("soak", fold(|s| soak(s, nodes(s)))),
            ("shards", fold(shards)),
        ];
        let golden: [(&str, u64); 8] = [
            ("shape", 0x4bdf_cda4_0cdb_9c4f),
            ("faults", 0x512d_87f7_971f_a260),
            ("window", 0x047f_b1fd_f975_acfb),
            ("dumps", 0xa9fe_3d50_1e63_d8dd),
            ("partitions", 0x3aa3_4718_3222_fd25),
            ("readers", 0x4ebf_1f92_b6ef_7c96),
            ("soak", 0x46c1_f200_93a8_f847),
            ("shards", 0xde51_d106_0ffc_d020),
        ];
        let got: Vec<String> = folds
            .iter()
            .map(|(d, f)| format!("{d} {f:#018x}"))
            .collect();
        let want: Vec<String> = golden
            .iter()
            .map(|(d, f)| format!("{d} {f:#018x}"))
            .collect();
        assert_eq!(
            got, want,
            "a dimension's draws changed; if deliberate, put its new fold here"
        );
    }

    /// CI runs `--soak --seed 2` for the full-disaster drill and
    /// `--shards --seed 0` for the `$SUSPENSE` takeover: both seeds must
    /// draw them.
    #[test]
    fn ci_seeds_draw_the_drill_and_the_monitor_kill() {
        let FaultPlan::Soak(plan) = Schedule::soak(2).faults else {
            panic!("the soak preset plays a soak plan");
        };
        assert!(plan.disaster.is_some());
        let FaultPlan::ShardCut(cut) = Schedule::shards(0).faults else {
            panic!("the shards preset plays a shard cut");
        };
        assert!(cut.monitor_kill.is_some());
    }

    #[test]
    fn same_seed_same_schedule() {
        for preset in [Schedule::generate, Schedule::soak, Schedule::shards] {
            assert_eq!(preset(42).describe(), preset(42).describe());
        }
    }

    #[test]
    fn soak_plan_is_at_least_an_hour() {
        for seed in 0..50 {
            let FaultPlan::Soak(s) = Schedule::soak(seed).faults else {
                panic!("the soak preset plays a soak plan");
            };
            assert!(s.epochs.len() as u64 * s.epoch_gap_us >= 3_600_000_000);
            if let Some((epoch, _)) = s.disaster {
                assert!(epoch >= 1 && epoch < s.epochs.len(), "seed {seed}");
            }
        }
    }

    #[test]
    fn shard_plan_always_partitions() {
        for seed in 0..50 {
            let s = Schedule::shards(seed);
            let (Workload::Shards(p), FaultPlan::ShardCut(c)) = (&s.workload, &s.faults) else {
                panic!("the shards preset plays the sharded bank and its cut");
            };
            assert!((4..=6).contains(&p.nodes), "seed {seed}");
            assert!((c.partition_node.0 as usize) < p.nodes, "seed {seed}");
            assert!(c.heal_after_us >= 2_000_000, "seed {seed}");
            if let Some((node, at)) = c.monitor_kill {
                assert!((node.0 as usize) < p.nodes, "seed {seed}");
                assert!(
                    at > c.partition_at_us + c.heal_after_us,
                    "seed {seed}: the monitor kill lands after the heal"
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        // not guaranteed for every pair, but these two must not collide
        assert_ne!(
            Schedule::generate(1).describe(),
            Schedule::generate(2).describe()
        );
    }

    #[test]
    fn every_cpu_kill_is_healed_and_serialized_per_node() {
        for seed in 0..50 {
            let s = Schedule::generate(seed);
            let (Workload::Bank(shape), FaultPlan::Timeline(t)) = (&s.workload, &s.faults) else {
                panic!("the sweep preset plays a timeline over the bank");
            };
            let mut down: Vec<Option<SimTime>> = vec![None; shape.nodes];
            for ev in &t.events {
                match &ev.action {
                    ChaosAction::Fault(Fault::KillCpu(n, _))
                    | ChaosAction::KillServiceCpu { node: n, .. } => {
                        assert!(
                            down[n.0 as usize].is_none(),
                            "seed {seed}: overlapping cpu kills on {n}"
                        );
                        down[n.0 as usize] = Some(ev.at);
                    }
                    ChaosAction::RestoreDownCpus { node } => {
                        down[node.0 as usize] = None;
                    }
                    ChaosAction::Fault(_) | ChaosAction::KillServerProcess { .. } => {}
                }
            }
            // anything still down is caught by the final heal barrier
            assert!(t.heal_at > SimTime::ZERO);
        }
    }
}
