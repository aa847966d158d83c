//! Seeded fault-schedule generation.
//!
//! A schedule is a complete description of one chaos run: the cluster
//! shape, the workload knobs, and a timeline of fault/heal actions aimed
//! at the protocol's interesting windows (processor failures mid-phase-1,
//! partitions around the commit point, process kills during backout).
//! Everything is drawn from one seeded RNG, so the same seed always
//! produces the same schedule — and, because the simulator itself is
//! deterministic, the same run.
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

use encompass_sim::{CpuId, Fault, LinkId, NodeId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Which of a schedule's three plans a run plays. Every seed draws all
/// three — the soak plan after every short-run draw and the shard plan
/// after every other draw — so choosing a tier never shifts another
/// tier's timeline, and each tier's corpus replays byte-identical traces
/// whether or not the generating binary knew about the later tiers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Tier {
    /// The short fault timeline (`events`, `heal_at`, and `dumps` when
    /// `dumps_enabled`) over the bank application.
    #[default]
    Sweep,
    /// [`SoakPlan`]: simulated hours over the same bank cluster (`--soak`).
    Soak,
    /// [`ShardPlan`]: the sharded bank (`--shards`).
    Shards,
}

/// A complete chaos run description.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub seed: u64,
    /// The plan [`crate::run_schedule`] plays.
    pub tier: Tier,
    pub nodes: usize,
    pub cpus_per_node: u8,
    pub terminals_per_node: usize,
    pub transactions_per_terminal: u64,
    pub hot_fraction: f64,
    /// Group-commit window, in microseconds (0 = immediate forces, the
    /// pre-boxcarring behavior). Most schedules draw a nonzero window so
    /// the sweep exercises boxcar takeovers.
    pub group_commit_window_us: u64,
    pub events: Vec<ScheduledEvent>,
    /// When the final heal-everything barrier runs.
    pub heal_at: SimTime,
    /// Run the ONLINEDUMP plan below and the TMP's trail purge pass.
    /// Off by default (`--dumps` turns it on) so legacy schedules replay
    /// their historical traces unchanged; the plan itself is drawn for
    /// every seed, after all other draws, so enabling it never shifts
    /// the fault timeline.
    pub dumps_enabled: bool,
    pub dumps: Vec<ScheduledDump>,
    /// TMP trail-capacity purge interval (µs), used when dumps run.
    pub trail_purge_interval_us: u64,
    /// Audit-trail rotation size when dumps run (small, so capacity
    /// purging has whole files to drop within a short run).
    pub audit_rotate_every: usize,
    /// Audited volumes per node the bank app spreads its accounts over
    /// (`$BANK`, `$BANK1`, …).
    pub volumes_per_node: usize,
    /// Audit-trail partitions per AUDITPROCESS.
    pub audit_partitions: usize,
    /// Read-only (snapshot) terminals per node, appended after the
    /// read-write terminals so a zero here reproduces historical runs
    /// byte-for-byte.
    pub readonly_terminals_per_node: usize,
    pub soak: SoakPlan,
    pub shard: ShardPlan,
}

/// The `--shards` tier's plan: a 4–6-node sharded bank with cross-shard
/// transfers and replicated branch records, one partition/heal cycle
/// (every shard seed exercises deferred-update accumulation and the
/// post-heal drain), and for some seeds an extra CPU kill aimed at a
/// suspense monitor's primary so takeover-resume is exercised too.
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
    /// Ring replicas of each node's branch record.
    pub branch_replicas: usize,
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

/// The `--soak` tier's plan: simulated hours per seed, structured as
/// repeating epochs of kill → dump → restore waves with long-lived
/// writer and snapshot-reader transactions spanning the epochs, plus an
/// optional full-disaster drill (both mirrored drives of one volume
/// lost mid-traffic, ROLLFORWARD from the latest fuzzy archive while
/// the survivors keep serving).
#[derive(Clone, Debug)]
pub struct SoakPlan {
    /// Number of fault epochs.
    pub epochs: usize,
    /// Epoch length in microseconds; the horizon is `epochs * gap` plus
    /// the run-out, at least one simulated hour.
    pub epoch_gap_us: u64,
    /// Per-epoch draws, one entry per epoch.
    pub plan: Vec<SoakEpoch>,
    /// `Some((epoch, slot))`: during that epoch, fail both mirrored
    /// drives of the volume at `slot` (modulo the actual slot count),
    /// then recover it with ROLLFORWARD from the registry archive while
    /// traffic continues elsewhere.
    pub disaster: Option<(usize, usize)>,
    /// Terminal think time (ms) — soak terminals pace themselves over
    /// the horizon instead of burning through their budget up front.
    pub think_ms: u64,
    /// Transactions per terminal over the whole horizon.
    pub transactions_per_terminal: u64,
    /// Pause between a soak reader's snapshot reads (ms) — long enough
    /// that the small snapshot-undo ring overflows under it and the
    /// reader exercises the `SnapshotTooOld` restart path.
    pub reader_pause_ms: u64,
    /// How many epochs a soak writer holds its transaction open.
    pub writer_hold_epochs: u64,
    /// TMP trail purge interval (µs) while soaking — seconds, not the
    /// aggressive short-run value.
    pub trail_purge_interval_us: u64,
}

impl Schedule {
    /// Generate the schedule for `seed`.
    pub fn generate(seed: u64) -> Schedule {
        // decouple the schedule stream from the workload stream (the app
        // seeds its own RNGs from the same seed)
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5CED);
        let nodes = rng.random_range(2..=3usize);
        let cpus_per_node: u8 = 4;
        let terminals_per_node = rng.random_range(2..=3usize);
        let transactions_per_terminal = rng.random_range(4..=8u64);
        let hot_fraction = if rng.random_bool(0.3) { 0.25 } else { 0.0 };
        let group_commit_window_us = match rng.random_range(0..5u8) {
            0 | 1 => 0,
            2 => 1_000,
            3 => 2_000,
            _ => 5_000,
        };

        let n_links = (nodes * (nodes - 1) / 2) as u32;
        let services = ["$TMP", "$TMP", "$BANK", "$BACKOUT", "$AUDIT"];

        let mut events: Vec<ScheduledEvent> = Vec::new();
        // per-node time (µs) before which no new CPU kill may start
        let mut cpu_free_at = vec![0u64; nodes];
        // per-node time before which no new bus kill may start
        let mut bus_free_at = vec![0u64; nodes];

        let mut t: u64 = 100_000 + rng.random_range(0..100_000u64);
        let n_faults = rng.random_range(3..=8usize);
        let mut last = t;
        // CPU-kill start times (µs), collected as anchors for the dump plan
        let mut kill_starts: Vec<u64> = Vec::new();
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
                    let cpu = CpuId(rng.random_range(0..cpus_per_node));
                    events.push(ScheduledEvent {
                        at: SimTime::from_micros(t),
                        action: ChaosAction::Fault(Fault::KillCpu(node, cpu)),
                    });
                    events.push(ScheduledEvent {
                        at: SimTime::from_micros(t + heal_after),
                        action: ChaosAction::RestoreDownCpus { node },
                    });
                    cpu_free_at[ni] = t + heal_after + 50_000;
                    kill_starts.push(t);
                }
                // 2-3: kill the processor hosting a service primary
                2 | 3 => {
                    if t < cpu_free_at[ni] {
                        continue;
                    }
                    let service = if rng.random_bool(0.2) {
                        format!("$TCP{}", node.0)
                    } else {
                        services[rng.random_range(0..services.len())].to_string()
                    };
                    events.push(ScheduledEvent {
                        at: SimTime::from_micros(t),
                        action: ChaosAction::KillServiceCpu { node, service },
                    });
                    events.push(ScheduledEvent {
                        at: SimTime::from_micros(t + heal_after),
                        action: ChaosAction::RestoreDownCpus { node },
                    });
                    cpu_free_at[ni] = t + heal_after + 50_000;
                    kill_starts.push(t);
                }
                // 4: one interprocessor bus
                4 => {
                    if t < bus_free_at[ni] {
                        continue;
                    }
                    let bus = rng.random_range(0..2u8);
                    events.push(ScheduledEvent {
                        at: SimTime::from_micros(t),
                        action: ChaosAction::Fault(Fault::KillBus(node, bus)),
                    });
                    events.push(ScheduledEvent {
                        at: SimTime::from_micros(t + heal_after),
                        action: ChaosAction::Fault(Fault::HealBus(node, bus)),
                    });
                    bus_free_at[ni] = t + heal_after + 50_000;
                }
                // 5: partition one node from the rest
                5 => {
                    events.push(ScheduledEvent {
                        at: SimTime::from_micros(t),
                        action: ChaosAction::Fault(Fault::Partition(vec![node])),
                    });
                    events.push(ScheduledEvent {
                        at: SimTime::from_micros(t + heal_after),
                        action: ChaosAction::Fault(Fault::HealAllLinks),
                    });
                }
                // 6: cut a single link
                6 => {
                    let link = LinkId(rng.random_range(0..n_links.max(1)));
                    events.push(ScheduledEvent {
                        at: SimTime::from_micros(t),
                        action: ChaosAction::Fault(Fault::CutLink(link)),
                    });
                    events.push(ScheduledEvent {
                        at: SimTime::from_micros(t + heal_after),
                        action: ChaosAction::Fault(Fault::HealLink(link)),
                    });
                }
                // 7: kill an application server process
                _ => {
                    events.push(ScheduledEvent {
                        at: SimTime::from_micros(t),
                        action: ChaosAction::KillServerProcess {
                            node,
                            nth: rng.random_range(0..8usize),
                        },
                    });
                }
            }
            last = last.max(t + heal_after);
        }
        events.sort_by_key(|e| e.at);
        let heal_at = SimTime::from_micros(last + 300_000);

        // ONLINEDUMP plan — drawn last so the draws above are a stable
        // prefix: a seed's fault timeline is identical with or without
        // dumps. Each dump starts ~30ms before a scheduled CPU kill (when
        // there is one) so takeovers land mid-copy.
        let n_dumps = rng.random_range(1..=2usize);
        let mut dumps = Vec::new();
        for _ in 0..n_dumps {
            let node = NodeId(rng.random_range(0..nodes as u8));
            let at = if kill_starts.is_empty() {
                150_000 + rng.random_range(0..200_000u64)
            } else {
                let anchor = kill_starts[rng.random_range(0..kill_starts.len())];
                anchor.saturating_sub(30_000).max(50_000)
            };
            dumps.push(ScheduledDump {
                at: SimTime::from_micros(at),
                node,
                generation: 0,
            });
        }
        dumps.sort_by_key(|d| d.at);
        // generation 0 is the runner's pre-run snapshot; dumps count up
        // from 1 in timeline order so the registry never rolls back
        for (i, d) in dumps.iter_mut().enumerate() {
            d.generation = i as u64 + 1;
        }
        let trail_purge_interval_us = rng.random_range(40_000..=150_000u64);
        // small trail files so a short run rotates (and can purge) several
        let audit_rotate_every = rng.random_range(16..=64usize);
        // trail-partitioning plan — drawn after everything else so every
        // draw above keeps its historical value for a given seed
        let volumes_per_node = rng.random_range(1..=2usize);
        let audit_partitions = rng.random_range(1..=3usize);
        // read-only client plan — drawn after ALL other draws so every
        // draw above keeps its historical value for a given seed, and a
        // sweep run with `--readers 0` replays historical traces unchanged
        let readonly_terminals_per_node = rng.random_range(0..=2usize);

        // soak plan — drawn after ALL other draws, for the same reason:
        // the short-run corpus replays byte-identical whether or not a
        // binary that knows about `--soak` generated the schedule
        let soak_epochs = rng.random_range(6..=9usize);
        let soak_total_us = rng.random_range(3_700_000_000..=4_500_000_000u64);
        let mut soak_plan = Vec::with_capacity(soak_epochs);
        for _ in 0..soak_epochs {
            let kill_node = NodeId(rng.random_range(0..nodes as u8));
            let kill_cpu = CpuId(rng.random_range(0..cpus_per_node));
            let kill_service = if rng.random_bool(0.4) {
                Some(if rng.random_bool(0.2) {
                    format!("$TCP{}", kill_node.0)
                } else {
                    services[rng.random_range(0..services.len())].to_string()
                })
            } else {
                None
            };
            let dump_node = NodeId(rng.random_range(0..nodes as u8));
            soak_plan.push(SoakEpoch {
                kill_node,
                kill_cpu,
                kill_service,
                dump_node,
            });
        }
        let disaster_roll = rng.random_range(0..4u8);
        let disaster_epoch = rng.random_range(1..soak_epochs);
        let disaster_slot = rng.random_range(0..16usize);
        let soak = SoakPlan {
            epochs: soak_epochs,
            epoch_gap_us: soak_total_us / soak_epochs as u64,
            plan: soak_plan,
            disaster: (disaster_roll == 0).then_some((disaster_epoch, disaster_slot)),
            think_ms: rng.random_range(15_000..=30_000u64),
            transactions_per_terminal: rng.random_range(120..=180u64),
            reader_pause_ms: rng.random_range(45_000..=90_000u64),
            writer_hold_epochs: 2,
            trail_purge_interval_us: rng.random_range(5_000_000..=15_000_000u64),
        };

        // shard plan — drawn after ALL other draws (the soak plan
        // included), so every seed's no-flag / --dumps / --soak trace
        // replays byte-identical whether or not the generating binary
        // knew about `--shards`
        let shard_nodes = rng.random_range(4..=6usize);
        let shard_accounts_per_node = rng.random_range(40..=80u64);
        let shard_terminals = rng.random_range(2..=3usize);
        let shard_txns = rng.random_range(6..=10u64);
        let cross_shard_permille = [0u32, 150, 300, 500][rng.random_range(0..4usize)];
        let branch_permille = rng.random_range(150..=300u32);
        let partition_node = NodeId(rng.random_range(0..shard_nodes as u8));
        let partition_at_us = 500_000 + rng.random_range(0..1_000_000u64);
        let heal_after_us = rng.random_range(2_000_000..=5_000_000u64);
        // drawn unconditionally so the stream length never depends on
        // the coin flip (a later draw must not shift between seeds)
        let mk_node = NodeId(rng.random_range(0..shard_nodes as u8));
        let mk_at = partition_at_us + heal_after_us + rng.random_range(200_000..800_000u64);
        let monitor_kill = rng.random_bool(0.5).then_some((mk_node, mk_at));
        let shard = ShardPlan {
            nodes: shard_nodes,
            accounts_per_node: shard_accounts_per_node,
            terminals_per_node: shard_terminals,
            transactions_per_terminal: shard_txns,
            cross_shard_permille,
            branch_permille,
            branch_replicas: 2,
            partition_node,
            partition_at_us,
            heal_after_us,
            monitor_kill,
        };

        Schedule {
            seed,
            tier: Tier::Sweep,
            nodes,
            cpus_per_node,
            terminals_per_node,
            transactions_per_terminal,
            hot_fraction,
            group_commit_window_us,
            events,
            heal_at,
            dumps_enabled: false,
            dumps,
            trail_purge_interval_us,
            audit_rotate_every,
            volumes_per_node,
            audit_partitions,
            readonly_terminals_per_node,
            soak,
            shard,
        }
    }

    /// Human-readable timeline, for failure reports.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "seed {}: {} nodes x {} cpus, {} terminals/node x {} txns, hot {:.2}, gc-window {}us, \
             {} vols/node, {} trail partitions, {} readers/node\n",
            self.seed,
            self.nodes,
            self.cpus_per_node,
            self.terminals_per_node,
            self.transactions_per_terminal,
            self.hot_fraction,
            self.group_commit_window_us,
            self.volumes_per_node,
            self.audit_partitions,
            self.readonly_terminals_per_node,
        );
        for ev in &self.events {
            let what = match &ev.action {
                ChaosAction::Fault(f) => f.label(),
                ChaosAction::KillServiceCpu { node, service } => {
                    format!("kill-service-cpu {node} {service}")
                }
                ChaosAction::RestoreDownCpus { node } => format!("restore-down-cpus {node}"),
                ChaosAction::KillServerProcess { node, nth } => {
                    format!("kill-server {node} #{nth}")
                }
            };
            out.push_str(&format!("  t={:>7}ms  {}\n", ev.at.as_millis(), what));
        }
        out.push_str(&format!(
            "  t={:>7}ms  heal-everything\n",
            self.heal_at.as_millis()
        ));
        if self.dumps_enabled {
            for d in &self.dumps {
                out.push_str(&format!(
                    "  t={:>7}ms  online-dump {} gen {}\n",
                    d.at.as_millis(),
                    d.node,
                    d.generation
                ));
            }
            out.push_str(&format!(
                "  trail-purge every {}us, rotate every {} records\n",
                self.trail_purge_interval_us, self.audit_rotate_every
            ));
        }
        if self.tier == Tier::Soak {
            let s = &self.soak;
            out.push_str(&format!(
                "  soak: {} epochs x {}s, {} txns/terminal think {}ms, reader pause {}ms, \
                 writer hold {} epochs, trail-purge every {}ms\n",
                s.epochs,
                s.epoch_gap_us / 1_000_000,
                s.transactions_per_terminal,
                s.think_ms,
                s.reader_pause_ms,
                s.writer_hold_epochs,
                s.trail_purge_interval_us / 1_000,
            ));
            for (e, ep) in s.plan.iter().enumerate() {
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
        if self.tier == Tier::Shards {
            let p = &self.shard;
            out.push_str(&format!(
                "  shards: {} nodes x {} accounts, {} terminals/node x {} txns, \
                 cross-shard {}‰, branch {}‰, {} replicas\n",
                p.nodes,
                p.accounts_per_node,
                p.terminals_per_node,
                p.transactions_per_terminal,
                p.cross_shard_permille,
                p.branch_permille,
                p.branch_replicas,
            ));
            out.push_str(&format!(
                "  shard partition: {} cut at t={}ms, healed at t={}ms\n",
                p.partition_node,
                p.partition_at_us / 1_000,
                (p.partition_at_us + p.heal_after_us) / 1_000,
            ));
            if let Some((node, at)) = p.monitor_kill {
                out.push_str(&format!(
                    "  shard monitor kill: $SUSPENSE primary at {} killed at t={}ms\n",
                    node,
                    at / 1_000,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = Schedule::generate(42).describe();
        let b = Schedule::generate(42).describe();
        assert_eq!(a, b);
    }

    #[test]
    fn soak_plan_is_deterministic_and_at_least_an_hour() {
        for seed in 0..50 {
            let mut a = Schedule::generate(seed);
            let mut b = Schedule::generate(seed);
            a.tier = Tier::Soak;
            b.tier = Tier::Soak;
            assert_eq!(a.describe(), b.describe());
            let s = &a.soak;
            assert!(s.epochs as u64 * s.epoch_gap_us >= 3_600_000_000);
            assert_eq!(s.plan.len(), s.epochs);
            if let Some((epoch, _)) = s.disaster {
                assert!(epoch >= 1 && epoch < s.epochs, "seed {seed}");
            }
        }
    }

    #[test]
    fn shard_plan_is_deterministic_and_always_partitions() {
        for seed in 0..50 {
            let mut a = Schedule::generate(seed);
            let mut b = Schedule::generate(seed);
            a.tier = Tier::Shards;
            b.tier = Tier::Shards;
            assert_eq!(a.describe(), b.describe());
            let p = &a.shard;
            assert!((4..=6).contains(&p.nodes), "seed {seed}");
            assert!((p.partition_node.0 as usize) < p.nodes, "seed {seed}");
            assert!(p.heal_after_us >= 2_000_000, "seed {seed}");
            if let Some((node, at)) = p.monitor_kill {
                assert!((node.0 as usize) < p.nodes, "seed {seed}");
                assert!(
                    at > p.partition_at_us + p.heal_after_us,
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
            let mut down: Vec<Option<SimTime>> = vec![None; s.nodes];
            for ev in &s.events {
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
            assert!(s.heal_at > SimTime::ZERO);
        }
    }
}
