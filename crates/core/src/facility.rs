//! Wiring: spawn a complete TMF node in one call.
//!
//! A TMF node consists of (Figure 2 of the paper, minus the application
//! layer that `encompass` adds):
//!
//! * one `$TMP` pair,
//! * one `$AUDIT` AUDITPROCESS pair, whose trail may be split into
//!   partitions (DESIGN.md §D7, §D12),
//! * one `$BACKOUT` pair,
//! * one DISCPROCESS pair per volume the catalog places on this node,
//! * one transaction table per processor,
//! * one operator process.

use crate::table::TxTableProcess;
use crate::tmp::{spawn_tmp, TmpConfig, MAX_GROUP_COMMIT_WINDOW};
use encompass_audit::auditprocess::{spawn_audit_process, AuditConfig};
use encompass_audit::backout::spawn_backout_process;
use encompass_audit::trail::trail_key;
use encompass_sim::{
    attribute_commit, CommitAttribution, FlightEvent, FlightTransid, Name, NodeId, SimDuration,
    World,
};
use encompass_storage::discprocess::{spawn_disc_process, DiscConfig};
use encompass_storage::types::{RecoveryMode, VolumeRef};
use encompass_storage::Catalog;
use guardian::{OperatorProcess, PairHandle};
use std::collections::BTreeMap;

/// Per-node configuration. Construct with [`TmfNodeConfig::builder`],
/// which validates the knobs; `TmfNodeConfig::default()` is always valid.
#[derive(Clone, Debug)]
pub struct TmfNodeConfig {
    /// How every DISCPROCESS of the node makes its updates recoverable:
    /// the paper's NonStop checkpointing, or the Write-Ahead-Log baseline
    /// of experiment T3. Private: set through the builder like every
    /// other knob.
    recovery_mode: RecoveryMode,
    /// Trail partitions of the node's one AUDITPROCESS: its volumes are
    /// dealt round-robin into this many volume groups, each with its own
    /// trail media and in-flight force slot so independent groups force in
    /// parallel (DESIGN.md §D12). One partition (the default) reproduces
    /// the single-trail layout byte for byte. Private: set through the
    /// builder so validation always runs.
    audit_partitions: usize,
    /// Group-commit boxcar window applied to both the AUDITPROCESS force
    /// path and the TMP's monitor-trail writes: a boxcar is held for the
    /// whole window. Zero (the default) holds nothing open: a force starts
    /// as soon as it is asked for. Private: set through the builder so
    /// validation always runs.
    group_commit_window: SimDuration,
    /// Records per ONLINEDUMP page (one disc access each). Private: set
    /// through the builder so validation always runs.
    dump_page_size: usize,
    /// Records per audit-trail file before the AUDITPROCESS rotates to a
    /// new one. Capacity purging drops whole files, so smaller files
    /// purge sooner at the cost of more rotations.
    audit_rotate_every: usize,
    /// Interval of the TMP's trail-capacity purge pass. Zero (the
    /// default) disables purging, preserving historical traces.
    trail_purge_interval: SimDuration,
    /// Capacity of each DISCPROCESS's per-volume snapshot before-image
    /// ring (see DESIGN.md §D13). Smaller rings evict fences sooner,
    /// forcing long-lived snapshot readers to restart with
    /// `SnapshotTooOld`. Private: set through the builder so validation
    /// always runs.
    snapshot_undo_capacity: usize,
}

impl Default for TmfNodeConfig {
    fn default() -> Self {
        TmfNodeConfig {
            recovery_mode: RecoveryMode::NonStopCheckpoint,
            audit_partitions: 1,
            group_commit_window: SimDuration::ZERO,
            dump_page_size: 64,
            audit_rotate_every: 4096,
            trail_purge_interval: SimDuration::ZERO,
            snapshot_undo_capacity: 4096,
        }
    }
}

impl TmfNodeConfig {
    /// Start building a validated configuration from the defaults.
    pub fn builder() -> TmfNodeConfigBuilder {
        TmfNodeConfigBuilder {
            cfg: TmfNodeConfig::default(),
        }
    }

    pub fn group_commit_window(&self) -> SimDuration {
        self.group_commit_window
    }

    pub fn dump_page_size(&self) -> usize {
        self.dump_page_size
    }

    pub fn audit_rotate_every(&self) -> usize {
        self.audit_rotate_every
    }

    pub fn audit_partitions(&self) -> usize {
        self.audit_partitions
    }

    pub fn trail_purge_interval(&self) -> SimDuration {
        self.trail_purge_interval
    }

    pub fn snapshot_undo_capacity(&self) -> usize {
        self.snapshot_undo_capacity
    }
}

/// A rejected [`TmfNodeConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The window exceeds [`MAX_GROUP_COMMIT_WINDOW`] (300 ms): a boxcar
    /// held that long outlasts the retry budget of the phase-one calls
    /// waiting on its force, so their transactions abort instead of
    /// committing.
    WindowTooLong,
    /// An ONLINEDUMP page must copy at least one record per disc access.
    ZeroDumpPageSize,
    /// A trail file must hold at least one record before rotating.
    ZeroAuditRotate,
    /// An audit trail needs at least one partition.
    ZeroAuditPartitions,
    /// The snapshot before-image ring must hold at least one image.
    ZeroSnapshotUndo,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::WindowTooLong => write!(
                f,
                "group_commit_window must be at most {} us \
                 (the TMP's critical-response retries times their timeout)",
                MAX_GROUP_COMMIT_WINDOW.as_micros()
            ),
            ConfigError::ZeroDumpPageSize => write!(f, "dump_page_size must be >= 1"),
            ConfigError::ZeroAuditRotate => write!(f, "audit_rotate_every must be >= 1"),
            ConfigError::ZeroAuditPartitions => write!(f, "audit_partitions must be >= 1"),
            ConfigError::ZeroSnapshotUndo => write!(f, "snapshot_undo_capacity must be >= 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`TmfNodeConfig`]; every setter is chainable and
/// [`TmfNodeConfigBuilder::build`] validates the combination.
#[derive(Clone, Debug)]
pub struct TmfNodeConfigBuilder {
    cfg: TmfNodeConfig,
}

impl TmfNodeConfigBuilder {
    pub fn recovery_mode(mut self, mode: RecoveryMode) -> Self {
        self.cfg.recovery_mode = mode;
        self
    }

    pub fn group_commit_window(mut self, window: SimDuration) -> Self {
        self.cfg.group_commit_window = window;
        self
    }

    pub fn dump_page_size(mut self, size: usize) -> Self {
        self.cfg.dump_page_size = size;
        self
    }

    pub fn audit_rotate_every(mut self, records: usize) -> Self {
        self.cfg.audit_rotate_every = records;
        self
    }

    pub fn audit_partitions(mut self, partitions: usize) -> Self {
        self.cfg.audit_partitions = partitions;
        self
    }

    pub fn trail_purge_interval(mut self, interval: SimDuration) -> Self {
        self.cfg.trail_purge_interval = interval;
        self
    }

    pub fn snapshot_undo_capacity(mut self, capacity: usize) -> Self {
        self.cfg.snapshot_undo_capacity = capacity;
        self
    }

    pub fn build(self) -> Result<TmfNodeConfig, ConfigError> {
        let c = &self.cfg;
        if c.group_commit_window > MAX_GROUP_COMMIT_WINDOW {
            return Err(ConfigError::WindowTooLong);
        }
        if c.dump_page_size < 1 {
            return Err(ConfigError::ZeroDumpPageSize);
        }
        if c.audit_rotate_every < 1 {
            return Err(ConfigError::ZeroAuditRotate);
        }
        if c.audit_partitions < 1 {
            return Err(ConfigError::ZeroAuditPartitions);
        }
        if c.snapshot_undo_capacity < 1 {
            return Err(ConfigError::ZeroSnapshotUndo);
        }
        Ok(self.cfg)
    }
}

/// Handles to a node's TMF processes.
pub struct NodeHandles {
    pub node: NodeId,
    pub tmp: PairHandle,
    /// The node's one `$AUDIT` AUDITPROCESS pair.
    pub audit: PairHandle,
    pub backout: PairHandle,
    pub discs: Vec<PairHandle>,
    /// The node's `$DUMP` ONLINEDUMP pair.
    pub dump: PairHandle,
    /// Stable-storage keys of this node's trail partitions, in partition
    /// order.
    pub trail_keys: Vec<String>,
    /// Local volume name → the one trail (partition) holding its images:
    /// what ROLLFORWARD reads. Per-partition purging makes a scan of every
    /// partition unsound for per-volume recovery: a sibling partition may
    /// legitimately have purged past this volume's floor.
    pub trail_key_of: BTreeMap<Name, String>,
}

/// Spawn the full TMF process set for `node`. The node must have at least
/// two CPUs; pairs are spread round-robin over the available processors.
pub fn spawn_tmf_node(
    world: &mut World,
    node: NodeId,
    catalog: &Catalog,
    cfg: TmfNodeConfig,
) -> NodeHandles {
    let cpus = world.cpu_count(node);
    assert!(cpus >= 2, "a node needs at least two processors");
    let pair_cpus = |i: u8| -> (u8, u8) {
        let p = i % cpus;
        let b = (i + 1) % cpus;
        (p, b)
    };

    // per-CPU transaction tables + operator
    for cpu in 0..cpus {
        world.spawn(node, cpu, Box::new(TxTableProcess::new()));
    }
    world.spawn(node, 0, Box::new(OperatorProcess::default()));

    // The node's one AUDITPROCESS deals its volumes round-robin into trail
    // partitions (the volume groups of DESIGN.md §D12). Computed up front:
    // the AUDITPROCESS needs its volume→partition map at spawn time.
    let volumes: Vec<_> = catalog
        .all_volumes()
        .into_iter()
        .filter(|v| v.node == node)
        .collect();
    let partitions = cfg.audit_partitions.max(1);
    let partition_of: BTreeMap<Name, usize> = (volumes.iter().enumerate())
        .map(|(i, v)| (v.volume.clone(), i % partitions))
        .collect();
    let trail_key_of = (partition_of.iter())
        .map(|(v, &p)| (v.clone(), trail_key(node, p)))
        .collect();
    let trail_keys = (0..partitions).map(|p| trail_key(node, p)).collect();
    // the TMP's purge sweep reports one floor per volume, in name order
    let volume_names: Vec<Name> = partition_of.keys().cloned().collect();

    let (ap, ab) = pair_cpus(0);
    let audit = spawn_audit_process(
        world,
        node,
        ap,
        ab,
        AuditConfig {
            rotate_every: cfg.audit_rotate_every,
            group_commit_window: cfg.group_commit_window,
            partitions,
            partition_of,
        },
    );
    let (bp, bb) = pair_cpus(1);
    let backout = spawn_backout_process(world, node, bp, bb);

    // one DISCPROCESS pair per local volume
    let mut discs = Vec::new();
    for (i, volume) in volumes.iter().enumerate() {
        let (dp, db) = pair_cpus(2 + i as u8);
        discs.push(spawn_disc_process(
            world,
            dp,
            db,
            volume.clone(),
            catalog.clone(),
            DiscConfig {
                recovery_mode: cfg.recovery_mode,
                audited: true,
                dump_page_size: cfg.dump_page_size,
                snapshot_undo_capacity: cfg.snapshot_undo_capacity,
            },
        ));
    }

    // the TMP itself
    let (tp, tb) = pair_cpus(2 + volumes.len() as u8);
    let tmp = spawn_tmp(
        world,
        node,
        tp,
        tb,
        TmpConfig {
            volumes: volume_names,
            group_commit_window: cfg.group_commit_window,
            purge_interval: cfg.trail_purge_interval,
        },
    );

    // the ONLINEDUMP pair, on the slot after the TMP's
    let (up, ub) = pair_cpus(3 + volumes.len() as u8);
    let dump = encompass_audit::dump::spawn_dump_process(world, node, up, ub);

    NodeHandles {
        node,
        tmp,
        audit,
        backout,
        discs,
        dump,
        trail_keys,
        trail_key_of,
    }
}

/// One transaction's flight record, assembled after a run: the merged
/// event timeline plus (for committed transactions with a full
/// end-request → commit window) the latency attribution.
pub struct FlightReport {
    pub transid: FlightTransid,
    pub events: Vec<FlightEvent>,
    pub attribution: Option<CommitAttribution>,
}

/// Post-run flight-recorder pass: one [`FlightReport`] per transaction the
/// recorder saw, in transid order. Empty when the recorder was disabled
/// (enable with `SimConfig::flight_recording` before building the world).
pub fn flight_reports(world: &World) -> Vec<FlightReport> {
    world
        .flightrec()
        .timelines()
        .into_iter()
        .map(|(transid, events)| {
            let attribution = attribute_commit(&events);
            FlightReport {
                transid,
                events,
                attribution,
            }
        })
        .collect()
}

/// Spawn TMF on every node the catalog references (nodes must already
/// exist in the world, fully linked by the caller).
pub fn spawn_tmf_network(
    world: &mut World,
    catalog: &Catalog,
    cfg: TmfNodeConfig,
) -> Vec<NodeHandles> {
    let mut nodes: Vec<NodeId> = catalog.all_volumes().into_iter().map(|v| v.node).collect();
    nodes.sort();
    nodes.dedup();
    nodes
        .into_iter()
        .map(|n| spawn_tmf_node(world, n, catalog, cfg.clone()))
        .collect()
}

/// The stable-storage key of the one trail partition holding `volume`'s
/// images, looked up in its node's [`NodeHandles::trail_key_of`]: the
/// trail ROLLFORWARD of `volume` reads.
pub fn trail_key_of<'a>(nodes: &'a [NodeHandles], volume: &VolumeRef) -> Option<&'a str> {
    let node = nodes.iter().find(|h| h.node == volume.node)?;
    node.trail_key_of.get(&*volume.volume).map(String::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let cfg = TmfNodeConfig::builder().build().expect("defaults valid");
        assert_eq!(cfg.group_commit_window(), SimDuration::ZERO);
    }

    #[test]
    fn builder_rejects_bad_knobs() {
        assert_eq!(
            TmfNodeConfig::builder()
                .audit_partitions(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroAuditPartitions
        );
        assert_eq!(
            TmfNodeConfig::builder()
                .group_commit_window(SimDuration::from_secs(2))
                .build()
                .unwrap_err(),
            ConfigError::WindowTooLong
        );
    }

    /// The window's bound is inclusive: 300 ms is accepted, a microsecond
    /// more is refused.
    #[test]
    fn the_window_may_reach_the_phase_one_retry_budget_and_no_further() {
        let window = |w| TmfNodeConfig::builder().group_commit_window(w).build();
        assert_eq!(MAX_GROUP_COMMIT_WINDOW, SimDuration::from_millis(300));
        let at = window(SimDuration::from_millis(300)).expect("300 ms is accepted");
        assert_eq!(at.group_commit_window(), SimDuration::from_millis(300));
        let past = SimDuration::from_micros(300_001);
        assert_eq!(window(past).unwrap_err(), ConfigError::WindowTooLong);
        assert_eq!(
            ConfigError::WindowTooLong.to_string(),
            "group_commit_window must be at most 300000 us \
             (the TMP's critical-response retries times their timeout)"
        );
    }

    #[test]
    fn builder_accepts_group_commit() {
        let cfg = TmfNodeConfig::builder()
            .group_commit_window(SimDuration::from_millis(2))
            .build()
            .expect("valid");
        assert_eq!(cfg.group_commit_window(), SimDuration::from_millis(2));
    }

    #[test]
    fn one_audit_pair_deals_volumes_round_robin_over_partitions() {
        use encompass_sim::{CpuId, SimConfig};
        use encompass_storage::types::FileDef;

        let mut world = World::new(SimConfig::default());
        let node = world.add_node(8);
        let mut catalog = Catalog::new();
        for (file, volume) in [("fa", "$DA"), ("fb", "$DB"), ("fc", "$DC")] {
            catalog.add(FileDef::key_sequenced(file, VolumeRef::new(node, volume)));
        }
        let cfg = TmfNodeConfig::builder()
            .audit_partitions(2)
            .build()
            .expect("valid");
        let h = spawn_tmf_node(&mut world, node, &catalog, cfg);

        let audit_pids = (0..world.cpu_count(node))
            .flat_map(|cpu| world.procs_on_cpu(node, CpuId(cpu)))
            .filter(|&pid| world.process_kind(pid) == Some("auditprocess"))
            .count();
        assert_eq!(audit_pids, 2, "one $AUDIT primary and its backup");
        assert_eq!(&*h.audit.name, "$AUDIT");
        assert_eq!(h.trail_keys, [trail_key(node, 0), trail_key(node, 1)]);
        let dealt: Vec<(&str, &str)> = (h.trail_key_of.iter())
            .map(|(v, k)| (&**v, k.as_str()))
            .collect();
        assert_eq!(
            dealt,
            [
                ("$DA", "\\N0.$AUDIT:trail"),
                ("$DB", "\\N0.$AUDIT:trail.p1"),
                ("$DC", "\\N0.$AUDIT:trail"),
            ]
        );
    }
}
