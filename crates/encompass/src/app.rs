//! Application wiring: one builder that assembles a complete ENCOMPASS
//! system — nodes, links, catalog, the full TMF process set, server
//! classes, and TCPs with terminal programs — ready to run.

use crate::appmon::{spawn_server_class, ServerClassConfig};
use crate::manufacturing::{self, manufacturing_catalog, MfgServer};
use crate::screen::ScreenProgram;
use crate::tcp::spawn_tcp;
use crate::workload::{preload_accounts, BankProgram, BankServer, BankWorkload, BANK_CLASS};
use bytes::Bytes;
use encompass_shard::{spawn_suspense_monitor, ShardMap};
use encompass_sim::{Name, NodeId, SimConfig, SimDuration, World};
use encompass_storage::types::{FileDef, PartitionSpec, VolumeRef};
use encompass_storage::Catalog;
use tmf::facility::{spawn_tmf_network, NodeHandles, TmfNodeConfig};

/// Everything a built application exposes to the driver.
pub struct AppHandles {
    pub world: World,
    pub nodes: Vec<NodeId>,
    pub catalog: Catalog,
    pub tmf: Vec<NodeHandles>,
}

/// Builder for simulated ENCOMPASS systems.
pub struct AppBuilder {
    sim: SimConfig,
    node_cpus: Vec<u8>,
    links: Vec<(usize, usize, SimDuration)>,
    tmf: TmfNodeConfig,
}

impl Default for AppBuilder {
    fn default() -> Self {
        AppBuilder::new()
    }
}

impl AppBuilder {
    pub fn new() -> AppBuilder {
        AppBuilder {
            sim: SimConfig::default(),
            node_cpus: Vec::new(),
            links: Vec::new(),
            tmf: TmfNodeConfig::default(),
        }
    }

    pub fn sim_config(mut self, cfg: SimConfig) -> AppBuilder {
        self.sim = cfg;
        self
    }

    /// Add a node with the given processor count (2..=16).
    pub fn node(mut self, cpus: u8) -> AppBuilder {
        self.node_cpus.push(cpus);
        self
    }

    /// Link two nodes (indices in add order).
    pub fn link(mut self, a: usize, b: usize, latency: SimDuration) -> AppBuilder {
        self.links.push((a, b, latency));
        self
    }

    /// Fully connect all nodes with the same latency.
    pub fn mesh(mut self, latency: SimDuration) -> AppBuilder {
        for a in 0..self.node_cpus.len() {
            for b in (a + 1)..self.node_cpus.len() {
                self.links.push((a, b, latency));
            }
        }
        self
    }

    pub fn tmf_config(mut self, cfg: TmfNodeConfig) -> AppBuilder {
        self.tmf = cfg;
        self
    }

    /// Create the world + nodes + links and spawn TMF for `catalog`.
    pub fn build(self, catalog: Catalog) -> AppHandles {
        let mut world = World::new(self.sim);
        let nodes: Vec<NodeId> = self.node_cpus.iter().map(|&c| world.add_node(c)).collect();
        for (a, b, lat) in self.links {
            world.add_link(nodes[a], nodes[b], lat);
        }
        let tmf = spawn_tmf_network(&mut world, &catalog, self.tmf);
        AppHandles {
            world,
            nodes,
            catalog,
            tmf,
        }
    }
}

/// Parameters of the ready-made bank (debit-credit) application.
#[derive(Clone, Debug)]
pub struct BankAppParams {
    /// CPUs per node (one entry per node; accounts are partitioned evenly
    /// across nodes when there is more than one).
    pub node_cpus: Vec<u8>,
    /// Audited volumes per node holding account partitions. Volume 0 is
    /// the classic `$BANK`; extra volumes are `$BANK1`, `$BANK2`, … and
    /// each node's key range is sub-split evenly across its volumes. The
    /// history file always lives on node 0's `$BANK`.
    pub volumes_per_node: usize,
    /// Append a history record on every debit (the conservation oracle's
    /// food). Off, every transaction touches exactly one volume — the
    /// shape the trail-partitioning benchmarks need, since a shared
    /// entry-sequenced file pins every transaction to one partition.
    pub history: bool,
    pub accounts: u64,
    pub terminals_per_node: usize,
    /// Extra read-only terminals per node running query transactions
    /// (BEGIN read-only → SEND `query` → END). Appended after the
    /// read-write terminals so zero readers reproduces historical runs
    /// byte-for-byte.
    pub readonly_terminals_per_node: usize,
    pub transactions_per_terminal: u64,
    /// Transactions each read-only terminal runs; `None` = same as the
    /// read-write terminals. Lets a benchmark cell pin an exact
    /// read/write transaction mix within the per-TCP terminal cap.
    pub readonly_transactions_per_terminal: Option<u64>,
    pub think: SimDuration,
    pub hot_fraction: f64,
    pub hot_set: u64,
    pub servers_min: usize,
    pub servers_max: usize,
    pub seed: u64,
    /// Deadlock timeout used by the bank servers' lock requests.
    pub lock_wait: SimDuration,
    /// Simulator settings (jitter, tracing, flight recording); the seed
    /// field above overrides `sim.seed`.
    pub sim: SimConfig,
    /// Per-node TMF configuration (recovery mode and group-commit knobs
    /// live here; build it with `TmfNodeConfig::builder()`).
    pub tmf: TmfNodeConfig,
}

impl Default for BankAppParams {
    fn default() -> Self {
        BankAppParams {
            node_cpus: vec![4],
            volumes_per_node: 1,
            history: true,
            accounts: 1000,
            terminals_per_node: 4,
            readonly_terminals_per_node: 0,
            transactions_per_terminal: 25,
            readonly_transactions_per_terminal: None,
            think: SimDuration::from_millis(10),
            hot_fraction: 0.0,
            hot_set: 10,
            servers_min: 2,
            servers_max: 8,
            seed: 42,
            lock_wait: SimDuration::from_millis(500),
            sim: SimConfig::default(),
            tmf: TmfNodeConfig::default(),
        }
    }
}

/// The service name of `node`'s TCP in the bank applications.
pub fn tcp_name(node: NodeId) -> Name {
    Name::from(format!("$TCP{}", node.0))
}

/// Build the complete bank application: catalog (accounts + history),
/// TMF, one `bank` server class per node, one TCP per node running
/// [`BankProgram`] terminals, and preloaded accounts.
pub fn launch_bank_app(params: BankAppParams) -> AppHandles {
    let mut builder = AppBuilder::new().sim_config(SimConfig {
        seed: params.seed,
        ..params.sim.clone()
    });
    for &c in &params.node_cpus {
        builder = builder.node(c);
    }
    builder = builder
        .mesh(SimDuration::from_millis(2))
        .tmf_config(params.tmf.clone());

    // provisional world to learn node ids (deterministic: 0..n)
    let n_nodes = params.node_cpus.len();
    let node_ids: Vec<NodeId> = (0..n_nodes as u8).map(NodeId).collect();

    // accounts partitioned evenly across nodes by key range, each node's
    // range sub-split across its volumes ($BANK, $BANK1, …)
    let volumes_per_node = params.volumes_per_node.max(1);
    let slots = n_nodes as u64 * volumes_per_node as u64;
    let mut catalog = Catalog::new();
    let mut parts = Vec::new();
    for (j, &node) in node_ids
        .iter()
        .flat_map(|n| std::iter::repeat_n(n, volumes_per_node))
        .enumerate()
    {
        let low = if j == 0 {
            Bytes::new()
        } else {
            crate::workload::account_key(params.accounts * j as u64 / slots)
        };
        let name = if j % volumes_per_node == 0 {
            "$BANK".to_string()
        } else {
            format!("$BANK{}", j % volumes_per_node)
        };
        parts.push(PartitionSpec {
            low_key: low,
            volume: VolumeRef::new(node, &name),
        });
    }
    catalog.add(FileDef::key_sequenced("accounts", parts[0].volume.clone()).partitioned(parts));
    catalog.add(FileDef::entry_sequenced(
        "history",
        VolumeRef::new(node_ids[0], "$BANK"),
    ));

    let mut app = builder.build(catalog);
    preload_accounts(
        &mut app.world,
        &app.catalog,
        "accounts",
        params.accounts,
        1000,
    );

    for (i, &node) in app.nodes.iter().enumerate() {
        // the bank server class
        spawn_server_class(
            &mut app.world,
            node,
            0,
            ServerClassConfig {
                class: BANK_CLASS.into(),
                min_servers: params.servers_min,
                max_servers: params.servers_max,
                lock_wait: params.lock_wait,
            },
            app.catalog.clone(),
            {
                let history = params.history.then(|| Name::from_static("history"));
                move || Box::new(BankServer::new(history.clone()))
            },
        );
        // the TCP with its terminals
        let catalog = app.catalog.clone();
        let wl = BankWorkload {
            accounts: params.accounts,
            hot_fraction: params.hot_fraction,
            hot_set: params.hot_set,
            transactions: params.transactions_per_terminal,
            think: params.think,
            read_only: false,
        };
        let terminals = params.terminals_per_node;
        let readonly_terminals = params.readonly_terminals_per_node;
        let readonly_transactions = params.readonly_transactions_per_terminal;
        let seed = params.seed;
        let node_idx = i as u64;
        spawn_tcp(
            &mut app.world,
            node,
            0,
            1,
            tcp_name(node),
            catalog,
            move || {
                let mut programs: Vec<Box<dyn ScreenProgram>> = (0..terminals)
                    .map(|t| {
                        Box::new(BankProgram::new(
                            wl.clone(),
                            seed ^ (node_idx << 16) ^ t as u64,
                            node,
                            t as u8,
                        )) as Box<dyn ScreenProgram>
                    })
                    .collect();
                // readers ride after the writers: terminal indices (and
                // therefore rpc id spaces) of the read-write terminals are
                // untouched when there are zero readers
                let ro = BankWorkload {
                    read_only: true,
                    transactions: readonly_transactions.unwrap_or(wl.transactions),
                    ..wl.clone()
                };
                programs.extend((terminals..terminals + readonly_terminals).map(|t| {
                    Box::new(BankProgram::new(
                        ro.clone(),
                        seed ^ (node_idx << 16) ^ t as u64,
                        node,
                        t as u8,
                    )) as Box<dyn ScreenProgram>
                }));
                programs
            },
        );
    }
    app
}

/// Parameters of the manufacturing application (experiment F4/T7): four
/// nodes of four processors each.
#[derive(Clone, Debug)]
pub struct MfgAppParams {
    pub seed: u64,
}

impl Default for MfgAppParams {
    fn default() -> Self {
        MfgAppParams { seed: 7 }
    }
}

/// Build the manufacturing network: TMF on every node, an `mfg` server
/// class per node, and a suspense monitor per node. Terminal programs are
/// the caller's business (tests drive specific scenarios).
pub fn launch_mfg_app(params: MfgAppParams) -> AppHandles {
    const NODES: u8 = 4;
    const CPUS: u8 = 4;
    let node_ids: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let catalog = manufacturing_catalog(&node_ids);
    let mut builder = AppBuilder::new().sim_config(SimConfig::with_seed(params.seed));
    for _ in &node_ids {
        builder = builder.node(CPUS);
    }
    let mut app = builder.mesh(SimDuration::from_millis(3)).build(catalog);
    for &node in &app.nodes {
        let all = node_ids.clone();
        spawn_server_class(
            &mut app.world,
            node,
            0,
            ServerClassConfig {
                class: "mfg".into(),
                min_servers: 2,
                max_servers: 6,
                lock_wait: SimDuration::from_millis(500),
            },
            app.catalog.clone(),
            move || Box::new(MfgServer::new(node, all.clone())),
        );
        // the suspense monitor is a process pair: primary on CPU 1,
        // backup on the last CPU, so a processor failure cannot silence
        // the drain
        spawn_suspense_monitor(&mut app.world, node, 1, CPUS - 1, app.catalog.clone());
    }
    app
}

/// Directly read a global replica from the media (test assertions).
pub fn read_replica(world: &mut World, node: NodeId, file: &str, key: &[u8]) -> Option<Bytes> {
    use encompass_storage::media::{media_key, VolumeMedia};
    let media = world
        .stable()
        .get::<VolumeMedia>(&media_key(node, "$MFG"))?;
    media.file(&manufacturing::replica(file, node))?.read(key)
}

// ----------------------------------------------------------------------
// The sharded bank (scale-out) application
// ----------------------------------------------------------------------

/// Parameters of the sharded-bank scale-out application (experiment SO):
/// nodes of three processors (the TCP pair on 0 and 1, the server class
/// on all three, the suspense monitor pair on 2 and 1), meshed by 2 ms
/// links.
#[derive(Clone, Debug)]
pub struct ShardBankAppParams {
    /// Shard count: one master node per shard (16–64 for the scale-out
    /// experiment; smaller for tests and chaos).
    pub nodes: usize,
    /// Total accounts across all shards.
    pub accounts: u64,
    pub terminals_per_node: usize,
    pub transactions_per_terminal: u64,
    /// Out of 1000 transfers, how many pick a destination on another
    /// shard (a distributed transaction).
    pub cross_shard_permille: u32,
    /// Out of 1000 transactions, how many are replicated branch-record
    /// updates (suspense-file appends) instead of transfers.
    pub branch_permille: u32,
    /// Ring replicas of each node's branch record.
    pub branch_replicas: usize,
    pub think: SimDuration,
    pub lock_wait: SimDuration,
    pub seed: u64,
    pub sim: SimConfig,
    pub tmf: TmfNodeConfig,
}

impl Default for ShardBankAppParams {
    fn default() -> Self {
        ShardBankAppParams {
            nodes: 4,
            accounts: 1024,
            terminals_per_node: 4,
            transactions_per_terminal: 25,
            cross_shard_permille: 100,
            branch_permille: 0,
            branch_replicas: 2,
            think: SimDuration::from_millis(10),
            lock_wait: SimDuration::from_millis(500),
            seed: 42,
            sim: SimConfig::default(),
            tmf: TmfNodeConfig::default(),
        }
    }
}

/// Build the sharded bank: a [`ShardMap`] over all nodes whose shard
/// boundaries are the partition boundaries of the `accounts` file, a
/// replicated `branch` file with per-node suspense files, a `shardbank`
/// server class + TCP per node, and a `$SUSPENSE` monitor pair per node.
/// Returns the handles and the map (the driver needs it for routing
/// assertions and the convergence oracle).
pub fn launch_shard_bank(params: ShardBankAppParams) -> (AppHandles, ShardMap) {
    use crate::shardbank::{
        shard_range, ShardBankNode, ShardBankProgram, ShardBankServer, ShardBankWorkload,
        ACCOUNTS_FILE, BRANCH_FILE, SHARDBANK_CLASS,
    };
    use encompass_shard::{add_replicated_file, add_suspense_files};
    use std::rc::Rc;
    const CPUS: u8 = 3;

    let n_nodes = params.nodes;
    let node_ids: Vec<NodeId> = (0..n_nodes as u8).map(NodeId).collect();
    let vol_of = |n: NodeId| VolumeRef::new(n, "$SB");
    let map = ShardMap::uniform(&node_ids, params.accounts, crate::workload::account_key);

    let mut catalog = Catalog::new();
    let parts = map.partitions(vol_of);
    catalog.add(FileDef::key_sequenced(ACCOUNTS_FILE, parts[0].volume.clone()).partitioned(parts));
    add_replicated_file(&mut catalog, BRANCH_FILE, &node_ids, vol_of);
    add_suspense_files(&mut catalog, &node_ids, vol_of);

    let mut builder = AppBuilder::new()
        .sim_config(SimConfig {
            seed: params.seed,
            ..params.sim.clone()
        })
        .tmf_config(params.tmf.clone());
    for _ in 0..n_nodes {
        builder = builder.node(CPUS);
    }
    let mut app = builder.mesh(SimDuration::from_millis(2)).build(catalog);
    preload_accounts(
        &mut app.world,
        &app.catalog,
        ACCOUNTS_FILE,
        params.accounts,
        1000,
    );

    for (i, &node) in app.nodes.iter().enumerate() {
        let shared = ShardBankNode::new(node, map.replica_set(node, params.branch_replicas));
        spawn_server_class(
            &mut app.world,
            node,
            0,
            ServerClassConfig {
                class: SHARDBANK_CLASS.into(),
                min_servers: 2,
                max_servers: 8,
                lock_wait: params.lock_wait,
            },
            app.catalog.clone(),
            move || Box::new(ShardBankServer::new(Rc::clone(&shared))),
        );
        let wl = ShardBankWorkload {
            accounts: params.accounts,
            node,
            local_range: shard_range(params.accounts, n_nodes as u64, i as u64),
            cross_shard_permille: params.cross_shard_permille,
            branch_permille: params.branch_permille,
            transactions: params.transactions_per_terminal,
            think: params.think,
        };
        let terminals = params.terminals_per_node;
        let seed = params.seed;
        let node_idx = i as u64;
        spawn_tcp(
            &mut app.world,
            node,
            0,
            1,
            tcp_name(node),
            app.catalog.clone(),
            move || {
                (0..terminals)
                    .map(|t| {
                        Box::new(ShardBankProgram::new(
                            wl.clone(),
                            seed ^ (node_idx << 16) ^ t as u64,
                        )) as Box<dyn ScreenProgram>
                    })
                    .collect()
            },
        );
        spawn_suspense_monitor(&mut app.world, node, 2, 1, app.catalog.clone());
    }
    (app, map)
}

/// Entries still sitting in `node`'s suspense file on volume `volume`
/// (chaos drain-liveness oracle and test assertions; reads the media
/// directly).
pub fn suspense_backlog(world: &World, node: NodeId, volume: &str) -> usize {
    use encompass_storage::media::{media_key, VolumeMedia};
    world
        .stable()
        .get::<VolumeMedia>(&media_key(node, volume))
        .and_then(|m| m.file(&encompass_shard::suspense_file(node)))
        .map(|f| f.len())
        .unwrap_or(0)
}

/// Read the copy of `master`'s branch record held at `holder` (the master
/// copy when `holder == master`, a ring replica otherwise).
pub fn read_branch_copy(world: &World, holder: NodeId, master: NodeId) -> Option<Bytes> {
    use crate::shardbank::{branch_key, BRANCH_FILE};
    use encompass_storage::media::{media_key, VolumeMedia};
    world
        .stable()
        .get::<VolumeMedia>(&media_key(holder, "$SB"))
        .and_then(|m| m.file(&encompass_shard::replica_file(BRANCH_FILE, holder)))
        .and_then(|f| f.read(&branch_key(master)))
}
