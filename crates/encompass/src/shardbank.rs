//! The partitioned-bank scale-out workload (experiment SO).
//!
//! A bank with `accounts` records partitioned over 16–64 nodes by a
//! [`ShardMap`](encompass_shard::ShardMap): each node masters one
//! contiguous key range of the `accounts` file (the shard boundaries
//! **are** the partition boundaries), plus one replicated `branch`
//! statistics record mastered per node and replicated over the ring via
//! the suspense-file subsystem.
//!
//! Terminals run **transfer** transactions: debit one account, credit
//! another, atomically. The source account is always drawn from the
//! terminal's own node (requests are routed to the master's server class
//! — record-master routing), and a configurable fraction of transfers
//! picks the destination from a *different* shard: those become
//! distributed TMF transactions spanning two nodes' DISCPROCESSes.
//! Transfers conserve the total balance exactly, which the chaos tier's
//! conservation oracle checks under faults.
//!
//! A second op, `branch-credit`, exercises the replication layer under
//! load: it master-updates the node's replicated branch record and queues
//! suspense-file deferred updates for the ring replicas, which the
//! `$SUSPENSE` monitor pairs drain (replica equality after drain is the
//! chaos tier's convergence oracle).

use crate::messages::{AppReply, AppRequest};
use crate::screen::{ScreenAction, ScreenInput, ScreenProgram};
use crate::server::{suspense_appends, upsert, DbOp, ServerLogic, ServerStep};
use crate::workload::{account_key, balance_bytes, balance_of};
use bytes::Bytes;
use encompass_shard::replica_file;
use encompass_sim::{Name, NodeId, SimDuration};
use encompass_storage::discprocess::{DiscError, DiscReply};
use encompass_storage::types::Transid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sharded bank's server class: the class
/// [`crate::app::launch_shard_bank`] registers on every node and the one
/// [`ShardBankProgram`] SENDs to.
pub const SHARDBANK_CLASS: &str = "shardbank";

/// The partitioned accounts file.
pub const ACCOUNTS_FILE: &str = "accounts";
/// The replicated per-node branch statistics file (logical name; physical
/// copies are `branch@<n>`).
pub const BRANCH_FILE: &str = "branch";

/// The key of node `n`'s branch record.
pub fn branch_key(node: NodeId) -> Bytes {
    Bytes::from(format!("branch{:03}", node.0))
}

// ----------------------------------------------------------------------
// The shardbank server class
// ----------------------------------------------------------------------

/// Context-free server for one node of the sharded bank.
///
/// Ops:
/// * `transfer [src, dst, amount]` — atomically move `amount` from `src`
///   to `dst` in the partitioned accounts file. Locks are taken in global
///   key order (lowest key first) so concurrent transfers cannot
///   deadlock; a cross-shard destination makes this a distributed
///   transaction.
/// * `branch-credit [amount]` — master-update of this node's replicated
///   branch record: bump the master copy and queue one
///   [`SuspenseRecord`](encompass_shard::SuspenseRecord)
///   per ring replica (stamped with the writing transid).
/// * `query [key]` — read one account.
pub struct ShardBankServer {
    node: NodeId,
    /// Ring replicas of this node's branch record.
    branch_replicas: Vec<NodeId>,
    transid: Option<Transid>,
    op: Name,
    step: u32,
    /// Transfer state: keys in lock order with their balance deltas.
    keys: [Bytes; 2],
    deltas: [i64; 2],
    balances: [i64; 2],
    amount: i64,
    queue: Vec<DbOp>,
}

impl ShardBankServer {
    pub fn new(node: NodeId, branch_replicas: Vec<NodeId>) -> ShardBankServer {
        ShardBankServer {
            node,
            branch_replicas,
            transid: None,
            op: Name::default(),
            step: 0,
            keys: [Bytes::new(), Bytes::new()],
            deltas: [0, 0],
            balances: [0, 0],
            amount: 0,
            queue: Vec::new(),
        }
    }

    fn next_queued(&mut self) -> ServerStep {
        match self.queue.pop() {
            Some(op) => ServerStep::Db(op),
            None => ServerStep::Reply(AppReply::ok(vec![])),
        }
    }
}

impl ServerLogic for ShardBankServer {
    fn on_adopt(&mut self, transid: Option<Transid>) {
        self.transid = transid;
    }

    fn on_request(&mut self, req: &AppRequest) -> ServerStep {
        self.op = req.op.clone();
        match req.op.as_str() {
            "transfer" => {
                let src = req.param(0);
                let dst = req.param(1);
                if src == dst {
                    return ServerStep::Reply(AppReply::error());
                }
                self.amount = balance_of(&req.param(2));
                // lock order: lowest key first, deadlock-free by design
                if src <= dst {
                    self.keys = [src, dst];
                    self.deltas = [-self.amount, self.amount];
                } else {
                    self.keys = [dst, src];
                    self.deltas = [self.amount, -self.amount];
                }
                self.step = 1;
                ServerStep::Db(DbOp::ReadLock {
                    file: ACCOUNTS_FILE.into(),
                    key: self.keys[0].clone(),
                })
            }
            "branch-credit" => {
                self.amount = balance_of(&req.param(0));
                self.step = 1;
                ServerStep::Db(DbOp::ReadLock {
                    file: replica_file(BRANCH_FILE, self.node),
                    key: branch_key(self.node),
                })
            }
            "query" => ServerStep::Db(DbOp::Read {
                file: ACCOUNTS_FILE.into(),
                key: req.param(0),
            }),
            _ => ServerStep::Reply(AppReply::error()),
        }
    }

    fn on_db(&mut self, db: &DiscReply) -> ServerStep {
        if let DiscReply::Err(DiscError::LockTimeout) = db {
            return ServerStep::Reply(AppReply::restart());
        }
        if let DiscReply::Err(DiscError::SnapshotTooOld) = db {
            return ServerStep::Reply(AppReply::restart());
        }
        match self.op.as_str() {
            "query" => {
                if let DiscReply::Value(v) = db {
                    ServerStep::Reply(AppReply::ok(v.iter().cloned().collect()))
                } else {
                    ServerStep::Reply(AppReply::error())
                }
            }
            // 1 = first lock answered → lock second
            // 2 = second lock answered → update first
            // 3 = first update answered → update second
            // 4 = second update answered → reply
            "transfer" => match (self.step, db) {
                (1, DiscReply::Value(Some(v))) => {
                    self.balances[0] = balance_of(v);
                    self.step = 2;
                    ServerStep::Db(DbOp::ReadLock {
                        file: ACCOUNTS_FILE.into(),
                        key: self.keys[1].clone(),
                    })
                }
                (2, DiscReply::Value(Some(v))) => {
                    self.balances[1] = balance_of(v);
                    self.step = 3;
                    ServerStep::Db(DbOp::Update {
                        file: ACCOUNTS_FILE.into(),
                        key: self.keys[0].clone(),
                        value: balance_bytes(self.balances[0] + self.deltas[0]),
                    })
                }
                (3, DiscReply::Ok) => {
                    self.step = 4;
                    ServerStep::Db(DbOp::Update {
                        file: ACCOUNTS_FILE.into(),
                        key: self.keys[1].clone(),
                        value: balance_bytes(self.balances[1] + self.deltas[1]),
                    })
                }
                (4, DiscReply::Ok) => ServerStep::Reply(AppReply::ok(vec![])),
                _ => ServerStep::Reply(AppReply::error()),
            },
            // 1 = master lock answered → write master copy + queue
            //     suspense appends for the ring replicas
            // 2 = a write answered → next queued append or reply
            "branch-credit" => match (self.step, db) {
                (1, DiscReply::Value(existing)) => {
                    let total = existing.as_ref().map(balance_of).unwrap_or(0) + self.amount;
                    let value = balance_bytes(total);
                    let key = branch_key(self.node);
                    self.queue.extend(suspense_appends(
                        self.node,
                        self.transid,
                        self.branch_replicas.iter().copied(),
                        BRANCH_FILE.into(),
                        key.clone(),
                        value.clone(),
                    ));
                    self.step = 2;
                    let file = replica_file(BRANCH_FILE, self.node);
                    ServerStep::Db(upsert(existing.is_some(), file, key, value))
                }
                (2, DiscReply::Ok) | (2, DiscReply::EntryNumber(_)) => self.next_queued(),
                _ => ServerStep::Reply(AppReply::error()),
            },
            _ => ServerStep::Reply(AppReply::error()),
        }
    }
}

// ----------------------------------------------------------------------
// The transfer terminal program
// ----------------------------------------------------------------------

/// Workload knobs for one scale-out terminal.
#[derive(Clone, Debug)]
pub struct ShardBankWorkload {
    /// Total accounts across all shards.
    pub accounts: u64,
    /// This terminal's node and its account-index range `[lo, hi)` (the
    /// shard it masters; transfer sources come from here).
    pub node: NodeId,
    pub local_range: (u64, u64),
    /// Out of 1000 transfers, how many pick a destination outside the
    /// local shard (a distributed transaction).
    pub cross_shard_permille: u32,
    /// Out of 1000 transactions, how many are `branch-credit` updates of
    /// the replicated branch record instead of transfers.
    pub branch_permille: u32,
    /// Transactions to run.
    pub transactions: u64,
    /// Operator think time between transactions.
    pub think: SimDuration,
}

enum Op {
    Transfer { src: u64, dst: u64, amount: i64 },
    BranchCredit { amount: i64 },
}

/// think → BEGIN → SEND transfer/branch-credit → END → repeat.
pub struct ShardBankProgram {
    cfg: ShardBankWorkload,
    rng: StdRng,
    done: u64,
    current: Option<(u64, u64, i64, bool)>, // (src, dst, amount, is_branch)
}

impl ShardBankProgram {
    pub fn new(cfg: ShardBankWorkload, seed: u64) -> ShardBankProgram {
        ShardBankProgram {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            done: 0,
            current: None,
        }
    }

    fn pick(&mut self) -> Op {
        if self.rng.random_range(0u32..1000) < self.cfg.branch_permille {
            return Op::BranchCredit {
                amount: self.rng.random_range(1..100),
            };
        }
        let (lo, hi) = self.cfg.local_range;
        let src = self.rng.random_range(lo..hi.max(lo + 1));
        let cross = self.rng.random_range(0u32..1000) < self.cfg.cross_shard_permille
            && self.cfg.accounts > (hi - lo);
        let dst = loop {
            let d = if cross {
                // anywhere outside the local shard
                let d = self.rng.random_range(0..self.cfg.accounts - (hi - lo));
                if d < lo {
                    d
                } else {
                    d + (hi - lo)
                }
            } else {
                self.rng.random_range(lo..hi.max(lo + 1))
            };
            if d != src {
                break d;
            }
        };
        Op::Transfer {
            src,
            dst,
            amount: self.rng.random_range(1..100),
        }
    }
}

impl ScreenProgram for ShardBankProgram {
    fn next(&mut self, input: ScreenInput<'_>) -> ScreenAction {
        match input {
            ScreenInput::Go => {
                if self.done >= self.cfg.transactions {
                    return ScreenAction::Finished;
                }
                if self.current.is_none() {
                    self.current = Some(match self.pick() {
                        Op::Transfer { src, dst, amount } => (src, dst, amount, false),
                        Op::BranchCredit { amount } => (0, 0, amount, true),
                    });
                }
                ScreenAction::begin()
            }
            ScreenInput::Began => {
                let (src, dst, amount, is_branch) = self.current.expect("input data present");
                let request = if is_branch {
                    AppRequest::new("branch-credit", vec![balance_bytes(amount)])
                } else {
                    AppRequest::new(
                        "transfer",
                        vec![account_key(src), account_key(dst), balance_bytes(amount)],
                    )
                };
                // record-master routing: the request goes to the server
                // class at the master of the source record — this
                // terminal's own node
                ScreenAction::Send {
                    node: Some(self.cfg.node),
                    class: SHARDBANK_CLASS.into(),
                    request,
                }
            }
            ScreenInput::Reply(r) => {
                if r.restart {
                    return ScreenAction::Restart;
                }
                if !r.ok {
                    return ScreenAction::Abort;
                }
                ScreenAction::End
            }
            ScreenInput::Committed => {
                self.done += 1;
                self.current = None;
                ScreenAction::Think(self.cfg.think)
            }
            ScreenInput::Aborted | ScreenInput::SendFailed => {
                self.current = None;
                ScreenAction::Think(self.cfg.think)
            }
        }
    }

    fn restart(&mut self) {
        // keep `current`: the checkpointed screen input is reused
    }

    fn set_progress(&mut self, committed: u64) {
        self.done = self.done.max(committed);
    }
}

/// The account-index range `[lo, hi)` of shard slot `j` when `accounts`
/// keys are split evenly over `n` slots (matches
/// [`ShardMap::uniform`](encompass_shard::ShardMap::uniform)).
pub fn shard_range(accounts: u64, n: u64, j: u64) -> (u64, u64) {
    (accounts * j / n, accounts * (j + 1) / n)
}

#[cfg(test)]
#[allow(
    clippy::wildcard_enum_match_arm,
    reason = "a test names the one variant it expects; any other is the failure it reports"
)]
mod tests {
    use super::*;
    use encompass_shard::{suspense_file, ShardMap, SuspenseRecord};

    #[test]
    fn shard_ranges_tile_the_accounts() {
        let n = 7;
        let accounts = 100;
        let mut covered = 0;
        for j in 0..n {
            let (lo, hi) = shard_range(accounts, n, j);
            assert_eq!(lo, covered);
            covered = hi;
        }
        assert_eq!(covered, accounts);
    }

    #[test]
    fn shard_map_agrees_with_shard_range() {
        let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
        let accounts = 123;
        let map = ShardMap::uniform(&nodes, accounts, account_key);
        for j in 0..5u64 {
            let (lo, hi) = shard_range(accounts, 5, j);
            for i in [lo, (lo + hi) / 2, hi - 1] {
                assert_eq!(map.master_of(&account_key(i)), nodes[j as usize]);
            }
        }
    }

    #[test]
    fn transfer_locks_in_key_order() {
        let mut s = ShardBankServer::new(NodeId(0), vec![]);
        // src key is greater than dst key: dst must be locked first
        let step = s.on_request(&AppRequest::new(
            "transfer",
            vec![account_key(9), account_key(3), balance_bytes(10)],
        ));
        match step {
            ServerStep::Db(DbOp::ReadLock { key, .. }) => assert_eq!(key, account_key(3)),
            other => panic!("expected lock, got {other:?}"),
        }
        // the full walk conserves the total
        let _ = s.on_db(&DiscReply::Value(Some(balance_bytes(100))));
        let step = s.on_db(&DiscReply::Value(Some(balance_bytes(50))));
        let first = match step {
            ServerStep::Db(DbOp::Update { key, value, .. }) => (key, balance_of(&value)),
            other => panic!("expected update, got {other:?}"),
        };
        let step = s.on_db(&DiscReply::Ok);
        let second = match step {
            ServerStep::Db(DbOp::Update { key, value, .. }) => (key, balance_of(&value)),
            other => panic!("expected update, got {other:?}"),
        };
        // dst (key 3) credited, src (key 9) debited; total conserved
        assert_eq!(first, (account_key(3), 110));
        assert_eq!(second, (account_key(9), 40));
    }

    #[test]
    fn branch_credit_queues_stamped_suspense_records() {
        let t = Transid {
            home_node: NodeId(2),
            cpu: 1,
            seq: 9,
        };
        let mut s = ShardBankServer::new(NodeId(2), vec![NodeId(3), NodeId(4)]);
        s.on_adopt(Some(t));
        let _ = s.on_request(&AppRequest::new("branch-credit", vec![balance_bytes(5)]));
        let _ = s.on_db(&DiscReply::Value(Some(balance_bytes(20))));
        assert_eq!(s.queue.len(), 2);
        for op in &s.queue {
            let DbOp::InsertEntry { file, value } = op else {
                panic!("expected suspense append");
            };
            assert_eq!(file, &suspense_file(NodeId(2)));
            let rec = SuspenseRecord::decode(value).expect("valid record");
            assert_eq!(rec.transid, t);
            assert_eq!(rec.key, branch_key(NodeId(2)));
            assert_eq!(balance_of(&rec.value), 25);
        }
    }

    #[test]
    fn program_respects_cross_shard_fraction() {
        let mk = |permille| ShardBankWorkload {
            accounts: 1000,
            node: NodeId(1),
            local_range: (100, 200),
            cross_shard_permille: permille,
            branch_permille: 0,
            transactions: u64::MAX,
            think: SimDuration::ZERO,
        };
        for (permille, lo_expect, hi_expect) in [(0, 0.0, 0.0), (300, 0.2, 0.4), (1000, 1.0, 1.0)] {
            let mut p = ShardBankProgram::new(mk(permille), 42);
            let mut cross = 0;
            let total = 2000;
            for _ in 0..total {
                match p.pick() {
                    Op::Transfer { src, dst, .. } => {
                        assert!((100..200).contains(&src), "source is always local");
                        assert_ne!(src, dst);
                        if !(100..200).contains(&dst) {
                            cross += 1;
                        }
                    }
                    Op::BranchCredit { .. } => panic!("branch_permille is 0"),
                }
            }
            let frac = cross as f64 / total as f64;
            assert!(
                (lo_expect..=hi_expect).contains(&frac),
                "permille {permille} gave cross fraction {frac}"
            );
        }
    }
}
