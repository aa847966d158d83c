//! The decentralized lock manager.
//!
//! One instance lives inside each DISCPROCESS and covers *only* the
//! records resident on that volume — "concurrency control for ENCOMPASS
//! is decentralized … no central lock manager exists". Every lock is an
//! exclusive record lock, as in the paper's TMF: a record is held by at
//! most one transaction, named by its file and primary key. Read-only
//! transactions take no locks at all; they read snapshots (DESIGN.md
//! §D13). There is no file-, block- or index-level locking.
//!
//! Deadlock detection is by timeout: a request that cannot be granted
//! queues, and its DISCPROCESS arms a timer; if the timer fires first the
//! waiter is cancelled and the requester told to back off (typically via
//! `RESTART-TRANSACTION`).

use crate::types::Transid;
use bytes::Bytes;
use encompass_sim::Name;
use std::collections::{BTreeMap, VecDeque};

/// What a lock covers: the primary key of one logical record.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LockScope {
    pub file: Name,
    pub key: Bytes,
}

/// Result of a lock request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Acquire {
    /// Granted now (or the transaction already held the record).
    Granted,
    /// Held by another transaction; the request is queued under the
    /// given waiter token.
    Queued,
}

/// A queued request that has just been granted by a release.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrantedWaiter {
    pub token: u64,
    pub txn: Transid,
    pub scope: LockScope,
}

#[derive(Debug)]
struct WaitEntry {
    token: u64,
    txn: Transid,
}

/// One held record: its holder and, behind it, the requests of other
/// transactions in arrival order. A record nobody holds has no queue.
struct LockQueue {
    holder: Transid,
    waiters: VecDeque<WaitEntry>,
}

/// Exclusive record locks for one volume.
///
/// The table is two levels, file then key, so every lookup borrows the
/// caller's `&str` and `&[u8]`. A file's entry stays once created: files
/// are few and fixed by the catalog.
#[derive(Default)]
pub struct LockManager {
    files: BTreeMap<Name, BTreeMap<Bytes, LockQueue>>,
    /// Everything every transaction holds, for release_all: sorted by
    /// transaction, each one's records in the order they were granted. One
    /// list for the volume, reused as transactions come and go, so a warm
    /// volume allocates no per-transaction list.
    held: Vec<(Transid, LockScope)>,
    /// The records `release_all` is releasing, its buffer reused.
    releasing: Vec<LockScope>,
}

impl LockManager {
    pub fn new() -> LockManager {
        LockManager::default()
    }

    /// Number of locks held by `txn`.
    pub fn held_count(&self, txn: Transid) -> usize {
        self.held_by(txn).len()
    }

    /// Where `txn`'s records are in `held`.
    fn held_by(&self, txn: Transid) -> std::ops::Range<usize> {
        let from = self.held.partition_point(|(t, _)| *t < txn);
        from..from + self.held[from..].partition_point(|(t, _)| *t == txn)
    }

    fn queue_mut(&mut self, scope: &LockScope) -> Option<&mut LockQueue> {
        self.files.get_mut(&*scope.file)?.get_mut(&*scope.key)
    }

    /// The transaction holding a record, if any.
    pub fn holder(&self, scope: &LockScope) -> Option<Transid> {
        let queue = self.files.get(&*scope.file)?.get(&*scope.key)?;
        Some(queue.holder)
    }

    /// Does `txn` hold this record?
    pub fn holds(&self, txn: Transid, scope: &LockScope) -> bool {
        self.holder(scope) == Some(txn)
    }

    /// Every `(transaction, record)` currently held, by transaction —
    /// what a DISCPROCESS's snapshot for backup initialization copies.
    /// Waiters are deliberately excluded: their requesters retransmit and
    /// re-queue.
    pub fn holdings(&self) -> &[(Transid, LockScope)] {
        &self.held
    }

    /// Total queued waiters (diagnostics).
    pub fn waiting(&self) -> usize {
        (self.files.values().flat_map(BTreeMap::values))
            .map(|q| q.waiters.len())
            .sum()
    }

    /// Try to acquire; if another transaction holds the record the
    /// request queues under `token`. Re-requesting a record the
    /// transaction already holds is granted immediately (idempotent, for
    /// retried requests).
    pub fn acquire(&mut self, txn: Transid, scope: LockScope, token: u64) -> Acquire {
        if let Some(q) = self.queue_mut(&scope) {
            if q.holder == txn {
                return Acquire::Granted;
            }
            q.waiters.push_back(WaitEntry { token, txn });
            return Acquire::Queued;
        }
        let queue = LockQueue {
            holder: txn,
            waiters: VecDeque::new(),
        };
        let records = self.files.entry(scope.file.clone()).or_default();
        records.insert(scope.key.clone(), queue);
        self.hold(txn, scope);
        Acquire::Granted
    }

    /// Add a granted record after `txn`'s others. A full list grows by an
    /// eighth: it is reused, so room beyond the most locks the volume has
    /// held at once stays empty for good (doubling left 0.04 MiB of it in
    /// `shard64_x100`'s peak heap), yet a transaction taking thousands of
    /// locks still copies the list a logarithmic number of times.
    fn hold(&mut self, txn: Transid, scope: LockScope) {
        let at = self.held.partition_point(|(t, _)| *t <= txn);
        if self.held.len() == self.held.capacity() {
            self.held.reserve_exact(self.held.len() / 8 + 1);
        }
        self.held.insert(at, (txn, scope));
    }

    /// Remove the waiter queued on `scope` under `token` (its timeout
    /// fired, or its transaction was fenced). Returns whether it was
    /// queued. It grants nothing: a waiter only ever queues behind a
    /// holder of another transaction, which still holds the record.
    pub fn cancel_waiter(&mut self, scope: &LockScope, token: u64) -> bool {
        let Some(q) = self.queue_mut(scope) else {
            return false;
        };
        let at = q.waiters.iter().position(|w| w.token == token);
        at.and_then(|at| q.waiters.remove(at)).is_some()
    }

    /// Release everything `txn` holds (phase two of commit, or the end of
    /// backout). Returns the queued requests that became grantable, record
    /// by record in the order `txn` took them — the DISCPROCESS completes
    /// those operations.
    pub fn release_all(&mut self, txn: Transid) -> Vec<GrantedWaiter> {
        let mut scopes = std::mem::take(&mut self.releasing);
        let mine = self.held_by(txn);
        scopes.extend(self.held.drain(mine).map(|(_, scope)| scope));
        let mut granted = Vec::new();
        for scope in scopes.drain(..) {
            let records = self.files.get_mut(&*scope.file).expect("a held record");
            let q = records.get_mut(&*scope.key).expect("a held record");
            debug_assert_eq!(q.holder, txn);
            // the first waiter takes the record; a record nobody waits for
            // drops its queue, to bound memory
            let Some(first) = q.waiters.pop_front() else {
                records.remove(&*scope.key);
                continue;
            };
            q.holder = first.txn;
            granted.push(GrantedWaiter {
                token: first.token,
                txn: first.txn,
                scope: scope.clone(),
            });
            // the new holder's other requests for the record ride with it
            q.waiters.retain(|w| {
                let mine = w.txn == first.txn;
                if mine {
                    granted.push(GrantedWaiter {
                        token: w.token,
                        txn: w.txn,
                        scope: scope.clone(),
                    });
                }
                !mine
            });
            self.hold(first.txn, scope);
        }
        self.releasing = scopes;
        granted
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use encompass_sim::NodeId;

    fn t(seq: u64) -> Transid {
        Transid {
            home_node: NodeId(0),
            cpu: 0,
            seq,
        }
    }

    fn rec(file: &str, key: &str) -> LockScope {
        LockScope {
            file: Name::new(file),
            key: Bytes::copy_from_slice(key.as_bytes()),
        }
    }

    #[test]
    fn exclusive_record_lock() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(t(1), rec("f", "k"), 100), Acquire::Granted);
        assert_eq!(
            lm.acquire(t(1), rec("f", "k"), 101),
            Acquire::Granted,
            "re-entrant"
        );
        assert_eq!(lm.acquire(t(2), rec("f", "k"), 102), Acquire::Queued);
        assert_eq!(lm.holder(&rec("f", "k")), Some(t(1)));
        assert_eq!(lm.waiting(), 1);
        let granted = lm.release_all(t(1));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].txn, t(2));
        assert_eq!(granted[0].token, 102);
        assert!(lm.holds(t(2), &rec("f", "k")));
    }

    #[test]
    fn fifo_waiter_order() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "k"), 0);
        lm.acquire(t(2), rec("f", "k"), 1);
        lm.acquire(t(3), rec("f", "k"), 2);
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 1, "exclusive: only the first waiter granted");
        assert_eq!(g[0].txn, t(2));
        let g = lm.release_all(t(2));
        assert_eq!(g[0].txn, t(3));
    }

    #[test]
    fn cancel_waiter_models_timeout() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "k"), 0);
        lm.acquire(t(2), rec("f", "k"), 55);
        assert!(!lm.cancel_waiter(&rec("f", "j"), 55), "queued elsewhere");
        assert!(lm.cancel_waiter(&rec("f", "k"), 55));
        assert!(!lm.cancel_waiter(&rec("f", "k"), 55), "already cancelled");
        let g = lm.release_all(t(1));
        assert!(g.is_empty(), "cancelled waiter is not granted");
        assert_eq!(lm.waiting(), 0);
    }

    #[test]
    fn release_all_spans_files() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("a", "x"), 0);
        lm.acquire(t(1), rec("b", "y"), 0);
        lm.acquire(t(1), rec("c", "z"), 0);
        assert_eq!(lm.held_count(t(1)), 3);
        lm.acquire(t(2), rec("a", "x"), 1);
        lm.acquire(t(3), rec("b", "y"), 2);
        lm.acquire(t(4), rec("c", "z"), 3);
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 3, "one waiter per released record: {g:?}");
        assert_eq!(lm.held_count(t(1)), 0);
    }
}
