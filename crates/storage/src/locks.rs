//! The decentralized lock manager.
//!
//! One instance lives inside each DISCPROCESS and covers *only* the
//! records and files resident on that volume — "concurrency control for
//! ENCOMPASS is decentralized … no central lock manager exists". Two
//! granularities are provided, record and file, and every lock is
//! exclusive, as in the paper's TMF: a record or file is held by at most
//! one transaction. A file lock conflicts with another transaction's
//! record locks in the file, so each file keeps a count of the record
//! locks every transaction holds there. Read-only transactions take no
//! locks at all; they read snapshots (DESIGN.md §D13). There is no
//! block- or index-level locking.
//!
//! Deadlock detection is by timeout: a request that cannot be granted
//! queues, and its DISCPROCESS arms a timer; if the timer fires first the
//! waiter is cancelled and the requester told to back off (typically via
//! `RESTART-TRANSACTION`).

use crate::types::Transid;
use bytes::Bytes;
use encompass_sim::Name;
use std::collections::{btree_map, BTreeMap, VecDeque};

/// What a lock covers.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum LockScope {
    /// The primary key of one logical record.
    Record { file: Name, key: Bytes },
    /// A whole file (tested against every record lock in the file).
    File { file: Name },
}

impl LockScope {
    pub fn file(&self) -> &Name {
        match self {
            LockScope::Record { file, .. } => file,
            LockScope::File { file } => file,
        }
    }
}

/// Result of a lock request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Acquire {
    /// Granted now (or the transaction already held the scope).
    Granted,
    /// Conflicts; the request is queued under the given waiter token.
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

#[derive(Default)]
struct LockQueue {
    /// The one transaction holding the scope.
    holder: Option<Transid>,
    waiters: VecDeque<WaitEntry>,
}

impl LockQueue {
    fn is_idle(&self) -> bool {
        self.holder.is_none() && self.waiters.is_empty()
    }

    /// Is the scope held by a transaction other than `txn`?
    fn held_by_other(&self, txn: Transid) -> bool {
        self.holder.is_some_and(|h| h != txn)
    }

    /// Is a waiter of another transaction queued that `txn` would have to
    /// overtake?
    fn foreign_waiter(&self, txn: Transid) -> bool {
        self.waiters.iter().any(|w| w.txn != txn)
    }
}

/// Everything locked in one file.
#[derive(Default)]
struct FileLocks {
    /// The file-scope queue.
    file: LockQueue,
    /// Record-scope queues by primary key; idle queues are dropped.
    records: BTreeMap<Bytes, LockQueue>,
    /// Record locks held in the file per transaction — what a file-scope
    /// request is tested against.
    record_holders: BTreeMap<Transid, usize>,
}

/// Exclusive record + file locks for one volume.
///
/// The table is two levels, file then key, so every lookup borrows the
/// caller's `&str` and `&[u8]`, and walking the files in name order and
/// each file's records in key order is the lexicographic `(file, key)`
/// order wake-ups have always been issued in. A file's entry stays once
/// created: files are few and fixed by the catalog.
#[derive(Default)]
pub struct LockManager {
    files: BTreeMap<Name, FileLocks>,
    /// Everything a transaction holds, for release_all.
    held: BTreeMap<Transid, Vec<LockScope>>,
}

impl LockManager {
    pub fn new() -> LockManager {
        LockManager::default()
    }

    /// Number of locks held by `txn`.
    pub fn held_count(&self, txn: Transid) -> usize {
        self.held.get(&txn).map(|v| v.len()).unwrap_or(0)
    }

    fn queue(&self, scope: &LockScope) -> Option<&LockQueue> {
        match scope {
            LockScope::Record { file, key } => self.record_queue(file, key),
            LockScope::File { file } => self.files.get(&**file).map(|f| &f.file),
        }
    }

    fn record_queue(&self, file: &str, key: &[u8]) -> Option<&LockQueue> {
        self.files.get(file)?.records.get(key)
    }

    /// The file's entry, created on the file's first lock.
    fn file_locks(&mut self, file: &Name) -> &mut FileLocks {
        if !self.files.contains_key(&**file) {
            self.files.insert(file.clone(), FileLocks::default());
        }
        self.files.get_mut(&**file).expect("just ensured")
    }

    /// The transaction holding a scope, if any.
    pub fn holder(&self, scope: &LockScope) -> Option<Transid> {
        self.queue(scope).and_then(|q| q.holder)
    }

    /// Does `txn` hold this exact scope?
    pub fn holds(&self, txn: Transid, scope: &LockScope) -> bool {
        self.holder(scope) == Some(txn)
    }

    /// Every `(transaction, scope)` currently held — used to snapshot a
    /// DISCPROCESS for backup initialization. Waiters are deliberately
    /// excluded: their requesters retransmit and re-queue.
    pub fn holdings(&self) -> Vec<(Transid, LockScope)> {
        self.held
            .iter()
            .flat_map(|(t, scopes)| scopes.iter().map(move |s| (*t, s.clone())))
            .collect()
    }

    /// Total queued waiters (diagnostics).
    pub fn waiting(&self) -> usize {
        self.files
            .values()
            .flat_map(|f| f.records.values().chain(std::iter::once(&f.file)))
            .map(|q| q.waiters.len())
            .sum()
    }

    fn record_compatible(&self, txn: Transid, file: &str, key: &[u8]) -> bool {
        let Some(locks) = self.files.get(file) else {
            return true;
        };
        // another transaction's file lock blocks the record lock; txn's
        // own file lock covers it
        let fq = &locks.file;
        if fq.held_by_other(txn) {
            return false;
        }
        // Fairness fence: once a file-lock waiter from another transaction
        // is queued, record-lock requests from transactions that hold
        // nothing in the file yet are refused — otherwise a stream of
        // latecomers keeps the record-holder count non-zero and starves
        // the file waiter until its timeout. Transactions already holding
        // record locks in the file stay exempt (their further locks, and
        // their own file-lock upgrade, must not deadlock against the
        // fence).
        if fq.holder != Some(txn)
            && fq.foreign_waiter(txn)
            && !locks.record_holders.contains_key(&txn)
        {
            return false;
        }
        locks.records.get(key).is_none_or(|q| !q.held_by_other(txn))
    }

    fn file_compatible(&self, txn: Transid, file: &str) -> bool {
        let Some(locks) = self.files.get(file) else {
            return true;
        };
        // NOTE: file requests from transactions already active in the
        // file may overtake queued file waiters — blocking on the queue
        // would deadlock a transaction that holds record locks against
        // its own file-lock upgrade. Record-lock latecomers, however, are
        // fenced while a foreign file waiter queues (see
        // `record_compatible`), and file-lock latecomers holding nothing
        // in the file defer to queued waiters (see `acquire`), so the
        // waiter cannot be starved.
        !locks.file.held_by_other(txn) && locks.record_holders.keys().all(|h| *h == txn)
    }

    /// Try to acquire; on conflict the request queues under `token`.
    /// Re-requesting a scope the transaction already holds is granted
    /// immediately (idempotent, for retried requests).
    pub fn acquire(&mut self, txn: Transid, scope: LockScope, token: u64) -> Acquire {
        if self.holds(txn, &scope) {
            return Acquire::Granted;
        }
        let waiter = WaitEntry { token, txn };
        match &scope {
            LockScope::Record { file, key } => {
                if self.record_compatible(txn, file, key) {
                    self.grant_record(txn, file, key);
                    Acquire::Granted
                } else {
                    self.file_locks(file)
                        .records
                        .entry(key.clone())
                        .or_default()
                        .waiters
                        .push_back(waiter);
                    Acquire::Queued
                }
            }
            LockScope::File { file } => {
                // a file request from a transaction holding nothing in the
                // file defers to queued file waiters; one already active
                // in the file may overtake (self-upgrade)
                let defer = self.files.get(&**file).is_some_and(|locks| {
                    let active_in_file =
                        locks.file.holder == Some(txn) || locks.record_holders.contains_key(&txn);
                    !active_in_file && locks.file.foreign_waiter(txn)
                });
                if !defer && self.file_compatible(txn, file) {
                    self.grant_file(txn, file);
                    Acquire::Granted
                } else {
                    self.file_locks(file).file.waiters.push_back(waiter);
                    Acquire::Queued
                }
            }
        }
    }

    fn grant_record(&mut self, txn: Transid, file: &Name, key: &Bytes) {
        let locks = self.file_locks(file);
        let q = match locks.records.get_mut(&**key) {
            Some(q) => q,
            None => locks.records.entry(key.clone()).or_default(),
        };
        debug_assert!(!q.held_by_other(txn));
        if q.holder.is_none() {
            q.holder = Some(txn);
            *locks.record_holders.entry(txn).or_default() += 1;
            self.held.entry(txn).or_default().push(LockScope::Record {
                file: file.clone(),
                key: key.clone(),
            });
        }
    }

    fn grant_file(&mut self, txn: Transid, file: &Name) {
        let q = &mut self.file_locks(file).file;
        debug_assert!(!q.held_by_other(txn));
        if q.holder.is_none() {
            q.holder = Some(txn);
            self.held
                .entry(txn)
                .or_default()
                .push(LockScope::File { file: file.clone() });
        }
    }

    /// Remove a queued waiter (its timeout fired, or its transaction was
    /// fenced). Returns `None` if the token is unknown; otherwise the
    /// queued requests its removal made grantable — cancelling a *file*
    /// waiter lifts the fairness fence, so fenced record waiters in that
    /// file may be granted and must be completed by the caller.
    pub fn cancel_waiter(&mut self, token: u64) -> Option<Vec<GrantedWaiter>> {
        fn remove_from(q: &mut LockQueue, token: u64) -> bool {
            match q.waiters.iter().position(|w| w.token == token) {
                Some(pos) => {
                    q.waiters.remove(pos);
                    true
                }
                None => false,
            }
        }
        // every record queue in (file, key) order, then every file queue
        let in_record = self.files.iter_mut().find_map(|(file, locks)| {
            let key = locks
                .records
                .iter_mut()
                .find_map(|(key, q)| remove_from(q, token).then(|| key.clone()))?;
            Some((file.clone(), key))
        });
        let file = match in_record {
            Some((file, key)) => {
                // a queue the cancelled waiter leaves idle goes, to bound memory
                let records = &mut self.file_locks(&file).records;
                if records.get(&*key).is_some_and(LockQueue::is_idle) {
                    records.remove(&*key);
                }
                file
            }
            None => self.files.iter_mut().find_map(|(file, locks)| {
                remove_from(&mut locks.file, token).then(|| file.clone())
            })?,
        };
        let mut granted = Vec::new();
        self.wake_file(&file, &mut granted);
        self.wake_records_of_file(&file, &mut granted);
        Some(granted)
    }

    /// Release everything `txn` holds (phase two of commit, or the end of
    /// backout). Returns the queued requests that became grantable — the
    /// DISCPROCESS completes those operations.
    pub fn release_all(&mut self, txn: Transid) -> Vec<GrantedWaiter> {
        let scopes = self.held.remove(&txn).unwrap_or_default();
        for scope in &scopes {
            let Some(locks) = self.files.get_mut(&**scope.file()) else {
                continue;
            };
            let q = match scope {
                LockScope::Record { key, .. } => locks.records.get_mut(&**key),
                LockScope::File { .. } => Some(&mut locks.file),
            };
            let Some(q) = q.filter(|q| q.holder == Some(txn)) else {
                continue;
            };
            q.holder = None;
            if let (LockScope::Record { .. }, btree_map::Entry::Occupied(mut count)) =
                (scope, locks.record_holders.entry(txn))
            {
                *count.get_mut() -= 1;
                if *count.get() == 0 {
                    count.remove();
                }
            }
        }
        let mut granted = Vec::new();
        // wake record waiters on exactly the released records
        for scope in &scopes {
            if let LockScope::Record { file, key } = scope {
                self.wake_record(file, key, &mut granted);
            }
        }
        // re-evaluate file-lock queues of every touched file, and record
        // waiters blocked by a released file lock
        let mut touched_files: Vec<&Name> = scopes.iter().map(LockScope::file).collect();
        touched_files.sort();
        touched_files.dedup();
        for file in touched_files {
            self.wake_file(file, &mut granted);
            self.wake_records_of_file(file, &mut granted);
        }
        // drop the record queues this release left idle, to bound memory
        // (a queue only ever empties here or in `cancel_waiter`)
        for scope in &scopes {
            if let LockScope::Record { file, key } = scope {
                if let Some(locks) = self.files.get_mut(&**file) {
                    if locks.records.get(&**key).is_some_and(LockQueue::is_idle) {
                        locks.records.remove(&**key);
                    }
                }
            }
        }
        granted
    }

    fn wake_record(&mut self, file: &Name, key: &Bytes, granted: &mut Vec<GrantedWaiter>) {
        // grant from the front of the queue while the front is grantable:
        // a transaction's queued requests for a record it now holds are
        // granted with it, and the first waiter of another transaction
        // blocks the rest
        loop {
            let Some(front) = self.record_queue(file, key).and_then(|q| q.waiters.front()) else {
                return;
            };
            if !self.record_compatible(front.txn, file, key) {
                return;
            }
            let w = self
                .files
                .get_mut(&**file)
                .and_then(|locks| locks.records.get_mut(&**key))
                .and_then(|q| q.waiters.pop_front())
                .expect("present above");
            self.grant_record(w.txn, file, key);
            granted.push(GrantedWaiter {
                token: w.token,
                txn: w.txn,
                scope: LockScope::Record {
                    file: file.clone(),
                    key: key.clone(),
                },
            });
        }
    }

    fn wake_file(&mut self, file: &Name, granted: &mut Vec<GrantedWaiter>) {
        // like wake_record
        loop {
            let Some(front) = self
                .files
                .get(&**file)
                .and_then(|locks| locks.file.waiters.front())
            else {
                return;
            };
            if !self.file_compatible(front.txn, file) {
                return;
            }
            let w = self
                .files
                .get_mut(&**file)
                .and_then(|locks| locks.file.waiters.pop_front())
                .expect("present above");
            self.grant_file(w.txn, file);
            granted.push(GrantedWaiter {
                token: w.token,
                txn: w.txn,
                scope: LockScope::File { file: file.clone() },
            });
        }
    }

    fn wake_records_of_file(&mut self, file: &Name, granted: &mut Vec<GrantedWaiter>) {
        // a released file lock (or a lifted fence) may unblock record
        // waiters anywhere in the file
        let Some(locks) = self.files.get(&**file) else {
            return;
        };
        let keys: Vec<Bytes> = locks
            .records
            .iter()
            .filter(|(_, q)| !q.waiters.is_empty())
            .map(|(k, _)| k.clone())
            .collect();
        for key in keys {
            self.wake_record(file, &key, granted);
        }
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
        LockScope::Record {
            file: Name::new(file),
            key: Bytes::copy_from_slice(key.as_bytes()),
        }
    }

    fn fl(file: &str) -> LockScope {
        LockScope::File {
            file: Name::new(file),
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
    fn file_lock_conflicts_with_record_locks() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "a"), 0);
        assert_eq!(lm.acquire(t(2), fl("f"), 1), Acquire::Queued);
        // same txn's own record locks do not block its file lock
        assert_eq!(lm.acquire(t(1), fl("f"), 2), Acquire::Granted);
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].scope, fl("f"));
        assert!(lm.holds(t(2), &fl("f")));
    }

    #[test]
    fn record_lock_blocked_by_file_lock() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), fl("f"), 0);
        assert_eq!(lm.acquire(t(2), rec("f", "x"), 1), Acquire::Queued);
        // other files unaffected — locking is per scope
        assert_eq!(lm.acquire(t(2), rec("g", "x"), 2), Acquire::Granted);
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 1);
        assert!(lm.holds(t(2), &rec("f", "x")));
    }

    #[test]
    fn cancel_waiter_models_timeout() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "k"), 0);
        lm.acquire(t(2), rec("f", "k"), 55);
        assert_eq!(lm.cancel_waiter(55), Some(Vec::new()));
        assert!(lm.cancel_waiter(55).is_none(), "already cancelled");
        let g = lm.release_all(t(1));
        assert!(g.is_empty(), "cancelled waiter is not granted");
        assert_eq!(lm.waiting(), 0);
    }

    #[test]
    fn release_all_spans_files_and_scopes() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("a", "x"), 0);
        lm.acquire(t(1), rec("b", "y"), 0);
        lm.acquire(t(1), fl("c"), 0);
        assert_eq!(lm.held_count(t(1)), 3);
        lm.acquire(t(2), rec("a", "x"), 1);
        lm.acquire(t(3), fl("b"), 2);
        lm.acquire(t(4), rec("c", "z"), 3);
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 3, "one waiter per released scope: {g:?}");
        assert_eq!(lm.held_count(t(1)), 0);
    }

    #[test]
    fn file_waiter_fences_latecomer_record_locks() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "a"), 0);
        // t2 queues for the file lock
        assert_eq!(lm.acquire(t(2), fl("f"), 1), Acquire::Queued);
        // t3 arrives later for a fresh record in f: fenced behind the
        // queued file waiter, even though the record itself is free
        assert_eq!(lm.acquire(t(3), rec("f", "b"), 2), Acquire::Queued);
        // other files are unaffected by the fence
        assert_eq!(lm.acquire(t(3), rec("g", "b"), 3), Acquire::Granted);
        // t1 already holds a record in f: its further locks overtake
        assert_eq!(lm.acquire(t(1), rec("f", "c"), 4), Acquire::Granted);
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 1, "file waiter granted first: {g:?}");
        assert_eq!(g[0].txn, t(2));
        assert_eq!(g[0].scope, fl("f"));
        // once the file lock releases, the fenced record waiter is granted
        let g = lm.release_all(t(2));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].txn, t(3));
        assert_eq!(g[0].scope, rec("f", "b"));
    }

    #[test]
    fn latecomer_stream_cannot_starve_file_waiter() {
        // Regression: previously each latecomer record lock was granted,
        // keeping the record-holder count non-zero forever, so the queued
        // file waiter starved until its timeout.
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "a"), 0);
        assert_eq!(lm.acquire(t(2), fl("f"), 1), Acquire::Queued);
        // a stream of latecomers, arriving while t1 still works
        for (i, seq) in (3..8).enumerate() {
            assert_eq!(
                lm.acquire(t(seq), rec("f", &format!("k{seq}")), 10 + i as u64),
                Acquire::Queued,
                "latecomer t{seq} must be fenced"
            );
        }
        // as soon as the pre-existing holder finishes, the file waiter wins
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].txn, t(2));
        assert!(lm.holds(t(2), &fl("f")));
    }

    #[test]
    fn same_transid_upgrade_overtakes_its_own_wait() {
        // the no-self-deadlock property: a transaction holding record locks
        // may take more record locks (and upgrade to the file lock) even
        // while its own file-lock request queues
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "a"), 0);
        lm.acquire(t(2), rec("f", "b"), 1);
        assert_eq!(lm.acquire(t(1), fl("f"), 2), Acquire::Queued);
        assert_eq!(lm.acquire(t(1), rec("f", "c"), 3), Acquire::Granted);
        let g = lm.release_all(t(2));
        assert_eq!(g.len(), 1, "t1's own upgrade is granted: {g:?}");
        assert_eq!(g[0].txn, t(1));
        assert_eq!(g[0].scope, fl("f"));
    }

    #[test]
    fn cancelled_file_waiter_unfences_records() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "a"), 0);
        assert_eq!(lm.acquire(t(2), fl("f"), 1), Acquire::Queued);
        assert_eq!(lm.acquire(t(3), rec("f", "b"), 2), Acquire::Queued);
        // the file waiter times out: the fence lifts and the fenced record
        // waiter is granted right away (record "b" was free all along)
        let g = lm.cancel_waiter(1).expect("file waiter present");
        assert_eq!(g.len(), 1, "fenced record waiter granted: {g:?}");
        assert_eq!(g[0].txn, t(3));
        assert_eq!(g[0].scope, rec("f", "b"));
        assert!(lm.holds(t(3), &rec("f", "b")));
    }

    #[test]
    fn no_incompatible_holders_property() {
        // randomized interleaving sanity: a scope is held by at most one
        // transaction, and no file grant coexists with another
        // transaction's record lock in that file
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut lm = LockManager::new();
        let mut tokens = 0u64;
        for _ in 0..3000 {
            let txn = t(rng.random_range(0..8));
            let key = format!("k{}", rng.random_range(0..5));
            match rng.random_range(0..3) {
                0 => {
                    tokens += 1;
                    let _ = lm.acquire(txn, rec("f", &key), tokens);
                }
                1 => {
                    tokens += 1;
                    let _ = lm.acquire(txn, fl("f"), tokens);
                }
                _ => {
                    let _ = lm.release_all(txn);
                }
            }
            let holdings = lm.holdings();
            for (i, (a_txn, a_scope)) in holdings.iter().enumerate() {
                assert_eq!(lm.holder(a_scope), Some(*a_txn), "{holdings:?}");
                for (b_txn, b_scope) in holdings.iter().skip(i + 1) {
                    assert!(a_scope != b_scope, "{a_scope:?} held twice: {holdings:?}");
                    if a_txn == b_txn {
                        continue;
                    }
                    assert!(
                        !matches!(
                            (a_scope, b_scope),
                            (LockScope::File { .. }, LockScope::Record { .. })
                                | (LockScope::Record { .. }, LockScope::File { .. })
                        ),
                        "file grant coexists with foreign record lock: {holdings:?}"
                    );
                }
            }
        }
    }
}
