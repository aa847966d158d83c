//! The decentralized lock manager.
//!
//! One instance lives inside each DISCPROCESS and covers *only* the
//! records and files resident on that volume — "concurrency control for
//! ENCOMPASS is decentralized … no central lock manager exists". Two
//! granularities are provided, record and file. The paper's TMF offers
//! exclusive mode only; this manager additionally provides shared record
//! locks and intent modes at file scope (Gray's hierarchical locking) so
//! read-only transactions can coexist with one another while writers
//! still serialize. Record locks held by a transaction imply an intent
//! lock on their file (IS for shared, IX for exclusive records), which is
//! what a file-scope request is tested against. There is no block- or
//! index-level locking.
//!
//! Deadlock detection is by timeout: a request that cannot be granted
//! queues, and its DISCPROCESS arms a timer; if the timer fires first the
//! waiter is cancelled and the requester told to back off (typically via
//! `RESTART-TRANSACTION`).

use crate::types::Transid;
use bytes::Bytes;
use encompass_sim::Name;
use std::collections::{BTreeMap, VecDeque};

/// The lock modes. `Shared` and `Exclusive` apply to both scopes;
/// the intent modes only make sense at file scope, where they summarize
/// record-level activity below.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LockMode {
    /// Read lock: compatible with other readers.
    Shared,
    /// Write lock: compatible with nothing.
    Exclusive,
    /// File-scope summary of shared record locks below.
    IntentShared,
    /// File-scope summary of exclusive record locks below.
    IntentExclusive,
}

impl LockMode {
    /// Gray's compatibility matrix (no SIX — nothing here needs it).
    pub fn compatible(self, other: LockMode) -> bool {
        match (self, other) {
            (LockMode::IntentShared, LockMode::IntentShared)
            | (LockMode::IntentShared, LockMode::IntentExclusive)
            | (LockMode::IntentShared, LockMode::Shared)
            | (LockMode::IntentExclusive, LockMode::IntentShared)
            | (LockMode::IntentExclusive, LockMode::IntentExclusive)
            | (LockMode::Shared, LockMode::IntentShared)
            | (LockMode::Shared, LockMode::Shared) => true,
            (LockMode::IntentShared, LockMode::Exclusive)
            | (LockMode::IntentExclusive, LockMode::Shared)
            | (LockMode::IntentExclusive, LockMode::Exclusive)
            | (LockMode::Shared, LockMode::IntentExclusive)
            | (LockMode::Shared, LockMode::Exclusive)
            | (LockMode::Exclusive, LockMode::IntentShared)
            | (LockMode::Exclusive, LockMode::IntentExclusive)
            | (LockMode::Exclusive, LockMode::Shared)
            | (LockMode::Exclusive, LockMode::Exclusive) => false,
        }
    }

    /// Does a grant in mode `self` satisfy a request for `req`?
    /// (Exclusive covers everything; Shared and IX cover IS.)
    pub fn covers(self, req: LockMode) -> bool {
        match (self, req) {
            (LockMode::Shared, LockMode::Shared)
            | (LockMode::Shared, LockMode::IntentShared)
            | (LockMode::Exclusive, LockMode::Shared)
            | (LockMode::Exclusive, LockMode::Exclusive)
            | (LockMode::Exclusive, LockMode::IntentShared)
            | (LockMode::Exclusive, LockMode::IntentExclusive)
            | (LockMode::IntentShared, LockMode::IntentShared)
            | (LockMode::IntentExclusive, LockMode::IntentShared)
            | (LockMode::IntentExclusive, LockMode::IntentExclusive) => true,
            (LockMode::Shared, LockMode::Exclusive)
            | (LockMode::Shared, LockMode::IntentExclusive)
            | (LockMode::IntentShared, LockMode::Shared)
            | (LockMode::IntentShared, LockMode::Exclusive)
            | (LockMode::IntentShared, LockMode::IntentExclusive)
            | (LockMode::IntentExclusive, LockMode::Shared)
            | (LockMode::IntentExclusive, LockMode::Exclusive) => false,
        }
    }

    /// The file-scope intent a record lock in this mode implies.
    pub fn implied_intent(self) -> LockMode {
        match self {
            LockMode::Shared | LockMode::IntentShared => LockMode::IntentShared,
            LockMode::Exclusive | LockMode::IntentExclusive => LockMode::IntentExclusive,
        }
    }
}

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
    /// Granted now (or the transaction already held a covering mode).
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
    pub mode: LockMode,
}

#[derive(Clone, Copy, Debug)]
struct Grant {
    txn: Transid,
    mode: LockMode,
}

#[derive(Debug)]
struct WaitEntry {
    token: u64,
    txn: Transid,
    mode: LockMode,
}

#[derive(Default)]
struct LockQueue {
    granted: Vec<Grant>,
    waiters: VecDeque<WaitEntry>,
}

impl LockQueue {
    fn is_idle(&self) -> bool {
        self.granted.is_empty() && self.waiters.is_empty()
    }

    fn mode_of(&self, txn: Transid) -> Option<LockMode> {
        self.granted.iter().find(|g| g.txn == txn).map(|g| g.mode)
    }

    /// Is a waiter of another transaction queued that `mode` would have
    /// to overtake?
    fn foreign_waiter_blocks(&self, txn: Transid, mode: LockMode) -> bool {
        self.waiters
            .iter()
            .any(|w| w.txn != txn && !w.mode.compatible(mode))
    }
}

/// Per-file, per-transaction record-lock counts: how many shared and how
/// many exclusive record locks the transaction holds in the file. The
/// implied file intent is IX if any exclusive, else IS.
#[derive(Default, Clone, Copy)]
struct RecordCounts {
    shared: usize,
    exclusive: usize,
}

impl RecordCounts {
    fn implied_intent(self) -> LockMode {
        if self.exclusive > 0 {
            LockMode::IntentExclusive
        } else {
            LockMode::IntentShared
        }
    }

    fn of(&mut self, mode: LockMode) -> &mut usize {
        match mode {
            LockMode::Shared | LockMode::IntentShared => &mut self.shared,
            LockMode::Exclusive | LockMode::IntentExclusive => &mut self.exclusive,
        }
    }
}

/// Everything locked in one file.
#[derive(Default)]
struct FileLocks {
    /// The file-scope queue.
    file: LockQueue,
    /// Record-scope queues by primary key; idle queues are dropped.
    records: BTreeMap<Bytes, LockQueue>,
    /// Record-lock counts per transaction — the implied intent locks a
    /// file-scope request is tested against.
    record_holders: BTreeMap<Transid, RecordCounts>,
}

/// Multi-mode record + file locks for one volume.
///
/// The table is two levels, file then key, so every lookup borrows the
/// caller's `&str` and `&[u8]`, and walking the files in name order and
/// each file's records in key order is the lexicographic `(file, key)`
/// order wake-ups have always been issued in. A file's entry stays once
/// created: files are few and fixed by the catalog.
#[derive(Default)]
pub struct LockManager {
    files: BTreeMap<Name, FileLocks>,
    /// Everything a transaction holds, for release_all (modes live in
    /// the grant sets).
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

    /// The grant set of a scope: every `(transaction, mode)` holding it.
    pub fn holders(&self, scope: &LockScope) -> Vec<(Transid, LockMode)> {
        self.queue(scope)
            .map(|q| q.granted.iter().map(|g| (g.txn, g.mode)).collect())
            .unwrap_or_default()
    }

    /// How many transactions hold this scope.
    pub fn holder_count(&self, scope: &LockScope) -> usize {
        self.queue(scope).map_or(0, |q| q.granted.len())
    }

    /// Does `txn` hold this exact scope in a mode covering `mode`?
    pub fn holds(&self, txn: Transid, scope: &LockScope, mode: LockMode) -> bool {
        self.queue(scope)
            .and_then(|q| q.mode_of(txn))
            .is_some_and(|m| m.covers(mode))
    }

    /// Every `(transaction, scope, mode)` currently held — used to
    /// snapshot a DISCPROCESS for backup initialization. Waiters are
    /// deliberately excluded: their requesters retransmit and re-queue.
    pub fn holdings(&self) -> Vec<(Transid, LockScope, LockMode)> {
        self.held
            .iter()
            .flat_map(|(t, scopes)| {
                scopes.iter().map(move |s| {
                    let mode = self
                        .queue(s)
                        .and_then(|q| q.mode_of(*t))
                        .expect("held implies granted");
                    (*t, s.clone(), mode)
                })
            })
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

    fn record_compatible(&self, txn: Transid, file: &str, key: &[u8], mode: LockMode) -> bool {
        let intent = mode.implied_intent();
        let Some(locks) = self.files.get(file) else {
            return true;
        };
        // a file grant by another transaction in an incompatible mode
        // blocks the record lock; txn's own file grant covers it
        let fq = &locks.file;
        if fq
            .granted
            .iter()
            .any(|g| g.txn != txn && !g.mode.compatible(intent))
        {
            return false;
        }
        // Fairness fence: once an incompatible file-lock waiter from
        // another transaction is queued, record-lock requests from
        // transactions that hold nothing in the file yet are refused —
        // otherwise a stream of latecomers keeps the record-holder count
        // non-zero and starves the file waiter until its timeout.
        // Transactions already holding record locks in the file stay
        // exempt (their further locks, and their own file-lock upgrade,
        // must not deadlock against the fence).
        let own_file_grant = fq.mode_of(txn).is_some();
        if !own_file_grant
            && fq.foreign_waiter_blocks(txn, intent)
            && !locks.record_holders.contains_key(&txn)
        {
            return false;
        }
        match locks.records.get(key) {
            Some(q) => q
                .granted
                .iter()
                .all(|g| g.txn == txn || g.mode.compatible(mode)),
            None => true,
        }
    }

    fn file_compatible(&self, txn: Transid, file: &str, mode: LockMode) -> bool {
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
        if locks
            .file
            .granted
            .iter()
            .any(|g| g.txn != txn && !g.mode.compatible(mode))
        {
            return false;
        }
        // a record lock in the file by another transaction blocks the
        // request unless its implied intent is compatible
        locks
            .record_holders
            .iter()
            .all(|(h, counts)| *h == txn || counts.implied_intent().compatible(mode))
    }

    /// Try to acquire; on conflict the request queues under `token`.
    /// Re-requesting a scope the transaction already holds in a covering
    /// mode is granted immediately (idempotent, for retried requests);
    /// requesting `Exclusive` over an own `Shared` grant upgrades in
    /// place once every other holder is gone.
    pub fn acquire(
        &mut self,
        txn: Transid,
        scope: LockScope,
        mode: LockMode,
        token: u64,
    ) -> Acquire {
        if self.holds(txn, &scope, mode) {
            return Acquire::Granted;
        }
        let waiter = WaitEntry { token, txn, mode };
        match &scope {
            LockScope::Record { file, key } => {
                // a shared request defers to a queued incompatible waiter
                // (an exclusive one) so reader streams cannot starve it;
                // exclusive requests keep the historical overtake — the
                // front waiter may be fenced while the requester is not
                let defer = mode == LockMode::Shared
                    && self
                        .record_queue(file, key)
                        .is_some_and(|q| q.foreign_waiter_blocks(txn, mode));
                if !defer && self.record_compatible(txn, file, key, mode) {
                    self.grant_record(txn, file, key, mode);
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
                // file defers to queued incompatible file waiters; one
                // already active in the file may overtake (self-upgrade)
                let defer = self.files.get(&**file).is_some_and(|locks| {
                    let active_in_file = locks.file.mode_of(txn).is_some()
                        || locks.record_holders.contains_key(&txn);
                    !active_in_file && locks.file.foreign_waiter_blocks(txn, mode)
                });
                if !defer && self.file_compatible(txn, file, mode) {
                    self.grant_file(txn, file, mode);
                    Acquire::Granted
                } else {
                    self.file_locks(file).file.waiters.push_back(waiter);
                    Acquire::Queued
                }
            }
        }
    }

    fn grant_record(&mut self, txn: Transid, file: &Name, key: &Bytes, mode: LockMode) {
        let locks = self.file_locks(file);
        let q = match locks.records.get_mut(&**key) {
            Some(q) => q,
            None => locks.records.entry(key.clone()).or_default(),
        };
        debug_assert!(q
            .granted
            .iter()
            .all(|g| g.txn == txn || g.mode.compatible(mode)));
        match q.granted.iter_mut().find(|g| g.txn == txn) {
            Some(g) if g.mode.covers(mode) => {}
            Some(g) => {
                // Shared → Exclusive in place: move the intent count over
                debug_assert_eq!(g.mode, LockMode::Shared);
                g.mode = mode;
                let counts = locks
                    .record_holders
                    .get_mut(&txn)
                    .expect("upgraded holder is counted");
                counts.shared -= 1;
                counts.exclusive += 1;
            }
            None => {
                q.granted.push(Grant { txn, mode });
                *locks.record_holders.entry(txn).or_default().of(mode) += 1;
                self.held.entry(txn).or_default().push(LockScope::Record {
                    file: file.clone(),
                    key: key.clone(),
                });
            }
        }
    }

    fn grant_file(&mut self, txn: Transid, file: &Name, mode: LockMode) {
        let q = &mut self.file_locks(file).file;
        debug_assert!(q
            .granted
            .iter()
            .all(|g| g.txn == txn || g.mode.compatible(mode)));
        match q.granted.iter_mut().find(|g| g.txn == txn) {
            Some(g) if g.mode.covers(mode) => {}
            Some(g) => g.mode = mode,
            None => {
                q.granted.push(Grant { txn, mode });
                self.held
                    .entry(txn)
                    .or_default()
                    .push(LockScope::File { file: file.clone() });
            }
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
            match scope {
                LockScope::Record { key, .. } => {
                    let released = locks.records.get_mut(&**key).and_then(|q| {
                        let pos = q.granted.iter().position(|g| g.txn == txn)?;
                        Some(q.granted.remove(pos).mode)
                    });
                    if let (Some(mode), Some(counts)) =
                        (released, locks.record_holders.get_mut(&txn))
                    {
                        *counts.of(mode) -= 1;
                        if counts.shared == 0 && counts.exclusive == 0 {
                            locks.record_holders.remove(&txn);
                        }
                    }
                }
                LockScope::File { .. } => locks.file.granted.retain(|g| g.txn != txn),
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
        // grant the maximal compatible prefix of the queue: a shared
        // group drains together, and the first incompatible waiter
        // (an exclusive one behind readers, or vice versa) blocks the rest
        loop {
            let Some(front) = self.record_queue(file, key).and_then(|q| q.waiters.front()) else {
                return;
            };
            if !self.record_compatible(front.txn, file, key, front.mode) {
                return;
            }
            let w = self
                .files
                .get_mut(&**file)
                .and_then(|locks| locks.records.get_mut(&**key))
                .and_then(|q| q.waiters.pop_front())
                .expect("present above");
            self.grant_record(w.txn, file, key, w.mode);
            granted.push(GrantedWaiter {
                token: w.token,
                txn: w.txn,
                scope: LockScope::Record {
                    file: file.clone(),
                    key: key.clone(),
                },
                mode: w.mode,
            });
        }
    }

    fn wake_file(&mut self, file: &Name, granted: &mut Vec<GrantedWaiter>) {
        // like wake_record: the maximal compatible prefix is granted
        loop {
            let Some(front) = self
                .files
                .get(&**file)
                .and_then(|locks| locks.file.waiters.front())
            else {
                return;
            };
            if !self.file_compatible(front.txn, file, front.mode) {
                return;
            }
            let w = self
                .files
                .get_mut(&**file)
                .and_then(|locks| locks.file.waiters.pop_front())
                .expect("present above");
            self.grant_file(w.txn, file, w.mode);
            granted.push(GrantedWaiter {
                token: w.token,
                txn: w.txn,
                scope: LockScope::File { file: file.clone() },
                mode: w.mode,
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

    const X: LockMode = LockMode::Exclusive;
    const S: LockMode = LockMode::Shared;

    #[test]
    fn exclusive_record_lock() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(t(1), rec("f", "k"), X, 100), Acquire::Granted);
        assert_eq!(
            lm.acquire(t(1), rec("f", "k"), X, 101),
            Acquire::Granted,
            "re-entrant"
        );
        assert_eq!(lm.acquire(t(2), rec("f", "k"), X, 102), Acquire::Queued);
        assert_eq!(lm.holders(&rec("f", "k")), vec![(t(1), X)]);
        assert_eq!(lm.waiting(), 1);
        let granted = lm.release_all(t(1));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].txn, t(2));
        assert_eq!(granted[0].token, 102);
        assert_eq!(granted[0].mode, X);
        assert!(lm.holds(t(2), &rec("f", "k"), X));
    }

    #[test]
    fn fifo_waiter_order() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "k"), X, 0);
        lm.acquire(t(2), rec("f", "k"), X, 1);
        lm.acquire(t(3), rec("f", "k"), X, 2);
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 1, "exclusive: only the first waiter granted");
        assert_eq!(g[0].txn, t(2));
        let g = lm.release_all(t(2));
        assert_eq!(g[0].txn, t(3));
    }

    #[test]
    fn file_lock_conflicts_with_record_locks() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "a"), X, 0);
        assert_eq!(lm.acquire(t(2), fl("f"), X, 1), Acquire::Queued);
        // same txn's own record locks do not block its file lock
        assert_eq!(lm.acquire(t(1), fl("f"), X, 2), Acquire::Granted);
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].scope, fl("f"));
        assert!(lm.holds(t(2), &fl("f"), X));
    }

    #[test]
    fn record_lock_blocked_by_file_lock() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), fl("f"), X, 0);
        assert_eq!(lm.acquire(t(2), rec("f", "x"), X, 1), Acquire::Queued);
        // other files unaffected — locking is per scope
        assert_eq!(lm.acquire(t(2), rec("g", "x"), X, 2), Acquire::Granted);
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 1);
        assert!(lm.holds(t(2), &rec("f", "x"), X));
    }

    #[test]
    fn cancel_waiter_models_timeout() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "k"), X, 0);
        lm.acquire(t(2), rec("f", "k"), X, 55);
        assert_eq!(lm.cancel_waiter(55), Some(Vec::new()));
        assert!(lm.cancel_waiter(55).is_none(), "already cancelled");
        let g = lm.release_all(t(1));
        assert!(g.is_empty(), "cancelled waiter is not granted");
        assert_eq!(lm.waiting(), 0);
    }

    #[test]
    fn release_all_spans_files_and_scopes() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("a", "x"), X, 0);
        lm.acquire(t(1), rec("b", "y"), X, 0);
        lm.acquire(t(1), fl("c"), X, 0);
        assert_eq!(lm.held_count(t(1)), 3);
        lm.acquire(t(2), rec("a", "x"), X, 1);
        lm.acquire(t(3), fl("b"), X, 2);
        lm.acquire(t(4), rec("c", "z"), X, 3);
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 3, "one waiter per released scope: {g:?}");
        assert_eq!(lm.held_count(t(1)), 0);
    }

    #[test]
    fn file_waiter_fences_latecomer_record_locks() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "a"), X, 0);
        // t2 queues for the file lock
        assert_eq!(lm.acquire(t(2), fl("f"), X, 1), Acquire::Queued);
        // t3 arrives later for a fresh record in f: fenced behind the
        // queued file waiter, even though the record itself is free
        assert_eq!(lm.acquire(t(3), rec("f", "b"), X, 2), Acquire::Queued);
        // other files are unaffected by the fence
        assert_eq!(lm.acquire(t(3), rec("g", "b"), X, 3), Acquire::Granted);
        // t1 already holds a record in f: its further locks overtake
        assert_eq!(lm.acquire(t(1), rec("f", "c"), X, 4), Acquire::Granted);
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
        lm.acquire(t(1), rec("f", "a"), X, 0);
        assert_eq!(lm.acquire(t(2), fl("f"), X, 1), Acquire::Queued);
        // a stream of latecomers, arriving while t1 still works
        for (i, seq) in (3..8).enumerate() {
            assert_eq!(
                lm.acquire(t(seq), rec("f", &format!("k{seq}")), X, 10 + i as u64),
                Acquire::Queued,
                "latecomer t{seq} must be fenced"
            );
        }
        // as soon as the pre-existing holder finishes, the file waiter wins
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].txn, t(2));
        assert!(lm.holds(t(2), &fl("f"), X));
    }

    #[test]
    fn same_transid_upgrade_overtakes_its_own_wait() {
        // the no-self-deadlock property: a transaction holding record locks
        // may take more record locks (and upgrade to the file lock) even
        // while its own file-lock request queues
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "a"), X, 0);
        lm.acquire(t(2), rec("f", "b"), X, 1);
        assert_eq!(lm.acquire(t(1), fl("f"), X, 2), Acquire::Queued);
        assert_eq!(lm.acquire(t(1), rec("f", "c"), X, 3), Acquire::Granted);
        let g = lm.release_all(t(2));
        assert_eq!(g.len(), 1, "t1's own upgrade is granted: {g:?}");
        assert_eq!(g[0].txn, t(1));
        assert_eq!(g[0].scope, fl("f"));
    }

    #[test]
    fn cancelled_file_waiter_unfences_records() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "a"), X, 0);
        assert_eq!(lm.acquire(t(2), fl("f"), X, 1), Acquire::Queued);
        assert_eq!(lm.acquire(t(3), rec("f", "b"), X, 2), Acquire::Queued);
        // the file waiter times out: the fence lifts and the fenced record
        // waiter is granted right away (record "b" was free all along)
        let g = lm.cancel_waiter(1).expect("file waiter present");
        assert_eq!(g.len(), 1, "fenced record waiter granted: {g:?}");
        assert_eq!(g[0].txn, t(3));
        assert_eq!(g[0].scope, rec("f", "b"));
        assert!(lm.holds(t(3), &rec("f", "b"), X));
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(t(1), rec("f", "k"), S, 0), Acquire::Granted);
        assert_eq!(lm.acquire(t(2), rec("f", "k"), S, 1), Acquire::Granted);
        assert_eq!(lm.holders(&rec("f", "k")), vec![(t(1), S), (t(2), S)]);
        // an exclusive request waits for the whole read group
        assert_eq!(lm.acquire(t(3), rec("f", "k"), X, 2), Acquire::Queued);
        assert!(lm.release_all(t(1)).is_empty(), "t2 still reads");
        let g = lm.release_all(t(2));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].txn, t(3));
        assert_eq!(g[0].mode, X);
    }

    #[test]
    fn shared_and_exclusive_block_each_other() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "k"), X, 0);
        assert_eq!(lm.acquire(t(2), rec("f", "k"), S, 1), Acquire::Queued);
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].mode, S);
        // …and the other way around
        assert_eq!(lm.acquire(t(3), rec("f", "k"), X, 2), Acquire::Queued);
        assert_eq!(lm.waiting(), 1);
    }

    #[test]
    fn intent_escalation_at_file_scope() {
        let mut lm = LockManager::new();
        // shared record locks imply IS on the file: a shared file lock is
        // compatible, an exclusive one is not
        lm.acquire(t(1), rec("f", "a"), S, 0);
        assert_eq!(lm.acquire(t(2), fl("f"), S, 1), Acquire::Granted);
        assert_eq!(lm.acquire(t(3), fl("f"), X, 2), Acquire::Queued);
        // an exclusive record lock implies IX: blocked by t2's S file lock
        assert_eq!(lm.acquire(t(4), rec("f", "b"), X, 3), Acquire::Queued);
        // …but a shared record latecomer is only fenced by the queued X
        // file waiter, not by the S file grant itself
        let mut lm2 = LockManager::new();
        lm2.acquire(t(2), fl("f"), S, 0);
        assert_eq!(lm2.acquire(t(5), rec("f", "c"), S, 1), Acquire::Granted);
        // an exclusive record lock under a foreign shared file lock waits
        assert_eq!(lm2.acquire(t(6), rec("f", "d"), X, 2), Acquire::Queued);
    }

    #[test]
    fn same_transid_mode_upgrade_exemption() {
        let mut lm = LockManager::new();
        // sole shared holder upgrades in place
        lm.acquire(t(1), rec("f", "k"), S, 0);
        assert_eq!(lm.acquire(t(1), rec("f", "k"), X, 1), Acquire::Granted);
        assert_eq!(lm.holders(&rec("f", "k")), vec![(t(1), X)]);
        assert_eq!(lm.held_count(t(1)), 1, "upgrade is not a second lock");
        // with a co-reader the upgrade waits for it, then lands
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "k"), S, 0);
        lm.acquire(t(2), rec("f", "k"), S, 1);
        assert_eq!(lm.acquire(t(1), rec("f", "k"), X, 2), Acquire::Queued);
        let g = lm.release_all(t(2));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].txn, t(1));
        assert_eq!(g[0].mode, X);
        assert!(lm.holds(t(1), &rec("f", "k"), X));
    }

    #[test]
    fn shared_group_and_exclusive_waiter_fairness() {
        // a shared waiter group behind an exclusive waiter neither starves
        // it nor is starved by it
        let mut lm = LockManager::new();
        lm.acquire(t(1), rec("f", "k"), S, 0);
        assert_eq!(lm.acquire(t(2), rec("f", "k"), X, 1), Acquire::Queued);
        // reader latecomers defer to the queued writer instead of joining
        // t1's grant set (which would starve t2 forever)
        assert_eq!(lm.acquire(t(3), rec("f", "k"), S, 2), Acquire::Queued);
        assert_eq!(lm.acquire(t(4), rec("f", "k"), S, 3), Acquire::Queued);
        // the writer gets its turn…
        let g = lm.release_all(t(1));
        assert_eq!(g.len(), 1, "writer granted alone: {g:?}");
        assert_eq!(g[0].txn, t(2));
        // …and the whole reader group drains together behind it
        let g = lm.release_all(t(2));
        assert_eq!(g.len(), 2, "shared group granted together: {g:?}");
        assert_eq!(g[0].txn, t(3));
        assert_eq!(g[1].txn, t(4));
        assert_eq!(lm.holders(&rec("f", "k")), vec![(t(3), S), (t(4), S)]);
    }

    #[test]
    fn no_incompatible_holders_property() {
        // randomized interleaving sanity: every grant set is pairwise
        // compatible, and file grants are compatible with the intents
        // implied by foreign record locks
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut lm = LockManager::new();
        let mut tokens = 0u64;
        for _ in 0..3000 {
            let txn = t(rng.random_range(0..8));
            let key = format!("k{}", rng.random_range(0..5));
            let mode = if rng.random_range(0..2) == 0 { S } else { X };
            match rng.random_range(0..3) {
                0 => {
                    tokens += 1;
                    let _ = lm.acquire(txn, rec("f", &key), mode, tokens);
                }
                1 => {
                    tokens += 1;
                    let _ = lm.acquire(txn, fl("f"), mode, tokens);
                }
                _ => {
                    let _ = lm.release_all(txn);
                }
            }
            for k in 0..5 {
                let hs = lm.holders(&rec("f", &format!("k{k}")));
                for (i, a) in hs.iter().enumerate() {
                    for b in hs.iter().skip(i + 1) {
                        assert!(a.1.compatible(b.1), "incompatible record grant set: {hs:?}");
                    }
                }
            }
            let fh = lm.holders(&fl("f"));
            for (i, a) in fh.iter().enumerate() {
                for b in fh.iter().skip(i + 1) {
                    assert!(a.1.compatible(b.1), "incompatible file grant set: {fh:?}");
                }
            }
            for (fg_txn, fg_mode) in &fh {
                for (h_txn, scope, h_mode) in lm.holdings() {
                    if h_txn == *fg_txn {
                        continue;
                    }
                    if let LockScope::Record { file, .. } = &scope {
                        if *file == "f" {
                            assert!(
                                fg_mode.compatible(h_mode.implied_intent()),
                                "file {fg_mode:?} grant coexists with foreign record {h_mode:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}
