//! Property tests of the DISCPROCESS's two-level `file → key` tables
//! against flat models keyed by `(file, key)`.
//!
//! The overlay enumerates in exactly the order of the flat
//! `BTreeMap<(String, Bytes), _>` it replaced: flush batches, archives and
//! backup snapshots walk it, so its order is visible in every trace hash.
//! The file names are chosen so that "file, then key" and the flat tuple
//! order could disagree if either level compared differently: one name is
//! a prefix of another, one sorts between them by a byte below `'a'`, and
//! keys are of mixed length.
//!
//! The lock table grants, queues and wakes exactly as a flat map of
//! exclusive record locks does.

use bytes::Bytes;
use encompass_sim::{Name, NodeId};
use encompass_storage::locks::{Acquire, LockManager, LockScope};
use encompass_storage::overlay::Overlay;
use encompass_storage::types::Transid;
use guardian::Checkpointed;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

const FILES: [&str; 5] = ["a", "a.idx", "ab", "a@1", "b"];
const KEYS: [&[u8]; 6] = [b"", b"k", b"k0", b"k00", b"k1", b"l"];

type Model = BTreeMap<(String, Bytes), Option<Bytes>>;

fn model_key(file: usize, key: usize) -> (String, Bytes) {
    (FILES[file].to_string(), Bytes::from_static(KEYS[key]))
}

#[derive(Debug, Clone)]
enum OverlayOp {
    Put(usize, usize, u8),
    Delete(usize, usize),
    /// The backup dropping an entry the primary flushed.
    Remove(usize, usize),
    TakeBatch(usize),
}

fn overlay_op() -> impl Strategy<Value = OverlayOp> {
    let (f, k) = (0..FILES.len(), 0..KEYS.len());
    prop_oneof![
        (f.clone(), k.clone(), any::<u8>()).prop_map(|(f, k, v)| OverlayOp::Put(f, k, v)),
        (f.clone(), k.clone(), any::<u8>()).prop_map(|(f, k, v)| OverlayOp::Put(f, k, v)),
        (f.clone(), k.clone()).prop_map(|(f, k)| OverlayOp::Delete(f, k)),
        (f, k).prop_map(|(f, k)| OverlayOp::Remove(f, k)),
        (0usize..7).prop_map(OverlayOp::TakeBatch),
    ]
}

fn t(seq: u64) -> Transid {
    Transid {
        home_node: NodeId(0),
        cpu: 0,
        seq,
    }
}

fn record(file: usize, key: usize) -> LockScope {
    LockScope {
        file: Name::new(FILES[file]),
        key: Bytes::from_static(KEYS[key]),
    }
}

#[derive(Debug, Clone)]
enum LockOp {
    Acquire(u64, usize, usize),
    ReleaseAll(u64),
    /// Cancel the n-th queued waiter (mod their number), or, with none
    /// queued, a token nobody was given.
    Cancel(usize),
}

fn lock_op() -> impl Strategy<Value = LockOp> {
    // few transactions and records, so most requests meet a holder
    let (txn, f, k) = (0u64..5, 0..3usize, 0..3usize);
    let acquire = move || (txn.clone(), f.clone(), k.clone());
    prop_oneof![
        acquire().prop_map(|(t, f, k)| LockOp::Acquire(t, f, k)),
        acquire().prop_map(|(t, f, k)| LockOp::Acquire(t, f, k)),
        acquire().prop_map(|(t, f, k)| LockOp::Acquire(t, f, k)),
        (0u64..5).prop_map(LockOp::ReleaseAll),
        (0u64..5).prop_map(LockOp::ReleaseAll),
        (0usize..64).prop_map(LockOp::Cancel),
    ]
}

/// A record, as indices into `FILES` and `KEYS`.
type Rec = (usize, usize);

/// A record's holder and its waiters `(token, transaction)` in arrival
/// order.
type Queue = (u64, VecDeque<(u64, u64)>);

/// The flat model of a volume's record locks: per record its queue, and
/// per transaction the records it holds in the order it was granted them.
#[derive(Default)]
struct LockModel {
    records: BTreeMap<Rec, Queue>,
    held: BTreeMap<u64, Vec<Rec>>,
}

impl LockModel {
    /// What `release_all(txn)` grants: `(token, transaction, record)`.
    fn release_all(&mut self, txn: u64) -> Vec<(u64, u64, Rec)> {
        let mut granted = Vec::new();
        for r in self.held.remove(&txn).unwrap_or_default() {
            let (holder, waiters) = self.records.get_mut(&r).expect("held");
            assert_eq!(*holder, txn);
            let Some((token, next)) = waiters.pop_front() else {
                self.records.remove(&r);
                continue;
            };
            *holder = next;
            granted.push((token, next, r));
            // the new holder's other requests for the record are granted
            // with it
            for &(token, _) in waiters.iter().filter(|w| w.1 == next) {
                granted.push((token, next, r));
            }
            waiters.retain(|w| w.1 != next);
            self.held.entry(next).or_default().push(r);
        }
        granted
    }

    fn waiters(&self) -> impl Iterator<Item = (Rec, u64)> + '_ {
        (self.records.iter()).flat_map(|(&r, (_, w))| w.iter().map(move |&(token, _)| (r, token)))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn overlay_enumerates_like_a_flat_map(ops in prop::collection::vec(overlay_op(), 1..120)) {
        let cp = Checkpointed::reviewed("property test: no backup exists");
        let mut overlay = Overlay::new();
        let mut model = Model::new();
        for op in ops {
            match op {
                OverlayOp::Put(f, k, v) => {
                    let value = Some(Bytes::from(vec![v]));
                    overlay.put(FILES[f], Bytes::from_static(KEYS[k]), value.clone(), &cp);
                    model.insert(model_key(f, k), value);
                }
                OverlayOp::Delete(f, k) => {
                    overlay.put(FILES[f], Bytes::from_static(KEYS[k]), None, &cp);
                    model.insert(model_key(f, k), None);
                }
                OverlayOp::Remove(f, k) => {
                    overlay.remove(FILES[f], KEYS[k], &cp);
                    model.remove(&model_key(f, k));
                }
                OverlayOp::TakeBatch(n) => {
                    let expected: Vec<_> = model.keys().take(n).cloned().collect();
                    let expected: Vec<_> = expected
                        .into_iter()
                        .map(|k| {
                            let v = model.remove(&k).expect("just listed");
                            (k.0, k.1, v)
                        })
                        .collect();
                    let batch: Vec<_> = overlay
                        .take_batch(n, &cp)
                        .into_iter()
                        .map(|(f, k, v)| (f.to_string(), k, v))
                        .collect();
                    prop_assert_eq!(batch, expected);
                }
            }
            // the full walk (archives, backup snapshots, the dump copy set)
            let walked: Vec<_> = overlay
                .iter()
                .map(|(f, k, v)| ((f.to_string(), k.clone()), v.clone()))
                .collect();
            let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(walked, expected);
            prop_assert_eq!(overlay.len(), model.len());
            prop_assert_eq!(overlay.is_empty(), model.is_empty());
            // one file's range (scans), and point lookups
            for (f, file) in FILES.iter().enumerate() {
                let ranged: Vec<_> = overlay
                    .file_entries(file)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                let expected: Vec<_> = model
                    .range((file.to_string(), Bytes::new())..)
                    .take_while(|((name, _), _)| name == file)
                    .map(|((_, k), v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(ranged, expected);
                for (k, key) in KEYS.iter().enumerate() {
                    prop_assert_eq!(overlay.get(file, key), model.get(&model_key(f, k)).cloned());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The lock table against the flat model, after every operation: at
    // most one holder per record, and a record with waiters is held by a
    // transaction none of them belongs to (a re-entrant request is
    // granted, never queued); `cancel_waiter` grants nothing; and
    // `release_all` hands each record the releaser held to its first
    // waiter, record by record in the order the releaser took them.
    #[test]
    fn record_locks_behave_like_a_flat_model(ops in prop::collection::vec(lock_op(), 1..200)) {
        let mut lm = LockManager::new();
        let mut model = LockModel::default();
        for (token, op) in (1u64..).zip(ops) {
            match op {
                LockOp::Acquire(txn, f, k) => {
                    let expected = match model.records.get_mut(&(f, k)) {
                        Some((holder, _)) if *holder == txn => Acquire::Granted,
                        Some((_, waiters)) => {
                            waiters.push_back((token, txn));
                            Acquire::Queued
                        }
                        None => {
                            model.records.insert((f, k), (txn, VecDeque::new()));
                            model.held.entry(txn).or_default().push((f, k));
                            Acquire::Granted
                        }
                    };
                    prop_assert_eq!(lm.acquire(t(txn), record(f, k), token), expected);
                }
                LockOp::ReleaseAll(txn) => {
                    let granted: Vec<_> = (lm.release_all(t(txn)).into_iter())
                        .map(|g| (g.token, g.txn, g.scope))
                        .collect();
                    let expected: Vec<_> = (model.release_all(txn).into_iter())
                        .map(|(token, txn, (f, k))| (token, t(txn), record(f, k)))
                        .collect();
                    prop_assert_eq!(granted, expected);
                }
                LockOp::Cancel(n) => {
                    let queued: Vec<_> = model.waiters().collect();
                    let holdings = lm.holdings().to_vec();
                    if queued.is_empty() {
                        prop_assert!(!lm.cancel_waiter(&record(0, 0), 0));
                    } else {
                        let ((f, k), token) = queued[n % queued.len()];
                        prop_assert!(lm.cancel_waiter(&record(f, k), token));
                        let (_, waiters) = model.records.get_mut(&(f, k)).expect("queued");
                        waiters.retain(|w| w.0 != token);
                    }
                    prop_assert_eq!(lm.holdings(), holdings, "a cancel grants nothing");
                }
            }
            // at most one holder per record, the model's; waiters only
            // behind a holder of another transaction
            for (f, k) in (0..FILES.len()).flat_map(|f| (0..KEYS.len()).map(move |k| (f, k))) {
                let entry = model.records.get(&(f, k));
                prop_assert_eq!(lm.holder(&record(f, k)), entry.map(|e| t(e.0)));
                if let Some((holder, waiters)) = entry {
                    prop_assert!(waiters.iter().all(|w| w.1 != *holder));
                }
            }
            let flat: Vec<_> = (model.held.iter())
                .flat_map(|(&txn, rs)| rs.iter().map(move |&(f, k)| (t(txn), record(f, k))))
                .collect();
            prop_assert_eq!(lm.holdings(), flat);
            prop_assert_eq!(lm.waiting(), model.waiters().count());
        }
    }
}
