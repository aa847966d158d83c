//! Property tests: the two-level `file → key` tables of the DISCPROCESS
//! enumerate in exactly the order of the flat `BTreeMap<(String, Bytes), _>`
//! they replaced. Flush batches, archives, backup snapshots and the
//! wake-ups a lock release issues all walk these tables, so their order is
//! visible in every trace hash.
//!
//! The file names are chosen so that "file, then key" and the flat tuple
//! order could disagree if either level compared differently: one name is
//! a prefix of another, one sorts between them by a byte below `'a'`, and
//! keys are of mixed length.

use bytes::Bytes;
use encompass_sim::{Name, NodeId};
use encompass_storage::locks::{Acquire, LockManager, LockScope};
use encompass_storage::overlay::Overlay;
use encompass_storage::types::Transid;
use guardian::Checkpointed;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

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
    LockScope::Record {
        file: Name::new(FILES[file]),
        key: Bytes::from_static(KEYS[key]),
    }
}

fn whole(file: usize) -> LockScope {
    LockScope::File {
        file: Name::new(FILES[file]),
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

    // A transaction holding file locks releases them; every record waiter
    // they blocked is woken file by file, key by key: flat `(file, key)`
    // order, whatever order the locks were taken and the waiters queued in.
    #[test]
    fn release_wakes_blocked_records_in_flat_order(
        locked in prop::collection::vec(0..FILES.len(), 1..8),
        waiters in prop::collection::vec((0..FILES.len(), 0..KEYS.len()), 1..24),
    ) {
        let mut lm = LockManager::new();
        let locked: BTreeSet<usize> = locked.into_iter().collect();
        for &f in &locked {
            prop_assert_eq!(lm.acquire(t(0), whole(f), 0), Acquire::Granted);
        }
        // one waiter per distinct record, each its own transaction; a
        // record in a file the holder did not lock is granted at once
        let mut model: BTreeMap<(String, Bytes), u64> = BTreeMap::new();
        let mut seen = BTreeSet::new();
        for (i, (f, k)) in waiters.into_iter().enumerate() {
            if !seen.insert((f, k)) {
                continue;
            }
            let token = 100 + i as u64;
            let outcome = lm.acquire(t(token), record(f, k), token);
            if locked.contains(&f) {
                prop_assert_eq!(outcome, Acquire::Queued);
                model.insert(model_key(f, k), token);
            } else {
                prop_assert_eq!(outcome, Acquire::Granted);
            }
        }
        prop_assert_eq!(lm.waiting(), model.len());

        let woken = lm.release_all(t(0));
        let tokens: Vec<u64> = woken.iter().map(|g| g.token).collect();
        let expected: Vec<u64> = model.values().copied().collect();
        prop_assert_eq!(tokens, expected);
        let scopes: Vec<(String, Bytes)> = woken
            .iter()
            .map(|g| match &g.scope {
                LockScope::Record { file, key } => (file.to_string(), key.clone()),
                LockScope::File { file } => panic!("no file waiter was queued on {file}"),
            })
            .collect();
        let expected: Vec<(String, Bytes)> = model.keys().cloned().collect();
        prop_assert_eq!(scopes, expected);
        prop_assert_eq!(lm.waiting(), 0);
        for g in &woken {
            prop_assert!(lm.holds(g.txn, &g.scope));
        }
    }

    // The fairness fence: record latecomers queue behind a file-lock
    // waiter; when that waiter gives up, they are granted in key order.
    #[test]
    fn a_lifted_fence_wakes_its_file_in_key_order(
        keys in prop::collection::vec(0..KEYS.len(), 1..12),
        file in 0..FILES.len(),
    ) {
        let mut lm = LockManager::new();
        // t1 works in the file; t2 wants the whole file and waits
        prop_assert_eq!(lm.acquire(t(1), record(file, 0), 1), Acquire::Granted);
        prop_assert_eq!(lm.acquire(t(2), whole(file), 2), Acquire::Queued);
        let mut model: BTreeMap<(String, Bytes), u64> = BTreeMap::new();
        for (i, k) in keys.into_iter().enumerate() {
            // key 0 is t1's: skip it, its waiter would stay blocked
            if k == 0 || model.contains_key(&model_key(file, k)) {
                continue;
            }
            let token = 100 + i as u64;
            prop_assert_eq!(lm.acquire(t(token), record(file, k), token), Acquire::Queued);
            model.insert(model_key(file, k), token);
        }
        let woken = lm.cancel_waiter(2).expect("the file waiter is queued");
        let tokens: Vec<u64> = woken.iter().map(|g| g.token).collect();
        let expected: Vec<u64> = model.values().copied().collect();
        prop_assert_eq!(tokens, expected);
    }
}
