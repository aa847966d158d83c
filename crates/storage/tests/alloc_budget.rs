//! Allocation budget of the per-operation lookups. A data operation, a
//! lock and a checkpoint allocate for their payload and nothing else:
//! names are handles whose clone is a pointer copy, and every table is
//! looked up with the caller's borrowed `&str` and `&[u8]`. Each assertion
//! here is *zero* — it fails the day a `String` (or a throw-away lookup
//! key) creeps back onto one of these paths.

#[path = "../../guardian/tests/support/counting_alloc.rs"]
mod counting_alloc;

use bytes::Bytes;
use counting_alloc::{allocations_in, CountingAlloc};
use encompass_sim::{Name, NodeId};
use encompass_storage::locks::{Acquire, LockManager, LockScope};
use encompass_storage::overlay::{Overlay, ReadCache};
use encompass_storage::types::{num_key, Transid, VolumeRef};
use encompass_storage::DiscRequest;
use guardian::Checkpointed;
use std::hint::black_box;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn t(seq: u64) -> Transid {
    Transid {
        home_node: NodeId(0),
        cpu: 0,
        seq,
    }
}

fn key(i: u32) -> Bytes {
    Bytes::from(format!("acct{i:08}"))
}

fn record(file: &str, i: u32) -> LockScope {
    LockScope::Record {
        file: Name::new(file),
        key: key(i),
    }
}

#[test]
fn the_counter_counts() {
    let (n, v) = allocations_in(|| black_box(vec![0u8; 64]));
    assert_eq!(n, 1, "one Vec, one allocation");
    drop(v);
    let (n, name) = allocations_in(|| Name::new("accounts"));
    assert_eq!(n, 1, "building a shared name is its one allocation");
    drop(name);
    assert_eq!(
        allocations_in(|| Name::from("accounts")).0,
        0,
        "a literal is free"
    );
}

#[test]
fn lock_lookups_borrow() {
    let mut lm = LockManager::new();
    let held = record("accounts", 7);
    let other_key = record("accounts", 8);
    let other_file = record("history", 7);
    assert_eq!(lm.acquire(t(1), held.clone(), 1), Acquire::Granted);

    let (n, holds) = allocations_in(|| {
        (
            lm.holds(t(1), &held),
            lm.holds(t(2), &held),
            lm.holds(t(1), &other_key),
            lm.holds(t(1), &other_file),
            lm.holder(&held),
        )
    });
    assert_eq!(holds, (true, false, false, false, Some(t(1))));
    assert_eq!(n, 0, "holds / holder");

    // the retried request of a lock already held: granted from the table
    let (n, again) = allocations_in(|| lm.acquire(t(1), held.clone(), 2));
    assert_eq!(again, Acquire::Granted);
    assert_eq!(n, 0, "re-acquire of a held record lock");
    assert_eq!(lm.held_count(t(1)), 1);
}

#[test]
fn overlay_lookups_borrow() {
    let cp = Checkpointed::reviewed("allocation test: no backup exists");
    let mut overlay = Overlay::new();
    overlay.put("accounts", key(1), Some(Bytes::from_static(b"100")), &cp);
    overlay.put("accounts", key(2), None, &cp);
    let (hit_key, miss_key) = (key(1), key(3));

    let (n, got) = allocations_in(|| {
        (
            overlay.get("accounts", &hit_key),
            overlay.get("accounts", &key_of_deleted()),
            overlay.get("accounts", &miss_key),
            overlay.get("history", &hit_key),
        )
    });
    assert_eq!(got.0, Some(Some(Bytes::from_static(b"100"))));
    assert_eq!(got.1, Some(None), "a deletion is dirty state");
    assert_eq!(got.2, None);
    assert_eq!(got.3, None);
    assert_eq!(n, 0, "Overlay::get, hit and miss");

    // replacing a dirty value and dropping an entry the backup saw flushed
    // build no lookup key either
    let value = Some(Bytes::from_static(b"90"));
    let (n, ()) = allocations_in(|| {
        overlay.put("accounts", hit_key.clone(), value.clone(), &cp);
        overlay.remove("accounts", &miss_key, &cp);
        overlay.remove("history", &hit_key, &cp);
    });
    assert_eq!(
        n, 0,
        "Overlay::put over a dirty key, Overlay::remove of a clean one"
    );
    assert_eq!(overlay.len(), 2);
}

/// `key(2)` as a stack array, so building the probe is not an allocation
/// the measured closure makes.
fn key_of_deleted() -> [u8; 12] {
    *b"acct00000002"
}

#[test]
fn cache_hits_relink() {
    let mut cache = ReadCache::new(4);
    for i in 0..3 {
        assert!(!cache.access("accounts", &key(i)));
    }
    let (oldest, newest) = (key(0), key(2));
    let (n, hits) = allocations_in(|| {
        (
            cache.access("accounts", &newest),
            cache.access("accounts", &oldest),
            cache.access("accounts", &oldest),
        )
    });
    assert_eq!(hits, (true, true, true));
    assert_eq!(
        n, 0,
        "ReadCache::access hit, at the head of the list and behind it"
    );
    assert_eq!((cache.hits, cache.misses, cache.len()), (3, 3, 3));
}

#[test]
fn names_clone_by_handle() {
    let file = Name::new("accounts");
    let literal = Name::from("$TMP");
    let volume = VolumeRef::new(NodeId(3), "$BANK");
    let read = DiscRequest::Read {
        file: file.clone(),
        key: key(1),
    };
    let scope = record("accounts", 1);
    let (n, clones) = allocations_in(|| {
        black_box((
            file.clone(),
            literal.clone(),
            volume.clone(),
            read.clone(),
            scope.clone(),
        ))
    });
    assert_eq!(
        n, 0,
        "Name / VolumeRef / DiscRequest::Read / LockScope clone"
    );
    assert_eq!(clones.0, "accounts");
    assert_eq!(clones.2, volume);
}

#[test]
fn short_keys_are_inline() {
    let long = [7u8; Bytes::INLINE_CAP + 1];
    let (n, (record_no, short)) = allocations_in(|| {
        let record_no = num_key(black_box(42));
        let short = Bytes::copy_from_slice(black_box(&long[..Bytes::INLINE_CAP]));
        drop(black_box(short.clone()));
        (record_no, short)
    });
    assert_eq!(
        n, 0,
        "num_key, a 22-byte copy_from_slice, its clone and drop"
    );
    assert_eq!(record_no[..], 42u64.to_be_bytes());
    assert_eq!(short, long[..Bytes::INLINE_CAP]);

    let (n, spilled) = allocations_in(|| Bytes::copy_from_slice(black_box(&long)));
    assert_eq!(n, 1, "23 bytes take one shared block");
    assert_eq!(spilled, long[..]);
    let (n, ()) = allocations_in(|| drop(black_box(spilled.clone())));
    assert_eq!(n, 0, "a shared clone is a count bump");
}
