//! Allocation budget of the per-operation lookups. A data operation, a
//! lock and a checkpoint allocate for their payload and nothing else:
//! names are handles whose clone is a pointer copy, and every table is
//! looked up with the caller's borrowed `&str` and `&[u8]`. Each assertion
//! here is *zero* — it fails the day a `String` (or a throw-away lookup
//! key) creeps back onto one of these paths.
//!
//! And of a write's images: one list, built once, that the audit append,
//! its retry copy, the checkpoint and both halves' retained undo share
//! (DESIGN.md §D19(f)); and of the held locks, one list a warm lock
//! manager reuses.
//!
//! And the bytes of the snapshot-undo ring: a full ring of bank images
//! holds its entries encoded, and the copy a fresh backup starts from
//! holds the live ones alone (§D32).

#[path = "../../guardian/tests/support/counting_alloc.rs"]
mod counting_alloc;

use bytes::Bytes;
use counting_alloc::{allocations_in, CountingAlloc};
use encompass_sim::{Ctx, Name, NodeId, Payload, Pid, Process, SimConfig, SimDuration, World};
use encompass_storage::audit_api::{AuditMsg, AuditReply, ImageRecord};
use encompass_storage::discprocess::{spawn_disc_process, DiscConfig, DiscReply, UndoRing};
use encompass_storage::locks::{Acquire, LockManager, LockScope};
use encompass_storage::overlay::{Overlay, ReadCache};
use encompass_storage::types::{num_key, FileDef, FileOrganization, Transid, VolumeRef};
use encompass_storage::{Catalog, DiscRequest};
use guardian::{Checkpointed, Request, RpcReply};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

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
    LockScope {
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

#[test]
fn a_warm_lock_cycle_allocates_nothing() {
    let mut lm = LockManager::new();
    let scopes: Vec<[LockScope; 2]> = (0..8)
        .map(|i| [record("accounts", i), record("history", i)])
        .collect();
    let cycle = |lm: &mut LockManager, round: u64| {
        for (i, pair) in (0..).zip(&scopes) {
            for scope in pair {
                let granted = lm.acquire(t(round * 8 + i), scope.clone(), 0);
                assert_eq!(granted, Acquire::Granted);
            }
        }
        for i in 0..8 {
            assert!(lm.release_all(t(round * 8 + i)).is_empty());
        }
    };
    for round in 0..4 {
        cycle(&mut lm, round);
    }
    let (n, ()) = allocations_in(|| cycle(&mut lm, 4));
    assert_eq!(
        n, 0,
        "eight transactions' acquire and release_all on a warm LockManager"
    );
    assert!(lm.holdings().is_empty());
}

/// Stand-in AUDITPROCESS: acknowledges every append and force at once.
struct InstantAudit;

impl Process for InstantAudit {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.register_name("$AUDIT");
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let req = payload.expect::<Request<AuditMsg>>();
        #[allow(
            clippy::wildcard_enum_match_arm,
            reason = "the volume sends appends and forces only"
        )]
        let body = match req.body {
            AuditMsg::Append { .. } => AuditReply::Appended,
            AuditMsg::ForceTxn { .. } => AuditReply::Forced,
            other => panic!("the volume never sends {other:?}"),
        };
        let _ = ctx.send(req.from, Payload::new(RpcReply { id: req.id, body }));
    }
}

/// Keeps the last reply only, so that receiving one allocates nothing.
struct LastReply(Rc<RefCell<Option<DiscReply>>>);

impl Process for LastReply {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let reply = payload.expect::<RpcReply<DiscReply>>();
        *self.0.borrow_mut() = Some(reply.body);
    }
}

const MSGS: [&str; 3] = ["sim.msgs.local", "sim.msgs.bus", "sim.msgs.net"];

/// A volume pair with an instant audit stand-in and a client.
struct Volume {
    world: World,
    disc: Pid,
    client: Pid,
    reply: Rc<RefCell<Option<DiscReply>>>,
    id: u64,
}

impl Volume {
    fn new() -> Volume {
        let mut world = World::new(SimConfig::default());
        let n = world.add_node(4);
        let vol = VolumeRef::new(n, "$DATA");
        let mut catalog = Catalog::new();
        catalog.add(FileDef::key_sequenced("accounts", vol.clone()));
        catalog.add(FileDef::key_sequenced("scratch", vol.clone()).unaudited());
        let cfg = DiscConfig {
            audited: true,
            ..DiscConfig::default()
        };
        spawn_disc_process(&mut world, 0, 1, vol, catalog, cfg);
        world.spawn(n, 2, Box::new(InstantAudit));
        let reply = Rc::default();
        let client = world.spawn(n, 3, Box::new(LastReply(Rc::clone(&reply))));
        world.run_for(SimDuration::from_millis(50));
        let disc = world.lookup_name(n, "$DATA").expect("disc process");
        Volume {
            world,
            disc,
            client,
            reply,
            id: 1,
        }
    }

    fn msgs(&self) -> u64 {
        MSGS.iter().map(|m| self.world.metrics().get(m)).sum()
    }

    /// Send `body` and run until it is answered: the blocks allocated on
    /// the way less the messages sent, and the reply.
    fn run(&mut self, body: DiscRequest) -> (i64, DiscReply) {
        let request = Payload::new(Request {
            id: self.id,
            from: self.client,
            floor: self.id,
            body,
        });
        self.id += 1;
        let sent = self.msgs();
        let (blocks, ()) = allocations_in(|| {
            self.world.send_external(self.disc, request);
            self.world.run_for(SimDuration::from_millis(100));
        });
        let reply = self.reply.borrow_mut().take().expect("answered");
        (blocks as i64 - (self.msgs() - sent) as i64, reply)
    }

    /// One transaction updating `key` of `file`: the update's blocks
    /// beyond its messages.
    fn transaction(&mut self, seq: u64, file: &str, key: u32) -> i64 {
        let (file, key, transid) = (Name::new(file), self::key(key), t(seq));
        let lock_wait = SimDuration::from_millis(100);
        let (_, locked) = self.run(DiscRequest::ReadLock {
            file: file.clone(),
            key: key.clone(),
            transid,
            lock_wait,
        });
        assert!(matches!(locked, DiscReply::Value(_)), "{locked:?}");
        let value = Bytes::from(format!("{seq:>8}"));
        let (update, done) = self.run(DiscRequest::Update {
            file,
            key,
            value,
            transid: Some(transid),
        });
        assert_eq!(done, DiscReply::Ok);
        for end in [
            DiscRequest::EndPhase1 { transid },
            DiscRequest::ReleaseLocks {
                transid,
                commit: true,
            },
        ] {
            self.run(end);
        }
        update
    }
}

#[test]
fn a_warm_audited_write_allocates_its_image_list_once() {
    let mut v = Volume::new();
    let records = [
        (0, "accounts"),
        (1, "accounts"),
        (0, "scratch"),
        (1, "scratch"),
    ];
    for (transid, (i, file)) in (1_000..).map(t).zip(records) {
        let (_, r) = v.run(DiscRequest::Insert {
            file: Name::new(file),
            key: key(i),
            value: Bytes::from_static(b"0"),
            transid: Some(transid),
            lock_wait: SimDuration::from_millis(100),
        });
        assert_eq!(r, DiscReply::Ok);
        v.run(DiscRequest::ReleaseLocks {
            transid,
            commit: true,
        });
    }
    // the last of eight transactions on each file, its records, queues
    // and tables warm
    let mut seq = 0;
    let mut cost = |v: &mut Volume, file: &str| {
        (0..8)
            .map(|round| {
                seq += 1;
                v.transaction(seq, file, round % 2)
            })
            .last()
            .expect("eight rounds")
    };
    let (audited, unaudited) = (cost(&mut v, "accounts"), cost(&mut v, "scratch"));
    assert_eq!(
        audited - unaudited,
        1,
        "beyond its messages, an audited update allocates one block more than an unaudited \
         one: its image list ({audited} against {unaudited})"
    );
}

/// A bank debit's image as the undo ring keeps it: a 12-byte account key
/// and a balance of at most eight digits before it.
fn debit_image(seq: u64) -> ImageRecord {
    let balance = 10_000_000 - seq;
    ImageRecord {
        seq,
        transid: t(seq),
        volume: VolumeRef::new(NodeId(0), "$BANK"),
        file: Name::from_static("accounts"),
        organization: FileOrganization::KeySequenced,
        key: key((seq % 1_000) as u32),
        before: Some(Bytes::from(balance.to_string())),
        after: Some(Bytes::from((balance - 1).to_string())),
    }
}

#[test]
fn a_full_undo_ring_of_bank_images_holds_32_bytes_an_entry() {
    const CAP: usize = 4_096;
    let mut ring = UndoRing::new(CAP);
    for seq in 1..=CAP as u64 {
        ring.commit(&[debit_image(seq)]);
    }
    assert_eq!(ring.len(), CAP);
    let reserved = ring.reserved_bytes();
    assert!(
        reserved <= 32 * CAP,
        "{reserved} bytes for {CAP} entries, their index included: over 32 an entry"
    );
    // wrapped twice, it compacts its evicted prefix away and does not
    // grow
    let mut seq = CAP as u64;
    while seq < 3 * CAP as u64 || ring.evicted_prefix_bytes() == 0 {
        seq += 1;
        ring.commit(&[debit_image(seq)]);
    }
    assert_eq!(ring.reserved_bytes(), reserved, "a full ring does not grow");
    // a fresh backup's copy takes the live entries alone, into buffers as
    // large as the primary's
    let (blocks, copy) = allocations_in(|| ring.replica());
    assert_eq!(blocks, 2, "the entries and their index");
    assert_eq!(copy.len(), CAP);
    assert_eq!(copy.evicted_prefix_bytes(), 0);
    assert_eq!(copy.reserved_bytes(), ring.reserved_bytes());
}
