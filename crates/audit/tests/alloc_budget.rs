//! Allocation budget of a completed trail force. The forced records
//! stream from the boxcar buffer onto the trail, and the satisfied force
//! waiters are a prefix of the queue, drained in place: completing a
//! force allocates its messages (the reply, the checkpoint) and nothing
//! else, besides what the trail medium itself grows by.
//!
//! Building an AUDITPROCESS allocates its partition list and nothing for
//! its boxcar histogram, which its call site names once per process, the
//! first time any world observes through it.
//!
//! A trail file holds its records as bytes (DESIGN.md §D29): a bank's
//! images take about a third of the room they took as `ImageRecord`s, in
//! no more growth steps, and reading them back allocates nothing.
//!
//! The Monitor Audit Trail and a volume's settled fences keep a transid
//! in a 2-byte slot of its home node's run (DESIGN.md §D30): a node's
//! trail of a bank run, and a fence set at capacity, hold a few KiB, not
//! the hundreds a hash table or an ordered set took. The fence ring beside
//! the set keeps each transid packed into 8 bytes.

#[path = "../../guardian/tests/support/counting_alloc.rs"]
mod counting_alloc;

use bytes::Bytes;
use counting_alloc::{allocations_in, bytes_held_by, CountingAlloc};
use encompass_audit::auditprocess::{spawn_audit_process, AuditConfig, AuditProcess};
use encompass_audit::monitor::MonitorTrail;
use encompass_audit::trail::{trail_key, TrailMedia};
use encompass_sim::config::DISC_ACCESS;
use encompass_sim::{Ctx, Members, NodeId, Payload, Pid, Process, SimConfig, SimDuration, World};
use encompass_storage::audit_api::{AuditMsg, AuditReply, ImageRecord};
use encompass_storage::discprocess::{SettledFences, SETTLED_FENCE_CAPACITY};
use encompass_storage::types::{FileOrganization, Transid, VolumeRef};
use guardian::{Checkpointed, Request, RpcReply};
use std::cell::Cell;
use std::rc::Rc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MSGS: [&str; 3] = ["sim.msgs.local", "sim.msgs.bus", "sim.msgs.net"];

/// Counts the forces answered, so that receiving one allocates nothing.
struct Forced(Rc<Cell<u64>>);

impl Process for Forced {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let reply = payload.expect::<RpcReply<AuditReply>>();
        if matches!(reply.body, AuditReply::Forced) {
            self.0.set(self.0.get() + 1);
        }
    }
}

fn txn(seq: u64) -> Transid {
    Transid {
        home_node: NodeId(0),
        cpu: 0,
        seq,
    }
}

/// A node with an AUDITPROCESS pair, settled, and the sink its replies go
/// to, with the count of forces answered.
fn audited() -> (World, NodeId, Pid, Pid, Rc<Cell<u64>>) {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(4);
    let audit = spawn_audit_process(&mut w, n, 0, 1, AuditConfig::default()).primary;
    let forced = Rc::new(Cell::new(0));
    let sink = w.spawn(n, 2, Box::new(Forced(Rc::clone(&forced))));
    w.run_for(SimDuration::from_millis(50));
    (w, n, audit, sink, forced)
}

/// Appends two records of transaction `round` to node `n`'s AUDITPROCESS
/// and asks for its force, which is then on the disc; `id` numbers the
/// requests. Returns the records.
fn append_and_force(
    w: &mut World,
    n: NodeId,
    audit: Pid,
    sink: Pid,
    id: &mut u64,
    round: u64,
) -> Vec<ImageRecord> {
    let volume = VolumeRef::new(n, "$DATA");
    let mut ask = |w: &mut World, body: AuditMsg| {
        *id += 1;
        let request = Request {
            id: *id,
            from: sink,
            floor: *id,
            body,
        };
        w.send_external(audit, Payload::new(request));
        w.run_for(SimDuration::from_millis(1));
    };
    let transid = txn(round);
    let floor = 2 * round;
    let records: Members<ImageRecord> = (floor..floor + 2)
        .map(|seq| ImageRecord {
            seq,
            transid,
            volume: volume.clone(),
            file: "accounts".into(),
            organization: FileOrganization::KeySequenced,
            key: Bytes::from_static(b"acct00000001"),
            before: None,
            after: Some(Bytes::from_static(b"100")),
        })
        .collect();
    ask(
        w,
        AuditMsg::Append {
            records: records.clone(),
            force: false,
            floor,
        },
    );
    ask(w, AuditMsg::ForceTxn { transid });
    records.to_vec()
}

#[test]
fn completing_a_force_allocates_its_messages_only() {
    // the boxcar histogram's call site names its buckets the first time
    // any world of the process observes through it (DESIGN.md §D21): an
    // earlier world's force does that, so this world's first is measured
    let (mut earlier, n, audit, sink, forced) = audited();
    append_and_force(&mut earlier, n, audit, sink, &mut 0, 1);
    earlier.run_for(DISC_ACCESS + SimDuration::from_millis(5));
    assert_eq!(forced.get(), 1, "the earlier world's force answered");
    drop(earlier);

    let (mut w, n, audit, sink, forced) = audited();
    // the same forces on a trail of its own count what the medium grows by
    let mut shadow = TrailMedia::new(AuditConfig::default().rotate_every);
    let mut id = 0;
    for round in 1..=12u64 {
        let records = append_and_force(&mut w, n, audit, sink, &mut id, round);
        // the force is on the disc; its completion is what is measured
        let sent = MSGS.map(|m| w.metrics().get(m));
        let (blocks, ()) = allocations_in(|| w.run_for(DISC_ACCESS + SimDuration::from_millis(5)));
        let sent: u64 = (MSGS.iter().zip(sent))
            .map(|(m, before)| w.metrics().get(m) - before)
            .sum();
        assert_eq!(forced.get(), round, "force {round} answered");
        assert_eq!(sent, 2, "the reply and the checkpoint");
        let (grown, ()) = allocations_in(|| shadow.force(records));
        assert_eq!(
            blocks,
            sent + grown,
            "force {round}: {blocks} blocks for {sent} messages, the trail grown {grown}"
        );
    }
    let trail = w.stable().get::<TrailMedia>(&trail_key(n, 0));
    let trail = trail.expect("the trail");
    assert!(trail.records().eq(shadow.records()), "the same records");
}

/// Image `seq` of a debit on a bank account: a 12-byte key and balances
/// of five and six digits. `long` makes the after image a history-shaped
/// record over the inline limit instead.
fn bank_image(seq: u64, long: bool) -> ImageRecord {
    let after = if long {
        Bytes::from(format!("acct00000007:t{seq:06}:-250"))
    } else {
        Bytes::from(format!("{}", 99_750 + seq % 500))
    };
    ImageRecord {
        seq,
        transid: txn(seq),
        volume: VolumeRef::new(NodeId(0), "$DATA"),
        file: "accounts".into(),
        organization: FileOrganization::KeySequenced,
        key: Bytes::from_static(b"acct00000007"),
        before: Some(Bytes::from(format!("{}", 100_000 + seq % 500))),
        after: Some(after),
    }
}

#[test]
fn a_bank_trail_file_is_a_third_of_its_records_in_no_more_growth_steps() {
    const RECORDS: u64 = 4096;
    let images: Vec<ImageRecord> = (1..=RECORDS).map(|s| bank_image(s, false)).collect();
    // the file as a vector of records, pushed one force at a time
    let (vec_blocks, vec) = allocations_in(|| {
        let mut file: Vec<ImageRecord> = Vec::new();
        for r in images.iter().cloned() {
            file.push(r);
        }
        file
    });
    assert_eq!(vec.capacity() * size_of::<ImageRecord>(), 640 << 10);
    let mut trail = TrailMedia::new(RECORDS as usize);
    let (blocks, ()) = allocations_in(|| {
        for r in images.iter().cloned() {
            trail.force([r]);
        }
    });
    assert_eq!(trail.files.len(), 1, "one file, not rotated");
    let room = trail.files[0].buffer_capacity();
    assert!(room <= 256 << 10, "{room} bytes of trail buffer");
    // the name table is the one block the vector did not have
    assert!(
        blocks <= vec_blocks + 1,
        "{blocks} blocks where the vector took {vec_blocks}"
    );
}

#[test]
fn reading_a_trail_file_allocates_nothing() {
    for long in [false, true] {
        let mut trail = TrailMedia::new(64);
        trail.force((1..=48).map(|s| bank_image(s, long)));
        let (blocks, read) = allocations_in(|| {
            let mut read = 0;
            for r in trail.files[0].records() {
                read += std::hint::black_box(r).seq;
            }
            read
        });
        assert_eq!(read, (1..=48).sum::<u64>());
        assert_eq!(
            blocks, 0,
            "reading 48 images allocated (long values: {long})"
        );
        let (blocks, found) = allocations_in(|| {
            let mut found = 0;
            for t in 1..=48 {
                found += trail.txn_records(txn(t)).count();
            }
            found
        });
        assert_eq!((blocks, found), (0, 48), "long values: {long}");
    }
}

#[test]
fn building_an_auditprocess_allocates_its_partition_list_only() {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(2);
    let trails = vec![w.stable_mut().id(&trail_key(n, 0))];
    let (blocks, audit) = allocations_in(|| AuditProcess::new(AuditConfig::default(), trails));
    assert_eq!(blocks, 1, "its one partition, and no histogram block");
    drop(audit);
}

fn transid(home: u8, cpu: u8, seq: u64) -> Transid {
    Transid {
        home_node: NodeId(home),
        cpu,
        seq,
    }
}

#[test]
fn a_trail_and_a_fence_set_hold_two_bytes_a_transid() {
    // a node's trail: 4 800 commits and aborts of its own, one boxcar at a
    // time, and one record from each of 63 remote home nodes, as a node of
    // the 64-node bank keeps
    let cp = Checkpointed::reviewed("the test stands in for the TMP");
    let (bytes, trail) = bytes_held_by(|| {
        let mut trail = MonitorTrail::new();
        for seq in 1..=4_800 {
            let record = (transid(0, (seq % 4) as u8, seq), seq % 50 != 0);
            trail.record_group(&[record], &cp);
        }
        for home in 1..64 {
            trail.record(transid(home, 1, 7 * u64::from(home)), true, &cp);
        }
        trail
    });
    assert_eq!((trail.len(), trail.aborts()), (4_863, 96));
    assert!(bytes <= 16 << 10, "the trail holds {bytes} bytes");
    // a volume's fences at capacity, after as many again were evicted
    let capacity = SETTLED_FENCE_CAPACITY as u64;
    let (bytes, fences) = bytes_held_by(|| {
        let mut fences = SettledFences::default();
        for seq in 1..=2 * capacity {
            fences.settle(transid(0, (seq % 4) as u8, seq));
        }
        fences
    });
    assert_eq!(fences.len(), SETTLED_FENCE_CAPACITY);
    // the ring: 8 bytes a fence, in a buffer no larger than its capacity
    // rounded up to a power of two (a VecDeque's slack)
    let ring = SETTLED_FENCE_CAPACITY.next_power_of_two() * size_of::<u64>();
    let set = bytes as usize - ring;
    assert!(
        set <= 12 << 10,
        "the fence set holds {set} bytes beside its ring"
    );
}
