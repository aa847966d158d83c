//! Allocation budget of a completed trail force. The forced records
//! stream from the boxcar buffer onto the trail, and the satisfied force
//! waiters are a prefix of the queue, drained in place: completing a
//! force allocates its messages (the reply, the checkpoint) and nothing
//! else, besides what the trail medium itself grows by.
//!
//! Building an AUDITPROCESS allocates its partition list and nothing for
//! its boxcar histogram, which its call site names once per process, the
//! first time any world observes through it.

#[path = "../../guardian/tests/support/counting_alloc.rs"]
mod counting_alloc;

use bytes::Bytes;
use counting_alloc::{allocations_in, CountingAlloc};
use encompass_audit::auditprocess::{spawn_audit_process, AuditConfig, AuditProcess};
use encompass_audit::trail::{trail_key, TrailMedia};
use encompass_sim::config::DISC_ACCESS;
use encompass_sim::{Ctx, NodeId, Payload, Pid, Process, SimConfig, SimDuration, World};
use encompass_storage::audit_api::{AuditMsg, AuditReply, ImageRecord};
use encompass_storage::types::{FileOrganization, Transid, VolumeRef};
use guardian::{Request, RpcReply};
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
/// requests.
fn append_and_force(w: &mut World, n: NodeId, audit: Pid, sink: Pid, id: &mut u64, round: u64) {
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
    let records = (floor..floor + 2)
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
            records,
            force: false,
            floor,
        },
    );
    ask(w, AuditMsg::ForceTxn { transid });
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
    let trail = trail_key(n, 0);
    let mut id = 0;
    let trail_room = |w: &World| {
        let trail = w.stable().get::<TrailMedia>(&trail).expect("the trail");
        trail
            .files
            .iter()
            .map(|f| f.records.capacity())
            .sum::<usize>()
    };
    for round in 1..=12u64 {
        append_and_force(&mut w, n, audit, sink, &mut id, round);
        // the force is on the disc; its completion is what is measured
        let (sent, room) = (MSGS.map(|m| w.metrics().get(m)), trail_room(&w));
        let (blocks, ()) = allocations_in(|| w.run_for(DISC_ACCESS + SimDuration::from_millis(5)));
        let sent: u64 = (MSGS.iter().zip(sent))
            .map(|(m, before)| w.metrics().get(m) - before)
            .sum();
        assert_eq!(forced.get(), round, "force {round} answered");
        assert_eq!(sent, 2, "the reply and the checkpoint");
        let grown = u64::from(trail_room(&w) > room);
        assert_eq!(
            blocks,
            sent + grown,
            "force {round}: {blocks} blocks for {sent} messages, the trail grown {grown}"
        );
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
