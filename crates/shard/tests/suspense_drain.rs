//! End-to-end tests of the suspense monitor pair: deferred updates drain
//! to replicas in entry (= transid) order, block behind a network
//! partition and resume after heal, and survive a takeover of the monitor
//! primary mid-drain; an idle primary polls on one timer.

use bytes::Bytes;
use encompass_shard::monitor::TAG_POLL;
use encompass_shard::{
    replica_file, suspense_file, SuspenseMonitorApp, SuspenseRecord, SUSPENSE_SERVICE,
};
use encompass_sim::{CpuId, Fault, NodeId, SimConfig, SimDuration, SimTime, World};
use encompass_storage::media::{media_key, VolumeMedia};
use encompass_storage::types::{num_key, Transid, VolumeRef};
use encompass_storage::Catalog;
use tmf::facility::{spawn_tmf_network, TmfNodeConfig};

fn vol_of(n: NodeId) -> VolumeRef {
    VolumeRef::new(n, "$S")
}

/// Two linked nodes, a replicated file `branch`, per-node suspense files,
/// TMF on both nodes.
fn two_nodes() -> (World, [NodeId; 2], Catalog) {
    let mut w = World::new(SimConfig::default());
    let n0 = w.add_node(4);
    let n1 = w.add_node(4);
    w.add_link(n0, n1, SimDuration::from_millis(2));
    let mut catalog = Catalog::new();
    let nodes = [n0, n1];
    encompass_shard::add_replicated_file(&mut catalog, "branch", &nodes, vol_of);
    encompass_shard::add_suspense_files(&mut catalog, &nodes, vol_of);
    spawn_tmf_network(&mut w, &catalog, TmfNodeConfig::default());
    (w, [n0, n1], catalog)
}

fn preload(
    world: &mut World,
    node: NodeId,
    catalog: &Catalog,
    file: &str,
    key: &[u8],
    value: &[u8],
) {
    let def = catalog.get(file).expect("file in catalog").clone();
    let media_id = media_key(node, "$S");
    let media = world
        .stable_mut()
        .get_or_create::<VolumeMedia, _>(&media_id, || VolumeMedia::new("$S"));
    media
        .ensure_file(file, def.organization)
        .apply(key, Some(Bytes::copy_from_slice(value)));
}

/// Append a deferred update for `dest` to node 0's suspense file, entry
/// number `entry` (entry order is the master's commit order).
fn queue(
    world: &mut World,
    catalog: &Catalog,
    home: NodeId,
    entry: u64,
    dest: NodeId,
    key: &str,
    value: &str,
) {
    let rec = SuspenseRecord {
        transid: Transid {
            home_node: home,
            cpu: 0,
            seq: entry,
        },
        dest,
        file: "branch".into(),
        key: Bytes::copy_from_slice(key.as_bytes()),
        value: Bytes::copy_from_slice(value.as_bytes()),
    };
    preload(
        world,
        home,
        catalog,
        &suspense_file(home),
        &num_key(entry),
        &rec.encode(),
    );
}

fn replica_value(world: &World, node: NodeId, key: &str) -> Option<Bytes> {
    world
        .stable()
        .get::<VolumeMedia>(&media_key(node, "$S"))
        .and_then(|m| m.file(&replica_file("branch", node)))
        .and_then(|f| f.read(key.as_bytes()))
}

fn suspense_len(world: &World, node: NodeId) -> usize {
    world
        .stable()
        .get::<VolumeMedia>(&media_key(node, "$S"))
        .and_then(|m| m.file(&suspense_file(node)))
        .map(|f| f.len())
        .unwrap_or(0)
}

#[test]
fn drain_applies_in_entry_order_and_deletes() {
    let (mut w, [n0, n1], catalog) = two_nodes();
    // two deferred updates to the SAME key: final value must be the later
    // entry's (transid order), and a missing replica record is inserted
    preload(
        &mut w,
        n1,
        &catalog,
        &replica_file("branch", n1),
        b"b01",
        b"v0",
    );
    queue(&mut w, &catalog, n0, 0, n1, "b01", "v1");
    queue(&mut w, &catalog, n0, 1, n1, "b01", "v2");
    queue(&mut w, &catalog, n0, 2, n1, "b02", "fresh");
    encompass_shard::spawn_suspense_monitor(&mut w, n0, 2, 3, catalog.clone());
    w.run_for(SimDuration::from_secs(5));

    assert_eq!(
        replica_value(&w, n1, "b01"),
        Some(Bytes::from_static(b"v2"))
    );
    assert_eq!(
        replica_value(&w, n1, "b02"),
        Some(Bytes::from_static(b"fresh"))
    );
    assert_eq!(suspense_len(&w, n0), 0, "suspense entries deleted");
    assert_eq!(w.metrics().get("suspense.applied"), 3);
    assert_eq!(w.metrics().get("tmf.commits"), 3);

    // the pair's own drain counters
    let monitor = guardian::primary::<SuspenseMonitorApp>(&w, n0, SUSPENSE_SERVICE)
        .expect("a live $SUSPENSE primary");
    assert_eq!((monitor.pending(), monitor.applied()), (0, 3));
}

#[test]
fn partition_blocks_drain_and_heal_resumes_it() {
    let (mut w, [n0, n1], catalog) = two_nodes();
    queue(&mut w, &catalog, n0, 0, n1, "b01", "v1");
    queue(&mut w, &catalog, n0, 1, n1, "b01", "v2");
    encompass_shard::spawn_suspense_monitor(&mut w, n0, 2, 3, catalog.clone());
    w.inject(Fault::Partition(vec![n1]));
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(
        suspense_len(&w, n0),
        2,
        "reachable-gating holds the backlog while n1 is partitioned"
    );
    assert_eq!(replica_value(&w, n1, "b01"), None);

    w.inject(Fault::HealAllLinks);
    w.run_for(SimDuration::from_secs(10));
    assert_eq!(
        replica_value(&w, n1, "b01"),
        Some(Bytes::from_static(b"v2"))
    );
    assert_eq!(suspense_len(&w, n0), 0, "backlog drains after heal");
}

#[test]
fn takeover_resumes_drain_in_order() {
    let (mut w, [n0, n1], catalog) = two_nodes();
    for i in 0..6 {
        queue(&mut w, &catalog, n0, i, n1, "b01", &format!("v{i}"));
    }
    encompass_shard::spawn_suspense_monitor(&mut w, n0, 2, 3, catalog.clone());
    // kill the monitor primary's CPU mid-drain; the backup on CPU 3 takes
    // over and resumes from the durable suspense file
    w.schedule_fault(SimTime::from_micros(350_000), Fault::KillCpu(n0, CpuId(2)));
    w.run_for(SimDuration::from_secs(30));

    assert_eq!(
        replica_value(&w, n1, "b01"),
        Some(Bytes::from_static(b"v5"))
    );
    assert_eq!(suspense_len(&w, n0), 0, "drain completes across takeover");
    assert!(
        w.metrics().get("guardian.takeovers") >= 1 || w.metrics().get("suspense.takeovers") >= 1,
        "the pair took over"
    );
}

/// The `$SUSPENSE` primary's armed poll timers.
fn polls_armed(world: &World, node: NodeId) -> usize {
    let primary = world
        .lookup_name(node, SUSPENSE_SERVICE)
        .expect("a live $SUSPENSE primary");
    world
        .armed_timers()
        .filter(|&(pid, tag)| pid == primary && tag == TAG_POLL)
        .count()
}

/// An idle scan arms no poll of its own: the primary holds exactly one
/// poll timer, and a takeover starts exactly one on the new primary.
#[test]
fn an_idle_primary_holds_one_poll_timer() {
    let (mut w, [n0, n1], catalog) = two_nodes();
    for i in 0..3 {
        queue(&mut w, &catalog, n0, i, n1, "b01", &format!("v{i}"));
    }
    encompass_shard::spawn_suspense_monitor(&mut w, n0, 2, 3, catalog.clone());
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(suspense_len(&w, n0), 0, "the drain went idle");
    assert_eq!(polls_armed(&w, n0), 1);

    w.inject(Fault::KillCpu(n0, CpuId(2)));
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(w.metrics().get("suspense.takeovers"), 1);
    assert_eq!(polls_armed(&w, n0), 1, "after the takeover");
}
