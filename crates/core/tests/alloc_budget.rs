//! Allocation budget of the TMP's state broadcasts (DESIGN.md §D19(e)).
//!
//! Every state change goes to the transaction table of every processor of
//! the node, one bus message each. The messages are copies of one shared
//! block, so a state change allocates one block for its broadcast however
//! many processors the node has.
//!
//! And of building a TMP: its histograms are named by their call sites,
//! once per process (DESIGN.md §D21), so a TMP built after the first
//! allocates nothing for them.

#[path = "../../guardian/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations_in, CountingAlloc};
use encompass_audit::monitor::monitor_key;
use encompass_sim::{Ctx, NodeId, Payload, Pid, Process, SimConfig, SimDuration, World};
use guardian::{ask, Target};
use tmf::state::TxnClass;
use tmf::table::TxTableProcess;
use tmf::tmp::{spawn_tmp, TmpConfig, TmpMsg, TmpProcess, TmpReply, TMP_SERVICE};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CPUS: u8 = 4;

/// Stands in for a transaction table: the same number of processes,
/// and no `$TXTABLE` name for the TMP to broadcast to.
struct Idle;

impl Process for Idle {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, _payload: Payload) {}
}

/// A node of [`CPUS`] processors running a TMP pair and, on every
/// processor, a transaction table (`tables`) or an idle process.
fn node(tables: bool) -> (World, NodeId) {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(CPUS);
    for cpu in 0..CPUS {
        let p: Box<dyn Process> = if tables {
            Box::new(TxTableProcess::new())
        } else {
            Box::new(Idle)
        };
        w.spawn(n, cpu, p);
    }
    spawn_tmp(&mut w, n, 0, 1, TmpConfig::default());
    w.run_for(SimDuration::from_millis(50));
    (w, n)
}

fn call(w: &mut World, n: NodeId, msg: TmpMsg) -> TmpReply {
    let reply = ask::<TmpMsg, TmpReply>(w, n, 2, 0, Target::new(n, TMP_SERVICE), msg);
    w.run_for(SimDuration::from_millis(20));
    let answered = reply.borrow_mut().take();
    answered.expect("the TMP answered")
}

/// One read-only transaction, BEGIN to END: three state changes (Active,
/// Ending, Ended), each broadcast.
fn read_only_txn(w: &mut World, n: NodeId) {
    let class = TxnClass::ReadOnly;
    let TmpReply::Began { transid } = call(w, n, TmpMsg::Begin { cpu: 2, class }) else {
        panic!("BEGIN refused");
    };
    assert_eq!(call(w, n, TmpMsg::End { transid }), TmpReply::Committed);
}

/// The blocks one warm read-only transaction costs on a node with tables
/// or without, and the state broadcasts it sent.
fn warm_txn(tables: bool) -> (u64, u64) {
    let (mut w, n) = node(tables);
    for _ in 0..64 {
        read_only_txn(&mut w, n);
    }
    let sent = w.metrics().get("tmf.state_broadcasts");
    let (blocks, ()) = allocations_in(|| read_only_txn(&mut w, n));
    (blocks, w.metrics().get("tmf.state_broadcasts") - sent)
}

#[test]
fn a_state_change_allocates_one_block_for_its_broadcast() {
    let (with_tables, broadcasts) = warm_txn(true);
    let (without, none) = warm_txn(false);
    assert_eq!(none, 0, "no table, no broadcast");
    let state_changes = 3;
    assert_eq!(broadcasts, state_changes * u64::from(CPUS), "one per table");
    assert_eq!(
        with_tables - without,
        state_changes,
        "one block per state change for its {CPUS} messages"
    );
}

#[test]
fn building_a_second_tmp_allocates_no_histogram_block() {
    // the first TMP of the process ends a transaction, observing its
    // commit latency
    let (mut w, n) = node(false);
    read_only_txn(&mut w, n);
    assert_eq!(w.metrics().get("tmf.commit_latency_us.count"), 1);
    let (cfg, monitor) = (TmpConfig::default(), w.stable_mut().id(&monitor_key(n)));
    let (blocks, tmp) = allocations_in(|| TmpProcess::new(cfg, monitor));
    assert_eq!(blocks, 0, "a TMP is built without a block");
    drop(tmp);
    // a second world's TMP observes into its own counters
    let (mut second, n) = node(false);
    read_only_txn(&mut second, n);
    assert_eq!(second.metrics().get("tmf.commit_latency_us.count"), 1);
    assert_eq!(second.metrics().get("tmf.commit_latency_us.le_inf"), 1);
}
