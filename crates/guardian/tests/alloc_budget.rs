//! Allocation budget of the rpc layer.
//!
//! Calling side: a reply this `Rpc` is not waiting for — stale, duplicate,
//! or addressed to another `Rpc` of the same process — must be handed back
//! as it came, not unboxed and re-boxed. A TCP offers every reply to each
//! of its terminals' rpcs in turn, so a re-box here is paid once per
//! terminal per reply.
//!
//! Serving side: admitting a request and answering it in the same event
//! costs the reply message and nothing else — the `Served` table keeps no
//! per-request record besides its own entry, and a requester whose floor
//! advances reuses the room its dropped answers left. A backup learning an
//! answer from a checkpoint costs nothing once it is warm, for the same
//! reason.
//!
//! Underneath both (`encompass-sim`): a counter bump, a histogram
//! observation and a fetch of a stable-storage medium by id are indexes —
//! they allocate nothing, and a `counter!` call site allocates nothing
//! even the first time it is passed. A `histogram!` site allocates the
//! first time the process passes it, to name its buckets.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations_in, CountingAlloc};
use encompass_sim::{
    counter, histogram, CpuId, Ctx, HistogramSite, MediaId, Metrics, NodeId, Payload, Pid, Process,
    SimConfig, SimDuration, World,
};
use guardian::{Admitted, Asked, Request, Rpc, RpcReply, Served, Target};
use std::cell::RefCell;
use std::rc::Rc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[derive(Clone)]
struct Ping;
#[derive(Debug, PartialEq)]
struct Pong(u32);

/// What one offered payload cost and how it came back.
#[derive(Debug, PartialEq)]
struct Offer {
    allocations: u64,
    completed: bool,
    /// The id of the reply handed back, if it still is a `RpcReply<Pong>`.
    returned_id: Option<u64>,
}

struct Client {
    sink: Target,
    rpc: Rpc<Ping, Pong>,
    pending_id: Rc<RefCell<Option<u64>>>,
    offers: Rc<RefCell<Vec<Offer>>>,
}

impl Process for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // one call in flight, so the miss is a miss in a non-empty table
        let id = self.rpc.call_persistent(ctx, self.sink.clone(), Ping, ());
        *self.pending_id.borrow_mut() = Some(id);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let (allocations, outcome) = allocations_in(|| self.rpc.accept(ctx, payload));
        let offer = match outcome {
            Ok(_) => Offer {
                allocations,
                completed: true,
                returned_id: None,
            },
            Err(back) => Offer {
                allocations,
                completed: false,
                returned_id: back.downcast_ref::<RpcReply<Pong>>().map(|r| r.id),
            },
        };
        self.offers.borrow_mut().push(offer);
    }
}

struct Sink;
impl Process for Sink {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, _payload: Payload) {}
}

#[test]
fn a_reply_that_is_not_pending_is_handed_back_unboxed() {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(2);
    let sink = w.spawn(n, 0, Box::new(Sink));
    w.register_name(n, "$SINK", sink);
    let pending_id = Rc::new(RefCell::new(None));
    let offers = Rc::new(RefCell::new(Vec::new()));
    let client = w.spawn(
        n,
        1,
        Box::new(Client {
            sink: Target::new(n, "$SINK".into()),
            rpc: Rpc::local(1),
            pending_id: pending_id.clone(),
            offers: offers.clone(),
        }),
    );
    w.run_for(SimDuration::from_millis(1));
    let pending = pending_id.borrow().expect("the call was issued");
    let stale = pending + 1_000;

    // a stale reply of the right type, a payload of another type, then
    // the real reply
    w.send_external(
        client,
        Payload::new(RpcReply {
            id: stale,
            body: Pong(1),
        }),
    );
    w.send_external(client, Payload::new("not a reply"));
    w.send_external(
        client,
        Payload::new(RpcReply {
            id: pending,
            body: Pong(2),
        }),
    );
    w.run_for(SimDuration::from_millis(1));

    let offers = offers.borrow();
    assert_eq!(
        offers[0],
        Offer {
            allocations: 0,
            completed: false,
            returned_id: Some(stale)
        },
        "a stale reply comes back intact and costs nothing"
    );
    assert_eq!(
        offers[1],
        Offer {
            allocations: 0,
            completed: false,
            returned_id: None
        },
        "a non-reply comes back and costs nothing"
    );
    assert!(offers[2].completed, "the pending reply still completes");
    assert_eq!(offers.len(), 3);
}

/// Answers every request at once, measuring each admit + answer.
struct Server {
    served: Served<u32>,
    costs: Rc<RefCell<Vec<u64>>>,
}

impl Process for Server {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let (allocations, ()) = allocations_in(|| {
            if let Admitted::Fresh(owed, n) = self.served.admit::<u32>(ctx, payload) {
                self.served.answer(ctx, owed, n + 1);
            }
        });
        self.costs.borrow_mut().push(allocations);
    }
}

#[test]
fn admitting_and_answering_a_request_allocates_only_the_reply() {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(2);
    let client = w.spawn(n, 0, Box::new(Sink));
    let costs = Rc::new(RefCell::new(Vec::new()));
    let server = w.spawn(
        n,
        1,
        Box::new(Server {
            served: Served::new(),
            costs: costs.clone(),
        }),
    );
    // the requester keeps three calls outstanding, so each request raises
    // its floor by one and drops one answer: the table stays the size it is
    for id in 0..64u64 {
        let request = Request {
            id,
            from: client,
            floor: id.saturating_sub(2),
            body: 7u32,
        };
        w.send_external(server, Payload::new(request));
        w.run_for(SimDuration::from_millis(1));
    }
    let costs = costs.borrow();
    assert_eq!(costs.len(), 64);
    assert!(
        costs[32..].iter().all(|&c| c == 1),
        "one allocation per request, the boxed reply: {:?}",
        &costs[32..]
    );
}

#[test]
fn a_warm_backup_record_allocates_nothing() {
    let mut served: Served<u32> = Served::new();
    let from = Pid {
        node: NodeId(0),
        cpu: CpuId(1),
        index: 9,
    };
    // eight answers in the requester's window: each checkpoint raises its
    // floor by one
    let asked = |id: u64| Asked {
        id,
        from,
        floor: id.saturating_sub(7),
    };
    for id in 0..8 {
        served.record(asked(id), 0);
    }
    let costs: Vec<u64> = (8..64u64)
        .map(|id| allocations_in(|| served.record(asked(id), id as u32)).0)
        .collect();
    assert!(
        costs.iter().all(|&c| c == 0),
        "a warm requester neither grows nor rehashes: {costs:?}"
    );
    assert_eq!(served.answered(), 8);
}

/// The histogram [`Instrumented`] observes. Its site formats and interns
/// its counters' names the first time any world of the process observes
/// through it, and never again.
fn budget_histogram() -> &'static HistogramSite {
    histogram!("alloc_budget.histogram", &[1, 10])
}

/// Bumps a counter, observes a histogram and fetches its medium on every
/// message, measuring each.
struct Instrumented {
    medium: MediaId,
    /// `[count, observe, fetch]` allocations, per message.
    costs: Rc<RefCell<Vec<[u64; 3]>>>,
}

impl Process for Instrumented {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, _payload: Payload) {
        // this call site is passed for the first time on the first message,
        // and no other names its counter
        let (count, ()) = allocations_in(|| ctx.count(counter!("alloc_budget.first_use"), 1));
        let (observe, ()) = allocations_in(|| ctx.observe(budget_histogram(), 3));
        let (fetch, ()) =
            allocations_in(|| *ctx.stable().get_or_create_at(self.medium, || 0u64) += 1);
        self.costs.borrow_mut().push([count, observe, fetch]);
    }
}

#[test]
fn counting_observing_and_fetching_a_medium_by_id_allocate_nothing() {
    // an earlier world of the process observed through the site
    Metrics::new().observe(budget_histogram(), 0);
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(2);
    let costs = Rc::new(RefCell::new(Vec::new()));
    let medium = w.stable_mut().id("\\N0.$BUDGET");
    let instrumented = w.spawn(
        n,
        0,
        Box::new(Instrumented {
            medium,
            costs: costs.clone(),
        }),
    );
    for _ in 0..3 {
        w.send_external(instrumented, Payload::new(()));
    }
    w.run_for(SimDuration::from_millis(1));
    assert_eq!(
        *costs.borrow(),
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        "[count, observe, fetch]: only creating the medium — its box — may allocate"
    );
    assert_eq!(w.metrics().get("alloc_budget.first_use"), 3);
    assert_eq!(w.metrics().get("alloc_budget.histogram.le_10"), 3);
    assert_eq!(w.stable().get::<u64>("\\N0.$BUDGET"), Some(&3));
}

/// A takeover registers its service name again, on a table that already
/// holds it: the entry is overwritten, and only a new name is copied.
#[test]
fn re_registering_a_name_allocates_nothing() {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(2);
    let primary = w.spawn(n, 0, Box::new(Sink));
    let backup = w.spawn(n, 1, Box::new(Sink));
    let (first, ()) = allocations_in(|| w.register_name(n, "$PAIR", primary));
    assert!(first > 0, "a new name is copied into the table");
    let (again, ()) = allocations_in(|| w.register_name(n, "$PAIR", backup));
    assert_eq!(again, 0, "a known name is overwritten in place");
    assert_eq!(w.lookup_name(n, "$PAIR"), Some(backup));
}
