//! A server keeps an answer exactly while its requester can still ask for
//! it: the floor each request carries (DESIGN.md §D20).
//!
//! * A retransmission that follows more answers than any fixed reply
//!   table held (16 384 at the TMP, 8 192 at a DISCPROCESS) still gets the
//!   answer remembered for it, and the request is not run again. Only a
//!   network call is resent on a clock, so its requester is on another
//!   node.
//! * A delayed copy of a call that has ended at its requester is refused:
//!   not run, not answered, counted as `rpc.stale_refused`.
//! * A requester whose CPU fails leaves nothing behind, in either half of
//!   the server's pair.
//! * A backup rebuilt from a snapshot holds its primary's answers and
//!   floors.

use encompass_sim::{
    CpuId, Ctx, Fault, Name, NodeId, Payload, Pid, Process, SimConfig, SimDuration, TimerId, World,
};
use guardian::{
    backup, primary, spawn_pair, Admitted, Asked, Checkpointed, PairApp, PairCtx, PairHandle,
    Request, Rpc, Served, ServedSnapshot, Target,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Answers every request with how many requests it has run, and
/// checkpoints each answer: a request run twice answers a new number.
struct Runs {
    runs: u64,
    served: Served<u64>,
}

#[derive(Clone)]
struct Work;

impl PairApp for Runs {
    type Delta = (Asked, u64);
    type Snapshot = (u64, ServedSnapshot<u64>);

    fn service_name(&self) -> Name {
        Name::new("$RUNS")
    }

    fn on_request(&mut self, ctx: &mut PairCtx<'_, '_, (Asked, u64)>, _src: Pid, payload: Payload) {
        if let Admitted::Fresh(owed, Work) = self.served.admit(ctx, payload) {
            self.runs += 1;
            ctx.checkpoint((owed.asked(), self.runs));
            self.served.answer(ctx, owed, self.runs);
        }
    }

    fn apply_checkpoint(&mut self, (asked, runs): (Asked, u64), _cp: &Checkpointed) {
        self.runs = runs;
        self.served.record(asked, runs);
    }

    fn snapshot(&self) -> (u64, ServedSnapshot<u64>) {
        (self.runs, self.served.entries())
    }

    fn restore(&mut self, (runs, served): (u64, ServedSnapshot<u64>), _cp: &Checkpointed) {
        self.runs = runs;
        self.served.restore(served);
    }

    fn on_cpu_down(&mut self, node: NodeId, cpu: CpuId) {
        self.served.forget_cpu(node, cpu);
    }
}

/// What a caller saw.
#[derive(Default)]
struct Log {
    /// The id of its first call and the answer that call completed with.
    first: Option<(u64, Option<u64>)>,
    /// Calls completed after the first.
    completed: u64,
    /// Replies its rpc did not take (stale or duplicate).
    strays: u64,
}

/// Makes one call, then `more` calls one after another. With `lose_first`
/// the first answer never reaches the rpc, so that call stays outstanding
/// (pinning the caller's floor): on another node until its retransmission,
/// 30 s later; on the server's node for good, as nothing there is lost.
struct Caller {
    target: Target,
    rpc: Rpc<Work, u64>,
    lose_first: bool,
    more: u64,
    log: Rc<RefCell<Log>>,
}

const RETRY: SimDuration = SimDuration::from_secs(30);

impl Caller {
    fn call(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        self.rpc.call_persistent(ctx, self.target.clone(), Work, ())
    }
}

impl Process for Caller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let first = self.call(ctx);
        self.log.borrow_mut().first = Some((first, None));
        if self.lose_first && self.more > 0 {
            self.more -= 1;
            self.call(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let first = self.log.borrow().first.map(|(id, _)| id);
        if self.lose_first {
            let id = payload
                .downcast_ref::<guardian::RpcReply<u64>>()
                .map(|r| r.id);
            if id == first {
                self.lose_first = false;
                return;
            }
        }
        let Ok(done) = self.rpc.accept(ctx, payload) else {
            self.log.borrow_mut().strays += 1;
            return;
        };
        let mut log = self.log.borrow_mut();
        match &mut log.first {
            Some((id, answer)) if *id == done.id => *answer = Some(done.body),
            _ => log.completed += 1,
        }
        drop(log);
        if self.more > 0 {
            self.more -= 1;
            self.call(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        let _ = self.rpc.on_timer(ctx, tag);
    }
}

/// The `$RUNS` pair on the first node, and a second node one link away.
fn world() -> (World, NodeId, NodeId, PairHandle) {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(4);
    let m = w.add_node(2);
    let _ = w.add_link(n, m, SimDuration::ZERO);
    let pair = spawn_pair(&mut w, n, 0, 1, || Runs {
        runs: 0,
        served: Served::new(),
    });
    w.run_for(SimDuration::from_millis(10));
    (w, n, m, pair)
}

/// A caller on `n`, `cpu` of the `$RUNS` pair on `server`.
fn caller(
    w: &mut World,
    (n, server): (NodeId, NodeId),
    cpu: u8,
    space: u64,
    lose_first: bool,
    more: u64,
) -> (Pid, Rc<RefCell<Log>>) {
    let log = Rc::new(RefCell::new(Log::default()));
    let pid = w.spawn(
        n,
        cpu,
        Box::new(Caller {
            target: Target::new(server, Name::new("$RUNS")),
            rpc: Rpc::new(space, RETRY),
            lose_first,
            more,
            log: log.clone(),
        }),
    );
    (pid, log)
}

fn runs(w: &World, n: NodeId) -> &Runs {
    primary::<Runs>(w, n, "$RUNS").expect("a live primary")
}

#[test]
fn a_retransmission_after_more_answers_than_any_ring_held_is_replayed_not_rerun() {
    let (mut w, n, m, pair) = world();
    let others = 20_000;
    let (_, log) = caller(&mut w, (m, n), 1, 7, true, others);
    w.run_for(SimDuration::from_secs(29));
    assert_eq!(
        log.borrow().completed,
        others,
        "every other call is answered first"
    );
    assert_eq!(
        log.borrow().first.and_then(|(_, a)| a),
        None,
        "its answer was lost"
    );
    let kept = runs(&w, n).served.answered();

    w.run_for(SimDuration::from_secs(2));
    let log = log.borrow();
    assert_eq!(
        log.first.and_then(|(_, a)| a),
        Some(1),
        "the retransmission got the first run's answer"
    );
    assert_eq!(runs(&w, n).runs, others + 1, "no request ran twice");
    assert_eq!(
        backup::<Runs>(&w, &pair).expect("a backup").runs,
        others + 1
    );
    assert_eq!(w.metrics().get("rpc.stale_refused"), 0);
    assert!(
        kept > 16_384,
        "the floor kept every answer above the lost call: {kept}"
    );
}

#[test]
fn a_delayed_copy_below_the_floor_is_refused_and_counted() {
    let (mut w, n, _, _) = world();
    let (client, log) = caller(&mut w, (n, n), 2, 7, false, 2);
    w.run_for(SimDuration::from_millis(100));
    assert_eq!(log.borrow().completed, 2);
    let (first, _) = log.borrow().first.expect("called");
    let before = runs(&w, n).runs;

    let server = w.lookup_name(n, "$RUNS").expect("primary");
    let copy = Request {
        id: first,
        from: client,
        floor: first,
        body: Work,
    };
    w.send_external(server, Payload::new(copy));
    w.run_for(SimDuration::from_millis(100));
    assert_eq!(runs(&w, n).runs, before, "not run");
    assert_eq!(log.borrow().strays, 0, "not answered");
    assert_eq!(w.metrics().get("rpc.stale_refused"), 1, "counted");
}

#[test]
fn a_requester_on_a_killed_cpu_leaves_no_entries() {
    let (mut w, n, _, pair) = world();
    let (_, log) = caller(&mut w, (n, n), 2, 7, true, 3);
    let (_, other) = caller(&mut w, (n, n), 3, 8, false, 3);
    w.run_for(SimDuration::from_millis(100));
    assert_eq!((log.borrow().completed, other.borrow().completed), (3, 3));
    let kept = |w: &World| {
        let backup = backup::<Runs>(w, &pair).expect("a backup");
        [runs(w, n).served.entries(), backup.served.entries()]
            .map(|s| (s.floors().len(), s.answers().len()))
    };
    assert_eq!(
        kept(&w),
        [(2, 5), (2, 5)],
        "4 answers for the one, 1 for the other"
    );

    w.inject(Fault::KillCpu(n, CpuId(2)));
    w.run_for(SimDuration::from_millis(100));
    assert_eq!(
        kept(&w),
        [(1, 1), (1, 1)],
        "only the live requester's answer is left"
    );
}

#[test]
fn a_backup_rebuilt_from_a_snapshot_holds_its_primarys_answers_and_floors() {
    let (mut w, n, _, pair) = world();
    caller(&mut w, (n, n), 2, 7, true, 4);
    caller(&mut w, (n, n), 3, 8, false, 3);
    w.run_for(SimDuration::from_millis(100));
    w.inject(Fault::KillCpu(n, CpuId(1)));
    w.run_for(SimDuration::from_millis(100));
    assert!(backup::<Runs>(&w, &pair).is_none(), "running exposed");
    w.inject(Fault::RestoreCpu(n, CpuId(1)));
    w.run_for(SimDuration::from_millis(100));

    let primary = runs(&w, n);
    let rebuilt = backup::<Runs>(&w, &pair).expect("a backup rebuilt from a snapshot");
    let entries = primary.served.entries();
    assert_eq!(entries.floors().len(), 2);
    assert_eq!(entries.answers().len(), 6);
    assert_eq!(rebuilt.served.entries(), entries);
    assert_eq!(rebuilt.served.answered(), primary.served.answered());
    assert_eq!(rebuilt.runs, primary.runs);
}
