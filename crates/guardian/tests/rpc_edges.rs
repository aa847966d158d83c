//! Edge-case tests for the guardian RPC layer's continuation contract:
//! completion and expiry each hand the call's `K` back exactly once;
//! duplicate replies hand back nothing; `awaiting()` lists exactly what
//! is pending.

use encompass_sim::{Ctx, NodeId, Payload, Pid, Process, SimConfig, SimDuration, TimerId, World};
use guardian::{Request, Rpc, RpcReply, Target, TimerOutcome};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Clone, Debug)]
struct Ping(u32);
#[derive(Clone, Debug, PartialEq)]
struct Pong(u32);

/// What a test call is for. Deliberately neither `Clone` nor `Copy`: the
/// rpc layer can only hand back the one value it was given.
#[derive(Debug, PartialEq)]
enum Why {
    Audit(u32),
    Answer { req_id: u64 },
}

/// Echo server that replies to every request `n` times (duplicates model
/// replies racing with retransmissions; 0 models a dead peer).
struct MultiEcho {
    replies_per_request: u32,
}
impl Process for MultiEcho {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let req = payload.expect::<Request<Ping>>();
        for _ in 0..self.replies_per_request {
            let pong = RpcReply {
                id: req.id,
                body: Pong(req.body.0),
            };
            let _ = ctx.send(req.from, Payload::new(pong));
        }
    }
}

struct Client {
    server: Target,
    events: Rc<RefCell<Vec<String>>>,
    rpc: Rpc<Ping, Pong, Why>,
}
impl Client {
    fn log(&self, what: &str, then: Option<&Why>) {
        self.events.borrow_mut().push(format!(
            "{what}:{then:?}:in_flight={}",
            self.rpc.in_flight()
        ));
    }
}
impl Process for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.rpc
            .call(ctx, self.server.clone(), Ping(5), 1, Why::Audit(77))
            .expect("send ok");
        assert_eq!(self.rpc.in_flight(), 1);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        match self.rpc.accept(ctx, payload) {
            Ok(c) => {
                assert_eq!(c.body, Pong(5));
                self.log("ok", Some(&c.then));
            }
            Err(_) => self.log("stray", None),
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if let TimerOutcome::Expired { then, .. } = self.rpc.on_timer(ctx, tag) {
            self.log("expired", Some(&then));
        }
    }
}

/// Spawn `server` on CPU 0 of `n` under the name `$ECHO`, and address it.
fn serve(w: &mut World, n: NodeId, server: impl Process + 'static) -> Target {
    let pid = w.spawn(n, 0, Box::new(server));
    w.register_name(n, "$ECHO", pid);
    Target::new(n, "$ECHO".into())
}

fn run(replies_per_request: u32) -> Vec<String> {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(2);
    let server = serve(
        &mut w,
        n,
        MultiEcho {
            replies_per_request,
        },
    );
    let events = Rc::new(RefCell::new(Vec::new()));
    w.spawn(
        n,
        1,
        Box::new(Client {
            server,
            events: events.clone(),
            rpc: Rpc::new(0, SimDuration::from_millis(50)),
        }),
    );
    w.run_for(SimDuration::from_secs(2));
    let out = events.borrow().clone();
    out
}

#[test]
fn completion_hands_the_continuation_back_once() {
    assert_eq!(run(1), vec!["ok:Some(Audit(77)):in_flight=0".to_string()]);
}

#[test]
fn duplicate_replies_surface_as_stray_and_yield_no_continuation() {
    assert_eq!(
        run(3),
        vec![
            "ok:Some(Audit(77)):in_flight=0".to_string(),
            "stray:None:in_flight=0".to_string(),
            "stray:None:in_flight=0".to_string()
        ]
    );
}

#[test]
fn expiry_hands_the_continuation_back_once() {
    // a silent peer on the caller's node: the deadline passes with no
    // resend; no later timer or reply produces a second outcome
    assert_eq!(
        run(0),
        vec!["expired:Some(Audit(77)):in_flight=0".to_string()]
    );
}

/// Echo server that answers only the requests whose body is
/// `Ping(self.0)`.
struct EchoOne(u32);
impl Process for EchoOne {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let req = payload.expect::<Request<Ping>>();
        if req.body.0 == self.0 {
            let pong = RpcReply {
                id: req.id,
                body: Pong(req.body.0),
            };
            let _ = ctx.send(req.from, Payload::new(pong));
        }
    }
}

/// Issues three calls to a peer that answers the second only, and records
/// what `awaiting()` lists before and after that answer.
struct Lister {
    server: Target,
    rpc: Rpc<Ping, Pong, Why>,
    seen: Rc<RefCell<Vec<Vec<String>>>>,
}
impl Lister {
    fn snapshot(&self) {
        let mut now: Vec<String> = self.rpc.awaiting().map(|k| format!("{k:?}")).collect();
        now.sort();
        assert_eq!(now.len(), self.rpc.in_flight());
        self.seen.borrow_mut().push(now);
    }
}
impl Process for Lister {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.snapshot();
        let target = self.server.clone();
        self.rpc
            .call_persistent(ctx, target.clone(), Ping(1), Why::Audit(1));
        self.rpc
            .call_persistent(ctx, target.clone(), Ping(2), Why::Answer { req_id: 9 });
        self.rpc
            .call_persistent(ctx, target, Ping(3), Why::Audit(3));
        self.snapshot();
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let done = self.rpc.accept(ctx, payload).expect("a pending call");
        assert_eq!(done.then, Why::Answer { req_id: 9 });
        self.snapshot();
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        // safe-delivery calls only ever retransmit
        assert!(matches!(self.rpc.on_timer(ctx, tag), TimerOutcome::Resent));
    }
}

#[test]
fn awaiting_lists_exactly_the_pending_continuations() {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(2);
    let server = serve(&mut w, n, EchoOne(2));
    let seen = Rc::new(RefCell::new(Vec::new()));
    w.spawn(
        n,
        1,
        Box::new(Lister {
            server,
            rpc: Rpc::local(0),
            seen: seen.clone(),
        }),
    );
    w.run_for(SimDuration::from_millis(200));
    let strs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert_eq!(
        *seen.borrow(),
        vec![
            strs(&[]),
            strs(&["Answer { req_id: 9 }", "Audit(1)", "Audit(3)"]),
            strs(&["Audit(1)", "Audit(3)"]),
        ]
    );
}
