//! Property test: [`Served`] keeps exactly what the floor rule says — for
//! each requester, the answered ids at or above the latest floor its
//! requests carried, and the ids still pending — and refuses an id below
//! that floor, under random admit / answer / answer_uncached / forget /
//! record / snapshot-restore sequences. The reference model is the rule
//! written out with ordered maps; the two must agree on every admit's
//! outcome, send the same replies in the same order, count the same
//! refusals, and hand a snapshot the same floors and answers after every
//! step.
//!
//! Two requesters (two id spaces of one client) and a few call numbers
//! each, with floors drawn at or below the id they ride on, so raised
//! floors, refused stale copies, pending ids left below a floor and
//! second answers to one id all happen within a few dozen steps. `record`
//! is held to its contract — only an id's first answer.

use encompass_sim::{Ctx, Payload, Pid, Process, SimConfig, SimDuration, World};
use guardian::{Admitted, Asked, Owed, Request, RpcReply, Served};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Call numbers per requester.
const CALLS: u64 = 8;
/// Requesters: id spaces 0 and 1 of the client.
const REQUESTERS: u64 = 2;

/// `(request id, reply)` pairs.
type Replies = Vec<(u64, u32)>;

/// The floor rule, written out.
#[derive(Default)]
struct Model {
    /// Requester → its latest floor (a call number); present once it has
    /// sent anything.
    floors: BTreeMap<u64, u64>,
    /// `(requester, call)` → reply, for answered calls at or above the
    /// floor.
    answers: BTreeMap<(u64, u64), u32>,
    pending: BTreeSet<(u64, u64)>,
    /// Every reply sent, in order.
    sent: Replies,
    refused: u64,
}

#[derive(Debug, PartialEq)]
enum Outcome {
    /// Replayed from memory, or refused below the floor: nothing to do.
    Replayed,
    Duplicate,
    Fresh,
}

impl Model {
    fn raise(&mut self, r: u64, floor: u64) -> u64 {
        let f = self.floors.entry(r).or_insert(floor);
        *f = (*f).max(floor);
        let f = *f;
        self.answers.retain(|&(rr, n), _| rr != r || n >= f);
        f
    }

    fn admit(&mut self, client: Pid, r: u64, n: u64, floor: u64) -> Outcome {
        if n < self.raise(r, floor) {
            self.refused += 1;
            return Outcome::Replayed;
        }
        if let Some(&reply) = self.answers.get(&(r, n)) {
            self.sent.push((id(client, r, n), reply));
            return Outcome::Replayed;
        }
        if !self.pending.insert((r, n)) {
            return Outcome::Duplicate;
        }
        Outcome::Fresh
    }

    fn answer(&mut self, client: Pid, (r, n): (u64, u64), reply: u32) {
        let held = self.pending.remove(&(r, n)) || self.answers.contains_key(&(r, n));
        if held && n >= self.floors[&r] {
            self.answers.insert((r, n), reply);
        }
        self.sent.push((id(client, r, n), reply));
    }

    fn answer_uncached(&mut self, client: Pid, (r, n): (u64, u64), reply: u32) {
        self.pending.remove(&(r, n));
        self.sent.push((id(client, r, n), reply));
    }

    fn record(&mut self, r: u64, n: u64, floor: u64, reply: u32) {
        if n >= self.raise(r, floor) {
            self.pending.remove(&(r, n));
            self.answers.insert((r, n), reply);
        }
    }

    /// What a snapshot of the model carries, in `ServedSnapshot`'s terms.
    fn entries(&self, client: Pid) -> (Vec<(Pid, u64)>, Replies) {
        let floors = (self.floors.iter())
            .map(|(&r, &f)| (client, id(client, r, f)))
            .collect();
        let answers = (self.answers.iter())
            .map(|(&(r, n), &reply)| (id(client, r, n), reply))
            .collect();
        (floors, answers)
    }
}

/// The request id of call `n` of the client's id space `r`.
fn id(client: Pid, r: u64, n: u64) -> u64 {
    (r << 56) | ((client.index as u64) << 24) | n
}

/// `(requester, call)` of a request id.
fn call_of(id: u64) -> (u64, u64) {
    (id >> 56, id & 0xFF_FFFF)
}

#[derive(Clone, Debug)]
enum Op {
    /// A copy of call `n` of requester `r` arrives, carrying floor
    /// `floor <= n`. A duplicate's token is kept (the TMP handles a
    /// retransmission again) or dropped (everyone else).
    Admit {
        r: u64,
        n: u64,
        floor: u64,
        keep_duplicate: bool,
    },
    /// Consume the held token at this index (modulo how many are held).
    Answer(usize, u32),
    AnswerUncached(usize, u32),
    Forget(usize),
    /// A checkpoint says a call of requester `r` was answered for the
    /// first time: the call at this index (modulo how many there are)
    /// among those neither answered nor held, with its floor `back` calls
    /// below it.
    Record {
        r: u64,
        i: usize,
        back: u64,
        reply: u32,
    },
    /// A fresh backup is built from a snapshot and takes over: the parked
    /// requests die with the old primary.
    Takeover,
}

fn op() -> impl Strategy<Value = Op> {
    let admit = || {
        (0..REQUESTERS, 0..CALLS, 0..CALLS, any::<bool>()).prop_map(
            |(r, n, floor, keep_duplicate)| Op::Admit {
                r,
                n,
                floor: floor % (n + 1),
                keep_duplicate,
            },
        )
    };
    prop_oneof![
        admit(),
        admit(),
        admit(),
        (0usize..8, any::<u32>()).prop_map(|(i, r)| Op::Answer(i, r)),
        (0usize..8, any::<u32>()).prop_map(|(i, r)| Op::Answer(i, r)),
        (0usize..8, any::<u32>()).prop_map(|(i, r)| Op::AnswerUncached(i, r)),
        (0usize..8).prop_map(Op::Forget),
        (0..REQUESTERS, 0..CALLS as usize, 0..3u64, any::<u32>())
            .prop_map(|(r, i, back, reply)| Op::Record { r, i, back, reply }),
        (0u8..1).prop_map(|_| Op::Takeover),
    ]
}

/// Runs the whole sequence inside one handler, checking after each step.
struct Server {
    ops: Vec<Op>,
    client: Pid,
    /// What the model says the client must have received, and how many
    /// copies it says were refused.
    expected: Rc<RefCell<(Replies, u64)>>,
}

impl Process for Server {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let client = self.client;
        let mut served: Served<u32> = Served::new();
        let mut model = Model::default();
        let mut held: Vec<Owed> = Vec::new();
        for op in std::mem::take(&mut self.ops) {
            match op {
                Op::Admit {
                    r,
                    n,
                    floor,
                    keep_duplicate,
                } => {
                    let request = Request {
                        id: id(client, r, n),
                        from: client,
                        floor: id(client, r, floor),
                        body: (),
                    };
                    let expected = model.admit(client, r, n, floor);
                    let got = match served.admit::<()>(ctx, Payload::new(request)) {
                        Admitted::Replayed => Outcome::Replayed,
                        Admitted::Duplicate(owed, ()) => {
                            if keep_duplicate {
                                held.push(owed);
                            }
                            Outcome::Duplicate
                        }
                        Admitted::Fresh(owed, ()) => {
                            held.push(owed);
                            Outcome::Fresh
                        }
                        Admitted::NotARequest(_) => panic!("a Request<()> was offered"),
                    };
                    assert_eq!(got, expected, "admit(r{r} n{n} floor {floor})");
                }
                Op::Answer(i, reply) if !held.is_empty() => {
                    let owed = held.remove(i % held.len());
                    model.answer(client, call_of(owed.id()), reply);
                    served.answer(ctx, owed, reply);
                }
                Op::AnswerUncached(i, reply) if !held.is_empty() => {
                    let owed = held.remove(i % held.len());
                    model.answer_uncached(client, call_of(owed.id()), reply);
                    served.answer_uncached(ctx, owed, reply);
                }
                Op::Forget(i) if !held.is_empty() => {
                    let owed = held.remove(i % held.len());
                    model.pending.remove(&call_of(owed.id()));
                    served.forget(owed);
                }
                Op::Answer(..) | Op::AnswerUncached(..) | Op::Forget(_) => {}
                Op::Record { r, i, back, reply } => {
                    // checkpoints reach a backup, which has parked nothing,
                    // and carry a call's first answer only
                    let unseen: Vec<u64> = (0..CALLS)
                        .filter(|&n| !model.answers.contains_key(&(r, n)))
                        .filter(|&n| held.iter().all(|owed| call_of(owed.id()) != (r, n)))
                        .collect();
                    if !unseen.is_empty() {
                        let n = unseen[i % unseen.len()];
                        let floor = n.saturating_sub(back);
                        model.record(r, n, floor, reply);
                        served.record(
                            Asked {
                                id: id(client, r, n),
                                from: client,
                                floor: id(client, r, floor),
                            },
                            reply,
                        );
                    }
                }
                Op::Takeover => {
                    let snapshot = served.entries();
                    served = Served::new();
                    served.restore(snapshot);
                    held.clear();
                    model.pending.clear();
                }
            }
            let snapshot = served.entries();
            let (floors, answers) = model.entries(client);
            assert_eq!(snapshot.floors(), floors, "floors, by requester");
            assert_eq!(snapshot.answers(), answers, "answers kept, by id");
            assert_eq!(served.answered(), model.answers.len());
            assert_eq!(served.pending(), model.pending.len());
            assert_eq!(served.below_floor(), 0);
        }
        *self.expected.borrow_mut() = (model.sent, model.refused);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, _payload: Payload) {}
}

/// Records every reply it receives.
struct Client(Rc<RefCell<Vec<(u64, u32)>>>);

impl Process for Client {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let reply = payload.expect::<RpcReply<u32>>();
        self.0.borrow_mut().push((reply.id, reply.body));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn served_keeps_what_the_floor_rule_keeps(ops in prop::collection::vec(op(), 1..80)) {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let received = Rc::new(RefCell::new(Vec::new()));
        let expected = Rc::new(RefCell::new((Vec::new(), 0)));
        let client = w.spawn(n, 0, Box::new(Client(received.clone())));
        w.spawn(n, 1, Box::new(Server { ops, client, expected: expected.clone() }));
        w.run_for(SimDuration::from_millis(10));
        let (sent, refused) = &*expected.borrow();
        prop_assert_eq!(&*received.borrow(), sent, "replies sent, in order");
        prop_assert_eq!(w.metrics().get("rpc.stale_refused"), *refused, "refusals counted");
    }
}

/// A payload that is not a request of the served type comes back intact.
#[test]
fn a_payload_that_is_not_a_request_is_given_back() {
    struct Offer(Rc<RefCell<Option<&'static str>>>);
    impl Process for Offer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let mut served: Served<u32> = Served::new();
            if let Admitted::NotARequest(back) = served.admit::<()>(ctx, Payload::new("stray")) {
                *self.0.borrow_mut() = back.downcast::<&'static str>().ok();
            }
            assert_eq!(served.pending(), 0);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, _payload: Payload) {}
    }
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(2);
    let back = Rc::new(RefCell::new(None));
    w.spawn(n, 0, Box::new(Offer(back.clone())));
    w.run_for(SimDuration::from_millis(1));
    assert_eq!(*back.borrow(), Some("stray"));
}
