//! Property test: [`Served`] behaves as the pair of structures it replaced
//! — a `ReplyCache` plus a hand-kept set of in-progress request ids —
//! under random admit / answer / answer_uncached / forget / record /
//! snapshot-restore sequences: the same requests are replayed, dropped as
//! duplicates and admitted, the same replies go out in the same order, the
//! same reply is evicted, and `entries()` (what a snapshot carries) is
//! equal after every step.
//!
//! Capacity and id space are tiny so that evictions, re-admissions of an
//! evicted id and second answers to one id all happen within a few dozen
//! steps. `record` is held to its contract — only an id's first answer —
//! and reaches both an indexed `Served` and an unindexed one (a fresh one,
//! or one just restored by a takeover, until its next admit).

use encompass_sim::{Ctx, Payload, Pid, Process, SimConfig, SimDuration, World};
use guardian::{Admitted, Owed, Request, RpcReply, Served};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

const CAPACITY: usize = 3;
const IDS: u64 = 8;

/// The reply cache `Served` replaced, kept verbatim as the reference.
struct ReplyCache {
    capacity: usize,
    order: VecDeque<u64>,
    replies: std::collections::BTreeMap<u64, u32>,
}

impl ReplyCache {
    fn new(capacity: usize) -> ReplyCache {
        ReplyCache {
            capacity: capacity.max(1),
            order: VecDeque::new(),
            replies: Default::default(),
        }
    }

    fn check(&self, id: u64) -> Option<u32> {
        self.replies.get(&id).copied()
    }

    fn store(&mut self, id: u64, reply: u32) {
        if self.replies.insert(id, reply).is_none() {
            self.order.push_back(id);
            if self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.replies.remove(&old);
                }
            }
        }
    }

    fn entries(&self) -> Vec<(u64, u32)> {
        self.order
            .iter()
            .filter_map(|id| self.replies.get(id).map(|r| (*id, *r)))
            .collect()
    }

    fn restore(capacity: usize, entries: Vec<(u64, u32)>) -> ReplyCache {
        let mut c = ReplyCache::new(capacity);
        for (id, r) in entries {
            c.store(id, r);
        }
        c
    }
}

/// What a server did by hand before: `check`, then `contains`, then run.
struct Model {
    cache: ReplyCache,
    in_progress: BTreeSet<u64>,
    /// Every reply sent, in order.
    sent: Vec<(u64, u32)>,
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Replayed,
    Duplicate,
    Fresh,
}

impl Model {
    fn admit(&mut self, id: u64) -> Outcome {
        if let Some(cached) = self.cache.check(id) {
            self.sent.push((id, cached));
            return Outcome::Replayed;
        }
        if !self.in_progress.insert(id) {
            return Outcome::Duplicate;
        }
        Outcome::Fresh
    }

    fn answer(&mut self, id: u64, reply: u32) {
        self.in_progress.remove(&id);
        self.cache.store(id, reply);
        self.sent.push((id, reply));
    }

    fn answer_uncached(&mut self, id: u64, reply: u32) {
        self.in_progress.remove(&id);
        self.sent.push((id, reply));
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// A request with this id arrives. A duplicate's token is kept (the
    /// TMP handles a retransmission again) or dropped (everyone else).
    Admit {
        id: u64,
        keep_duplicate: bool,
    },
    /// Consume the held token at this index (modulo how many are held).
    Answer(usize, u32),
    AnswerUncached(usize, u32),
    Forget(usize),
    /// A checkpoint says an id was answered for the first time: the id at
    /// this index (modulo how many there are) among those neither
    /// remembered nor held.
    Record(usize, u32),
    /// A fresh backup is built from a snapshot and takes over: the parked
    /// requests die with the old primary, and the restored log is indexed
    /// by the next admit.
    Takeover,
}

fn op() -> impl Strategy<Value = Op> {
    let admit = || {
        (0..IDS, any::<bool>()).prop_map(|(id, keep_duplicate)| Op::Admit { id, keep_duplicate })
    };
    prop_oneof![
        admit(),
        admit(),
        admit(),
        (0usize..8, any::<u32>()).prop_map(|(i, r)| Op::Answer(i, r)),
        (0usize..8, any::<u32>()).prop_map(|(i, r)| Op::Answer(i, r)),
        (0usize..8, any::<u32>()).prop_map(|(i, r)| Op::AnswerUncached(i, r)),
        (0usize..8).prop_map(Op::Forget),
        (0usize..IDS as usize, any::<u32>()).prop_map(|(i, r)| Op::Record(i, r)),
        (0u8..1).prop_map(|_| Op::Takeover),
    ]
}

/// Runs the whole sequence inside one handler, checking after each step.
struct Server {
    ops: Vec<Op>,
    client: Pid,
    /// What the model says the client must have received.
    expected: Rc<RefCell<Vec<(u64, u32)>>>,
}

impl Process for Server {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut served: Served<u32> = Served::new(CAPACITY);
        let mut model = Model {
            cache: ReplyCache::new(CAPACITY),
            in_progress: BTreeSet::new(),
            sent: Vec::new(),
        };
        let mut held: Vec<Owed> = Vec::new();
        for op in std::mem::take(&mut self.ops) {
            match op {
                Op::Admit { id, keep_duplicate } => {
                    let request = Request {
                        id,
                        from: self.client,
                        body: (),
                    };
                    let expected = model.admit(id);
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
                    assert_eq!(got, expected, "admit({id})");
                }
                Op::Answer(i, reply) if !held.is_empty() => {
                    let owed = held.remove(i % held.len());
                    model.answer(owed.id(), reply);
                    served.answer(ctx, owed, reply);
                }
                Op::AnswerUncached(i, reply) if !held.is_empty() => {
                    let owed = held.remove(i % held.len());
                    model.answer_uncached(owed.id(), reply);
                    served.answer_uncached(ctx, owed, reply);
                }
                Op::Forget(i) if !held.is_empty() => {
                    let owed = held.remove(i % held.len());
                    model.in_progress.remove(&owed.id());
                    served.forget(owed);
                }
                Op::Answer(..) | Op::AnswerUncached(..) | Op::Forget(_) => {}
                Op::Record(i, reply) => {
                    // checkpoints reach a backup, which has parked nothing,
                    // and carry an id's first answer only
                    let unseen: Vec<u64> = (0..IDS)
                        .filter(|&id| model.cache.check(id).is_none())
                        .filter(|&id| held.iter().all(|owed| owed.id() != id))
                        .collect();
                    if !unseen.is_empty() {
                        let id = unseen[i % unseen.len()];
                        model.cache.store(id, reply);
                        served.record(id, reply);
                    }
                }
                Op::Takeover => {
                    let snapshot = served.entries();
                    served = Served::new(CAPACITY);
                    served.restore(snapshot);
                    held.clear();
                    model.cache = ReplyCache::restore(CAPACITY, model.cache.entries());
                    model.in_progress.clear();
                }
            }
            assert_eq!(
                served.entries(),
                model.cache.entries(),
                "remembered replies, oldest first"
            );
            assert_eq!(served.answered(), model.cache.entries().len());
            assert_eq!(served.pending(), model.in_progress.len());
        }
        *self.expected.borrow_mut() = model.sent;
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
    fn served_matches_reply_cache_plus_in_progress_set(ops in prop::collection::vec(op(), 1..80)) {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let received = Rc::new(RefCell::new(Vec::new()));
        let expected = Rc::new(RefCell::new(Vec::new()));
        let client = w.spawn(n, 0, Box::new(Client(received.clone())));
        w.spawn(n, 1, Box::new(Server { ops, client, expected: expected.clone() }));
        w.run_for(SimDuration::from_millis(10));
        prop_assert_eq!(&*received.borrow(), &*expected.borrow(), "replies sent, in order");
    }
}

/// A payload that is not a request of the served type comes back intact.
#[test]
fn a_payload_that_is_not_a_request_is_given_back() {
    struct Offer(Rc<RefCell<Option<&'static str>>>);
    impl Process for Offer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let mut served: Served<u32> = Served::new(CAPACITY);
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
