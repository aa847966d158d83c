//! Request/reply messaging with correlation, timeouts, and retransmission.
//!
//! GUARDIAN/EXPAND gave every message an end-to-end acknowledgment; software
//! layered request/reply on top. [`Rpc`] packages that pattern for simulated
//! processes: the caller gets a correlation id, a per-attempt timeout, and a
//! bounded or unbounded retry budget.
//!
//! The two retry policies map onto the paper's distributed-commit message
//! classes:
//!
//! * **critical response** — `retries` is finite; when the budget is
//!   exhausted (or the destination is immediately unreachable) the caller
//!   is told, and can e.g. abort the transaction;
//! * **safe delivery** — `retries = u32::MAX`; the message is re-offered
//!   "whenever transmission becomes possible", which is exactly how
//!   phase-two and backout notifications behave.
//!
//! Retransmission implies at-least-once delivery; receivers that are not
//! naturally idempotent answer through a [`Served`] table, which replays
//! the remembered reply instead of running a request twice.

use encompass_sim::{
    Ctx, DetHashMap, Name, NodeId, Payload, Pid, Process, SimDuration, TimerId, World,
};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::rc::Rc;

/// Timer tags at or above this value are reserved for `Rpc`; processes must
/// keep their own tags below it.
pub const RPC_TAG_BASE: u64 = 1 << 48;

/// Where a request is addressed. Named targets are re-resolved on every
/// attempt, so a retry finds the new primary after a process-pair takeover.
#[derive(Clone, Debug)]
pub enum Target {
    Pid(Pid),
    Named(NodeId, Name),
}

impl Target {
    fn resolve(&self, ctx: &Ctx<'_>) -> Option<Pid> {
        match self {
            Target::Pid(p) => Some(*p),
            Target::Named(node, name) => ctx.lookup_name(*node, name),
        }
    }

    pub fn node(&self) -> NodeId {
        match self {
            Target::Pid(p) => p.node,
            Target::Named(n, _) => *n,
        }
    }
}

/// The wire form of a request.
#[derive(Clone, Debug)]
pub struct Request<M> {
    pub id: u64,
    pub from: Pid,
    pub body: M,
}

/// The wire form of a reply.
#[derive(Clone, Debug)]
pub struct RpcReply<R> {
    pub id: u64,
    pub body: R,
}

/// Send a reply to a previously received [`Request`].
fn reply<R: Send + 'static>(ctx: &mut Ctx<'_>, req_id: u64, to: Pid, body: R) {
    let _ = ctx.send(to, Payload::new(RpcReply { id: req_id, body }));
}

struct Pending<M, K> {
    target: Target,
    body: M,
    timeout: SimDuration,
    retries_left: u32,
    timer: TimerId,
    /// the caller's continuation, handed back when the call ends
    then: K,
}

/// What `on_timer` decided about an RPC timer.
#[derive(Debug)]
pub enum TimerOutcome<M, K = ()> {
    /// The tag did not belong to this `Rpc`.
    NotMine,
    /// A retransmission was sent; keep waiting.
    Resent,
    /// The retry budget is exhausted; the request has been abandoned.
    Expired { id: u64, body: M, then: K },
}

/// A completed call, returned by [`Rpc::accept`].
#[derive(Debug)]
pub struct Completion<R, K = ()> {
    pub id: u64,
    pub body: R,
    pub then: K,
}

/// Client-side state for request/reply exchanges carrying request bodies of
/// type `M` and replies of type `R`.
///
/// Every call carries a **continuation** `K`: what the call is for and
/// whom to answer when it ends. It is stored inline with the pending
/// request and handed back exactly once — by [`Rpc::accept`] on
/// completion, by [`TimerOutcome::Expired`] on expiry, by [`Rpc::cancel`],
/// or by [`Rpc::call`] itself when the send fails — so the caller keeps no
/// `rpc id → why` map of its own (DESIGN.md §D16), and a continuation may
/// own what cannot be copied (the [`Owed`] of the request the call
/// serves). Callers with a single kind of call use `K = ()`.
///
/// Owning process responsibilities:
/// * forward unknown timer tags `>= RPC_TAG_BASE` to [`Rpc::on_timer`];
/// * offer incoming payloads to [`Rpc::accept`] before other decoding.
pub struct Rpc<M, R, K = ()> {
    id_space: u64,
    /// Lazily derived from the owning process's pid so that request ids —
    /// which servers use for retry deduplication — never collide across
    /// processes.
    salt: Option<u64>,
    counter: u64,
    pending: DetHashMap<u64, Pending<M, K>>,
    _r: std::marker::PhantomData<fn() -> R>,
}

impl<M: Clone + Send + 'static, R: Send + 'static, K> Rpc<M, R, K> {
    /// `id_space` disambiguates correlation ids between several `Rpc`
    /// instances inside one process (use distinct small integers, < 128).
    pub fn new(id_space: u64) -> Rpc<M, R, K> {
        Rpc {
            id_space,
            salt: None,
            counter: 0,
            pending: DetHashMap::default(),
            _r: std::marker::PhantomData,
        }
    }

    /// Number of requests still awaiting replies.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The continuations of the requests still awaiting replies, in no
    /// particular order.
    pub fn awaiting(&self) -> impl Iterator<Item = &K> {
        self.pending.values().map(|p| &p.then)
    }

    /// Issue a request with a bounded retry budget (critical-response
    /// style). Fails fast, giving `then` back, if the target is dead or
    /// unreachable *now*.
    pub fn call(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: Target,
        body: M,
        timeout: SimDuration,
        retries: u32,
        then: K,
    ) -> Result<u64, K> {
        let id = self.fresh_id(ctx);
        let Some(dst) = target.resolve(ctx) else {
            return Err(then);
        };
        let request = Request {
            id,
            from: ctx.pid(),
            body: body.clone(),
        };
        if ctx.send(dst, Payload::new(request)).is_err() {
            return Err(then);
        }
        let timer = ctx.set_timer(timeout, RPC_TAG_BASE + id);
        self.pending.insert(
            id,
            Pending {
                target,
                body,
                timeout,
                retries_left: retries,
                timer,
                then,
            },
        );
        Ok(id)
    }

    /// Issue a request that is retried until it can be delivered and
    /// answered (safe-delivery style). Never fails at call time: if the
    /// target is unreachable the first attempt simply becomes a retry.
    pub fn call_persistent(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: Target,
        body: M,
        retry_interval: SimDuration,
        then: K,
    ) -> u64 {
        let id = self.fresh_id(ctx);
        if let Some(dst) = target.resolve(ctx) {
            let _ = ctx.send(
                dst,
                Payload::new(Request {
                    id,
                    from: ctx.pid(),
                    body: body.clone(),
                }),
            );
        }
        let timer = ctx.set_timer(retry_interval, RPC_TAG_BASE + id);
        self.pending.insert(
            id,
            Pending {
                target,
                body,
                timeout: retry_interval,
                retries_left: u32::MAX,
                timer,
                then,
            },
        );
        id
    }

    /// Offer an incoming payload. If it is a reply to one of our pending
    /// requests, the call completes. Non-replies and stale replies are
    /// given back as `Err`.
    pub fn accept(
        &mut self,
        ctx: &mut Ctx<'_>,
        payload: Payload,
    ) -> Result<Completion<R, K>, Payload> {
        // peek before unboxing: a reply that is not pending here (stale,
        // or addressed to another `Rpc` of the same process) goes back
        // untouched
        let mine = payload
            .downcast_ref::<RpcReply<R>>()
            .is_some_and(|reply| self.pending.contains_key(&reply.id));
        if !mine {
            return Err(payload);
        }
        let reply = payload.expect::<RpcReply<R>>();
        let p = self.pending.remove(&reply.id).expect("peeked above");
        ctx.cancel_timer(p.timer);
        Ok(Completion {
            id: reply.id,
            body: reply.body,
            then: p.then,
        })
    }

    /// Drive timeouts. Call for any timer tag `>= RPC_TAG_BASE`.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> TimerOutcome<M, K> {
        if tag < RPC_TAG_BASE {
            return TimerOutcome::NotMine;
        }
        let id = tag - RPC_TAG_BASE;
        let Some(p) = self.pending.get_mut(&id) else {
            return TimerOutcome::NotMine;
        };
        if p.retries_left == 0 {
            let p = self.pending.remove(&id).expect("present above");
            return TimerOutcome::Expired {
                id,
                body: p.body,
                then: p.then,
            };
        }
        if p.retries_left != u32::MAX {
            p.retries_left -= 1;
        }
        let body = p.body.clone();
        let target = p.target.clone();
        let timeout = p.timeout;
        if let Some(dst) = target.resolve(ctx) {
            let _ = ctx.send(
                dst,
                Payload::new(Request {
                    id,
                    from: ctx.pid(),
                    body,
                }),
            );
        }
        let timer = ctx.set_timer(timeout, RPC_TAG_BASE + id);
        self.pending.get_mut(&id).expect("still present").timer = timer;
        TimerOutcome::Resent
    }

    /// Abandon a pending request (e.g. the transaction it served aborted),
    /// handing its continuation back. `None` if `id` is not pending.
    pub fn cancel(&mut self, ctx: &mut Ctx<'_>, id: u64) -> Option<K> {
        let p = self.pending.remove(&id)?;
        ctx.cancel_timer(p.timer);
        Some(p.then)
    }

    /// `(id_space << 56) | (pid << 24) | call number`. A server remembers
    /// a request id to recognise its retransmissions, so an id must never
    /// be issued twice — not by this `Rpc`, and not by the same id space of
    /// another process: the call number has [`CALL_BITS`] bits to itself,
    /// and running out of them is a panic, not a quiet walk into the next
    /// pid's ids (whose remembered replies a server would then replay to
    /// this process).
    fn fresh_id(&mut self, ctx: &Ctx<'_>) -> u64 {
        let salt = *self
            .salt
            .get_or_insert_with(|| (self.id_space << 56) | ((ctx.pid().index as u64) << CALL_BITS));
        assert!(
            self.counter < 1 << CALL_BITS,
            "{} issued 2^{CALL_BITS} calls from one Rpc (id space {}): request ids would repeat",
            ctx.pid(),
            self.id_space
        );
        let id = salt + self.counter;
        self.counter += 1;
        id
    }
}

/// Bits of a request id that count one [`Rpc`]'s calls: 16 777 216 of them.
/// The busiest `Rpc` of any harness here issues on the order of 10^4 (the
/// TMP's disc calls over the repo benchmark's 4 800 single-node commits; a
/// soak seed's simulated hour peaks near 4 000), so the budget is three
/// orders of magnitude past the longest run there is, and the 32 bits above
/// it hold any pid.
const CALL_BITS: u32 = 24;

/// A one-shot client: spawn a process on `node`/`cpu` that sends `target`
/// one persistent request (retried every `retry` until answered — across a
/// takeover a named target finds the new primary), keeps the reply and
/// exits. The returned slot is `None` until (unless) the reply arrives.
/// `id_space` is as for [`Rpc::new`].
pub fn ask<M: Clone + Send + 'static, R: Send + 'static>(
    world: &mut World,
    node: NodeId,
    cpu: u8,
    id_space: u64,
    target: Target,
    msg: M,
    retry: SimDuration,
) -> Rc<RefCell<Option<R>>> {
    let out = Rc::new(RefCell::new(None));
    world.spawn(
        node,
        cpu,
        Box::new(Ask {
            request: Some((target, msg, retry)),
            rpc: Rpc::new(id_space),
            out: out.clone(),
        }),
    );
    out
}

struct Ask<M, R> {
    /// Handed to the rpc by `on_start`.
    request: Option<(Target, M, SimDuration)>,
    rpc: Rpc<M, R>,
    out: Rc<RefCell<Option<R>>>,
}

impl<M: Clone + Send + 'static, R: Send + 'static> Process for Ask<M, R> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let (target, msg, retry) = self.request.take().expect("a process starts once");
        self.rpc.call_persistent(ctx, target, msg, retry, ());
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if let Ok(c) = self.rpc.accept(ctx, payload) {
            *self.out.borrow_mut() = Some(c.body);
            ctx.exit();
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        // a persistent call never expires: every outcome is a resend
        let _ = self.rpc.on_timer(ctx, tag);
    }

    fn kind(&self) -> &'static str {
        "ask"
    }
}

/// A request a server admitted and has not answered yet: its id and the
/// process its one reply goes to. Only [`Served::admit`] mints one and only
/// [`Served::answer`], [`Served::answer_uncached`] and [`Served::forget`]
/// consume it, so the record a request parks in holds its `Owed`, and the
/// request is *in progress* exactly while that record exists (DESIGN.md
/// §D20). It cannot be copied, built by hand, or answered twice:
///
/// ```compile_fail
/// fn both(owed: guardian::Owed) -> (guardian::Owed, guardian::Owed) {
///     let copy = owed.clone();
///     (owed, copy)
/// }
/// ```
/// ```compile_fail
/// fn forge(to: encompass_sim::Pid) -> guardian::Owed {
///     guardian::Owed { id: 7, to }
/// }
/// ```
/// ```compile_fail
/// use guardian::{Owed, Served};
/// fn twice(s: &mut Served<u32>, ctx: &mut encompass_sim::Ctx<'_>, owed: Owed) {
///     s.answer(ctx, owed, 1);
///     s.answer(ctx, owed, 2);
/// }
/// ```
#[derive(Debug)]
#[must_use = "an admitted request stays pending until its Owed is answered or forgotten"]
pub struct Owed {
    id: u64,
    to: Pid,
}

impl Owed {
    /// The id of the request this answers.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// What [`Served::admit`] made of an incoming payload.
pub enum Admitted<M> {
    /// Not a `Request<M>`: the payload, untouched.
    NotARequest(Payload),
    /// Already answered; the remembered reply was sent again.
    Replayed,
    /// A retransmission of a request still pending. The record it parked
    /// in answers it, so most servers drop this, token and all; one that
    /// re-drives work on a retransmission handles it again (a second
    /// answer to an id re-sends the reply and keeps its place in memory).
    Duplicate(Owed, M),
    /// Not seen before, or so long ago that its reply was evicted: now
    /// pending.
    Fresh(Owed, M),
}

/// The index's mark for an id admitted and not yet answered.
const PENDING: u64 = u64::MAX;

/// The serving side of request/reply: one per server. A request id is
/// *pending* (admitted, not yet answered) or *answered* (the reply, kept
/// to replay to retransmissions). At most `capacity` answers are kept, the
/// oldest evicted first.
///
/// The answers live in a ring, oldest first. Only a primary looks them up,
/// so the id index is built from the ring by the first [`Served::admit`]
/// or [`Served::forget`]: a pair's backup learns answers through
/// [`Served::record`] and [`Served::restore`], which only append to the
/// ring, and indexes that log at its first request after a takeover. A
/// backup never holds a pending id, so a takeover has none to discard.
pub struct Served<R> {
    capacity: usize,
    /// The remembered `(id, reply)` pairs, oldest first.
    ring: VecDeque<(u64, R)>,
    /// Answers ever pushed on the ring: the position of the next one.
    pushed: u64,
    /// id → [`PENDING`] or the position of its answer; `None` until the
    /// first `admit` or `forget`.
    index: Option<DetHashMap<u64, u64>>,
}

impl<R: Clone + Send + 'static> Served<R> {
    pub fn new(capacity: usize) -> Served<R> {
        Served {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            pushed: 0,
            index: None,
        }
    }

    /// Offer an incoming payload: see [`Admitted`].
    pub fn admit<M: Send + 'static>(&mut self, ctx: &mut Ctx<'_>, payload: Payload) -> Admitted<M> {
        let req = match payload.downcast::<Request<M>>() {
            Ok(req) => req,
            Err(other) => return Admitted::NotARequest(other),
        };
        let owed = Owed {
            id: req.id,
            to: req.from,
        };
        let at = match self.index().entry(req.id) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                slot.insert(PENDING);
                return Admitted::Fresh(owed, req.body);
            }
        };
        if at == PENDING {
            return Admitted::Duplicate(owed, req.body);
        }
        let cached = self.ring[self.slot(at)].1.clone();
        reply(ctx, owed.id, owed.to, cached);
        Admitted::Replayed
    }

    /// Remember `body` as the answer and send it. A second answer to an id
    /// still remembered replaces the first and keeps its place.
    pub fn answer(&mut self, ctx: &mut Ctx<'_>, owed: Owed, body: R) {
        let next = self.pushed;
        let at = *self
            .index()
            .entry(owed.id)
            .and_modify(|at| {
                if *at == PENDING {
                    *at = next;
                }
            })
            .or_insert(next);
        if at == next {
            self.push(owed.id, body.clone());
        } else {
            let slot = self.slot(at);
            self.ring[slot].1 = body.clone();
        }
        reply(ctx, owed.id, owed.to, body);
    }

    /// Send `body` without remembering it: for idempotent queries, which a
    /// retransmission simply runs again.
    pub fn answer_uncached(&mut self, ctx: &mut Ctx<'_>, owed: Owed, body: R) {
        reply(ctx, owed.id, owed.to, body);
        self.forget(owed);
    }

    /// Drop a request unanswered, on purpose: a retransmission is admitted
    /// afresh.
    pub fn forget(&mut self, owed: Owed) {
        if let Entry::Occupied(slot) = self.index().entry(owed.id) {
            if *slot.get() == PENDING {
                slot.remove();
            }
        }
    }

    /// Remember that `id` was answered with `body` (a backup applying its
    /// primary's checkpoint). `record` takes only an id's *first* answer:
    /// an unindexed `Served` (a backup's) appends it without a lookup, so
    /// a second one is caught when the log is indexed, as it is at once
    /// when already indexed: either panics, naming the id.
    pub fn record(&mut self, id: u64, body: R) {
        if let Some(index) = &mut self.index {
            let first = index.insert(id, self.pushed).is_none_or(|at| at == PENDING);
            assert!(first, "{}", recorded_twice(id));
        }
        self.push(id, body);
    }

    /// Requests admitted and not yet answered.
    pub fn pending(&self) -> usize {
        self.index
            .as_ref()
            .map_or(0, |index| index.len() - self.ring.len())
    }

    /// Remembered replies (at most the capacity).
    pub fn answered(&self) -> usize {
        self.ring.len()
    }

    /// The remembered `(id, reply)` pairs, oldest first (for a pair's
    /// snapshot).
    pub fn entries(&self) -> Vec<(u64, R)> {
        self.ring.iter().cloned().collect()
    }

    /// Replace everything held with `entries` (the inverse of
    /// [`Self::entries`]), unindexed.
    pub fn restore(&mut self, entries: Vec<(u64, R)>) {
        self.ring.clear();
        self.index = None;
        for (id, r) in entries {
            self.push(id, r);
        }
    }

    /// Append an answer, evicting the oldest first when the ring is full
    /// (so a full ring never grows). If there is an index, the caller has
    /// pointed `id` at the position this push takes.
    fn push(&mut self, id: u64, body: R) {
        if self.ring.len() == self.capacity {
            if let Some((old, _)) = self.ring.pop_front() {
                if let Some(index) = &mut self.index {
                    index.remove(&old);
                }
            }
        }
        self.ring.push_back((id, body));
        self.pushed += 1;
    }

    /// Where in the ring the answer pushed at position `at` sits.
    fn slot(&self, at: u64) -> usize {
        (at + self.ring.len() as u64 - self.pushed) as usize
    }

    /// The id index, built from the ring on first use.
    fn index(&mut self) -> &mut DetHashMap<u64, u64> {
        let (ring, first) = (&self.ring, self.pushed - self.ring.len() as u64);
        self.index.get_or_insert_with(|| {
            let mut index = DetHashMap::default();
            index.reserve(ring.len());
            for ((id, _), at) in ring.iter().zip(first..) {
                assert!(index.insert(*id, at).is_none(), "{}", recorded_twice(*id));
            }
            index
        })
    }
}

fn recorded_twice(id: u64) -> String {
    format!("request {id} was recorded twice: Served::record takes only an id's first answer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use encompass_sim::{Fault, SimConfig};

    #[derive(Clone, Debug)]
    struct Ping(u32);
    #[derive(Debug, Clone, PartialEq)]
    struct Pong(u32);

    /// Echo server that can be configured to ignore the first `drop_first`
    /// requests (simulating loss) while still counting them.
    struct FlakyServer {
        drop_first: u32,
        seen: Rc<RefCell<u32>>,
    }
    impl Process for FlakyServer {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
            let req = payload.expect::<Request<Ping>>();
            *self.seen.borrow_mut() += 1;
            if self.drop_first > 0 {
                self.drop_first -= 1;
                return;
            }
            reply(ctx, req.id, req.from, Pong(req.body.0 * 2));
        }
    }

    struct Client {
        server: Target,
        rpc: Rpc<Ping, Pong, u64>,
        retries: u32,
        outcome: Rc<RefCell<Vec<String>>>,
    }
    impl Process for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let r = self.rpc.call(
                ctx,
                self.server.clone(),
                Ping(21),
                SimDuration::from_millis(10),
                self.retries,
                7,
            );
            if r.is_err() {
                self.outcome.borrow_mut().push("send-error".into());
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
            match self.rpc.accept(ctx, payload) {
                Ok(c) => self
                    .outcome
                    .borrow_mut()
                    .push(format!("ok:{}:{}", c.body.0, c.then)),
                Err(_) => self.outcome.borrow_mut().push("stray".into()),
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
            match self.rpc.on_timer(ctx, tag) {
                TimerOutcome::Expired { then, .. } => {
                    self.outcome.borrow_mut().push(format!("expired:{then}"))
                }
                TimerOutcome::Resent => self.outcome.borrow_mut().push("resent".into()),
                TimerOutcome::NotMine => {}
            }
        }
    }

    fn world() -> (World, NodeId) {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(4);
        (w, n)
    }

    /// The last call number is issued; the one after it would be the first
    /// id of the next pid in the same id space, and must not be.
    #[test]
    #[should_panic(expected = "request ids would repeat")]
    fn exhausting_the_call_numbers_is_loud() {
        struct Exhausted {
            rpc: Rpc<Ping, Pong>,
            neighbour: Rpc<Ping, Pong>,
        }
        impl Process for Exhausted {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // what the process spawned next would issue first
                let mut next_door = Ctx::pid(ctx);
                next_door.index += 1;
                self.neighbour.salt = Some((5 << 56) | ((next_door.index as u64) << CALL_BITS));
                let theirs = self.neighbour.fresh_id(ctx);

                self.rpc.counter = (1 << CALL_BITS) - 1;
                let last = self.rpc.fresh_id(ctx);
                assert_eq!(
                    last + 1,
                    theirs,
                    "the last id sits right below the neighbour's"
                );
                let beyond = self.rpc.fresh_id(ctx);
                assert_ne!(beyond, theirs, "two processes issued the same request id");
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: Pid, _: Payload) {}
        }
        let (mut w, n) = world();
        w.spawn(
            n,
            0,
            Box::new(Exhausted {
                rpc: Rpc::new(5),
                neighbour: Rpc::new(5),
            }),
        );
        w.run_until_quiescent();
    }

    #[test]
    fn call_completes() {
        let (mut w, n) = world();
        let seen = Rc::new(RefCell::new(0));
        let srv = w.spawn(
            n,
            0,
            Box::new(FlakyServer {
                drop_first: 0,
                seen: seen.clone(),
            }),
        );
        let outcome = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            n,
            1,
            Box::new(Client {
                server: Target::Pid(srv),
                rpc: Rpc::new(0),
                retries: 0,
                outcome: outcome.clone(),
            }),
        );
        w.run_until_quiescent();
        assert_eq!(outcome.borrow().as_slice(), &["ok:42:7".to_string()]);
    }

    #[test]
    fn retransmits_until_answered() {
        let (mut w, n) = world();
        let seen = Rc::new(RefCell::new(0));
        let srv = w.spawn(
            n,
            0,
            Box::new(FlakyServer {
                drop_first: 2,
                seen: seen.clone(),
            }),
        );
        let outcome = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            n,
            1,
            Box::new(Client {
                server: Target::Pid(srv),
                rpc: Rpc::new(0),
                retries: 5,
                outcome: outcome.clone(),
            }),
        );
        w.run_until_quiescent();
        assert_eq!(*seen.borrow(), 3, "two dropped + one answered");
        assert_eq!(
            outcome.borrow().as_slice(),
            &[
                "resent".to_string(),
                "resent".to_string(),
                "ok:42:7".to_string()
            ]
        );
    }

    #[test]
    fn bounded_retries_expire() {
        let (mut w, n) = world();
        let seen = Rc::new(RefCell::new(0));
        let srv = w.spawn(
            n,
            0,
            Box::new(FlakyServer {
                drop_first: u32::MAX,
                seen,
            }),
        );
        let outcome = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            n,
            1,
            Box::new(Client {
                server: Target::Pid(srv),
                rpc: Rpc::new(0),
                retries: 2,
                outcome: outcome.clone(),
            }),
        );
        w.run_until_quiescent();
        assert_eq!(
            outcome.borrow().as_slice(),
            &[
                "resent".to_string(),
                "resent".to_string(),
                "expired:7".to_string()
            ]
        );
    }

    #[test]
    fn named_target_follows_reregistration() {
        // a "takeover": the name moves to a second server between retries
        struct NamedServer {
            answer: bool,
        }
        impl Process for NamedServer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                if !self.answer {
                    ctx.register_name("$SVC");
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
                let req = payload.expect::<Request<Ping>>();
                if self.answer {
                    reply(ctx, req.id, req.from, Pong(req.body.0));
                }
            }
        }
        let (mut w, n) = world();
        let silent = w.spawn(n, 0, Box::new(NamedServer { answer: false }));
        let answering = w.spawn(n, 2, Box::new(NamedServer { answer: true }));
        w.run_until_quiescent();
        let outcome = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            n,
            1,
            Box::new(Client {
                server: Target::Named(n, "$SVC".into()),
                rpc: Rpc::new(0),
                retries: 10,
                outcome: outcome.clone(),
            }),
        );
        // after 15ms, kill the silent primary and move the name
        w.run_for(SimDuration::from_millis(15));
        w.inject(Fault::KillProcess(silent));
        w.register_name(n, "$SVC", answering);
        w.run_until_quiescent();
        assert_eq!(outcome.borrow().last().unwrap(), "ok:21:7");
    }

    #[test]
    fn persistent_call_survives_partition() {
        let mut w = World::new(SimConfig::default());
        let a = w.add_node(2);
        let b = w.add_node(2);
        let _l = w.add_link(a, b, SimDuration::from_millis(1));
        let seen = Rc::new(RefCell::new(0));
        let srv = w.spawn(
            b,
            0,
            Box::new(FlakyServer {
                drop_first: 0,
                seen: seen.clone(),
            }),
        );

        // partition before the client even starts
        w.inject(Fault::Partition(vec![b]));
        let done = ask::<Ping, Pong>(
            &mut w,
            a,
            0,
            0,
            Target::Pid(srv),
            Ping(1),
            SimDuration::from_millis(20),
        );
        w.run_for(SimDuration::from_millis(200));
        assert!(done.borrow().is_none(), "unreachable while partitioned");
        w.inject(Fault::HealAllLinks);
        w.run_for(SimDuration::from_millis(200));
        assert_eq!(
            *done.borrow(),
            Some(Pong(2)),
            "delivered after the partition healed"
        );
    }

    #[test]
    fn distinct_id_spaces_do_not_collide() {
        // servers deduplicate retries by request id alone, so ids must be
        // unique across the `Rpc`s of one process (the id space) and
        // across processes using the same id space (the pid salt)
        struct TwoClients {
            sink: Pid,
            rpcs: [Rpc<Ping, Pong>; 2],
            issued: Rc<RefCell<Vec<u64>>>,
        }
        impl Process for TwoClients {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..3 {
                    for rpc in &mut self.rpcs {
                        let id = rpc.call_persistent(
                            ctx,
                            Target::Pid(self.sink),
                            Ping(0),
                            SimDuration::from_secs(1),
                            (),
                        );
                        self.issued.borrow_mut().push(id);
                    }
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, _payload: Payload) {}
        }
        let (mut w, n) = world();
        let sink = w.spawn(
            n,
            0,
            Box::new(FlakyServer {
                drop_first: u32::MAX,
                seen: Rc::new(RefCell::new(0)),
            }),
        );
        let issued = Rc::new(RefCell::new(Vec::new()));
        for cpu in [1, 2] {
            w.spawn(
                n,
                cpu,
                Box::new(TwoClients {
                    sink,
                    rpcs: [Rpc::new(1), Rpc::new(2)],
                    issued: issued.clone(),
                }),
            );
        }
        w.run_for(SimDuration::from_millis(1));
        let issued = issued.borrow();
        assert_eq!(
            issued.len(),
            12,
            "two processes, two rpcs each, three calls"
        );
        let distinct: std::collections::BTreeSet<u64> = issued.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            issued.len(),
            "request ids collide: {issued:?}"
        );
    }

    /// Runs `f` in a process's first event, for a `Ctx` to admit with.
    fn in_handler(f: impl FnOnce(&mut Ctx<'_>) + 'static) {
        struct Once<F>(Option<F>);
        impl<F: FnOnce(&mut Ctx<'_>) + 'static> Process for Once<F> {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                if let Some(f) = self.0.take() {
                    f(ctx);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: Pid, _: Payload) {}
        }
        let (mut w, n) = world();
        w.spawn(n, 0, Box::new(Once(Some(f))));
        w.run_until_quiescent();
    }

    fn ping(ctx: &Ctx<'_>, id: u64) -> Payload {
        Payload::new(Request {
            id,
            from: ctx.pid(),
            body: Ping(0),
        })
    }

    /// A backup's writes (`record`, `restore`) and the reads a snapshot or
    /// state report makes leave its answers an unindexed log; the first
    /// request indexes it.
    #[test]
    fn only_a_request_builds_the_index() {
        in_handler(|ctx| {
            let mut served: Served<u32> = Served::new(4);
            for id in 0..6 {
                served.record(id, id as u32 * 10);
            }
            let log = served.entries();
            served.restore(log.clone());
            served.record(6, 60);
            assert_eq!((served.answered(), served.pending()), (4, 0));
            assert_eq!(served.entries(), [(3, 30), (4, 40), (5, 50), (6, 60)]);
            assert!(served.index.is_none(), "a backup's log is not indexed");

            let replayed = served.admit::<Ping>(ctx, ping(ctx, 5));
            assert!(matches!(replayed, Admitted::Replayed));
            assert!(served.index.is_some(), "a request indexes it");
            assert!(matches!(
                served.admit::<Ping>(ctx, ping(ctx, 2)),
                Admitted::Fresh(..)
            ));
            assert_eq!((served.answered(), served.pending()), (4, 1));
        });
    }

    #[test]
    #[should_panic(expected = "request 7 was recorded twice")]
    fn indexing_a_log_that_holds_an_id_twice_names_the_id() {
        in_handler(|ctx| {
            let mut served: Served<u32> = Served::new(4);
            served.record(7, 1);
            served.record(8, 2);
            served.record(7, 3);
            let _ = served.admit::<Ping>(ctx, ping(ctx, 9));
        });
    }
}
