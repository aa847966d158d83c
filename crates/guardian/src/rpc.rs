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
//! the remembered reply instead of running a request twice. Every request
//! carries its requester's *floor*, the lowest call it still has
//! outstanding, so a server remembers an answer only while its requester
//! can still ask for it again.

use encompass_sim::{
    counter, CpuId, Ctx, DetHashMap, Floored, Name, NodeId, Payload, Pid, Process, SimDuration,
    TimerId, World,
};
use std::cell::RefCell;
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
    /// Send request `id` here with its requester's `floor`, resolving a
    /// name now: whether it went out.
    fn send<M: Clone + Send + 'static>(
        &self,
        ctx: &mut Ctx<'_>,
        id: u64,
        floor: u64,
        body: &M,
    ) -> bool {
        let dst = match self {
            Target::Pid(p) => Some(*p),
            Target::Named(node, name) => ctx.lookup_name(*node, name),
        };
        let Some(dst) = dst else {
            return false;
        };
        let (from, body) = (ctx.pid(), body.clone());
        ctx.send(
            dst,
            Payload::new(Request {
                id,
                from,
                floor,
                body,
            }),
        )
        .is_ok()
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
    /// The lowest id its [`Rpc`] still had outstanding when this copy was
    /// sent (at most `id`): every call of the requester below it has
    /// ended, so a server may forget their answers.
    pub floor: u64,
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
    /// The call number of the lowest call still outstanding, `counter` if
    /// none is: every request carries it ([`Request::floor`]).
    floor: u64,
    pending: DetHashMap<u64, Pending<M, K>>,
    _r: std::marker::PhantomData<fn() -> R>,
}

impl<M: Clone + Send + 'static, R: Send + 'static, K> Rpc<M, R, K> {
    /// `id_space` disambiguates correlation ids between several `Rpc`
    /// instances inside one process: use distinct integers below 256, the
    /// top byte of every id this `Rpc` issues ([`space_of`]).
    pub fn new(id_space: u64) -> Rpc<M, R, K> {
        assert!(
            id_space < ID_SPACES as u64,
            "id space {id_space} does not fit the top byte of a request id"
        );
        Rpc {
            id_space,
            salt: None,
            counter: 0,
            floor: 0,
            pending: DetHashMap::default(),
            _r: std::marker::PhantomData,
        }
    }

    /// The id space given to [`Rpc::new`]: [`space_of`] every id this
    /// `Rpc` issues.
    pub fn id_space(&self) -> u64 {
        self.id_space
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
        if !target.send(ctx, id, self.floor_id(), &body) {
            self.ended(id);
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
        target.send(ctx, id, self.floor_id(), &body);
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
        let Some(id) = payload.downcast_ref::<RpcReply<R>>().map(|r| r.id) else {
            return Err(payload);
        };
        let Some(p) = self.pending.remove(&id) else {
            return Err(payload);
        };
        let reply = payload.expect::<RpcReply<R>>();
        ctx.cancel_timer(p.timer);
        self.ended(id);
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
        let floor = self.floor_id();
        let Some(p) = self.pending.get_mut(&id) else {
            return TimerOutcome::NotMine;
        };
        if p.retries_left == 0 {
            let p = self.pending.remove(&id).expect("present above");
            self.ended(id);
            return TimerOutcome::Expired {
                id,
                body: p.body,
                then: p.then,
            };
        }
        if p.retries_left != u32::MAX {
            p.retries_left -= 1;
        }
        ctx.count(counter!("rpc.retransmits"), 1);
        p.target.send(ctx, id, floor, &p.body);
        p.timer = ctx.set_timer(p.timeout, RPC_TAG_BASE + id);
        TimerOutcome::Resent
    }

    /// Abandon a pending request (e.g. the transaction it served aborted),
    /// handing its continuation back. `None` if `id` is not pending.
    pub fn cancel(&mut self, ctx: &mut Ctx<'_>, id: u64) -> Option<K> {
        let p = self.pending.remove(&id)?;
        ctx.cancel_timer(p.timer);
        self.ended(id);
        Some(p.then)
    }

    /// The floor as an id, as requests carry it.
    fn floor_id(&self) -> u64 {
        self.salt.unwrap_or(0) + self.floor
    }

    /// Call `id` is no longer outstanding. If it was the lowest, the floor
    /// moves up to the next call still outstanding: each call number is
    /// passed once, so this costs one `pending` probe per call.
    fn ended(&mut self, id: u64) {
        let salt = self.salt.unwrap_or(0);
        if id != salt + self.floor {
            return;
        }
        self.floor += 1;
        while self.floor < self.counter && !self.pending.contains_key(&(salt + self.floor)) {
            self.floor += 1;
        }
    }

    /// `(id_space << 56) | (pid << 24) | call number`. A server remembers
    /// a request id to recognise its retransmissions while the id is at or
    /// above its requester's floor, and refuses it below, so an id must
    /// never be issued twice — not by this `Rpc`, and not by the same id space of
    /// another process: the call number has [`CALL_BITS`] bits to itself,
    /// and running out of them is a panic, not a quiet walk into the next
    /// pid's ids (whose remembered replies a server would then replay to
    /// this process).
    fn fresh_id(&mut self, ctx: &Ctx<'_>) -> u64 {
        let salt = *self.salt.get_or_insert_with(|| {
            (self.id_space << SPACE_SHIFT) | ((ctx.pid().index as u64) << CALL_BITS)
        });
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

/// Bits of a request id that name the issuing [`Rpc`]'s id space: the top
/// byte, above the call number and the 32 bits of pid.
const SPACE_BITS: u32 = 8;
const SPACE_SHIFT: u32 = u64::BITS - SPACE_BITS;

/// How many id spaces there are: every [`space_of`] is below it, so a
/// table indexed by id space has this many slots.
pub const ID_SPACES: usize = 1 << SPACE_BITS;

/// The id space of the [`Rpc`] that issued request id `id`: a process
/// holding several `Rpc`s routes a reply (or an rpc timer, `tag -
/// RPC_TAG_BASE`) to the one `Rpc` that can accept it, without offering it
/// to the others.
pub fn space_of(id: u64) -> u64 {
    id >> SPACE_SHIFT
}

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

/// A request a server admitted and has not answered yet: who asked what
/// (its [`Asked`]), and so where its one reply goes. Only
/// [`Served::admit`] mints one and only [`Served::answer`],
/// [`Served::answer_uncached`] and [`Served::forget`] consume it, so the
/// record a request parks in holds its `Owed`, and the request is *in
/// progress* exactly while that record exists (DESIGN.md §D20). It cannot
/// be copied, built by hand, or answered twice:
///
/// ```compile_fail
/// fn both(owed: guardian::Owed) -> (guardian::Owed, guardian::Owed) {
///     let copy = owed.clone();
///     (owed, copy)
/// }
/// ```
/// ```compile_fail
/// fn forge(asked: guardian::Asked) -> guardian::Owed {
///     guardian::Owed { asked }
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
    asked: Asked,
}

impl Owed {
    /// The id of the request this answers.
    pub fn id(&self) -> u64 {
        self.asked.id
    }

    /// What a backup needs to remember this request's answer: the
    /// argument of [`Served::record`], carried by the checkpoint that
    /// records the answer.
    pub fn asked(&self) -> Asked {
        self.asked
    }
}

/// Who asked what, as far as a reply memory cares: a request's id, the
/// process it came from, and its requester's floor when that copy was
/// sent ([`Request::floor`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Asked {
    pub id: u64,
    pub from: Pid,
    pub floor: u64,
}

/// What [`Served::admit`] made of an incoming payload.
pub enum Admitted<M> {
    /// Not a `Request<M>`: the payload, untouched.
    NotARequest(Payload),
    /// Nothing to do: the request was answered and the remembered reply
    /// was sent again, or it is a stale copy below its requester's floor
    /// (a call that has ended there), refused unanswered and counted as
    /// `rpc.stale_refused`.
    Replayed,
    /// A retransmission of a request still pending. The record it parked
    /// in answers it, so most servers drop this, token and all; one that
    /// re-drives work on a retransmission handles it again (a second
    /// answer to an id re-sends the reply and keeps its place in memory).
    Duplicate(Owed, M),
    /// Not seen before: now pending.
    Fresh(Owed, M),
}

/// The serving side of request/reply: one per server. A request id is
/// *pending* (admitted, not yet answered) or *answered* (the reply, kept
/// to replay to retransmissions).
///
/// What is kept is bounded by what requesters can still ask, not by a
/// capacity. A *requester* is one [`Rpc`] of one process (the id space
/// and pid in an id's top bits), and each of its requests carries its
/// floor: the lowest call it still has outstanding. For each requester a
/// `Served` keeps a [`Floored`]: the highest floor it has seen, the ids
/// pending, and the answers at or above that floor, in id order; a later
/// request that raises the floor drops the answers below it. A copy of a
/// request below the floor belongs to a call that has ended at its
/// requester, so it is refused: neither run nor answered. Every answer a
/// requester may still ask for stays, so no retransmission runs twice.
/// A requester's entries go with the CPU it ran on ([`Served::forget_cpu`]).
///
/// A pair's backup learns answers through [`Served::record`], whose
/// [`Asked`] carries the requester's floor, and [`Served::restore`]. A
/// backup never holds a pending id, so a takeover has none to discard.
pub struct Served<R> {
    /// Requester (`id >> CALL_BITS`) → its process, whose CPU takes these
    /// entries with it, and its calls: pending ids (`None`) and answers.
    /// A pending id below the floor stays until it is answered or
    /// forgotten.
    requesters: DetHashMap<u64, (Pid, Calls<R>)>,
}

/// One requester's calls, its floor an id of its own.
type Calls<R> = Floored<u64, Option<R>>;

/// What a [`Served`] hands a fresh backup ([`Served::entries`]): every
/// requester's floor and the answers kept at or above it, in requester
/// order, so that two `Served` holding the same compare equal.
#[derive(Clone, Debug, PartialEq)]
pub struct ServedSnapshot<R> {
    /// `(requester, its floor)`.
    floors: Vec<(Pid, u64)>,
    /// `(id, reply)`, ids ascending.
    answers: Vec<(u64, R)>,
}

impl<R> ServedSnapshot<R> {
    /// Every requester known, and its floor, in requester order.
    pub fn floors(&self) -> &[(Pid, u64)] {
        &self.floors
    }

    /// The answers kept, ids ascending.
    pub fn answers(&self) -> &[(u64, R)] {
        &self.answers
    }
}

impl<R: Clone + Send + 'static> Served<R> {
    pub fn new() -> Served<R> {
        Served {
            requesters: DetHashMap::default(),
        }
    }

    /// Offer an incoming payload: see [`Admitted`].
    pub fn admit<M: Send + 'static>(&mut self, ctx: &mut Ctx<'_>, payload: Payload) -> Admitted<M> {
        let req = match payload.downcast::<Request<M>>() {
            Ok(req) => req,
            Err(other) => return Admitted::NotARequest(other),
        };
        let owed = Owed {
            asked: Asked {
                id: req.id,
                from: req.from,
                floor: req.floor,
            },
        };
        let calls = self.raise(owed.asked);
        if req.id < calls.floor() {
            ctx.count(counter!("rpc.stale_refused"), 1);
            return Admitted::Replayed;
        }
        // mark the id pending in one search: an answered id gets its
        // answer back
        match calls.insert(req.id, None) {
            None => Admitted::Fresh(owed, req.body),
            Some(None) => Admitted::Duplicate(owed, req.body),
            Some(Some(cached)) => {
                reply(ctx, req.id, req.from, cached.clone());
                calls.insert(req.id, Some(cached));
                Admitted::Replayed
            }
        }
    }

    /// Remember `body` as the answer and send it. A second answer to an id
    /// still remembered replaces the first and keeps its place; an answer
    /// below its requester's floor is sent and not kept.
    pub fn answer(&mut self, ctx: &mut Ctx<'_>, owed: Owed, body: R) {
        let Asked { id, from, .. } = owed.asked;
        if let Some(calls) = self.calls(id) {
            // only pending ids are held below the floor
            if id < calls.floor() {
                calls.remove(&id);
            } else if let Some(slot) = calls.get_mut(&id) {
                *slot = Some(body.clone());
            }
        }
        reply(ctx, id, from, body);
    }

    /// Send `body` without remembering it: for idempotent queries, which a
    /// retransmission simply runs again.
    pub fn answer_uncached(&mut self, ctx: &mut Ctx<'_>, owed: Owed, body: R) {
        reply(ctx, owed.asked.id, owed.asked.from, body);
        self.forget(owed);
    }

    /// Drop a request unanswered, on purpose: a retransmission is admitted
    /// afresh.
    pub fn forget(&mut self, owed: Owed) {
        let id = owed.asked.id;
        if let Some(calls) = self.calls(id) {
            if calls.get(&id).is_some_and(Option::is_none) {
                calls.remove(&id);
            }
        }
    }

    /// Remember that a request was answered with `body` (a backup applying
    /// its primary's checkpoint), raising its requester's floor to the one
    /// `asked` carries. `record` takes only an id's *first* answer: a
    /// second panics, naming the id.
    pub fn record(&mut self, asked: Asked, body: R) {
        let calls = self.raise(asked);
        if asked.id >= calls.floor() {
            let first = calls.insert(asked.id, Some(body));
            assert!(first.flatten().is_none(), "{}", recorded_twice(asked.id));
        }
    }

    /// Drop everything kept for the requesters that ran on `cpu` of
    /// `node`, which failed: they can ask nothing again.
    pub fn forget_cpu(&mut self, node: NodeId, cpu: CpuId) {
        (self.requesters).retain(|_, (from, _)| from.node != node || from.cpu != cpu);
    }

    /// Requests admitted and not yet answered.
    pub fn pending(&self) -> usize {
        self.held().filter(|(_, answer)| answer.is_none()).count()
    }

    /// Remembered replies.
    pub fn answered(&self) -> usize {
        self.held().filter(|(_, answer)| answer.is_some()).count()
    }

    /// Remembered replies below their requester's floor: 0, or the floor
    /// rule is broken (the bounded-state oracle reads it).
    pub fn below_floor(&self) -> usize {
        self.held()
            .filter(|&(below, answer)| below && answer.is_some())
            .count()
    }

    /// Every requester's floor and the answers kept (for a pair's
    /// snapshot).
    pub fn entries(&self) -> ServedSnapshot<R> {
        let mut keys: Vec<u64> = self.requesters.keys().copied().collect();
        keys.sort_unstable();
        let mut snapshot = ServedSnapshot {
            floors: Vec::with_capacity(keys.len()),
            answers: Vec::with_capacity(self.answered()),
        };
        for key in keys {
            let (from, calls) = &self.requesters[&key];
            snapshot.floors.push((*from, calls.floor()));
            let kept = calls.iter().filter_map(|(id, a)| Some((*id, a.clone()?)));
            snapshot.answers.extend(kept);
        }
        snapshot
    }

    /// Replace everything held with `snapshot` (the inverse of
    /// [`Self::entries`]).
    pub fn restore(&mut self, snapshot: ServedSnapshot<R>) {
        *self = Served::new();
        for (from, floor) in snapshot.floors {
            (self.requesters).insert(floor >> CALL_BITS, (from, Floored::new(floor)));
        }
        for (id, body) in snapshot.answers {
            let calls = (self.calls(id)).expect("a snapshot's answers belong to its requesters");
            calls.insert(id, Some(body));
        }
    }

    /// The calls of `asked`'s requester, its floor raised to the one
    /// `asked` carries (dropping the answers below it).
    fn raise(&mut self, asked: Asked) -> &mut Calls<R> {
        let key = asked.id >> CALL_BITS;
        // a hand-built request's floor may be 0: hold it to the
        // requester's own ids, at or below the one it rides with
        let floor = asked.floor.clamp(key << CALL_BITS, asked.id);
        let (_, calls) =
            (self.requesters.entry(key)).or_insert_with(|| (asked.from, Floored::new(floor)));
        // a pending id the requester stopped waiting for holds its place
        calls.raise(floor, Option::is_none);
        calls
    }

    /// The calls of `id`'s requester, if it is known.
    fn calls(&mut self, id: u64) -> Option<&mut Calls<R>> {
        let (_, calls) = self.requesters.get_mut(&(id >> CALL_BITS))?;
        Some(calls)
    }

    /// Every entry held, and whether it is below its requester's floor.
    fn held(&self) -> impl Iterator<Item = (bool, &Option<R>)> {
        (self.requesters.values())
            .flat_map(|(_, calls)| calls.iter().map(move |(id, a)| (*id < calls.floor(), a)))
    }
}

impl<R: Clone + Send + 'static> Default for Served<R> {
    fn default() -> Served<R> {
        Served::new()
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
                self.neighbour.salt =
                    Some((5 << SPACE_SHIFT) | ((next_door.index as u64) << CALL_BITS));
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
        assert_eq!(w.metrics().get("rpc.retransmits"), 2, "each resend counted");
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

    /// Every id names its `Rpc`'s space, up to the last one that fits.
    #[test]
    fn space_of_an_id_is_its_rpcs_id_space() {
        in_handler(|ctx| {
            for space in [0, 30, 223, 255] {
                let mut rpc: Rpc<Ping, Pong> = Rpc::new(space);
                let id = rpc.call_persistent(
                    ctx,
                    Target::Pid(ctx.pid()),
                    Ping(0),
                    SimDuration::from_secs(1),
                    (),
                );
                assert_eq!(space_of(id), rpc.id_space());
                rpc.cancel(ctx, id);
            }
        });
    }

    #[test]
    #[should_panic(expected = "does not fit the top byte")]
    fn an_id_space_past_the_top_byte_is_refused() {
        let _: Rpc<Ping, Pong> = Rpc::new(256);
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

    /// A request from this process with call number `n` of id space 0
    /// and floor call number `floor`.
    fn ping(ctx: &Ctx<'_>, n: u64, floor: u64) -> Payload {
        let base = (ctx.pid().index as u64) << CALL_BITS;
        Payload::new(Request {
            id: base + n,
            from: ctx.pid(),
            floor: base + floor,
            body: Ping(0),
        })
    }

    fn asked(ctx: &Ctx<'_>, n: u64, floor: u64) -> Asked {
        let base = (ctx.pid().index as u64) << CALL_BITS;
        Asked {
            id: base + n,
            from: ctx.pid(),
            floor: base + floor,
        }
    }

    /// The floor is the lowest call still outstanding, whichever way the
    /// calls end, and passes a call that ended out of order.
    #[test]
    fn the_floor_is_the_lowest_outstanding_call() {
        in_handler(|ctx| {
            let mut rpc: Rpc<Ping, Pong> = Rpc::new(3);
            let target = Target::Pid(ctx.pid());
            let one_second = SimDuration::from_secs(1);
            let ids: Vec<u64> = (0..4)
                .map(|_| rpc.call_persistent(ctx, target.clone(), Ping(0), one_second, ()))
                .collect();
            assert_eq!(rpc.floor_id(), ids[0]);
            rpc.cancel(ctx, ids[1]);
            assert_eq!(rpc.floor_id(), ids[0], "a call above the floor ended");
            rpc.cancel(ctx, ids[0]);
            assert_eq!(rpc.floor_id(), ids[2], "the floor passes the ended call");
            rpc.cancel(ctx, ids[3]);
            rpc.cancel(ctx, ids[2]);
            assert_eq!(rpc.floor_id(), ids[3] + 1, "none outstanding");
            let next = rpc.call_persistent(ctx, target, Ping(0), one_second, ());
            assert_eq!(rpc.floor_id(), next);
        });
    }

    /// A request that raises its requester's floor drops the answers below
    /// it; a copy of an id below the floor is refused, unanswered.
    #[test]
    fn a_raised_floor_drops_the_answers_below_it_and_refuses_their_ids() {
        in_handler(|ctx| {
            let mut served: Served<u32> = Served::new();
            for n in 0..4 {
                served.record(asked(ctx, n, 0), n as u32 * 10);
            }
            assert_eq!((served.answered(), served.pending()), (4, 0));
            assert!(matches!(
                served.admit::<Ping>(ctx, ping(ctx, 2, 0)),
                Admitted::Replayed
            ));
            let Admitted::Fresh(owed, _) = served.admit::<Ping>(ctx, ping(ctx, 6, 2)) else {
                panic!("a new id is fresh");
            };
            assert_eq!((served.answered(), served.pending()), (2, 1));
            assert!(matches!(
                served.admit::<Ping>(ctx, ping(ctx, 1, 0)),
                Admitted::Replayed
            ));
            assert_eq!(served.answered(), 2, "a refused id is not run");
            served.answer(ctx, owed, 60);
            assert_eq!(served.answered(), 3);
            assert_eq!(served.below_floor(), 0);
        });
    }

    /// A pending id its requester stopped waiting for keeps its place, and
    /// its answer is sent, not kept.
    #[test]
    fn a_pending_id_below_the_floor_is_answered_and_not_kept() {
        in_handler(|ctx| {
            let mut served: Served<u32> = Served::new();
            let Admitted::Fresh(parked, _) = served.admit::<Ping>(ctx, ping(ctx, 0, 0)) else {
                panic!("fresh");
            };
            let Admitted::Fresh(owed, _) = served.admit::<Ping>(ctx, ping(ctx, 1, 0)) else {
                panic!("fresh");
            };
            served.answer(ctx, owed, 10);
            let Admitted::Fresh(owed, _) = served.admit::<Ping>(ctx, ping(ctx, 2, 2)) else {
                panic!("fresh");
            };
            assert_eq!((served.answered(), served.pending()), (0, 2));
            served.answer(ctx, parked, 0);
            served.answer(ctx, owed, 20);
            assert_eq!((served.answered(), served.pending()), (1, 0));
            assert_eq!(served.below_floor(), 0);
        });
    }

    /// A snapshot carries every requester's floor, so the restored copy
    /// refuses what the original refuses.
    #[test]
    fn a_restored_copy_keeps_the_floors() {
        in_handler(|ctx| {
            let mut served: Served<u32> = Served::new();
            served.record(asked(ctx, 4, 4), 40);
            let Admitted::Fresh(owed, _) = served.admit::<Ping>(ctx, ping(ctx, 5, 5)) else {
                panic!("fresh");
            };
            served.forget(owed);
            let mut copy: Served<u32> = Served::new();
            copy.restore(served.entries());
            assert_eq!(copy.entries(), served.entries());
            assert_eq!((copy.answered(), copy.pending()), (0, 0));
            assert!(matches!(
                copy.admit::<Ping>(ctx, ping(ctx, 4, 4)),
                Admitted::Replayed
            ));
            assert_eq!(copy.pending(), 0, "refused below the restored floor");
        });
    }

    #[test]
    #[should_panic(expected = "was recorded twice")]
    fn recording_an_id_twice_names_the_id() {
        in_handler(|ctx| {
            let mut served: Served<u32> = Served::new();
            served.record(asked(ctx, 7, 0), 1);
            served.record(asked(ctx, 8, 0), 2);
            served.record(asked(ctx, 7, 0), 3);
        });
    }
}
