//! Request/reply messaging with correlation, failure notices, and
//! retransmission across nodes.
//!
//! GUARDIAN's message system never loses a message within a node: a send
//! there is delivered, or it fails at once, and the failure of a
//! processor is announced to every CPU of the node
//! ([`SystemEvent::CpuDown`]). EXPAND, between nodes, does lose messages.
//! [`Rpc`] keeps both rules. A call is *local* when its target is on the
//! caller's node and a *network* call otherwise:
//!
//! * a **local** call is sent once. It is resent only when the notice of
//!   its destination's CPU failure arrives ([`Rpc::on_system`]); the name
//!   is resolved again, so the copy reaches the backup that took over.
//!   While the name resolves to no live process (the backup's own notice
//!   may run after the requester's), the call retries every millisecond
//!   until a copy goes out. While both of the node's buses are down, a
//!   copy to another CPU, or its answer, may be refused: the notice that a
//!   bus is back ([`SystemEvent::BusUp`]) resends every call that went
//!   across them;
//! * a **network** call is resent whenever its `Rpc`'s resend interval
//!   ([`Rpc::new`]) passes without an answer.
//!
//! The two kinds of call map onto the paper's distributed-commit message
//! classes:
//!
//! * **critical response** ([`Rpc::call`]) — `retries` is finite. A
//!   network call fails fast if its destination is unreachable *now*, and
//!   expires when its resends are spent. A local call expires at its
//!   deadline, `interval × (retries + 1)`, and a notice resends it at most
//!   `retries` times;
//! * **safe delivery** ([`Rpc::call_persistent`]) — the message is
//!   re-offered "whenever transmission becomes possible", which is
//!   exactly how phase-two and backout notifications behave.
//!
//! A local persistent call holds no timer while a copy is out; a local
//! bounded call holds one, its deadline (DESIGN.md §D28).
//!
//! Retransmission implies at-least-once delivery; receivers that are not
//! naturally idempotent answer through a [`Served`] table, which replays
//! the remembered reply instead of running a request twice. Every request
//! carries its requester's *floor*, the lowest call it still has
//! outstanding, so a server remembers an answer only while its requester
//! can still ask for it again.

use encompass_sim::{
    counter, CpuId, Ctx, DetHashMap, Floored, Name, NodeId, Payload, Pid, Process, SendError,
    SimDuration, SimTime, SystemEvent, TimerId, World,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Timer tags at or above this value are reserved for `Rpc`; processes must
/// keep their own tags below it.
pub const RPC_TAG_BASE: u64 = 1 << 48;

/// How soon a local call tries again when its name resolved to no live
/// process. A takeover re-registers the name at the instant of the failure
/// notice, so one retry finds the new primary.
const TAKEOVER_RETRY: SimDuration = SimDuration::from_millis(1);

/// Where a request is addressed: a service name on a node. The name is
/// resolved again on every attempt, so a resend finds the new primary
/// after a process-pair takeover.
#[derive(Clone, Debug)]
pub struct Target {
    node: NodeId,
    name: Name,
}

impl Target {
    pub fn new(node: NodeId, name: Name) -> Target {
        Target { node, name }
    }

    /// Send request `id` here with its requester's `floor`, resolving the
    /// name now: the CPU of the process it went to, or why it did not go
    /// (an unresolvable name is [`SendError::NoSuchProcess`]).
    fn send<M: Clone + Send + 'static>(
        &self,
        ctx: &mut Ctx<'_>,
        id: u64,
        floor: u64,
        body: &M,
    ) -> Sent {
        let dst = (ctx.lookup_name(self.node, &self.name)).ok_or(SendError::NoSuchProcess)?;
        let (from, body) = (ctx.pid(), body.clone());
        let request = Request {
            id,
            from,
            floor,
            body,
        };
        ctx.send(dst, Payload::new(request)).map(|()| dst.cpu)
    }

    pub fn node(&self) -> NodeId {
        self.node
    }
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.node, self.name)
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

/// Where a call's last copy went: the CPU of the process that took it, or
/// why the kernel refused it.
type Sent = Result<CpuId, SendError>;

struct Pending<M, K> {
    target: Target,
    body: M,
    /// Copies that may still follow the first: `u32::MAX` for a
    /// persistent call.
    retries_left: u32,
    /// A local bounded call's critical-response limit; `SimTime::MAX` for
    /// any other call.
    deadline: SimTime,
    copy: Sent,
    /// The one timer the call holds, if any: a network call's resend
    /// clock, or a local call's takeover retry or deadline.
    timer: Option<TimerId>,
    /// the caller's continuation, handed back when the call ends
    then: K,
}

impl<M, K> Pending<M, K> {
    /// Is this a local bounded call, with a critical-response limit?
    fn has_deadline(&self) -> bool {
        self.deadline != SimTime::MAX
    }

    /// Does a local call wait on the takeover retry? Its copy did not go
    /// out, and not for want of a bus (the notice that one is back resends
    /// it).
    fn retrying(&self) -> bool {
        matches!(self.copy, Err(e) if e != SendError::BusDown)
    }

    /// Arm the timer this call should hold now, as `tag`: a network
    /// call's `interval`; a local call's takeover retry, or its deadline,
    /// whichever comes first; or none.
    fn arm(&mut self, ctx: &mut Ctx<'_>, tag: u64, interval: Option<SimDuration>) {
        let delay = if self.target.node() == ctx.node() {
            let retry = self.retrying().then_some(TAKEOVER_RETRY);
            let deadline = self.has_deadline().then(|| self.deadline.since(ctx.now()));
            match (retry, deadline) {
                (Some(r), Some(d)) => Some(r.min(d)),
                (one, other) => one.or(other),
            }
        } else {
            Some(interval.expect("a network call is made by an Rpc with an interval (Rpc::new)"))
        };
        self.timer = delay.map(|delay| ctx.set_timer(delay, tag));
    }

    fn disarm(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(timer) = self.timer.take() {
            ctx.cancel_timer(timer);
        }
    }
}

/// What `on_timer` decided about an RPC timer.
#[derive(Debug)]
pub enum TimerOutcome<M, K = ()> {
    /// The tag did not belong to this `Rpc`.
    NotMine,
    /// A copy was sent again (or tried); keep waiting.
    Resent,
    /// The retry budget is exhausted or the deadline passed; the request
    /// has been abandoned.
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
/// completion, by [`TimerOutcome::Expired`] on expiry, or by [`Rpc::call`]
/// itself when a network send fails — so the caller keeps no `rpc id →
/// why` map of its own (DESIGN.md §D16), and a continuation may own what
/// cannot be copied (the [`Owed`] of the request the call serves). Callers
/// with a single kind of call use `K = ()`.
///
/// Owning process responsibilities:
/// * subscribe to system events ([`Ctx::subscribe_system`]) and forward
///   them to [`Rpc::on_system`] (a pair does both for its app);
/// * forward unknown timer tags `>= RPC_TAG_BASE` to [`Rpc::on_timer`];
/// * offer incoming payloads to [`Rpc::accept`] before other decoding.
pub struct Rpc<M, R, K = ()> {
    id_space: u64,
    /// The owning process's node, learnt with `salt`: a call to it is
    /// local.
    home: Option<NodeId>,
    /// A network call's resend interval and a bounded call's attempt
    /// timeout; `None` for an `Rpc` that only makes persistent calls
    /// within its node ([`Rpc::local`]).
    interval: Option<SimDuration>,
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
    /// top byte of every id this `Rpc` issues ([`space_of`]). A network
    /// call is resent every `interval`; a local bounded call's deadline
    /// is `interval × (retries + 1)`.
    pub fn new(id_space: u64, interval: SimDuration) -> Rpc<M, R, K> {
        let mut rpc = Rpc::local(id_space);
        rpc.interval = Some(interval);
        rpc
    }

    /// An `Rpc` that runs no clock: it makes only persistent calls, and
    /// only within its node. A bounded call or a call to another node
    /// panics.
    pub fn local(id_space: u64) -> Rpc<M, R, K> {
        assert!(
            id_space < ID_SPACES as u64,
            "id space {id_space} does not fit the top byte of a request id"
        );
        Rpc {
            id_space,
            home: None,
            interval: None,
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

    /// The requests still awaiting replies that may hold an rpc-tag
    /// timer, one each: calls to other nodes (their resend clock), and
    /// local calls that hold a deadline or wait on the takeover retry. Read
    /// from what each call is, not from the timers it holds, so a census
    /// can hold the timers to it.
    pub fn timed(&self) -> usize {
        (self.pending.values())
            .filter(|p| Some(p.target.node()) != self.home || p.has_deadline() || p.retrying())
            .count()
    }

    /// The continuations of the requests still awaiting replies, in no
    /// particular order.
    pub fn awaiting(&self) -> impl Iterator<Item = &K> {
        self.pending.values().map(|p| &p.then)
    }

    /// Where the requests still awaiting replies are addressed, in no
    /// particular order.
    pub fn targets(&self) -> impl Iterator<Item = &Target> {
        self.pending.values().map(|p| &p.target)
    }

    /// Issue a request with a bounded retry budget (critical-response
    /// style). A network call fails fast, giving `then` back, if its
    /// target is unreachable *now*; a local call waits for a target that
    /// does not resolve yet, up to its deadline.
    pub fn call(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: Target,
        body: M,
        retries: u32,
        then: K,
    ) -> Result<u64, K> {
        let interval = self
            .interval
            .expect("a bounded call is made by an Rpc with an interval (Rpc::new)");
        let id = self.fresh_id(ctx);
        let local = target.node() == ctx.node();
        let copy = target.send(ctx, id, self.floor_id(), &body);
        if !local && copy.is_err() {
            self.ended(id);
            return Err(then);
        }
        let deadline = if local {
            ctx.now() + interval.mul(u64::from(retries) + 1)
        } else {
            SimTime::MAX
        };
        let call = Pending {
            target,
            body,
            retries_left: retries,
            deadline,
            copy,
            timer: None,
            then,
        };
        self.start(ctx, id, call);
        Ok(id)
    }

    /// Issue a request that is retried until it can be delivered and
    /// answered (safe-delivery style). Never fails at call time: if the
    /// target is unreachable the first attempt simply becomes a retry.
    pub fn call_persistent(&mut self, ctx: &mut Ctx<'_>, target: Target, body: M, then: K) -> u64 {
        let id = self.fresh_id(ctx);
        let copy = target.send(ctx, id, self.floor_id(), &body);
        let call = Pending {
            target,
            body,
            retries_left: u32::MAX,
            deadline: SimTime::MAX,
            copy,
            timer: None,
            then,
        };
        self.start(ctx, id, call);
        id
    }

    /// Record call `id`, its first copy sent (or not), and arm its timer.
    fn start(&mut self, ctx: &mut Ctx<'_>, id: u64, mut call: Pending<M, K>) {
        call.arm(ctx, RPC_TAG_BASE + id, self.interval);
        self.pending.insert(id, call);
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
        let Some(mut p) = self.pending.remove(&id) else {
            return Err(payload);
        };
        let reply = payload.expect::<RpcReply<R>>();
        p.disarm(ctx);
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
        p.timer = None;
        let local = p.target.node() == ctx.node();
        let spent = if local {
            p.has_deadline() && ctx.now() >= p.deadline
        } else {
            p.retries_left == 0
        };
        if spent {
            let p = self.pending.remove(&id).expect("present above");
            self.ended(id);
            return TimerOutcome::Expired {
                id,
                body: p.body,
                then: p.then,
            };
        }
        // a network call's resend spends its budget; a local call's
        // takeover retry does not, as no copy of it is out
        if !local && p.retries_left != u32::MAX {
            p.retries_left -= 1;
        }
        p.copy = p.target.send(ctx, id, floor, &p.body);
        if !local || p.copy.is_ok() {
            ctx.count(counter!("rpc.retransmits"), 1);
        }
        p.arm(ctx, tag, self.interval);
        TimerOutcome::Resent
    }

    /// Take a notice of this node. Network calls keep their clock; a
    /// local call is sent again, to its target resolved anew, when its
    /// last copy may be lost:
    ///
    /// * on `CpuDown`, if that copy went to a process of the failed CPU.
    ///   The copy reaches the backup that took over, or (if the name does
    ///   not resolve yet) nobody, and the call waits on the takeover
    ///   retry;
    /// * on `BusUp`, if the copy was refused for want of a bus, or went to
    ///   another CPU, whose answer may have been.
    ///
    /// A resend spends a bounded call's budget when a copy was out.
    pub fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
        let here = ctx.node();
        let mine = ctx.pid().cpu;
        let lost = |copy: Sent| match ev {
            SystemEvent::CpuDown(node, cpu) => node == here && copy == Ok(cpu),
            SystemEvent::BusUp(node) => {
                node == here && copy.map_or_else(|e| e == SendError::BusDown, |cpu| cpu != mine)
            }
            SystemEvent::CpuUp(..) | SystemEvent::LinkDown(_) | SystemEvent::LinkUp(_) => false,
        };
        let floor = self.floor_id();
        for (&id, p) in self.pending.iter_mut() {
            if p.target.node() != here || !lost(p.copy) {
                continue;
            }
            if p.copy.is_ok() {
                if p.retries_left == 0 {
                    continue;
                }
                if p.retries_left != u32::MAX {
                    p.retries_left -= 1;
                }
            }
            p.copy = p.target.send(ctx, id, floor, &p.body);
            if p.copy.is_ok() {
                ctx.count(counter!("rpc.retransmits"), 1);
            } else {
                p.disarm(ctx);
                p.arm(ctx, RPC_TAG_BASE + id, self.interval);
            }
        }
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
        self.home = Some(ctx.node());
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

/// A network target's resend interval for [`ask`].
const ASK_RESEND: SimDuration = SimDuration::from_millis(100);

/// A one-shot client: spawn a process on `node`/`cpu` that sends `target`
/// one persistent request, keeps the reply and exits. A named target on
/// its node is found again at a takeover's failure notice; one on another
/// node is resent every 100 ms until answered. The returned slot is
/// `None` until (unless) the reply arrives. `id_space` is as for
/// [`Rpc::new`].
pub fn ask<M: Clone + Send + 'static, R: Send + 'static>(
    world: &mut World,
    node: NodeId,
    cpu: u8,
    id_space: u64,
    target: Target,
    msg: M,
) -> Rc<RefCell<Option<R>>> {
    let out = Rc::new(RefCell::new(None));
    world.spawn(
        node,
        cpu,
        Box::new(Ask {
            request: Some((target, msg)),
            rpc: Rpc::new(id_space, ASK_RESEND),
            out: out.clone(),
        }),
    );
    out
}

struct Ask<M, R> {
    /// Handed to the rpc by `on_start`.
    request: Option<(Target, M)>,
    rpc: Rpc<M, R>,
    out: Rc<RefCell<Option<R>>>,
}

impl<M: Clone + Send + 'static, R: Send + 'static> Process for Ask<M, R> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.subscribe_system();
        let (target, msg) = self.request.take().expect("a process starts once");
        self.rpc.call_persistent(ctx, target, msg, ());
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

    fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
        self.rpc.on_system(ctx, ev);
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

    /// Echo server that answers each request `delay` after it arrives.
    struct SlowServer {
        delay: SimDuration,
        held: Vec<Request<Ping>>,
    }
    impl Process for SlowServer {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
            self.held.push(payload.expect::<Request<Ping>>());
            ctx.set_timer(self.delay, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, _tag: u64) {
            let req = self.held.remove(0);
            reply(ctx, req.id, req.from, Pong(req.body.0 * 2));
        }
    }

    /// Makes one call at start, bounded (`Some(retries)`, 10 ms per
    /// attempt) or persistent (`None`), and logs what became of it with
    /// the virtual millisecond.
    struct Client {
        server: Target,
        rpc: Rpc<Ping, Pong, u64>,
        retries: Option<u32>,
        outcome: Rc<RefCell<Vec<String>>>,
    }
    impl Client {
        fn spawn(
            w: &mut World,
            node: NodeId,
            cpu: u8,
            server: Target,
            retries: Option<u32>,
        ) -> Log {
            let outcome = Rc::new(RefCell::new(Vec::new()));
            w.spawn(
                node,
                cpu,
                Box::new(Client {
                    server,
                    rpc: Rpc::new(0, SimDuration::from_millis(10)),
                    retries,
                    outcome: outcome.clone(),
                }),
            );
            outcome
        }
        fn log(&self, ctx: &Ctx<'_>, what: String) {
            let at = ctx.now().as_millis();
            self.outcome.borrow_mut().push(format!("{what}@{at}"));
        }
    }
    impl Process for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.subscribe_system();
            let target = self.server.clone();
            let sent = match self.retries {
                Some(retries) => self.rpc.call(ctx, target, Ping(21), retries, 7).is_ok(),
                None => {
                    self.rpc.call_persistent(ctx, target, Ping(21), 7);
                    true
                }
            };
            if !sent {
                self.log(ctx, "send-error".into());
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
            match self.rpc.accept(ctx, payload) {
                Ok(c) => self.log(ctx, format!("ok:{}:{}", c.body.0, c.then)),
                Err(_) => self.log(ctx, "stray".into()),
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
            match self.rpc.on_timer(ctx, tag) {
                TimerOutcome::Expired { then, .. } => self.log(ctx, format!("expired:{then}")),
                TimerOutcome::Resent => self.log(ctx, "resent".into()),
                TimerOutcome::NotMine => {}
            }
        }
        fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
            self.rpc.on_system(ctx, ev);
        }
    }

    type Log = Rc<RefCell<Vec<String>>>;

    fn world() -> (World, NodeId) {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(4);
        (w, n)
    }

    /// Two nodes a 1 ms link apart: a call from the first to the second
    /// runs on the network clock.
    fn two_nodes() -> (World, NodeId, NodeId) {
        let mut w = World::new(SimConfig::default());
        let a = w.add_node(4);
        let b = w.add_node(4);
        let _ = w.add_link(a, b, SimDuration::from_millis(1));
        (w, a, b)
    }

    /// Spawn `server` on CPU 0 of `node` under the name `$SRV`, and
    /// address it.
    fn serve(w: &mut World, node: NodeId, server: impl Process + 'static) -> Target {
        let pid = w.spawn(node, 0, Box::new(server));
        w.register_name(node, "$SRV", pid);
        Target::new(node, "$SRV".into())
    }

    /// A flaky server on `node`, dropping its first `drop_first` requests.
    fn flaky(w: &mut World, node: NodeId, drop_first: u32) -> (Target, Rc<RefCell<u32>>) {
        let seen = Rc::new(RefCell::new(0));
        let server = FlakyServer {
            drop_first,
            seen: seen.clone(),
        };
        (serve(w, node, server), seen)
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
                rpc: Rpc::local(5),
                neighbour: Rpc::local(5),
            }),
        );
        w.run_until_quiescent();
    }

    #[test]
    fn call_completes() {
        let (mut w, n) = world();
        let (srv, _) = flaky(&mut w, n, 0);
        let outcome = Client::spawn(&mut w, n, 1, srv, Some(0));
        w.run_until_quiescent();
        assert_eq!(outcome.borrow().as_slice(), &["ok:42:7@0".to_string()]);
    }

    /// EXPAND loses messages: a call to another node is resent on its
    /// clock until a copy is answered.
    #[test]
    fn retransmits_until_answered() {
        let (mut w, a, b) = two_nodes();
        let (srv, seen) = flaky(&mut w, b, 2);
        let outcome = Client::spawn(&mut w, a, 1, srv, Some(5));
        w.run_until_quiescent();
        assert_eq!(*seen.borrow(), 3, "two dropped + one answered");
        assert_eq!(w.metrics().get("rpc.retransmits"), 2, "each resend counted");
        let outcome = outcome.borrow();
        let kinds: Vec<&str> = outcome
            .iter()
            .map(|o| o.split('@').next().unwrap())
            .collect();
        assert_eq!(kinds, ["resent", "resent", "ok:42:7"], "{outcome:?}");
    }

    /// A bounded call to another node is resent on its clock until its
    /// budget is spent. One within the node holds one timer, its deadline,
    /// where its last attempt's timeout would have ended (10 ms × (2 + 1)),
    /// and is not resent while its destination lives.
    #[test]
    fn bounded_retries_expire() {
        for remote in [true, false] {
            let (mut w, a, b) = two_nodes();
            let (srv, seen) = flaky(&mut w, if remote { b } else { a }, u32::MAX);
            let outcome = Client::spawn(&mut w, a, 1, srv, Some(2));
            w.run_for(SimDuration::from_millis(5));
            let rpc_timers = (w.armed_timers()).filter(|&(_, tag)| tag >= RPC_TAG_BASE);
            assert_eq!(rpc_timers.count(), 1, "the clock or the deadline");
            w.run_until_quiescent();
            let (expected, copies): (&[&str], u32) = if remote {
                (&["resent@10", "resent@20", "expired:7@30"], 3)
            } else {
                (&["expired:7@30"], 1)
            };
            assert_eq!(outcome.borrow().as_slice(), expected, "remote: {remote}");
            assert_eq!(*seen.borrow(), copies, "remote: {remote}");
        }
    }

    /// Within a node nothing is lost, so a call holds no clock: a
    /// persistent call arms no timer at all, and a server that takes a
    /// second to answer is waited for, not asked again.
    #[test]
    fn a_local_persistent_call_arms_no_timer() {
        let (mut w, n) = world();
        let slow = SlowServer {
            delay: SimDuration::from_secs(1),
            held: Vec::new(),
        };
        let srv = serve(&mut w, n, slow);
        let outcome = Client::spawn(&mut w, n, 1, srv, None);
        w.run_for(SimDuration::from_millis(500));
        let rpc_timers = (w.armed_timers()).filter(|&(_, tag)| tag >= RPC_TAG_BASE);
        assert_eq!(rpc_timers.count(), 0, "the call holds no timer");
        w.run_until_quiescent();
        assert_eq!(outcome.borrow().as_slice(), &["ok:42:7@1000"]);
        assert_eq!(w.metrics().get("rpc.retransmits"), 0);
    }

    /// A server that registered a name and never answers dies with its
    /// CPU; the name moves to a second server only 3 ms after the
    /// requester's failure notice. The notice finds no live process under
    /// the name, so the call waits on the short takeover retry, which
    /// finds the new one.
    #[test]
    fn a_name_unresolvable_at_the_notice_is_found_by_the_takeover_retry() {
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
        w.spawn(n, 0, Box::new(NamedServer { answer: false }));
        let answering = w.spawn(n, 2, Box::new(NamedServer { answer: true }));
        w.run_until_quiescent();
        let outcome = Client::spawn(&mut w, n, 1, Target::new(n, "$SVC".into()), None);
        w.run_for(SimDuration::from_millis(15));
        let killed_at = w.now().as_millis();
        w.inject(Fault::KillCpu(n, CpuId(0)));
        // the notice comes FAILURE_DETECT_DELAY later; the name moves after
        w.run_for(encompass_sim::config::FAILURE_DETECT_DELAY + SimDuration::from_millis(3));
        w.register_name(n, "$SVC", answering);
        w.run_until_quiescent();
        let outcome = outcome.borrow();
        let answered = outcome.last().unwrap();
        assert!(answered.starts_with("ok:21:7@"), "{outcome:?}");
        let at: u64 = answered.split('@').nth(1).unwrap().parse().unwrap();
        assert!(
            at <= killed_at + 5 + 3 + 1 + 1,
            "found within one retry of the name moving: {outcome:?}"
        );
        assert_eq!(
            w.metrics().get("rpc.retransmits"),
            1,
            "one copy went out again"
        );
    }

    /// With both of the node's buses down, a server's answer across them
    /// is refused, and so is a request made meanwhile; neither call holds
    /// a timer. The notice that a bus is back resends both, and both are
    /// answered.
    #[test]
    fn a_bus_repair_resends_what_the_buses_refused() {
        let (mut w, n) = world();
        let slow = SlowServer {
            delay: SimDuration::from_millis(100),
            held: Vec::new(),
        };
        let srv = serve(&mut w, n, slow);
        let before = Client::spawn(&mut w, n, 1, srv.clone(), None);
        w.run_for(SimDuration::from_millis(50));
        w.inject(Fault::KillBus(n, 0));
        w.inject(Fault::KillBus(n, 1));
        w.run_for(SimDuration::from_millis(10));
        let during = Client::spawn(&mut w, n, 2, srv, None);
        w.run_for(SimDuration::from_millis(90));
        let rpc_timers = (w.armed_timers()).filter(|&(_, tag)| tag >= RPC_TAG_BASE);
        assert_eq!(rpc_timers.count(), 0, "no clock waits out the outage");
        assert!(before.borrow().is_empty(), "the answer was refused");
        w.inject(Fault::HealBus(n, 0));
        w.run_until_quiescent();
        for outcome in [before, during] {
            let outcome = outcome.borrow();
            assert_eq!(outcome.len(), 1, "{outcome:?}");
            assert!(outcome[0].starts_with("ok:42:7@"), "{outcome:?}");
        }
        assert_eq!(
            w.metrics().get("rpc.retransmits"),
            2,
            "one copy each at the notice"
        );
    }

    #[test]
    fn persistent_call_survives_partition() {
        let (mut w, a, b) = two_nodes();
        let (srv, _) = flaky(&mut w, b, 0);

        // partition before the client even starts
        w.inject(Fault::Partition(vec![b]));
        let done = ask::<Ping, Pong>(&mut w, a, 0, 0, srv, Ping(1));
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
            sink: Target,
            rpcs: [Rpc<Ping, Pong>; 2],
            issued: Rc<RefCell<Vec<u64>>>,
        }
        impl Process for TwoClients {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..3 {
                    for rpc in &mut self.rpcs {
                        let id = rpc.call_persistent(ctx, self.sink.clone(), Ping(0), ());
                        self.issued.borrow_mut().push(id);
                    }
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, _payload: Payload) {}
        }
        let (mut w, n) = world();
        let (sink, _) = flaky(&mut w, n, u32::MAX);
        let issued = Rc::new(RefCell::new(Vec::new()));
        for cpu in [1, 2] {
            w.spawn(
                n,
                cpu,
                Box::new(TwoClients {
                    sink: sink.clone(),
                    rpcs: [Rpc::local(1), Rpc::local(2)],
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
            let target = own_name(ctx);
            for space in [0, 30, 223, 255] {
                let mut rpc: Rpc<Ping, Pong> = Rpc::local(space);
                let id = rpc.call_persistent(ctx, target.clone(), Ping(0), ());
                assert_eq!(space_of(id), rpc.id_space());
            }
        });
    }

    #[test]
    #[should_panic(expected = "does not fit the top byte")]
    fn an_id_space_past_the_top_byte_is_refused() {
        let _: Rpc<Ping, Pong> = Rpc::local(256);
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

    /// Register the running process as `$SELF` and address it.
    fn own_name(ctx: &mut Ctx<'_>) -> Target {
        ctx.register_name("$SELF");
        Target::new(ctx.node(), "$SELF".into())
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
            let mut rpc: Rpc<Ping, Pong> = Rpc::local(3);
            let target = own_name(ctx);
            let ids: Vec<u64> = (0..4)
                .map(|_| rpc.call_persistent(ctx, target.clone(), Ping(0), ()))
                .collect();
            fn answer(rpc: &mut Rpc<Ping, Pong>, ctx: &mut Ctx<'_>, id: u64) {
                let reply = Payload::new(RpcReply { id, body: Pong(0) });
                assert!(rpc.accept(ctx, reply).is_ok(), "call {id} was pending");
            }
            assert_eq!(rpc.floor_id(), ids[0]);
            answer(&mut rpc, ctx, ids[1]);
            assert_eq!(rpc.floor_id(), ids[0], "a call above the floor ended");
            answer(&mut rpc, ctx, ids[0]);
            assert_eq!(rpc.floor_id(), ids[2], "the floor passes the ended call");
            answer(&mut rpc, ctx, ids[3]);
            answer(&mut rpc, ctx, ids[2]);
            assert_eq!(rpc.floor_id(), ids[3] + 1, "none outstanding");
            let next = rpc.call_persistent(ctx, target, Ping(0), ());
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
