//! The kernel's internal event queue.
//!
//! Events are strictly ordered by `(time, sequence)`: two events scheduled
//! for the same virtual instant fire in the order they were scheduled. This
//! total order is the root of the simulator's determinism.
//!
//! The queue holds live events only, in two heaps numbered by one sequence
//! counter; `pop` takes the smaller head. Events that are never cancelled
//! sit in a slab under a plain heap of `(time, sequence, slot)` keys. Only
//! timers can be cancelled, so only their heap is indexed: each timer slot
//! knows its key's heap position, and cancelling removes it in O(log n).

use crate::fault::Fault;
use crate::ids::Pid;
use crate::msg::Payload;
use crate::process::{SystemEvent, TimerId};
use crate::time::SimTime;
use crate::topology::Route;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::num::NonZeroU64;
use std::rc::Rc;

/// What happens when an event that is never cancelled fires.
pub(crate) enum EventKind {
    /// Deliver a message. `via` is the network route the message was sent
    /// over (`None` inside a node); if any of its links has since gone down,
    /// the message is lost in flight.
    Deliver {
        dst: Pid,
        src: Pid,
        payload: Payload,
        via: Option<Rc<Route>>,
    },
    /// Deliver a system notification to a subscriber.
    System { dst: Pid, ev: SystemEvent },
    /// Apply a scheduled fault.
    Fault(Fault),
    /// Run `on_start` for a freshly spawned process.
    Start { pid: Pid },
}

/// What [`EventQueue::pop`] hands back.
pub(crate) enum Popped {
    Event(EventKind),
    /// Fire a timer: its handle, owner (ignored if dead) and tag.
    Timer(TimerId, Pid, u64),
}

/// Heap key; `seq` is unique, so `slot` never decides the order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: NonZeroU64,
    slot: u32,
}

/// A timer slot's `pos` has this bit set while the slot is free; the
/// other bits link the free list (the next free slot plus one, 0 at the
/// end), so the list costs no allocation of its own.
const FREE: u32 = 1 << 31;

#[derive(Default)]
pub(crate) struct EventQueue {
    /// Min-heap of the keys of the events that are never cancelled.
    events: BinaryHeap<Reverse<Key>>,
    bodies: Vec<Option<EventKind>>,
    free_bodies: Vec<u32>,
    /// Binary min-heap of the armed timers' keys.
    timers: Vec<Key>,
    /// Per timer slot: the index of its key in `timers`, or `FREE` and a link.
    pos: Vec<u32>,
    /// Per timer slot: the owner and tag it fires with.
    owners: Vec<(Pid, u64)>,
    /// The first free timer slot plus one; 0 if there is none.
    free_timers: u32,
    /// Sequence numbers handed out so far; the first is 1, so a
    /// `TimerId`'s is never zero and `Option<TimerId>` needs no tag.
    issued: u64,
}

impl EventQueue {
    fn next_seq(&mut self) -> NonZeroU64 {
        self.issued += 1;
        NonZeroU64::new(self.issued).expect("counts from 1")
    }

    /// Schedule `kind` at `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq();
        let slot = self.free_bodies.pop().unwrap_or(self.bodies.len() as u32);
        if slot as usize == self.bodies.len() {
            self.bodies.push(None);
        }
        self.bodies[slot as usize] = Some(kind);
        self.events.push(Reverse(Key { at, seq, slot }));
    }

    /// Arm a timer for `pid` at `at`. The handle names this timer until it
    /// is popped or cancelled, and nothing afterwards.
    pub fn set_timer(&mut self, at: SimTime, pid: Pid, tag: u64) -> TimerId {
        let seq = self.next_seq();
        if self.free_timers == 0 {
            // a new slot, free and last in an empty list
            self.pos.push(FREE);
            self.owners.push((pid, tag));
            self.free_timers = self.pos.len() as u32;
        }
        let slot = self.free_timers - 1;
        self.free_timers = self.pos[slot as usize] & !FREE;
        self.owners[slot as usize] = (pid, tag);
        self.timers.push(Key { at, seq, slot });
        self.sift_up(self.timers.len() - 1);
        TimerId { slot, seq }
    }

    /// Time of the earliest event.
    pub fn next_at(&self) -> Option<SimTime> {
        let event = self.events.peek().map(|k| k.0.at);
        let timer = self.timers.first().map(|k| k.at);
        event.into_iter().chain(timer).min()
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Popped)> {
        let timer = self.timers.first().copied();
        let event = self.events.peek().map(|k| k.0);
        if let Some(key) = event.filter(|&e| timer.is_none_or(|t| e < t)) {
            self.events.pop();
            self.free_bodies.push(key.slot);
            let body = self.bodies[key.slot as usize].take();
            let kind = body.expect("an event key points at a live body");
            return Some((key.at, Popped::Event(kind)));
        }
        let Key { at, seq, slot } = timer?;
        let (pid, tag) = self.owners[slot as usize];
        self.remove(0);
        Some((at, Popped::Timer(TimerId { slot, seq }, pid, tag)))
    }

    /// Disarm the timer `id` names, if it is still armed.
    pub fn cancel(&mut self, id: TimerId) {
        let pos = self.pos.get(id.slot as usize).copied().unwrap_or(FREE);
        // a popped or cancelled timer's slot may have a new tenant
        if pos & FREE == 0 && self.timers[pos as usize].seq == id.seq {
            self.remove(pos as usize);
        }
    }

    /// The owner and tag of each armed timer, in heap order.
    pub fn armed(&self) -> impl Iterator<Item = (Pid, u64)> + '_ {
        self.timers.iter().map(|k| self.owners[k.slot as usize])
    }

    /// Queued events, never-cancelled ones and timers.
    #[cfg(test)]
    pub fn len(&self) -> (usize, usize) {
        (self.events.len(), self.timers.len())
    }

    /// Occupied slots of each side; equals `len()` unless a slab leaks.
    #[cfg(test)]
    pub fn slots_in_use(&self) -> (usize, usize) {
        let bodies = self.bodies.iter().flatten().count();
        (bodies, self.pos.iter().filter(|&&p| p & FREE == 0).count())
    }

    fn remove(&mut self, pos: usize) {
        let slot = self.timers.swap_remove(pos).slot;
        if pos < self.timers.len() {
            // the former last key now sits at `pos`, above or below its place
            self.sift_up(pos);
            self.sift_down(pos);
        }
        self.pos[slot as usize] = FREE | self.free_timers;
        self.free_timers = slot + 1;
    }

    /// Put `key` at heap index `i` and tell its slot.
    fn place(&mut self, i: usize, key: Key) {
        self.timers[i] = key;
        self.pos[key.slot as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.timers[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.timers[parent] < key {
                break;
            }
            self.place(i, self.timers[parent]);
            i = parent;
        }
        self.place(i, key);
    }

    fn sift_down(&mut self, mut i: usize) {
        let key = self.timers[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.timers.len() {
                break;
            }
            if child + 1 < self.timers.len() && self.timers[child + 1] < self.timers[child] {
                child += 1;
            }
            if key < self.timers[child] {
                break;
            }
            self.place(i, self.timers[child]);
            i = child;
        }
        self.place(i, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CpuId, NodeId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn pid(index: u32) -> Pid {
        Pid {
            node: NodeId(0),
            cpu: CpuId(0),
            index,
        }
    }

    /// The serial number a popped entry carries, and whether it is a timer.
    fn serial_of(popped: Popped) -> (u64, bool) {
        match popped {
            Popped::Timer(id, _, tag) => {
                assert_eq!(id.seq.get(), tag, "a timer's sequence is its serial number");
                (tag, true)
            }
            Popped::Event(EventKind::Start { pid }) => (pid.index as u64, false),
            Popped::Event(_) => unreachable!("only starts are pushed"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        // Against the obvious model, a `BTreeMap` keyed by `(at, seq)`.
        // Never-cancelled events (`Start`, the serial number in
        // `pid.index`) interleave with timers (the serial number as the
        // tag); one counter numbers both, so the serial number is the
        // sequence. Times of 0..20 make ties the rule; cancel picks among
        // every timer handle ever handed out, so it also hits timers already
        // popped or cancelled, whose slots have since been reused.
        #[test]
        fn behaves_like_an_ordered_map(
            ops in prop::collection::vec((0u8..6, 0u64..20, 0usize..64), 0..200)
        ) {
            let mut queue = EventQueue::default();
            let mut model: BTreeMap<(SimTime, u64), bool> = BTreeMap::new();
            let mut timers: Vec<(SimTime, TimerId)> = Vec::new();
            let mut serial = 1u64;
            let sides = |model: &BTreeMap<_, bool>| {
                let timers = model.values().filter(|&&t| t).count();
                (model.len() - timers, timers)
            };
            let pop_agrees = |queue: &mut EventQueue, model: &mut BTreeMap<_, _>| {
                let got = queue.pop().map(|(at, popped)| {
                    let (n, timer) = serial_of(popped);
                    ((at, n), timer)
                });
                prop_assert_eq!(got, model.pop_first());
                got.is_some()
            };
            for (op, at, pick) in ops {
                let at = SimTime::from_micros(at);
                match op {
                    0 | 1 => {
                        queue.push(at, EventKind::Start { pid: pid(serial as u32) });
                        model.insert((at, serial), false);
                        serial += 1;
                    }
                    2 | 3 => {
                        let id = queue.set_timer(at, pid(0), serial);
                        prop_assert_eq!(id.seq.get(), serial);
                        model.insert((at, serial), true);
                        timers.push((at, id));
                        serial += 1;
                    }
                    4 if !timers.is_empty() => {
                        let (at, id) = timers[pick % timers.len()];
                        model.remove(&(at, id.seq.get()));
                        queue.cancel(id);
                    }
                    _ => {
                        pop_agrees(&mut queue, &mut model);
                    }
                }
                prop_assert_eq!(queue.len(), sides(&model));
                prop_assert_eq!(queue.slots_in_use(), sides(&model));
                let mut armed: Vec<u64> = queue.armed().map(|(_, tag)| tag).collect();
                armed.sort_unstable();
                let mut timers_left: Vec<u64> =
                    model.iter().filter(|(_, &t)| t).map(|(&(_, n), _)| n).collect();
                timers_left.sort_unstable();
                prop_assert_eq!(armed, timers_left);
                prop_assert_eq!(queue.next_at(), model.keys().next().map(|k| k.0));
            }
            while pop_agrees(&mut queue, &mut model) {}
            prop_assert_eq!(queue.slots_in_use(), (0, 0));
        }
    }

    #[test]
    fn a_stale_timer_handle_cancels_nothing() {
        let mut queue = EventQueue::default();
        let at = SimTime::from_micros(5);
        let fired = queue.set_timer(at, pid(1), 1);
        assert!(matches!(queue.pop(), Some((_, Popped::Timer(id, ..))) if id == fired));
        let tenant = queue.set_timer(at, pid(2), 2);
        assert_eq!(tenant.slot, fired.slot, "the freed slot is reused");
        queue.cancel(fired);
        queue.cancel(fired);
        assert_eq!((queue.len(), queue.slots_in_use()), ((0, 1), (0, 1)));
        assert!(matches!(queue.pop(), Some((_, Popped::Timer(id, ..))) if id == tenant));
        queue.cancel(tenant);
        assert_eq!(queue.slots_in_use(), (0, 0));
    }
}
