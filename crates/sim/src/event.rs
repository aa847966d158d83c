//! The kernel's internal event queue.
//!
//! Events are strictly ordered by `(time, sequence)`: two events scheduled
//! for the same virtual instant fire in the order they were scheduled. This
//! total order is the root of the simulator's determinism.
//!
//! The queue holds live events only. Event bodies sit in a slab; a binary
//! heap orders small `(time, sequence, slot)` keys, and each slab entry
//! knows where its key currently is in the heap, so cancelling an event
//! removes it in O(log n) instead of leaving a tombstone to be popped.

use crate::fault::Fault;
use crate::ids::Pid;
use crate::msg::Payload;
use crate::process::{SystemEvent, TimerId};
use crate::time::SimTime;
use crate::topology::Route;
use std::rc::Rc;

/// What happens when an event fires.
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
    /// Fire a timer owned by `pid` (ignored if the owner died).
    Timer { pid: Pid, tag: u64 },
    /// Deliver a system notification to a subscriber.
    System { dst: Pid, ev: SystemEvent },
    /// Apply a scheduled fault.
    Fault(Fault),
    /// Run `on_start` for a freshly spawned process.
    Start { pid: Pid },
}

/// Heap key; `seq` is unique, so `slot` never decides the order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

struct Entry {
    /// Index of this entry's key in `heap`.
    pos: usize,
    kind: EventKind,
}

#[derive(Default)]
pub(crate) struct EventQueue {
    /// Binary min-heap of the live events' keys.
    heap: Vec<Key>,
    slab: Vec<Option<Entry>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl EventQueue {
    /// Schedule `kind` at `at`. The handle names this event until it is
    /// popped or cancelled, and nothing afterwards.
    pub fn push(&mut self, at: SimTime, kind: EventKind) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Some(Entry { pos: 0, kind });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Key { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
        TimerId { slot, seq }
    }

    /// Time of the earliest event.
    pub fn next_at(&self) -> Option<SimTime> {
        self.heap.first().map(|k| k.at)
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, TimerId, EventKind)> {
        let Key { at, seq, slot } = *self.heap.first()?;
        Some((at, TimerId { slot, seq }, self.remove(0)))
    }

    /// Remove the event `id` names, if it is still queued.
    pub fn cancel(&mut self, id: TimerId) {
        let queued = self.slab.get(id.slot as usize).and_then(Option::as_ref);
        if let Some(pos) = queued.map(|e| e.pos) {
            // a popped or cancelled event's slot may have a new tenant
            if self.heap[pos].seq == id.seq {
                self.remove(pos);
            }
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Occupied slab slots; equals `len()` unless the slab leaks.
    #[cfg(test)]
    pub fn slots_in_use(&self) -> usize {
        self.slab.iter().flatten().count()
    }

    fn remove(&mut self, pos: usize) -> EventKind {
        let slot = self.heap.swap_remove(pos).slot;
        if pos < self.heap.len() {
            // the former last key now sits at `pos`, above or below its place
            self.sift_up(pos);
            self.sift_down(pos);
        }
        self.free.push(slot);
        let entry = self.slab[slot as usize].take();
        entry.expect("a heap key points at a live entry").kind
    }

    /// Put `key` at heap index `i` and tell its entry.
    fn place(&mut self, i: usize, key: Key) {
        self.heap[i] = key;
        let entry = self.slab[key.slot as usize].as_mut();
        entry.expect("a heap key points at a live entry").pos = i;
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] < key {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, key);
    }

    fn sift_down(&mut self, mut i: usize) {
        let key = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if key < self.heap[child] {
                break;
            }
            self.place(i, self.heap[child]);
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

    fn timer(tag: u64) -> EventKind {
        let pid = Pid {
            node: NodeId(0),
            cpu: CpuId(0),
            index: 0,
        };
        EventKind::Timer { pid, tag }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        // Against the obvious model, a `BTreeMap` keyed by `(at, seq)`.
        // Every event carries its issue number as the tag. Times of 0..20
        // make ties the rule; cancel picks among every handle ever issued,
        // so it also hits events already popped or cancelled, whose slots
        // have since been reused.
        #[test]
        fn behaves_like_an_ordered_map(
            ops in prop::collection::vec((0u8..5, 0u64..20, 0usize..64), 0..200)
        ) {
            let mut queue = EventQueue::default();
            let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
            let mut issued: Vec<(SimTime, TimerId)> = Vec::new();
            let pop_agrees = |queue: &mut EventQueue, model: &mut BTreeMap<_, _>| {
                let got = queue.pop().map(|(at, id, kind)| {
                    let EventKind::Timer { tag, .. } = kind else {
                        unreachable!("only timers are pushed")
                    };
                    ((at, id.seq), tag)
                });
                prop_assert_eq!(got, model.pop_first());
                got.is_some()
            };
            for (op, at, pick) in ops {
                match op {
                    0..=2 => {
                        let at = SimTime::from_micros(at);
                        let tag = issued.len() as u64;
                        let id = queue.push(at, timer(tag));
                        prop_assert!(model.insert((at, id.seq), tag).is_none(), "seq reused");
                        issued.push((at, id));
                    }
                    3 if !issued.is_empty() => {
                        let (at, id) = issued[pick % issued.len()];
                        model.remove(&(at, id.seq));
                        queue.cancel(id);
                    }
                    _ => {
                        pop_agrees(&mut queue, &mut model);
                    }
                }
                prop_assert_eq!(queue.len(), model.len());
                prop_assert_eq!(queue.slots_in_use(), model.len());
                prop_assert_eq!(queue.next_at(), model.keys().next().map(|k| k.0));
            }
            while pop_agrees(&mut queue, &mut model) {}
            prop_assert_eq!(queue.slots_in_use(), 0);
        }
    }
}
