//! A set or map keyed by [`Transid`], laid out the way transids are
//! issued: one run per home node, a 2-byte slot per sequence number.
//!
//! A home node's TMP numbers its transactions from one counter, so the
//! transids a structure collects from one home node are often dense in
//! `seq`. A run holds a base sequence number and a deque of slots indexed
//! by `seq - base`: a slot is 0 when empty, and otherwise holds the
//! transid's `cpu` and a value of at most 7 bits, so equality still
//! compares the whole transid. Runs are trimmed at both ends as they
//! empty and grow only by the span of sequence numbers they cover.
//!
//! Not every structure sees a home node's transids densely: a volume's
//! fences and a node's trail miss every read-only transaction, and a node
//! sees a few transids of each remote home node. So a run covers only
//! what keeps it at least a quarter full, and is started only for
//! [`MIN_RUN`] transids; the rest are *scattered*, kept whole in one
//! sorted list. A TMP takeover behind a double bus failure can issue a
//! sequence number a second time, under another processor: that transid
//! finds its slot held by the first, and is scattered too (DESIGN.md
//! §D30).

use crate::types::Transid;
use encompass_sim::NodeId;
use std::collections::VecDeque;
use std::iter::Peekable;
use std::ops::Range;

/// A value that shares a slot with its transid's processor number: it
/// encodes in at most 7 bits.
pub trait SlotValue: Copy {
    fn to_bits(self) -> u8;
    fn from_bits(bits: u8) -> Self;
}

impl SlotValue for () {
    fn to_bits(self) -> u8 {
        0
    }

    fn from_bits(_: u8) -> Self {}
}

impl SlotValue for bool {
    fn to_bits(self) -> u8 {
        u8::from(self)
    }

    fn from_bits(bits: u8) -> Self {
        bits != 0
    }
}

/// The fewest transids a run is started for; fewer of one home node are
/// scattered.
pub const MIN_RUN: usize = 16;

/// The length past which a run grows by half instead of doubling.
const GROW_BY_HALF: usize = 1024;

/// The bit that marks a slot in use (a slot of 0 is empty).
const USED: u16 = 1 << 15;

fn slot<V: SlotValue>(cpu: u8, value: V) -> u16 {
    let bits = value.to_bits();
    assert!(bits < 0x80, "a slot value has at most 7 bits");
    USED | u16::from(bits) << 8 | u16::from(cpu)
}

fn cpu_of(slot: u16) -> u8 {
    slot as u8
}

fn value_of<V: SlotValue>(slot: u16) -> V {
    V::from_bits(((slot & !USED) >> 8) as u8)
}

/// One home node's transids: slot `i` is sequence number `base + i`. The
/// first and last slots are in use.
#[derive(Clone)]
struct Run {
    home: NodeId,
    base: u64,
    /// Slots in use.
    used: usize,
    slots: VecDeque<u16>,
}

impl Run {
    /// One past the last sequence number covered.
    fn end(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    fn get(&self, seq: u64) -> u16 {
        (seq.checked_sub(self.base))
            .and_then(|i| self.slots.get(usize::try_from(i).ok()?))
            .map_or(0, |&s| s)
    }

    /// Room for `extra` more slots. A short run doubles; one of more than
    /// [`GROW_BY_HALF`] slots grows by half, so that it holds at most
    /// half again the span it covers.
    fn reserve(&mut self, extra: usize) {
        let len = self.slots.len();
        if len + extra > self.slots.capacity() {
            let step = if len > GROW_BY_HALF { len / 2 } else { len };
            self.slots.reserve_exact(extra.max(step).max(MIN_RUN));
        }
    }

    /// Stretch the run with empty slots to cover `lo..=hi`.
    fn cover(&mut self, lo: u64, hi: u64) {
        if lo < self.base {
            let gap = (self.base - lo) as usize;
            self.reserve(gap);
            for _ in 0..gap {
                self.slots.push_front(0);
            }
            self.base = lo;
        }
        if hi >= self.end() {
            let extra = (hi + 1 - self.end()) as usize;
            self.reserve(extra);
            self.slots.resize(self.slots.len() + extra, 0);
        }
    }

    /// Fill the empty slot at `seq`, which the run covers.
    fn put(&mut self, seq: u64, slot: u16) {
        let i = (seq - self.base) as usize;
        debug_assert_eq!(self.slots[i], 0);
        self.slots[i] = slot;
        self.used += 1;
    }

    /// Empty the slot at `seq` and trim the empty slots this leaves at
    /// either end.
    fn clear(&mut self, seq: u64) {
        let i = (seq - self.base) as usize;
        self.slots[i] = 0;
        self.used -= 1;
        while self.slots.back() == Some(&0) {
            self.slots.pop_back();
        }
        while self.slots.front() == Some(&0) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    fn entries<V: SlotValue>(&self) -> impl Iterator<Item = (Transid, V)> + '_ {
        (self.slots.iter().zip(self.base..))
            .filter(|(&s, _)| s != 0)
            .map(|(&s, seq)| {
                let home_node = self.home;
                let transid = Transid {
                    home_node,
                    cpu: cpu_of(s),
                    seq,
                };
                (transid, value_of(s))
            })
    }
}

/// The order [`TransidMap::iter`] lists transids in.
fn issue_order(t: &Transid) -> (NodeId, u64, u8) {
    (t.home_node, t.seq, t.cpu)
}

/// A map from [`Transid`] to a [`SlotValue`] (a set, with `()`), in one
/// run of slots per home node. A value, once inserted, stands until the
/// transid is removed.
#[derive(Clone)]
pub struct TransidMap<V: SlotValue = ()> {
    /// By home node.
    runs: Vec<Run>,
    /// Transids outside their home node's run, in [`issue_order`].
    scattered: VecDeque<(Transid, V)>,
    len: usize,
}

/// A set of transids.
pub type TransidSet = TransidMap<()>;

impl<V: SlotValue> Default for TransidMap<V> {
    fn default() -> Self {
        TransidMap {
            runs: Vec::new(),
            scattered: VecDeque::new(),
            len: 0,
        }
    }
}

impl<V: SlotValue> TransidMap<V> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn run(&self, home: NodeId) -> Result<usize, usize> {
        self.runs.binary_search_by_key(&home, |r| r.home)
    }

    /// The slot `transid`'s home node and sequence number map to (0 if
    /// empty), whichever processor holds it.
    fn slot(&self, transid: &Transid) -> u16 {
        self.run(transid.home_node)
            .map_or(0, |r| self.runs[r].get(transid.seq))
    }

    fn scattered_at(&self, transid: &Transid) -> Result<usize, usize> {
        let key = issue_order(transid);
        self.scattered
            .binary_search_by_key(&key, |(t, _)| issue_order(t))
    }

    /// Where `home`'s scattered transids are.
    fn scattered_of(&self, home: NodeId) -> Range<usize> {
        let start = self.scattered.partition_point(|(t, _)| t.home_node < home);
        let end = self.scattered.partition_point(|(t, _)| t.home_node <= home);
        start..end
    }

    pub fn get(&self, transid: &Transid) -> Option<V> {
        let s = self.slot(transid);
        if s != 0 && cpu_of(s) == transid.cpu {
            return Some(value_of(s));
        }
        if self.scattered.is_empty() {
            return None;
        }
        (self.scattered_at(transid).ok()).map(|i| self.scattered[i].1)
    }

    pub fn contains(&self, transid: &Transid) -> bool {
        self.get(transid).is_some()
    }

    /// Add `transid` with `value` unless it is present; the value already
    /// there stands. True if it was added.
    pub fn insert(&mut self, transid: Transid, value: V) -> bool {
        if self.contains(&transid) {
            return false;
        }
        self.len += 1;
        let (home, seq) = (transid.home_node, transid.seq);
        let run = self.run(home);
        if let Ok(r) = run {
            let run = &mut self.runs[r];
            if (run.base..run.end()).contains(&seq) {
                if run.get(seq) == 0 {
                    run.put(seq, slot(transid.cpu, value));
                } else {
                    self.scatter(transid, value);
                }
                return true;
            }
        }
        // the run, stretched to cover this transid and its home node's
        // scattered ones, must be at least a quarter full
        let scattered = self.scattered_of(home);
        let (mut lo, mut hi, mut count) = (seq, seq, 1 + scattered.len());
        if !scattered.is_empty() {
            lo = lo.min(self.scattered[scattered.start].0.seq);
            hi = hi.max(self.scattered[scattered.end - 1].0.seq);
        }
        if let Ok(r) = run {
            let run = &self.runs[r];
            (lo, hi, count) = (lo.min(run.base), hi.max(run.end() - 1), count + run.used);
        }
        if count < MIN_RUN || hi - lo >= 4 * count as u64 {
            self.scatter(transid, value);
            return true;
        }
        let r = run.unwrap_or_else(|r| {
            let slots = VecDeque::new();
            let run = Run {
                home,
                base: lo,
                used: 0,
                slots,
            };
            self.runs.insert(r, run);
            r
        });
        let run = &mut self.runs[r];
        run.cover(lo, hi);
        run.put(seq, slot(transid.cpu, value));
        // the scattered ones move in, but for a reissue whose slot is held
        if !scattered.is_empty() {
            for &(t, v) in self.scattered.range(scattered) {
                if run.get(t.seq) == 0 {
                    run.put(t.seq, slot(t.cpu, v));
                }
            }
            let held = |(t, _): &(Transid, V)| {
                let s = run.get(t.seq);
                t.home_node == home && s != 0 && cpu_of(s) == t.cpu
            };
            self.scattered.retain(|e| !held(e));
        }
        true
    }

    /// Keep `transid` outside its home node's run. The list starts with
    /// room for a run's worth.
    fn scatter(&mut self, transid: Transid, value: V) {
        if self.scattered.capacity() == 0 {
            self.scattered.reserve_exact(MIN_RUN);
        }
        let i = self.scattered_at(&transid).unwrap_err();
        self.scattered.insert(i, (transid, value));
    }

    /// Remove `transid`; true if it was present. A run that empties is
    /// dropped.
    pub fn remove(&mut self, transid: &Transid) -> bool {
        let s = self.slot(transid);
        if s != 0 && cpu_of(s) == transid.cpu {
            let r = self.run(transid.home_node).expect("a slot is in a run");
            self.runs[r].clear(transid.seq);
            if self.runs[r].used == 0 {
                self.runs.remove(r);
            }
        } else if let Ok(i) = self.scattered_at(transid) {
            self.scattered.remove(i);
        } else {
            return false;
        }
        self.len -= 1;
        true
    }

    /// Every entry, by home node, then sequence number (then processor,
    /// where a sequence number was issued twice).
    pub fn iter(&self) -> impl Iterator<Item = (Transid, V)> + '_ {
        Merge {
            slotted: self.runs.iter().flat_map(Run::entries).peekable(),
            scattered: self.scattered.iter().copied().peekable(),
        }
    }
}

/// Two iterators in [`issue_order`], merged.
struct Merge<A: Iterator, B: Iterator> {
    slotted: Peekable<A>,
    scattered: Peekable<B>,
}

impl<V, A, B> Iterator for Merge<A, B>
where
    A: Iterator<Item = (Transid, V)>,
    B: Iterator<Item = (Transid, V)>,
{
    type Item = (Transid, V);

    fn next(&mut self) -> Option<(Transid, V)> {
        let scattered_first = match (self.slotted.peek(), self.scattered.peek()) {
            (Some((a, _)), Some((b, _))) => issue_order(b) < issue_order(a),
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if scattered_first {
            self.scattered.next()
        } else {
            self.slotted.next()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn t(home: u8, cpu: u8, seq: u64) -> Transid {
        Transid {
            home_node: NodeId(home),
            cpu,
            seq,
        }
    }

    /// A run of home node 1, cpu 0, sequence numbers `0..MIN_RUN`.
    fn one_run() -> TransidMap<bool> {
        let mut map = TransidMap::new();
        for seq in 0..MIN_RUN as u64 {
            map.insert(t(1, 0, seq), true);
        }
        assert_eq!((map.runs.len(), map.scattered.len()), (1, 0));
        map
    }

    #[test]
    fn a_sequence_number_issued_twice_keeps_both_transids() {
        let mut map = one_run();
        assert!(map.insert(t(1, 2, 7), false), "another cpu, same seq");
        assert!(!map.insert(t(1, 2, 7), true), "the first value stands");
        assert_eq!(map.scattered.len(), 1);
        assert_eq!(
            (map.get(&t(1, 0, 7)), map.get(&t(1, 2, 7))),
            (Some(true), Some(false))
        );
        assert_eq!(map.get(&t(1, 1, 7)), None);
        assert!(map.remove(&t(1, 0, 7)));
        assert_eq!(map.get(&t(1, 2, 7)), Some(false), "still scattered");
        assert!(!map.insert(t(1, 2, 7), true), "and found there");
        assert_eq!(map.len(), MIN_RUN);
        let listed: Vec<Transid> = map.iter().map(|(t, _)| t).collect();
        assert_eq!(
            listed[7],
            t(1, 2, 7),
            "listed in its sequence number's place"
        );
    }

    #[test]
    fn a_run_covers_what_keeps_it_a_quarter_full() {
        let mut set = TransidSet::new();
        // a remote home node's few transids cost no run
        for seq in [900, 40, 7] {
            set.insert(t(9, 0, seq), ());
        }
        // one in ten of a home node's sequence numbers: too sparse
        for seq in 0..2 * MIN_RUN as u64 {
            set.insert(t(3, 1, 10 * seq), ());
        }
        assert_eq!((set.runs.len(), set.scattered.len()), (0, 3 + 2 * MIN_RUN));
        // every other one: the run starts and takes the scattered ones in
        for seq in 0..MIN_RUN as u64 / 2 {
            set.insert(t(4, 0, 2 * seq), ());
        }
        assert!(set.runs.is_empty());
        set.insert(t(4, 0, 60), ());
        assert!(set.runs.is_empty(), "61 slots for 9 transids");
        for seq in MIN_RUN as u64 / 2..MIN_RUN as u64 {
            set.insert(t(4, 0, 2 * seq), ());
        }
        let run = &set.runs[0];
        assert_eq!((run.base, run.slots.len(), run.used), (0, 61, 17));
        assert_eq!(set.scattered.len(), 3 + 2 * MIN_RUN, "node 4's moved in");
        // the run is trimmed as its ends empty
        set.remove(&t(4, 0, 60));
        set.remove(&t(4, 0, 0));
        let run = &set.runs[0];
        assert_eq!((run.base, run.slots.len()), (2, 29));
        assert_eq!(set.len(), 3 + 2 * MIN_RUN + 15);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        // Inserts and removals over three home nodes, one of them sparse,
        // sequence numbers out of order, and the same sequence number
        // under two cpus: every query agrees with an ordered map after
        // every step, and every run's ends are in use.
        #[test]
        fn agrees_with_an_ordered_map(
            ops in prop::collection::vec((0u8..4, 0u8..3, 0u8..2, 0u64..48, 0u8..2), 0..100)
        ) {
            let mut map: TransidMap<bool> = TransidMap::new();
            let mut model: BTreeMap<Transid, bool> = BTreeMap::new();
            let seq_of = |home: u8, seq: u64| if home == 2 { 9 * seq } else { seq };
            for (op, home, cpu, seq, value) in ops {
                let transid = t(home, cpu, seq_of(home, seq));
                if op == 0 {
                    prop_assert_eq!(map.remove(&transid), model.remove(&transid).is_some());
                } else {
                    let added = !model.contains_key(&transid);
                    model.entry(transid).or_insert(value == 1);
                    prop_assert_eq!(map.insert(transid, value == 1), added);
                }
                prop_assert_eq!(map.len(), model.len());
                for (home, cpu, seq) in (0..3).flat_map(|h| (0..2).flat_map(move |c| (0..48).map(move |s| (h, c, s)))) {
                    let q = t(home, cpu, seq_of(home, seq));
                    prop_assert_eq!(map.get(&q), model.get(&q).copied());
                }
                for run in &map.runs {
                    prop_assert!(run.slots.front().is_some_and(|&s| s != 0));
                    prop_assert!(run.slots.back().is_some_and(|&s| s != 0));
                    prop_assert_eq!(run.used, run.slots.iter().filter(|&&s| s != 0).count());
                }
            }
            let mut listed: Vec<(Transid, bool)> = model.into_iter().collect();
            listed.sort_by_key(|(t, _)| issue_order(t));
            prop_assert!(map.iter().eq(listed));
        }
    }
}
