//! The one rule every "what a sender may still re-send" memory follows.

use std::collections::VecDeque;

/// A key's place against a [`Floored`] floor: its sequence number (a
/// request id, an image's audit sequence), by which keys sort first.
pub trait Sequenced: Ord {
    fn seq(&self) -> u64;
}

impl Sequenced for u64 {
    fn seq(&self) -> u64 {
        *self
    }
}

impl<T: Ord> Sequenced for (u64, T) {
    fn seq(&self) -> u64 {
        self.0
    }
}

/// What a receiver keeps of one sender (DESIGN.md §D20, §D27): the
/// highest floor it has announced, below which it sends nothing again, and
/// entries in key order, in one `VecDeque` reused as the floor moves.
#[derive(Clone, Debug)]
pub struct Floored<K, V> {
    floor: u64,
    entries: VecDeque<(K, V)>,
}

impl<K: Sequenced, V> Floored<K, V> {
    pub fn new(floor: u64) -> Floored<K, V> {
        let entries = VecDeque::new();
        Floored { floor, entries }
    }

    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Raise the floor to `floor` if that is higher (a lower one, from an
    /// older message, changes nothing) and drop the entries below it that
    /// `keep` does not hold for: how many were dropped.
    pub fn raise(&mut self, floor: u64, mut keep: impl FnMut(&V) -> bool) -> usize {
        if floor <= self.floor {
            return 0;
        }
        let (before, mut at) = (self.entries.len(), 0);
        self.floor = floor;
        // the entries below the floor are a prefix, and the kept ones stay
        // at its front: past them, each drop is a pop off the front
        let below = |(key, _): &(K, V)| key.seq() < floor;
        while self.entries.get(at).is_some_and(below) {
            if keep(&self.entries[at].1) {
                at += 1;
            } else {
                self.entries.remove(at);
            }
        }
        before - self.entries.len()
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        Some(&self.entries[self.find(key).ok()?].1)
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let at = self.find(key).ok()?;
        Some(&mut self.entries[at].1)
    }

    /// Hold `value` under `key`, whatever the floor: the value it
    /// replaces, if `key` was held.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (key, value));
                None
            }
        }
    }

    pub fn remove(&mut self, key: &K) -> Option<V> {
        Some(self.entries.remove(self.find(key).ok()?)?.1)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in key order.
    pub fn iter(&self) -> impl Iterator<Item = &(K, V)> {
        self.entries.iter()
    }

    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }
}
