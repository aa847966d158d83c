//! The DISCPROCESS write-behind cache.
//!
//! Updates are applied here — in process memory, protected by checkpoints
//! to the backup — and flushed to the [`crate::media::VolumeMedia`] lazily.
//! Reads consult the overlay first, then the media (charging simulated
//! disc latency on a read-cache miss). This is the paper's "cache
//! buffering scheme designed to keep the most recently referenced blocks
//! of data in main memory", and the reason the NonStop design can defer
//! audit forcing: the mirror of truth for recent updates is the backup
//! process, not the disc.

use bytes::Bytes;
use encompass_sim::{DetHashMap, Name};
use guardian::Checkpointed;
use std::collections::BTreeMap;

/// Dirty records not yet flushed: `file → key → Some(value) | None`
/// (None = deleted). Two levels, so a lookup borrows the caller's `&str`
/// and `&[u8]` instead of building a key, and the files in name order with
/// each file's keys in key order is exactly the lexicographic `(file, key)`
/// order flushes, archives and backup snapshots walk. A file's map stays
/// once created (files are few), so only the first write to a file
/// allocates for its name.
#[derive(Clone, Debug, Default)]
pub struct Overlay {
    dirty: BTreeMap<Name, BTreeMap<Bytes, Option<Bytes>>>,
    len: usize,
}

impl Overlay {
    pub fn new() -> Overlay {
        Overlay::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The overlay's opinion of a record: `None` = not dirty (ask the
    /// media); `Some(None)` = deleted; `Some(Some(v))` = current value.
    pub fn get(&self, file: &str, key: &[u8]) -> Option<Option<Bytes>> {
        self.dirty.get(file)?.get(key).cloned()
    }

    /// Apply one logical database update to the write-behind cache. Every
    /// caller must have checkpointed intent to the backup first — the
    /// paper's checkpoint-before-update (WAL) discipline — and proves it
    /// with the [`Checkpointed`] witness:
    ///
    /// ```compile_fail
    /// let mut overlay = encompass_storage::overlay::Overlay::new();
    /// overlay.put("f", bytes::Bytes::new(), None); // no checkpoint, no update
    /// ```
    pub fn put(&mut self, file: &str, key: Bytes, value: Option<Bytes>, _cp: &Checkpointed) {
        let records = match self.dirty.get_mut(file) {
            Some(records) => records,
            None => self.dirty.entry(Name::new(file)).or_default(),
        };
        if records.insert(key, value).is_none() {
            self.len += 1;
        }
    }

    /// Drop one dirty entry (a backup mirroring the primary's flush).
    /// Discarding overlay state is as much a database mutation as writing
    /// it: an unreviewed path here can lose a committed update.
    pub fn remove(&mut self, file: &str, key: &[u8], _cp: &Checkpointed) {
        let removed = self
            .dirty
            .get_mut(file)
            .and_then(|records| records.remove(key));
        if removed.is_some() {
            self.len -= 1;
        }
    }

    /// Remove and return up to `n` dirty entries for flushing (in
    /// `(file, key)` order, so flushes are deterministic).
    pub fn take_batch(
        &mut self,
        n: usize,
        _cp: &Checkpointed,
    ) -> Vec<(Name, Bytes, Option<Bytes>)> {
        let mut batch = Vec::with_capacity(n.min(self.len));
        for (file, records) in self.dirty.iter_mut() {
            while batch.len() < n {
                let Some((key, value)) = records.pop_first() else {
                    break;
                };
                batch.push((file.clone(), key, value));
            }
        }
        self.len -= batch.len();
        batch
    }

    /// All dirty entries of one file (used to merge overlay state into
    /// scans and archives) in key order.
    pub fn file_entries(&self, file: &str) -> impl Iterator<Item = (&Bytes, &Option<Bytes>)> {
        self.dirty.get(file).into_iter().flatten()
    }

    /// Iterate every dirty entry in `(file, key)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &Bytes, &Option<Bytes>)> {
        self.dirty
            .iter()
            .flat_map(|(file, records)| records.iter().map(move |(key, value)| (file, key, value)))
    }
}

const NIL: u32 = u32::MAX;

/// One cached record identity, linked into the recency list.
#[derive(Clone, Debug)]
struct CacheSlot {
    file: Name,
    key: Bytes,
    /// Towards the least recently used end.
    older: u32,
    /// Towards the most recently used end.
    newer: u32,
}

/// A simple LRU read cache over `(file, key)` identities, used only to
/// decide whether a media read costs simulated disc latency. Content is
/// not cached here (the media is in memory anyway); only recency is.
///
/// Identities live in a slab threaded into a doubly linked recency list;
/// a two-level `file → key → slot` index finds them from a borrowed `&str`
/// and `&[u8]`. A hit relinks one slot and allocates nothing; a miss at
/// capacity reuses the slot it evicts.
#[derive(Clone, Debug)]
pub struct ReadCache {
    capacity: usize,
    slots: Vec<CacheSlot>,
    members: DetHashMap<Name, DetHashMap<Bytes, u32>>,
    oldest: u32,
    newest: u32,
    pub hits: u64,
    pub misses: u64,
}

impl ReadCache {
    pub fn new(capacity: usize) -> ReadCache {
        ReadCache {
            capacity: capacity.max(1),
            slots: Vec::new(),
            members: DetHashMap::default(),
            oldest: NIL,
            newest: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Record an access; returns true on a hit (no disc I/O needed).
    pub fn access(&mut self, file: &str, key: &[u8]) -> bool {
        if let Some(&slot) = self.members.get(file).and_then(|keys| keys.get(key)) {
            self.hits += 1;
            if slot != self.newest {
                self.unlink(slot);
                self.link_newest(slot);
            }
            return true;
        }
        self.misses += 1;
        let key = Bytes::copy_from_slice(key);
        let file = match self.members.get_key_value(file) {
            Some((file, _)) => file.clone(),
            None => Name::new(file),
        };
        let entry = CacheSlot {
            file: file.clone(),
            key: key.clone(),
            older: NIL,
            newer: NIL,
        };
        let slot = if self.slots.len() < self.capacity {
            self.slots.push(entry);
            (self.slots.len() - 1) as u32
        } else {
            // full: the least recently used identity gives up its slot
            let slot = self.oldest;
            self.unlink(slot);
            let evicted = std::mem::replace(&mut self.slots[slot as usize], entry);
            if let Some(keys) = self.members.get_mut(&*evicted.file) {
                keys.remove(&evicted.key);
            }
            slot
        };
        self.link_newest(slot);
        self.members.entry(file).or_default().insert(key, slot);
        false
    }

    fn unlink(&mut self, slot: u32) {
        let CacheSlot { older, newer, .. } = self.slots[slot as usize];
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n as usize].older = older,
        }
    }

    fn link_newest(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.older = self.newest;
        s.newer = NIL;
        match self.newest {
            NIL => self.oldest = slot,
            n => self.slots[n as usize].newer = slot,
        }
        self.newest = slot;
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn cp() -> Checkpointed {
        Checkpointed::reviewed("unit test: no backup exists")
    }

    #[test]
    fn overlay_tracks_dirty_state() {
        let mut o = Overlay::new();
        assert_eq!(o.get("f", b"k"), None);
        o.put("f", b("k"), Some(b("v")), &cp());
        assert_eq!(o.get("f", b"k"), Some(Some(b("v"))));
        o.put("f", b("k"), None, &cp());
        assert_eq!(o.get("f", b"k"), Some(None), "deletion is dirty state");
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn take_batch_drains_in_order() {
        let mut o = Overlay::new();
        o.put("f", b("b"), Some(b("2")), &cp());
        o.put("f", b("a"), Some(b("1")), &cp());
        o.put("g", b("c"), Some(b("3")), &cp());
        let batch = o.take_batch(2, &cp());
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].1, b("a"));
        assert_eq!(batch[1].1, b("b"));
        assert_eq!(o.len(), 1);
        let rest = o.take_batch(10, &cp());
        assert_eq!(rest.len(), 1);
        assert!(o.is_empty());
    }

    #[test]
    fn file_entries_scoped_to_file() {
        let mut o = Overlay::new();
        o.put("a", b("k1"), Some(b("1")), &cp());
        o.put("b", b("k2"), Some(b("2")), &cp());
        o.put("a", b("k0"), None, &cp());
        let got: Vec<_> = o.file_entries("a").collect();
        assert_eq!(got.len(), 2);
        assert_eq!(*got[0].0, b("k0"));
        assert_eq!(o.file_entries("absent").count(), 0);
        assert_eq!(o.iter().count(), 3);
    }

    #[test]
    fn read_cache_hits_and_evicts() {
        let mut c = ReadCache::new(2);
        assert!(!c.access("f", b"a")); // miss
        assert!(c.access("f", b"a")); // hit
        assert!(!c.access("f", b"b"));
        assert!(!c.access("f", b"c")); // evicts someone
        assert!(c.len() <= 2);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 3);
    }

    #[test]
    fn read_cache_lru_keeps_recent() {
        let mut c = ReadCache::new(2);
        c.access("f", b"a");
        c.access("f", b"b");
        c.access("f", b"a"); // refresh a
        c.access("f", b"c"); // should evict b, not a
        assert!(c.access("f", b"a"), "recently used key survived");
    }
}
