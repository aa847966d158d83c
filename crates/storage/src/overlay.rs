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
use encompass_sim::DetHashMap;
use guardian::Checkpointed;
use std::collections::{BTreeMap, VecDeque};

/// Dirty records not yet flushed: `(file, key) -> Some(value) | None`
/// (None = deleted).
#[derive(Clone, Debug, Default)]
pub struct Overlay {
    dirty: BTreeMap<(String, Bytes), Option<Bytes>>,
}

impl Overlay {
    pub fn new() -> Overlay {
        Overlay::default()
    }

    pub fn len(&self) -> usize {
        self.dirty.len()
    }

    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// The overlay's opinion of a record: `None` = not dirty (ask the
    /// media); `Some(None)` = deleted; `Some(Some(v))` = current value.
    pub fn get(&self, file: &str, key: &[u8]) -> Option<Option<Bytes>> {
        self.dirty
            .get(&(file.to_string(), Bytes::copy_from_slice(key)))
            .cloned()
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
        self.dirty.insert((file.to_string(), key), value);
    }

    /// Drop one dirty entry (a backup mirroring the primary's flush).
    /// Discarding overlay state is as much a database mutation as writing
    /// it: an unreviewed path here can lose a committed update.
    pub fn remove(&mut self, file: &str, key: &[u8], _cp: &Checkpointed) {
        self.dirty
            .remove(&(file.to_string(), Bytes::copy_from_slice(key)));
    }

    /// Remove and return up to `n` dirty entries for flushing (in key
    /// order, so flushes are deterministic).
    pub fn take_batch(
        &mut self,
        n: usize,
        _cp: &Checkpointed,
    ) -> Vec<(String, Bytes, Option<Bytes>)> {
        let keys: Vec<(String, Bytes)> = self.dirty.keys().take(n).cloned().collect();
        keys.into_iter()
            .map(|k| {
                let v = self.dirty.remove(&k).expect("key just listed");
                (k.0, k.1, v)
            })
            .collect()
    }

    /// All dirty entries of one file (used to merge overlay state into
    /// scans and archives) in key order.
    pub fn file_entries(&self, file: &str) -> Vec<(Bytes, Option<Bytes>)> {
        self.dirty
            .range((file.to_string(), Bytes::new())..)
            .take_while(|((f, _), _)| f == file)
            .map(|((_, k), v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Iterate every dirty entry.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, Bytes), &Option<Bytes>)> {
        self.dirty.iter()
    }
}

/// A simple LRU read cache over `(file, key)` identities, used only to
/// decide whether a media read costs simulated disc latency. Content is
/// not cached here (the media is in memory anyway); only recency is.
#[derive(Clone, Debug)]
pub struct ReadCache {
    capacity: usize,
    queue: VecDeque<(String, Bytes)>,
    members: DetHashMap<(String, Bytes), u64>,
    clock: u64,
    pub hits: u64,
    pub misses: u64,
}

impl ReadCache {
    pub fn new(capacity: usize) -> ReadCache {
        ReadCache {
            capacity: capacity.max(1),
            queue: VecDeque::new(),
            members: DetHashMap::default(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Record an access; returns true on a hit (no disc I/O needed).
    pub fn access(&mut self, file: &str, key: &[u8]) -> bool {
        let id = (file.to_string(), Bytes::copy_from_slice(key));
        self.clock += 1;
        let hit = self.members.insert(id.clone(), self.clock).is_some();
        self.queue.push_back(id);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            // evict least-recently-used entries beyond capacity
            while self.members.len() > self.capacity {
                if let Some(old) = self.queue.pop_front() {
                    // only evict if this queue entry is the latest access
                    if let Some(&stamp) = self.members.get(&old) {
                        let is_stale_queue_entry = self
                            .queue
                            .iter()
                            .any(|q| *q == old);
                        if is_stale_queue_entry {
                            continue;
                        }
                        let _ = stamp;
                        self.members.remove(&old);
                    }
                }
            }
        }
        hit
    }

    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
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
        let got = o.file_entries("a");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, b("k0"));
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
