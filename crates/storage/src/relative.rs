//! The relative file organization: fixed record slots addressed by record
//! number. Keys on the wire are 8-byte big-endian record numbers (see
//! [`crate::types::num_key`]), which keeps the DISCPROCESS request surface
//! uniform across file organizations.

use bytes::Bytes;

/// A relative file: a growable array of record slots.
#[derive(Clone, Debug, Default)]
pub struct RelativeFile {
    slots: Vec<Option<Bytes>>,
    occupied: usize,
}

impl RelativeFile {
    pub fn new() -> RelativeFile {
        RelativeFile::default()
    }

    pub fn len(&self) -> usize {
        self.occupied
    }

    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Highest slot index ever written plus one.
    pub fn capacity(&self) -> u64 {
        self.slots.len() as u64
    }

    pub fn get(&self, slot: u64) -> Option<&Bytes> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Write a slot (insert or overwrite). Returns the previous contents.
    pub fn set(&mut self, slot: u64, value: Bytes) -> Option<Bytes> {
        let idx = slot as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.occupied += 1;
        }
        old
    }

    /// Empty a slot. Returns the previous contents.
    pub fn clear(&mut self, slot: u64) -> Option<Bytes> {
        let old = self.slots.get_mut(slot as usize)?.take();
        if old.is_some() {
            self.occupied -= 1;
        }
        old
    }

    /// The lowest empty slot (for "insert anywhere" semantics).
    pub fn first_free(&self) -> u64 {
        self.slots
            .iter()
            .position(|s| s.is_none())
            .unwrap_or(self.slots.len()) as u64
    }

    /// Occupied slots in `low..=high` order, at most `limit`.
    pub fn scan(&self, low: u64, high: Option<u64>, limit: usize) -> Vec<(u64, Bytes)> {
        let mut out = Vec::new();
        for (i, slot) in self.slots.iter().enumerate().skip(low as usize) {
            if let Some(h) = high {
                if i as u64 > h {
                    break;
                }
            }
            if out.len() == limit {
                break;
            }
            if let Some(v) = slot {
                out.push((i as u64, v.clone()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn set_get_clear() {
        let mut f = RelativeFile::new();
        assert_eq!(f.set(5, b("five")), None);
        assert_eq!(f.get(5), Some(&b("five")));
        assert_eq!(f.get(4), None);
        assert_eq!(f.len(), 1);
        assert_eq!(f.set(5, b("FIVE")), Some(b("five")));
        assert_eq!(f.len(), 1);
        assert_eq!(f.clear(5), Some(b("FIVE")));
        assert!(f.is_empty());
        assert_eq!(f.clear(5), None);
        assert_eq!(f.clear(99), None);
    }

    #[test]
    fn first_free_fills_gaps() {
        let mut f = RelativeFile::new();
        f.set(0, b("a"));
        f.set(1, b("b"));
        f.set(2, b("c"));
        assert_eq!(f.first_free(), 3);
        f.clear(1);
        assert_eq!(f.first_free(), 1);
    }

    #[test]
    fn scan_ranges() {
        let mut f = RelativeFile::new();
        for i in [1u64, 3, 5, 7] {
            f.set(i, b(&format!("r{i}")));
        }
        assert_eq!(f.scan(0, None, usize::MAX).len(), 4);
        let mid = f.scan(2, Some(6), usize::MAX);
        assert_eq!(mid.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![3, 5]);
        assert_eq!(f.scan(0, None, 2).len(), 2);
        assert_eq!(f.capacity(), 8);
    }
}
