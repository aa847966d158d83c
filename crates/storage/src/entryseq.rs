//! The entry-sequenced file organization: append-only records addressed by
//! the entry number assigned at insertion. This is also the structure the
//! audit trails are built from: TMF's trail files are entry-sequenced, and
//! the suspense file of the manufacturing application depends on its
//! strictly increasing entry order.

use bytes::Bytes;

/// An entry-sequenced file. Entries can be logically deleted (slot kept,
/// contents dropped) but never reordered; entry numbers are never reused.
#[derive(Clone, Debug, Default)]
pub struct EntrySequencedFile {
    entries: Vec<Option<Bytes>>,
    live: usize,
}

impl EntrySequencedFile {
    pub fn new() -> EntrySequencedFile {
        EntrySequencedFile::default()
    }

    /// Number of live (non-deleted) entries.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total entries ever appended (= the next entry number).
    pub fn next_entry(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Append a record; returns its entry number.
    pub fn append(&mut self, value: Bytes) -> u64 {
        self.entries.push(Some(value));
        self.live += 1;
        (self.entries.len() - 1) as u64
    }

    pub fn get(&self, entry: u64) -> Option<&Bytes> {
        self.entries.get(entry as usize)?.as_ref()
    }

    /// Logically delete an entry (its number is not reused).
    pub fn delete(&mut self, entry: u64) -> Option<Bytes> {
        let old = self.entries.get_mut(entry as usize)?.take();
        if old.is_some() {
            self.live -= 1;
        }
        old
    }

    /// Replace the contents of an existing live entry.
    pub fn update(&mut self, entry: u64, value: Bytes) -> Option<Bytes> {
        let slot = self.entries.get_mut(entry as usize)?;
        match slot {
            Some(old) => Some(std::mem::replace(old, value)),
            None => None,
        }
    }

    /// Force the contents of entry `n` (used when a write-behind cache
    /// flushes entries that were assigned numbers before reaching the
    /// media). Pads intervening slots with empty (deleted) entries.
    pub fn place(&mut self, entry: u64, value: Option<Bytes>) {
        let idx = entry as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, None);
        }
        let slot = &mut self.entries[idx];
        match (slot.is_some(), value.is_some()) {
            (false, true) => self.live += 1,
            (true, false) => self.live -= 1,
            _ => {}
        }
        *slot = value;
    }

    /// Live entries numbered from `low` through `high` (or the last), in
    /// entry order, borrowed.
    pub fn entries_in(&self, low: u64, high: Option<u64>) -> Entries<'_> {
        let end = high.map_or(self.entries.len(), |h| {
            usize::try_from(h.saturating_add(1))
                .map_or(self.entries.len(), |end| end.min(self.entries.len()))
        });
        let start = usize::try_from(low).map_or(end, |low| low.min(end));
        Entries {
            slots: self.entries[start..end].iter(),
            next: start as u64,
        }
    }
}

/// The live entries of an [`EntrySequencedFile`] in a number range: see
/// [`EntrySequencedFile::entries_in`].
#[derive(Clone, Debug)]
pub struct Entries<'a> {
    slots: std::slice::Iter<'a, Option<Bytes>>,
    /// The number of the next slot.
    next: u64,
}

impl<'a> Iterator for Entries<'a> {
    type Item = (u64, &'a Bytes);

    fn next(&mut self) -> Option<(u64, &'a Bytes)> {
        for slot in self.slots.by_ref() {
            let n = self.next;
            self.next += 1;
            if let Some(v) = slot {
                return Some((n, v));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn append_assigns_sequential_numbers() {
        let mut f = EntrySequencedFile::new();
        assert_eq!(f.append(b("a")), 0);
        assert_eq!(f.append(b("b")), 1);
        assert_eq!(f.append(b("c")), 2);
        assert_eq!(f.len(), 3);
        assert_eq!(f.get(1), Some(&b("b")));
        assert_eq!(f.get(9), None);
    }

    #[test]
    fn delete_keeps_numbering() {
        let mut f = EntrySequencedFile::new();
        f.append(b("a"));
        f.append(b("b"));
        assert_eq!(f.delete(0), Some(b("a")));
        assert_eq!(f.delete(0), None);
        assert_eq!(f.len(), 1);
        // numbers march on
        assert_eq!(f.append(b("c")), 2);
        assert_eq!(f.next_entry(), 3);
    }

    #[test]
    fn update_only_live_entries() {
        let mut f = EntrySequencedFile::new();
        f.append(b("a"));
        assert_eq!(f.update(0, b("A")), Some(b("a")));
        f.delete(0);
        assert_eq!(f.update(0, b("x")), None);
        assert_eq!(f.update(5, b("x")), None);
    }

    #[test]
    fn entries_skip_deleted() {
        let mut f = EntrySequencedFile::new();
        for s in ["a", "b", "c", "d"] {
            f.append(b(s));
        }
        f.delete(1);
        let numbers = |low, high| f.entries_in(low, high).map(|(n, _)| n).collect::<Vec<_>>();
        assert_eq!(numbers(0, None), [0, 2, 3]);
        assert_eq!(numbers(1, Some(2)), [2]);
        assert_eq!(numbers(2, Some(u64::MAX)), [2, 3]);
        assert_eq!(numbers(3, Some(2)), []);
        assert_eq!(numbers(9, None), []);
        assert_eq!(f.entries_in(2, None).next(), Some((2, &b("c"))));
    }
}
