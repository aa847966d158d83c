//! The key-sequenced file organization: a B+tree over byte-string keys.
//!
//! This is a faithful page-structured implementation — internal pages hold
//! separator keys and child pointers, leaf pages hold records and are
//! chained for ordered scans — rather than a wrapper over `std`'s maps, so
//! that the storage layer has honest page counts, split/merge behaviour,
//! and a measurable prefix-compression ratio (the paper lists "data and
//! index compression" among the data-base manager's features; here the
//! compressed size is *accounted* per leaf rather than physically packed,
//! since pages live in simulated memory).
//!
//! Deletion rebalances: an underfull page first borrows from a sibling and
//! otherwise merges with one, so occupancy invariants hold under any
//! workload. `check_invariants` verifies structure exhaustively and is run
//! by the property tests after every operation batch.

use bytes::Bytes;

type PageId = u32;

#[derive(Clone, Debug)]
enum Page {
    Internal {
        /// `keys.len() + 1 == children.len()`; subtree `i` holds keys
        /// `< keys[i]`, subtree `i+1` holds keys `>= keys[i]`.
        keys: Vec<Bytes>,
        children: Vec<PageId>,
    },
    Leaf {
        entries: Vec<(Bytes, Bytes)>,
        next: Option<PageId>,
    },
}

/// A key-sequenced file: a B+tree mapping byte keys to byte records.
#[derive(Clone, Debug)]
pub struct BPlusTree {
    pages: Vec<Option<Page>>,
    free: Vec<PageId>,
    root: PageId,
    /// Maximum entries per leaf / keys per internal page.
    order: usize,
    len: usize,
}

impl Default for BPlusTree {
    fn default() -> Self {
        BPlusTree::new(32)
    }
}

impl BPlusTree {
    /// `order` is the page fan-out (max entries per page), at least 4.
    pub fn new(order: usize) -> BPlusTree {
        assert!(order >= 4, "order must be at least 4");
        let mut t = BPlusTree {
            pages: Vec::new(),
            free: Vec::new(),
            root: 0,
            order,
            len: 0,
        };
        t.root = t.alloc(Page::Leaf {
            entries: Vec::new(),
            next: None,
        });
        t
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live pages.
    pub fn page_count(&self) -> usize {
        self.pages.iter().flatten().count()
    }

    /// Height of the tree (1 = a single leaf).
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut id = self.root;
        loop {
            match self.page(id) {
                Page::Leaf { .. } => return d,
                Page::Internal { children, .. } => {
                    id = children[0];
                    d += 1;
                }
            }
        }
    }

    fn min_fill(&self) -> usize {
        self.order / 2
    }

    fn page(&self, id: PageId) -> &Page {
        self.pages[id as usize].as_ref().expect("live page")
    }

    fn page_mut(&mut self, id: PageId) -> &mut Page {
        self.pages[id as usize].as_mut().expect("live page")
    }

    fn alloc(&mut self, p: Page) -> PageId {
        if let Some(id) = self.free.pop() {
            self.pages[id as usize] = Some(p);
            id
        } else {
            self.pages.push(Some(p));
            (self.pages.len() - 1) as PageId
        }
    }

    fn release(&mut self, id: PageId) {
        self.pages[id as usize] = None;
        self.free.push(id);
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    fn leaf_for(&self, key: &[u8]) -> PageId {
        let mut id = self.root;
        loop {
            match self.page(id) {
                Page::Leaf { .. } => return id,
                Page::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k.as_ref() <= key);
                    id = children[idx];
                }
            }
        }
    }

    pub fn get(&self, key: &[u8]) -> Option<&Bytes> {
        let Page::Leaf { entries, .. } = self.page(self.leaf_for(key)) else {
            unreachable!()
        };
        entries
            .binary_search_by(|(k, _)| k.as_ref().cmp(key))
            .ok()
            .map(|i| &entries[i].1)
    }

    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Records with `low <= key` and (if given) `key <= high`, in key order,
    /// at most `limit`.
    pub fn range(&self, low: &[u8], high: Option<&[u8]>, limit: usize) -> Vec<(Bytes, Bytes)> {
        let mut out = Vec::new();
        let mut id = self.leaf_for(low);
        loop {
            let Page::Leaf { entries, next } = self.page(id) else {
                unreachable!()
            };
            for (k, v) in entries {
                if k.as_ref() < low {
                    continue;
                }
                if let Some(h) = high {
                    if k.as_ref() > h {
                        return out;
                    }
                }
                if out.len() == limit {
                    return out;
                }
                out.push((k.clone(), v.clone()));
            }
            match next {
                Some(n) => id = *n,
                None => return out,
            }
        }
    }

    /// First (lowest-keyed) record.
    pub fn first(&self) -> Option<(Bytes, Bytes)> {
        self.range(&[], None, 1).into_iter().next()
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Insert or replace; returns the previous value if any.
    pub fn insert(&mut self, key: Bytes, value: Bytes) -> Option<Bytes> {
        let (old, split) = self.insert_rec(self.root, key, value);
        if let Some((sep, right)) = split {
            let new_root = self.alloc(Page::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            });
            self.root = new_root;
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_rec(
        &mut self,
        id: PageId,
        key: Bytes,
        value: Bytes,
    ) -> (Option<Bytes>, Option<(Bytes, PageId)>) {
        match self.page_mut(id) {
            Page::Leaf { entries, .. } => {
                let old = match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
                    Ok(i) => Some(std::mem::replace(&mut entries[i].1, value)),
                    Err(i) => {
                        entries.insert(i, (key, value));
                        None
                    }
                };
                let split = (self.leaf_len(id) > self.order).then(|| self.split_leaf(id));
                (old, split)
            }
            Page::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k <= &key);
                let child = children[idx];
                let (old, child_split) = self.insert_rec(child, key, value);
                if let Some((sep, right)) = child_split {
                    let Page::Internal { keys, children } = self.page_mut(id) else {
                        unreachable!()
                    };
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                }
                let split = (self.internal_len(id) > self.order).then(|| self.split_internal(id));
                (old, split)
            }
        }
    }

    fn leaf_len(&self, id: PageId) -> usize {
        match self.page(id) {
            Page::Leaf { entries, .. } => entries.len(),
            Page::Internal { .. } => unreachable!(),
        }
    }

    fn internal_len(&self, id: PageId) -> usize {
        match self.page(id) {
            Page::Internal { keys, .. } => keys.len(),
            Page::Leaf { .. } => unreachable!(),
        }
    }

    fn split_leaf(&mut self, id: PageId) -> (Bytes, PageId) {
        let Page::Leaf { entries, next } = self.page_mut(id) else {
            unreachable!()
        };
        let mid = entries.len() / 2;
        let right_entries = entries.split_off(mid);
        let sep = right_entries[0].0.clone();
        let old_next = *next;
        let right = self.alloc(Page::Leaf {
            entries: right_entries,
            next: old_next,
        });
        let Page::Leaf { next, .. } = self.page_mut(id) else {
            unreachable!()
        };
        *next = Some(right);
        (sep, right)
    }

    fn split_internal(&mut self, id: PageId) -> (Bytes, PageId) {
        let Page::Internal { keys, children } = self.page_mut(id) else {
            unreachable!()
        };
        let mid = keys.len() / 2;
        let sep = keys[mid].clone();
        let right_keys = keys.split_off(mid + 1);
        keys.pop(); // the separator moves up
        let right_children = children.split_off(mid + 1);
        let right = self.alloc(Page::Internal {
            keys: right_keys,
            children: right_children,
        });
        (sep, right)
    }

    // ------------------------------------------------------------------
    // Remove
    // ------------------------------------------------------------------

    /// Remove a record; returns its value if present.
    pub fn remove(&mut self, key: &[u8]) -> Option<Bytes> {
        let removed = self.remove_rec(self.root, key);
        if removed.is_some() {
            self.len -= 1;
        }
        // shrink the root if it became a trivial internal page
        if let Page::Internal { keys, children } = self.page(self.root) {
            if keys.is_empty() {
                let only = children[0];
                let old_root = self.root;
                self.root = only;
                self.release(old_root);
            }
        }
        removed
    }

    fn remove_rec(&mut self, id: PageId, key: &[u8]) -> Option<Bytes> {
        match self.page_mut(id) {
            Page::Leaf { entries, .. } => entries
                .binary_search_by(|(k, _)| k.as_ref().cmp(key))
                .ok()
                .map(|i| entries.remove(i).1),
            Page::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k.as_ref() <= key);
                let child = children[idx];
                let removed = self.remove_rec(child, key);
                if removed.is_some() {
                    self.fix_underflow(id, idx);
                }
                removed
            }
        }
    }

    fn child_size(&self, id: PageId) -> usize {
        match self.page(id) {
            Page::Leaf { entries, .. } => entries.len(),
            Page::Internal { keys, .. } => keys.len(),
        }
    }

    /// Rebalance `children[idx]` of the internal page `parent` if underfull.
    fn fix_underflow(&mut self, parent: PageId, idx: usize) {
        let min = self.min_fill();
        let (child, left_sib, right_sib) = {
            let Page::Internal { children, .. } = self.page(parent) else {
                unreachable!()
            };
            (
                children[idx],
                (idx > 0).then(|| children[idx - 1]),
                (idx + 1 < children.len()).then(|| children[idx + 1]),
            )
        };
        if self.child_size(child) >= min {
            return;
        }
        // try borrowing from a sibling with spare capacity
        if let Some(left) = left_sib {
            if self.child_size(left) > min {
                self.borrow_from_left(parent, idx, left, child);
                return;
            }
        }
        if let Some(right) = right_sib {
            if self.child_size(right) > min {
                self.borrow_from_right(parent, idx, child, right);
                return;
            }
        }
        // merge with a sibling
        if let Some(left) = left_sib {
            self.merge(parent, idx - 1, left, child);
        } else if let Some(right) = right_sib {
            self.merge(parent, idx, child, right);
        }
    }

    fn borrow_from_left(&mut self, parent: PageId, idx: usize, left: PageId, child: PageId) {
        match self.page_mut(left) {
            Page::Leaf { entries, .. } => {
                let moved = entries.pop().expect("left sibling has spare entries");
                let new_sep = moved.0.clone();
                let Page::Leaf { entries, .. } = self.page_mut(child) else {
                    unreachable!()
                };
                entries.insert(0, moved);
                let Page::Internal { keys, .. } = self.page_mut(parent) else {
                    unreachable!()
                };
                keys[idx - 1] = new_sep;
            }
            Page::Internal { keys, children } => {
                let moved_key = keys.pop().expect("left sibling has spare keys");
                let moved_child = children.pop().expect("matching child");
                let Page::Internal { keys, .. } = self.page_mut(parent) else {
                    unreachable!()
                };
                let sep = std::mem::replace(&mut keys[idx - 1], moved_key);
                let Page::Internal { keys, children } = self.page_mut(child) else {
                    unreachable!()
                };
                keys.insert(0, sep);
                children.insert(0, moved_child);
            }
        }
    }

    fn borrow_from_right(&mut self, parent: PageId, idx: usize, child: PageId, right: PageId) {
        match self.page_mut(right) {
            Page::Leaf { entries, .. } => {
                let moved = entries.remove(0);
                let new_sep = entries[0].0.clone();
                let Page::Leaf { entries, .. } = self.page_mut(child) else {
                    unreachable!()
                };
                entries.push(moved);
                let Page::Internal { keys, .. } = self.page_mut(parent) else {
                    unreachable!()
                };
                keys[idx] = new_sep;
            }
            Page::Internal { keys, children } => {
                let moved_key = keys.remove(0);
                let moved_child = children.remove(0);
                let Page::Internal { keys, .. } = self.page_mut(parent) else {
                    unreachable!()
                };
                let sep = std::mem::replace(&mut keys[idx], moved_key);
                let Page::Internal { keys, children } = self.page_mut(child) else {
                    unreachable!()
                };
                keys.push(sep);
                children.push(moved_child);
            }
        }
    }

    /// Merge `children[left_key_idx + 1]` into `children[left_key_idx]`.
    fn merge(&mut self, parent: PageId, left_key_idx: usize, left: PageId, right: PageId) {
        let right_page = self.pages[right as usize].take().expect("live page");
        self.free.push(right);
        let sep = {
            let Page::Internal { keys, children } = self.page_mut(parent) else {
                unreachable!()
            };
            children.remove(left_key_idx + 1);
            keys.remove(left_key_idx)
        };
        match (self.page_mut(left), right_page) {
            (
                Page::Leaf { entries, next },
                Page::Leaf {
                    entries: mut right_entries,
                    next: right_next,
                },
            ) => {
                entries.append(&mut right_entries);
                *next = right_next;
            }
            (
                Page::Internal { keys, children },
                Page::Internal {
                    keys: mut right_keys,
                    children: mut right_children,
                },
            ) => {
                keys.push(sep);
                keys.append(&mut right_keys);
                children.append(&mut right_children);
            }
            _ => unreachable!("siblings are at the same level"),
        }
    }

    // ------------------------------------------------------------------
    // Compression accounting & invariants
    // ------------------------------------------------------------------

    /// `(raw_key_bytes, prefix_compressed_key_bytes)` across all leaves:
    /// within each leaf, keys share their common prefix, which is stored
    /// once.
    pub fn key_compression(&self) -> (usize, usize) {
        let mut raw = 0;
        let mut compressed = 0;
        for page in self.pages.iter().flatten() {
            if let Page::Leaf { entries, .. } = page {
                if entries.is_empty() {
                    continue;
                }
                let prefix = common_prefix_len(&entries[0].0, &entries[entries.len() - 1].0);
                compressed += prefix;
                for (k, _) in entries {
                    raw += k.len();
                    compressed += k.len().saturating_sub(prefix);
                }
            }
        }
        (raw, compressed)
    }

    /// Verify every structural invariant; panics with a description on
    /// violation. Used by tests; O(n).
    pub fn check_invariants(&self) {
        let mut leaf_depths = Vec::new();
        let mut count = 0;
        self.check_node(self.root, None, None, 1, true, &mut leaf_depths, &mut count);
        assert!(
            leaf_depths.windows(2).all(|w| w[0] == w[1]),
            "all leaves at the same depth"
        );
        assert_eq!(count, self.len, "len matches leaf entry count");
        // leaf chain yields all records in order
        let chained = self.range(&[], None, usize::MAX);
        assert_eq!(chained.len(), self.len, "leaf chain covers all records");
        assert!(
            chained.windows(2).all(|w| w[0].0 < w[1].0),
            "leaf chain strictly ordered"
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn check_node(
        &self,
        id: PageId,
        low: Option<&Bytes>,
        high: Option<&Bytes>,
        depth: usize,
        is_root: bool,
        leaf_depths: &mut Vec<usize>,
        count: &mut usize,
    ) {
        match self.page(id) {
            Page::Leaf { entries, .. } => {
                leaf_depths.push(depth);
                *count += entries.len();
                assert!(
                    entries.windows(2).all(|w| w[0].0 < w[1].0),
                    "leaf keys sorted"
                );
                if !is_root {
                    assert!(entries.len() >= self.min_fill(), "leaf occupancy");
                }
                for (k, _) in entries {
                    if let Some(l) = low {
                        assert!(k >= l, "leaf key respects lower separator");
                    }
                    if let Some(h) = high {
                        assert!(k < h, "leaf key respects upper separator");
                    }
                }
            }
            Page::Internal { keys, children } => {
                assert_eq!(children.len(), keys.len() + 1, "fanout shape");
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "separators sorted");
                if !is_root {
                    assert!(keys.len() >= self.min_fill(), "internal occupancy");
                } else {
                    assert!(!keys.is_empty(), "root internal non-trivial");
                }
                for (i, &c) in children.iter().enumerate() {
                    let l = if i == 0 { low } else { Some(&keys[i - 1]) };
                    let h = if i == keys.len() {
                        high
                    } else {
                        Some(&keys[i])
                    };
                    self.check_node(c, l, h, depth + 1, false, leaf_depths, count);
                }
            }
        }
    }
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn bn(n: u32) -> Bytes {
        Bytes::from(format!("{n:08}").into_bytes())
    }

    #[test]
    fn insert_get_overwrite() {
        let mut t = BPlusTree::new(4);
        assert_eq!(t.insert(b("k1"), b("v1")), None);
        assert_eq!(t.insert(b("k1"), b("v2")), Some(b("v1")));
        assert_eq!(t.get(b"k1"), Some(&b("v2")));
        assert_eq!(t.get(b"nope"), None);
        assert_eq!(t.len(), 1);
        t.check_invariants();
    }

    #[test]
    fn grows_and_stays_balanced() {
        let mut t = BPlusTree::new(4);
        for i in 0..500 {
            t.insert(bn(i), bn(i * 2));
            if i % 37 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
        assert_eq!(t.len(), 500);
        assert!(t.depth() > 2, "tree actually grew");
        for i in 0..500 {
            assert_eq!(t.get(&bn(i)), Some(&bn(i * 2)), "key {i}");
        }
    }

    #[test]
    fn reverse_and_interleaved_insert_orders() {
        for order in [4, 5, 8, 33] {
            let mut t = BPlusTree::new(order);
            for i in (0..300).rev() {
                t.insert(bn(i), bn(i));
            }
            t.check_invariants();
            let mut t2 = BPlusTree::new(order);
            for i in 0..300 {
                let j = (i * 7919) % 300;
                t2.insert(bn(j), bn(j));
            }
            t2.check_invariants();
            assert_eq!(t.len(), t2.len());
        }
    }

    #[test]
    fn remove_everything_both_directions() {
        let mut t = BPlusTree::new(4);
        for i in 0..300 {
            t.insert(bn(i), bn(i));
        }
        for i in 0..150 {
            assert_eq!(t.remove(&bn(i)), Some(bn(i)), "forward {i}");
            if i % 13 == 0 {
                t.check_invariants();
            }
        }
        for i in (150..300).rev() {
            assert_eq!(t.remove(&bn(i)), Some(bn(i)), "backward {i}");
            if i % 13 == 0 {
                t.check_invariants();
            }
        }
        assert!(t.is_empty());
        t.check_invariants();
        assert_eq!(t.remove(b"absent"), None);
        // pages were recycled down to the single root leaf
        assert_eq!(t.page_count(), 1);
    }

    #[test]
    fn range_scans() {
        let mut t = BPlusTree::new(4);
        for i in 0..100 {
            t.insert(bn(i), bn(i));
        }
        let all = t.range(&[], None, usize::MAX);
        assert_eq!(all.len(), 100);
        let window = t.range(&bn(10), Some(&bn(19)), usize::MAX);
        assert_eq!(window.len(), 10);
        assert_eq!(window[0].0, bn(10));
        assert_eq!(window[9].0, bn(19));
        let limited = t.range(&bn(0), None, 7);
        assert_eq!(limited.len(), 7);
        assert_eq!(t.first().unwrap().0, bn(0));
        // range starting between keys ("00000005x" sorts between 5 and 6)
        let between = t.range(b"00000005x", Some(&bn(7)), usize::MAX);
        assert_eq!(between.len(), 2); // 6, 7
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = BPlusTree::new(4);
        assert!(t.is_empty());
        assert_eq!(t.get(b"x"), None);
        assert!(t.range(&[], None, 10).is_empty());
        assert_eq!(t.first(), None);
        assert_eq!(t.depth(), 1);
        t.check_invariants();
    }

    #[test]
    fn compression_accounting() {
        let mut t = BPlusTree::new(8);
        for i in 0..64 {
            t.insert(b(&format!("customer/region-west/{i:04}")), bn(i));
        }
        let (raw, compressed) = t.key_compression();
        assert!(
            raw > compressed,
            "shared prefixes compress: {raw} vs {compressed}"
        );
    }

    #[test]
    #[should_panic(expected = "order must be at least 4")]
    fn order_validated() {
        let _ = BPlusTree::new(3);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Insert(u16, u16),
            Remove(u16),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u16..600, any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v)),
                (0u16..600).prop_map(Op::Remove),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn matches_model(ops in prop::collection::vec(op_strategy(), 1..400), order in 4usize..12) {
                let mut tree = BPlusTree::new(order);
                let mut model = std::collections::BTreeMap::new();
                for op in ops {
                    match op {
                        Op::Insert(k, v) => {
                            let key = Bytes::from(format!("{k:05}"));
                            let val = Bytes::from(format!("{v}"));
                            let expect = model.insert(key.clone(), val.clone());
                            prop_assert_eq!(tree.insert(key, val), expect);
                        }
                        Op::Remove(k) => {
                            let key = Bytes::from(format!("{k:05}"));
                            let expect = model.remove(&key);
                            prop_assert_eq!(tree.remove(&key), expect);
                        }
                    }
                }
                tree.check_invariants();
                prop_assert_eq!(tree.len(), model.len());
                let scanned = tree.range(&[], None, usize::MAX);
                let expected: Vec<(Bytes, Bytes)> =
                    model.into_iter().collect();
                prop_assert_eq!(scanned, expected);
            }
        }
    }
}
