//! The one type for a list several holders read.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A list several holders read, in one block that they share (DESIGN.md
/// §D19(e), (f)): a clone is a reference-count bump, never a copy, and no
/// holder can change what another reads. Adding to the list builds the
/// next one in one allocation; the empty list is no block at all.
///
/// A TMP transaction's volumes and children, a write's before/after
/// images (the audit append, the checkpoint and the retained undo are one
/// list) and a SEND's parameters are lists of this kind.
pub struct Members<T>(Option<Arc<[T]>>);

impl<T> Default for Members<T> {
    fn default() -> Self {
        Members(None)
    }
}

impl<T> Clone for Members<T> {
    fn clone(&self) -> Self {
        Members(self.0.clone())
    }
}

impl<T> Deref for Members<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.0.as_deref().unwrap_or(&[])
    }
}

impl<T: fmt::Debug> fmt::Debug for Members<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for Members<T> {
    fn eq(&self, other: &Members<T>) -> bool {
        **self == **other
    }
}

/// One allocation when the iterator knows its exact length (a `map` over
/// a slice, an array, a chain of them), none when it is empty.
impl<T> FromIterator<T> for Members<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Members<T> {
        let mut items = iter.into_iter().peekable();
        match items.peek() {
            Some(_) => Members(Some(items.collect())),
            None => Members(None),
        }
    }
}

impl<T: Clone> Members<T> {
    /// The list with `member` inserted at `at`, in one allocation.
    pub fn inserted(&self, at: usize, member: T) -> Members<T> {
        let (head, tail) = self.split_at(at);
        (head.iter().cloned())
            .chain([member])
            .chain(tail.iter().cloned())
            .collect()
    }

    /// This list followed by `more`: the other list itself when either is
    /// empty, else one new block.
    pub fn concat(&self, more: &Members<T>) -> Members<T> {
        match (self.is_empty(), more.is_empty()) {
            (true, _) => more.clone(),
            (false, true) => self.clone(),
            (false, false) => self.iter().chain(more.iter()).cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // every operation reads as the same operation on a `Vec`
    proptest! {
        #[test]
        fn members_read_as_a_vec(
            a in prop::collection::vec(0u32..100, 0..12),
            b in prop::collection::vec(0u32..100, 0..12),
            at in 0usize..13,
            member in 0u32..100,
        ) {
            let (ma, mb): (Members<u32>, Members<u32>) =
                (a.iter().copied().collect(), b.iter().copied().collect());
            prop_assert_eq!(&ma[..], &a[..]);
            prop_assert_eq!(ma.is_empty(), a.is_empty());

            let at = at.min(a.len());
            let mut inserted = a.clone();
            inserted.insert(at, member);
            prop_assert_eq!(&ma.inserted(at, member)[..], &inserted[..]);
            prop_assert_eq!(&ma[..], &a[..], "inserting builds a new list");

            let joined: Vec<u32> = a.iter().chain(&b).copied().collect();
            prop_assert_eq!(&ma.concat(&mb)[..], &joined[..]);
            prop_assert_eq!(ma.concat(&mb) == mb.concat(&ma), joined == [&b[..], &a[..]].concat());
        }
    }

    #[test]
    fn a_clone_shares_the_block_and_concat_reuses_a_lone_list() {
        let empty: Members<u32> = std::iter::empty().collect();
        assert!(empty.0.is_none(), "an empty list is no block");
        let list: Members<u32> = [1, 2, 3].into_iter().collect();
        let same = |x: &Members<u32>, y: &Members<u32>| match (&x.0, &y.0) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        };
        assert!(same(&list, &list.clone()));
        assert!(same(&list, &empty.concat(&list)), "a first list is adopted");
        assert!(same(&list, &list.concat(&empty)));
        assert!(!same(&list, &list.concat(&list)));
        assert_eq!(format!("{:?}", list.inserted(0, 0)), "[0, 1, 2, 3]");
    }
}
