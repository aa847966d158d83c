//! Cheap-to-clone names.
//!
//! File, volume and service names are configured once and then travel in
//! every data operation, lock, audit image and request target. A [`Name`]
//! is an immutable string whose clone is a pointer copy (a literal) or a
//! reference-count bump (a configured name), so passing one along costs no
//! allocation. It compares, orders, hashes and prints exactly as the `str`
//! it holds — a `BTreeMap<Name, _>` iterates in the order the same map
//! keyed by `String` would, and is looked up with a plain `&str`.
//!
//! Shaped like the `Bytes` shim. The shared arm is `Arc`, not `Rc`: names
//! ride inside [`crate::Payload`]s, which are `Send`.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply-cloneable name.
#[derive(Clone)]
pub enum Name {
    Static(&'static str),
    Shared(Arc<str>),
}

impl Name {
    /// A name built at run time (one allocation, here and never again).
    pub fn new(s: &str) -> Name {
        Name::Shared(Arc::from(s))
    }

    pub const fn from_static(s: &'static str) -> Name {
        Name::Static(s)
    }

    pub fn as_str(&self) -> &str {
        match self {
            Name::Static(s) => s,
            Name::Shared(s) => s,
        }
    }
}

impl Default for Name {
    fn default() -> Name {
        Name::Static("")
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

/// Literals cost nothing; anything shorter-lived goes through
/// [`Name::new`].
impl From<&'static str> for Name {
    fn from(s: &'static str) -> Name {
        Name::Static(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::Shared(Arc::from(s))
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}
impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetHashMap;
    use std::collections::BTreeMap;
    use std::hash::BuildHasher;

    const WORDS: [&str; 7] = ["", "$TMP", "$AUDIT", "accounts", "accounts.idx", "Z", "a"];

    #[test]
    fn orders_as_str_does_whichever_arm_holds_it() {
        for a in WORDS {
            for b in WORDS {
                for (x, y) in [
                    (Name::from_static(a), Name::from_static(b)),
                    (Name::new(a), Name::from_static(b)),
                    (Name::new(a), Name::new(b)),
                ] {
                    assert_eq!(x.cmp(&y), a.cmp(b), "{a:?} vs {b:?}");
                    assert_eq!(x == y, a == b);
                }
            }
        }
        let by_name: BTreeMap<Name, usize> =
            WORDS.iter().map(|w| (Name::new(w), w.len())).collect();
        let by_string: BTreeMap<String, usize> =
            WORDS.iter().map(|w| (w.to_string(), w.len())).collect();
        assert!(by_name
            .keys()
            .map(Name::as_str)
            .eq(by_string.keys().map(String::as_str)));
    }

    #[test]
    fn maps_keyed_by_name_are_looked_up_with_str() {
        let mut tree = BTreeMap::new();
        tree.insert(Name::new("accounts"), 1);
        tree.insert(Name::from("history"), 2);
        assert_eq!(tree.get("accounts"), Some(&1));
        assert_eq!(tree.get("history"), Some(&2));
        assert_eq!(tree.get("absent"), None);

        let mut table: DetHashMap<Name, u32> = DetHashMap::default();
        table.insert(Name::from("$TMP"), 7);
        assert_eq!(table.get("$TMP"), Some(&7));
        // `Borrow<str>` is only sound because the hashes agree
        let hasher = table.hasher();
        for w in WORDS {
            assert_eq!(hasher.hash_one(Name::new(w)), hasher.hash_one(w));
            assert_eq!(hasher.hash_one(Name::from_static(w)), hasher.hash_one(w));
        }
    }

    #[test]
    fn prints_as_str_does() {
        for w in WORDS {
            assert_eq!(format!("{}", Name::new(w)), format!("{w}"));
            assert_eq!(format!("{:?}", Name::new(w)), format!("{w:?}"));
            assert_eq!(format!("{:>8}|", Name::from_static(w)), format!("{w:>8}|"));
        }
        assert_eq!(Name::default(), "");
        assert_eq!(Name::from(String::from("$SC-bank")), *"$SC-bank");
    }
}
