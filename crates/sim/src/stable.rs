//! Stable storage: simulated disc media that survive processor failures.
//!
//! A `DISCPROCESS` pair can lose both of its processors, but the bits on the
//! platters remain. Modeling that correctly is essential for ROLLFORWARD
//! (recovery from total node failure). The kernel therefore owns a
//! type-erased key/value store of "media" objects; storage-layer processes
//! access their volume's media through [`crate::Ctx::stable`], and the media
//! outlive any process.
//!
//! Media objects are plain Rust values (e.g. the storage crate's block
//! arrays); the type is chosen by the layer that creates them.

use std::any::Any;
use std::collections::BTreeMap;

/// Type-erased store of persistent media, keyed by name
/// (e.g. `"\\N0.$DATA1"` for a disc volume).
#[derive(Default)]
pub struct StableStorage {
    media: BTreeMap<String, Box<dyn Any>>,
}

impl StableStorage {
    pub fn new() -> StableStorage {
        StableStorage::default()
    }

    /// Create the media object `key` with `init` if absent, then borrow it.
    /// Panics if a media object with the same key exists under a different
    /// type — that is a wiring bug, not a runtime condition.
    pub fn get_or_create<T: Any, F: FnOnce() -> T>(&mut self, key: &str, init: F) -> &mut T {
        // not `entry`: its owned key would be allocated on every hit
        if !self.media.contains_key(key) {
            self.media.insert(key.to_string(), Box::new(init()));
        }
        self.media
            .get_mut(key)
            .expect("present or just inserted")
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("stable media {key:?} exists with a different type"))
    }

    /// Borrow existing media, if present and of type `T`.
    pub fn get_mut<T: Any>(&mut self, key: &str) -> Option<&mut T> {
        self.media.get_mut(key)?.downcast_mut::<T>()
    }

    /// Borrow existing media immutably.
    pub fn get<T: Any>(&self, key: &str) -> Option<&T> {
        self.media.get(key)?.downcast_ref::<T>()
    }

    /// True if a media object with this key exists.
    pub fn contains(&self, key: &str) -> bool {
        self.media.contains_key(key)
    }

    /// Destroy a media object (models scratching a disc pack). Returns true
    /// if something was removed.
    pub fn remove(&mut self, key: &str) -> bool {
        self.media.remove(key).is_some()
    }

    /// Names of all media, in order.
    pub fn keys(&self) -> Vec<String> {
        self.media.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_mutate() {
        let mut s = StableStorage::new();
        *s.get_or_create("v", || 0u32) += 5;
        *s.get_or_create("v", || 0u32) += 2;
        assert_eq!(*s.get::<u32>("v").unwrap(), 7);
    }

    #[test]
    fn type_isolation() {
        let mut s = StableStorage::new();
        s.get_or_create("v", || 1u32);
        assert!(s.get::<String>("v").is_none());
        assert!(s.get_mut::<String>("v").is_none());
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn conflicting_create_panics() {
        let mut s = StableStorage::new();
        s.get_or_create("v", || 1u32);
        s.get_or_create("v", String::new);
    }

    #[test]
    fn remove_and_keys() {
        let mut s = StableStorage::new();
        s.get_or_create("a", || 1u8);
        s.get_or_create("b", || 2u8);
        assert_eq!(s.keys(), vec!["a".to_string(), "b".to_string()]);
        assert!(s.remove("a"));
        assert!(!s.remove("a"));
        assert!(!s.contains("a"));
    }
}
