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
//!
//! A process that touches its medium on every event resolves the key to a
//! [`MediaId`] once and indexes thereafter (DESIGN.md §D21); drivers,
//! oracles and tests go by name.

use std::any::Any;
use std::collections::BTreeMap;

/// The slot of one key in one world's [`StableStorage`]: stable for the
/// life of the world, across [`StableStorage::remove`] and re-creation.
/// Means nothing to another world.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MediaId(u32);

/// Type-erased store of persistent media, keyed by name
/// (e.g. `"\\N0.$DATA1"` for a disc volume).
#[derive(Default)]
pub struct StableStorage {
    /// Every key ever named; entries are never dropped, so ids stay valid.
    ids: BTreeMap<String, MediaId>,
    /// By id: `None` before the medium is created and after it is removed.
    media: Vec<Option<Box<dyn Any>>>,
}

impl StableStorage {
    pub fn new() -> StableStorage {
        StableStorage::default()
    }

    /// The id of `key`, whether or not a medium exists under it yet.
    pub fn id(&mut self, key: &str) -> MediaId {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = MediaId(self.media.len() as u32);
        self.media.push(None);
        self.ids.insert(key.to_string(), id);
        id
    }

    /// The slot of `key`, if it was ever named.
    fn slot(&self, key: &str) -> Option<usize> {
        self.ids.get(key).map(|id| id.0 as usize)
    }

    /// Create the media object of `id` with `init` if absent, then borrow
    /// it. Panics if a media object exists there under a different type —
    /// that is a wiring bug, not a runtime condition.
    pub fn get_or_create_at<T: Any, F: FnOnce() -> T>(&mut self, id: MediaId, init: F) -> &mut T {
        let ids = &self.ids;
        self.media[id.0 as usize]
            .get_or_insert_with(|| Box::new(init()))
            .downcast_mut::<T>()
            .unwrap_or_else(|| {
                let key = ids.iter().find(|(_, of)| **of == id).map(|(key, _)| key);
                panic!(
                    "stable media {:?} exists with a different type",
                    key.expect("ids are only made by naming a key")
                )
            })
    }

    /// [`StableStorage::get_or_create_at`] by name.
    pub fn get_or_create<T: Any, F: FnOnce() -> T>(&mut self, key: &str, init: F) -> &mut T {
        let id = self.id(key);
        self.get_or_create_at(id, init)
    }

    /// Borrow existing media, if present and of type `T`.
    pub fn get_mut<T: Any>(&mut self, key: &str) -> Option<&mut T> {
        let slot = self.slot(key)?;
        self.media[slot].as_mut()?.downcast_mut::<T>()
    }

    /// Borrow existing media immutably.
    pub fn get<T: Any>(&self, key: &str) -> Option<&T> {
        self.media[self.slot(key)?].as_ref()?.downcast_ref::<T>()
    }

    /// True if a media object with this key exists.
    pub fn contains(&self, key: &str) -> bool {
        self.slot(key)
            .is_some_and(|slot| self.media[slot].is_some())
    }

    /// Destroy a media object (models scratching a disc pack). Returns true
    /// if something was removed. The key keeps its id.
    pub fn remove(&mut self, key: &str) -> bool {
        self.slot(key)
            .is_some_and(|slot| self.media[slot].take().is_some())
    }

    /// Names of all media that exist, in order.
    pub fn keys(&self) -> Vec<String> {
        self.ids
            .iter()
            .filter(|(_, id)| self.media[id.0 as usize].is_some())
            .map(|(key, _)| key.clone())
            .collect()
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

    #[test]
    fn an_id_outlives_its_medium() {
        let mut s = StableStorage::new();
        let (a, b) = (s.id("a"), s.id("b"));
        assert_ne!(a, b);
        // naming a key creates nothing
        assert!(!s.contains("a") && s.keys().is_empty());
        *s.get_or_create_at(a, || 1u32) += 1;
        assert_eq!(s.get::<u32>("a"), Some(&2));
        assert_eq!(s.id("a"), a);

        assert!(s.remove("a"));
        assert!(!s.contains("a") && s.get::<u32>("a").is_none());
        assert_eq!(s.id("a"), a, "same slot after remove");
        // re-created through either view, both see it — and under a new type
        s.get_or_create("a", || String::from("again"));
        assert_eq!(s.get_or_create_at(a, String::new), "again");
        s.get_or_create_at(b, || 9u8);
        assert_eq!(s.keys(), vec!["a".to_string(), "b".to_string()]);
        assert!(s.remove("b"));
        assert_eq!(s.keys(), vec!["a".to_string()], "live media only");
    }

    #[test]
    #[should_panic(expected = "stable media \"v\" exists with a different type")]
    fn conflicting_create_by_id_panics_with_the_key() {
        let mut s = StableStorage::new();
        let v = s.id("v");
        s.get_or_create_at(v, || 1u32);
        s.get_or_create_at(v, String::new);
    }
}
