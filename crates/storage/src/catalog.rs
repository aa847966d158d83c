//! The data dictionary: file definitions shared by DISCPROCESSes and the
//! File System client layer. In real ENCOMPASS this is the DDL dictionary;
//! here it is a value constructed at configuration time and handed to
//! every process that needs it — a handle on one shared dictionary, so a
//! clone is a reference-count bump however many files and nodes there are.

use crate::types::{FileDef, VolumeRef};
use encompass_sim::Name;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A set of file definitions. Builders [`Catalog::add`] before they hand
/// out clones; adding to a clone afterwards copies the dictionary for that
/// clone and leaves every other holder's unchanged. (`Arc`, not `Rc`, so the
/// type stays `Send + Sync` as the map it wraps is.)
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    files: Arc<BTreeMap<Name, FileDef>>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a file.
    pub fn add(&mut self, def: FileDef) -> &mut Catalog {
        assert!(
            !self.files.contains_key(&*def.name),
            "duplicate file {}",
            def.name
        );
        Arc::make_mut(&mut self.files).insert(def.name.clone(), def);
        self
    }

    pub fn get(&self, name: &str) -> Option<&FileDef> {
        self.files.get(name)
    }

    /// Which volume holds `key` of `file`.
    pub fn volume_for(&self, file: &str, key: &[u8]) -> Option<VolumeRef> {
        Some(self.get(file)?.volume_for(key).clone())
    }

    /// Every volume referenced by any file.
    pub fn all_volumes(&self) -> Vec<VolumeRef> {
        let mut vols: Vec<VolumeRef> = self
            .files
            .values()
            .flat_map(|d| d.partitions.iter().map(|p| p.volume.clone()))
            .collect();
        vols.sort();
        vols.dedup();
        vols
    }

    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &FileDef> {
        self.files.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FileDef, PartitionSpec};
    use bytes::Bytes;
    use encompass_sim::NodeId;

    fn vol(n: u8, name: &str) -> VolumeRef {
        VolumeRef::new(NodeId(n), name)
    }

    #[test]
    fn add_and_route() {
        let mut c = Catalog::new();
        c.add(
            FileDef::key_sequenced("stock", vol(0, "$D0")).partitioned(vec![
                PartitionSpec {
                    low_key: Bytes::new(),
                    volume: vol(0, "$D0"),
                },
                PartitionSpec {
                    low_key: Bytes::from_static(b"n"),
                    volume: vol(1, "$D1"),
                },
            ]),
        );
        c.add(FileDef::key_sequenced("orders", vol(0, "$D0")));
        assert_eq!(c.volume_for("stock", b"apple"), Some(vol(0, "$D0")));
        assert_eq!(c.volume_for("stock", b"zebra"), Some(vol(1, "$D1")));
        assert_eq!(c.volume_for("missing", b"x"), None);
        assert_eq!(c.all_volumes().len(), 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn a_clone_shares_the_dictionary_until_it_adds() {
        let mut source = Catalog::new();
        source.add(FileDef::key_sequenced("f", vol(0, "$D0")));
        let mut clone = source.clone();
        assert!(std::ptr::eq(
            source.get("f").expect("source has f"),
            clone.get("f").expect("clone has f"),
        ));
        clone.add(FileDef::key_sequenced("g", vol(0, "$D0")));
        assert_eq!((source.len(), clone.len()), (1, 2));
        assert!(source.get("g").is_none());
        // and a later clone of the source still shares with it
        assert!(std::ptr::eq(
            source.get("f").expect("source has f"),
            source.clone().get("f").expect("clone has f"),
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate file")]
    fn duplicate_rejected() {
        let mut c = Catalog::new();
        c.add(FileDef::key_sequenced("f", vol(0, "$D0")));
        c.add(FileDef::key_sequenced("f", vol(0, "$D0")));
    }
}
