//! The partition map: record-key ranges → master nodes.
//!
//! A [`ShardMap`] is the routing table of the sharding layer. Each slot
//! owns the key range `[low_key, next_low_key)` and names the node that
//! masters records in that range. The map answers three questions:
//!
//! * **routing** — which node masters this key ([`ShardMap::master_of`])?
//! * **addressing** — what `ReadRange` bounds cover one slot without
//!   leaking into its neighbor ([`ShardMap::scan_bounds`],
//!   [`ShardMap::node_bounds`])? `ReadRange` addresses the partition
//!   holding `low`, so a scan bounded by a slot's range is guaranteed to
//!   stay on one volume.
//! * **replication** — which nodes hold replicas of a record mastered
//!   here ([`ShardMap::replica_set`], a ring over the masters)?
//!
//! The same map builds the catalog: [`ShardMap::partitions`] produces the
//! `PartitionSpec` list for a partitioned key-sequenced file whose
//! partition boundaries coincide with the shard boundaries.

use bytes::Bytes;
use encompass_sim::NodeId;
use encompass_storage::types::PartitionSpec;

/// Key-range → master-node assignment. Slots are ascending by `low_key`;
/// the first slot's `low_key` is empty so every key routes somewhere.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    slots: Vec<(Bytes, NodeId)>,
}

impl ShardMap {
    /// Build from explicit slots. Panics unless the first low key is empty
    /// and the low keys are strictly ascending (a configuration bug).
    pub fn new(slots: Vec<(Bytes, NodeId)>) -> ShardMap {
        assert!(!slots.is_empty(), "a shard map needs at least one slot");
        assert!(
            slots[0].0.is_empty(),
            "the first slot's low key must be empty"
        );
        for w in slots.windows(2) {
            assert!(w[0].0 < w[1].0, "slot low keys must be strictly ascending");
        }
        ShardMap { slots }
    }

    /// One slot per master, key space `0..keys` split evenly, slot
    /// boundaries rendered through `key_of` (e.g. `account_key`).
    pub fn uniform(masters: &[NodeId], keys: u64, key_of: impl Fn(u64) -> Bytes) -> ShardMap {
        assert!(!masters.is_empty(), "a shard map needs at least one master");
        let n = masters.len() as u64;
        let slots = masters
            .iter()
            .enumerate()
            .map(|(j, &m)| {
                let low = if j == 0 {
                    Bytes::new()
                } else {
                    key_of(keys * j as u64 / n)
                };
                (low, m)
            })
            .collect();
        ShardMap::new(slots)
    }

    pub fn slots(&self) -> &[(Bytes, NodeId)] {
        &self.slots
    }

    /// The slot index owning `key`: the last slot whose low key ≤ `key`.
    pub fn slot_of(&self, key: &[u8]) -> usize {
        self.slots.partition_point(|(low, _)| low.as_ref() <= key) - 1
    }

    /// The node that masters `key`.
    pub fn master_of(&self, key: &[u8]) -> NodeId {
        self.slots[self.slot_of(key)].1
    }

    /// The distinct master nodes, in first-appearance slot order.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        for (_, m) in &self.slots {
            if !out.contains(m) {
                out.push(*m);
            }
        }
        out
    }

    /// `ReadRange` bounds for one slot: `(low, Some(next_low))`, or
    /// `(low, None)` for the last slot. A scan with these bounds addresses
    /// exactly the slot's partition.
    pub fn scan_bounds(&self, slot: usize) -> (Bytes, Option<Bytes>) {
        let low = self.slots[slot].0.clone();
        let high = self.slots.get(slot + 1).map(|(l, _)| l.clone());
        (low, high)
    }

    /// All `ReadRange` bounds of the slots mastered by `node` (a node may
    /// own several non-contiguous slots).
    pub fn node_bounds(&self, node: NodeId) -> Vec<(Bytes, Option<Bytes>)> {
        (0..self.slots.len())
            .filter(|&j| self.slots[j].1 == node)
            .map(|j| self.scan_bounds(j))
            .collect()
    }

    /// Build the `PartitionSpec` list for a partitioned file whose
    /// partition boundaries are the shard boundaries; `volume_of` names
    /// each master's volume.
    pub fn partitions(
        &self,
        volume_of: impl Fn(NodeId) -> encompass_storage::types::VolumeRef,
    ) -> Vec<PartitionSpec> {
        self.slots
            .iter()
            .map(|(low, m)| PartitionSpec {
                low_key: low.clone(),
                volume: volume_of(*m),
            })
            .collect()
    }

    /// The replica set of a record mastered at `master`: the next
    /// `replicas` distinct masters around the ring (excluding `master`).
    /// With `replicas >= nodes-1` this is full replication.
    pub fn replica_set(&self, master: NodeId, replicas: usize) -> Vec<NodeId> {
        let nodes = self.nodes();
        let Some(at) = nodes.iter().position(|&n| n == master) else {
            return Vec::new();
        };
        (1..nodes.len())
            .take(replicas)
            .map(|d| nodes[(at + d) % nodes.len()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encompass_storage::types::VolumeRef;

    fn key(i: u64) -> Bytes {
        Bytes::from(format!("k{i:06}"))
    }

    #[test]
    fn uniform_routes_every_key_to_one_master() {
        let masters: Vec<NodeId> = (0..4).map(NodeId).collect();
        let map = ShardMap::uniform(&masters, 100, key);
        assert_eq!(map.master_of(&key(0)), NodeId(0));
        assert_eq!(map.master_of(&key(24)), NodeId(0));
        assert_eq!(map.master_of(&key(25)), NodeId(1));
        assert_eq!(map.master_of(&key(99)), NodeId(3));
        // below the first rendered key still routes (empty low key)
        assert_eq!(map.master_of(b""), NodeId(0));
    }

    #[test]
    fn scan_bounds_tile_the_key_space() {
        let masters: Vec<NodeId> = (0..3).map(NodeId).collect();
        let map = ShardMap::uniform(&masters, 90, key);
        let (l0, h0) = map.scan_bounds(0);
        let (l1, h1) = map.scan_bounds(1);
        let (l2, h2) = map.scan_bounds(2);
        assert!(l0.is_empty());
        assert_eq!(h0.as_ref(), Some(&l1));
        assert_eq!(h1.as_ref(), Some(&l2));
        assert_eq!(h2, None);
    }

    #[test]
    fn partitions_match_slots() {
        let masters: Vec<NodeId> = (0..2).map(NodeId).collect();
        let map = ShardMap::uniform(&masters, 10, key);
        let parts = map.partitions(|n| VolumeRef::new(n, "$S"));
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].volume.node, NodeId(0));
        assert_eq!(parts[1].volume.node, NodeId(1));
        assert_eq!(parts[1].low_key, key(5));
    }

    #[test]
    fn replica_set_is_a_ring() {
        let masters: Vec<NodeId> = (0..4).map(NodeId).collect();
        let map = ShardMap::uniform(&masters, 100, key);
        assert_eq!(map.replica_set(NodeId(2), 2), vec![NodeId(3), NodeId(0)]);
        // full replication caps at nodes-1
        assert_eq!(map.replica_set(NodeId(0), 10).len(), 3);
        assert!(!map.replica_set(NodeId(1), 10).contains(&NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "first slot")]
    fn first_low_key_must_be_empty() {
        let _ = ShardMap::new(vec![(Bytes::from_static(b"a"), NodeId(0))]);
    }

    #[test]
    fn node_bounds_cover_non_contiguous_slots() {
        let map = ShardMap::new(vec![
            (Bytes::new(), NodeId(0)),
            (Bytes::from_static(b"g"), NodeId(1)),
            (Bytes::from_static(b"p"), NodeId(0)),
        ]);
        let bounds = map.node_bounds(NodeId(0));
        assert_eq!(bounds.len(), 2);
        assert_eq!(bounds[1].0, Bytes::from_static(b"p"));
        assert_eq!(bounds[0].1, Some(Bytes::from_static(b"g")));
    }
}
