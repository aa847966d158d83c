//! What a volume keeps of its settled transactions: the snapshot-undo
//! ring that snapshot reads reconstruct old values from, and the
//! settled-fence ring that refuses their straggler writes. Both are FIFO
//! rings of bounded size, replicated to the backup whole.

use crate::audit_api::ImageRecord;
use crate::transids::TransidSet;
use crate::types::Transid;
use bytes::Bytes;
use encompass_sim::{push_bounded, Name, NodeId};
use std::collections::VecDeque;

/// Settled-transaction fences retained to refuse straggler writes (a FIFO
/// ring, `SettledFences`). Old enough fences are evicted — by then every
/// retransmission of the transaction's requests has long since drained.
pub const SETTLED_FENCE_CAPACITY: usize = 4096;

/// One entry of the snapshot-undo ring: what a snapshot read needs of a
/// committed writer's image, and no more (the rest of the
/// [`ImageRecord`] is on the audit trail).
#[derive(Clone)]
struct UndoEntry {
    /// The volume commit sequence of the writer's transaction.
    commit_seq: u64,
    file: Name,
    key: Bytes,
    before: Option<Bytes>,
}

/// Before-images of committed transactions in commit order, at most `cap`
/// of them, and the volume commit sequence that orders them.
/// Reconstructing a key as of fence F takes the `before` of the first
/// entry with `commit_seq > F`, because per-key commit order equals
/// append order (exclusive record locks serialize writers).
#[derive(Clone)]
pub(super) struct UndoRing {
    cap: usize,
    /// Volume commit sequence: bumped once per committed transaction with
    /// images here, at the moment its locks release. A snapshot fence is
    /// a value of this counter.
    seq: u64,
    /// Highest commit sequence evicted from the ring; fences below it are
    /// too old to reconstruct.
    evicted: u64,
    entries: VecDeque<UndoEntry>,
}

impl UndoRing {
    pub(super) fn new(cap: usize) -> UndoRing {
        UndoRing {
            cap,
            seq: 0,
            evicted: 0,
            entries: VecDeque::new(),
        }
    }

    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The fence a snapshot read runs at — the one it carries, or else the
    /// current commit sequence — unless that has aged out of the ring.
    pub(super) fn fence(&self, carried: Option<u64>) -> Option<u64> {
        let fence = carried.unwrap_or(self.seq);
        (fence >= self.evicted).then_some(fence)
    }

    /// Move a committed transaction's before-images in under the next
    /// commit sequence (defining "the volume state after this commit" for
    /// snapshot readers), evicting the oldest entries past `cap`.
    pub(super) fn commit(&mut self, images: &[ImageRecord]) {
        self.seq += 1;
        for img in images {
            let entry = UndoEntry {
                commit_seq: self.seq,
                file: img.file.clone(),
                key: img.key.clone(),
                before: img.before.clone(),
            };
            if let Some(evicted) = push_bounded(&mut self.entries, self.cap, entry) {
                self.evicted = self.evicted.max(evicted.commit_seq);
            }
        }
    }

    /// The `before` of the first entry for `(file, key)` whose writer
    /// committed after `fence`: the key's value at the fence, if a
    /// committed writer has changed it since. `commit_seq` never decreases
    /// along the ring, so those entries are a suffix, found by binary
    /// search.
    pub(super) fn lookup(&self, file: &str, key: &[u8], fence: u64) -> Option<&Option<Bytes>> {
        let start = self.entries.partition_point(|e| e.commit_seq <= fence);
        (self.entries.range(start..))
            .find(|e| e.file == file && e.key[..] == *key)
            .map(|e| &e.before)
    }
}

/// Fences of settled (released) transactions, retired FIFO once the ring
/// holds [`SETTLED_FENCE_CAPACITY`]. Straggler data ops for a settled
/// transaction are still refused while its fence is retained; by eviction
/// time every retransmission of the transaction's requests has drained
/// (its sessions got their replies thousands of transactions ago).
/// Without the bound the set would grow with every transaction the volume
/// ever saw — the unbounded-state leak the soak tier's oracle catches.
/// The backup's copy is a clone of both.
#[derive(Clone, Default)]
pub struct SettledFences {
    /// The fences in the order they settled, each [`pack`]ed into 8 bytes.
    ring: VecDeque<u64>,
    /// The same fences, a run of slots per home node (DESIGN.md §D30).
    set: TransidSet,
}

impl SettledFences {
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    pub fn contains(&self, transid: &Transid) -> bool {
        self.set.contains(transid)
    }

    /// Retain `transid`'s fence (once), evicting the oldest past capacity.
    pub fn settle(&mut self, transid: Transid) {
        if !self.set.insert(transid, ()) {
            return;
        }
        if let Some(old) = push_bounded(&mut self.ring, SETTLED_FENCE_CAPACITY, pack(transid)) {
            self.set.remove(&unpack(old));
        }
    }
}

/// Bits of a packed transid's sequence number; the home node and the cpu
/// take a byte each above them.
const SEQ_BITS: u32 = 48;

/// `transid` in one word: home node, cpu, then the sequence number. A
/// node would have to begin 2^48 transactions to reach a sequence number
/// that does not fit, so one that does not is a bug, and it panics.
fn pack(transid: Transid) -> u64 {
    assert!(
        transid.seq >> SEQ_BITS == 0,
        "{transid}: its sequence number does not fit a settled-fence slot"
    );
    u64::from(transid.home_node.0) << (SEQ_BITS + 8)
        | u64::from(transid.cpu) << SEQ_BITS
        | transid.seq
}

fn unpack(packed: u64) -> Transid {
    Transid {
        home_node: NodeId((packed >> (SEQ_BITS + 8)) as u8),
        cpu: (packed >> SEQ_BITS) as u8,
        seq: packed & ((1 << SEQ_BITS) - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FileOrganization, VolumeRef};
    use proptest::prelude::*;

    fn image(seq: u64, key: &str, before: u64) -> ImageRecord {
        ImageRecord {
            seq,
            transid: Transid {
                home_node: NodeId(0),
                cpu: 0,
                seq,
            },
            volume: VolumeRef::new(NodeId(0), "$DATA"),
            file: Name::from_static("accounts"),
            organization: FileOrganization::KeySequenced,
            key: Bytes::from(key.to_string()),
            before: Some(Bytes::from(before.to_string())),
            after: Some(Bytes::from((before + 1).to_string())),
        }
    }

    #[test]
    fn a_full_undo_ring_evicts_without_growing_its_buffer() {
        let mut ring = UndoRing::new(8);
        let mut buffer_at_8 = 0;
        for seq in 1..=20u64 {
            ring.commit(&[image(seq, "k", seq)]);
            if seq == 8 {
                buffer_at_8 = ring.entries.capacity();
            }
        }
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.entries.capacity(), buffer_at_8);
        assert_eq!(ring.evicted, 12, "commits 1..=12 were evicted");
        assert_eq!(ring.entries.front().map(|e| e.commit_seq), Some(13));
        assert_eq!(
            (ring.fence(Some(11)), ring.fence(Some(12))),
            (None, Some(12))
        );
        assert_eq!(ring.fence(None), Some(20));
    }

    #[test]
    fn a_settled_fence_is_retained_once_and_evicted_oldest_first() {
        let t = |seq| Transid {
            home_node: NodeId(0),
            cpu: 0,
            seq,
        };
        let mut fences = SettledFences::default();
        for seq in 0..=SETTLED_FENCE_CAPACITY as u64 {
            fences.settle(t(seq));
            fences.settle(t(seq));
        }
        assert_eq!(fences.len(), SETTLED_FENCE_CAPACITY);
        assert!(!fences.contains(&t(0)) && fences.contains(&t(1)));
        let in_order: Vec<Transid> = (1..=SETTLED_FENCE_CAPACITY as u64).map(t).collect();
        assert!(fences
            .ring
            .iter()
            .map(|&p| unpack(p))
            .eq(in_order.iter().copied()));
        assert!(fences.set.iter().map(|(t, ())| t).eq(in_order));
    }

    #[test]
    fn a_packed_fence_is_its_transid() {
        for (home, cpu, seq) in [(0, 0, 1), (255, 255, (1 << 48) - 1), (63, 3, 1 << 40)] {
            let transid = Transid {
                home_node: NodeId(home),
                cpu,
                seq,
            };
            assert_eq!(unpack(pack(transid)), transid);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a settled-fence slot")]
    fn a_sequence_number_past_48_bits_does_not_pack() {
        pack(Transid {
            home_node: NodeId(1),
            cpu: 0,
            seq: 1 << 48,
        });
    }

    /// The fence set as it was before its runs: the ring beside an ordered
    /// set.
    #[derive(Default)]
    struct RingAndSet {
        ring: VecDeque<Transid>,
        set: std::collections::BTreeSet<Transid>,
    }

    impl RingAndSet {
        fn settle(&mut self, transid: Transid) {
            if !self.set.insert(transid) {
                return;
            }
            if let Some(old) = push_bounded(&mut self.ring, SETTLED_FENCE_CAPACITY, transid) {
                self.set.remove(&old);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        // Bursts of settles past capacity from three home nodes: dense
        // ones, sparse ones (read-only transactions between), a sequence
        // number under the other cpu, and transids settled again, some of
        // them long evicted. The ring, its order and every membership
        // agree with the ring and ordered set they replace.
        #[test]
        fn settled_fences_agree_with_a_ring_and_an_ordered_set(
            bursts in prop::collection::vec((0u8..5, 0u8..3, 0u8..2, 1u64..300), 1..40)
        ) {
            let mut fences = SettledFences::default();
            let mut model = RingAndSet::default();
            let mut next = [0u64; 3];
            let mut history: Vec<Transid> = Vec::new();
            let t = |home: u8, cpu, seq| Transid { home_node: NodeId(home), cpu, seq };
            for (kind, home, cpu, n) in bursts {
                let h = home as usize;
                for i in 0..n {
                    let transid = match kind {
                        0 | 1 => {
                            next[h] += 1;
                            t(home, cpu, next[h])
                        }
                        2 => {
                            next[h] += 9;
                            t(home, cpu, next[h])
                        }
                        3 => t(home, cpu ^ 1, next[h]),
                        _ if history.is_empty() => continue,
                        _ => history[(i * 7_919 + n) as usize % history.len()],
                    };
                    history.push(transid);
                    fences.settle(transid);
                    model.settle(transid);
                    prop_assert!(fences.contains(&transid));
                }
                prop_assert!(fences.ring.iter().map(|&p| unpack(p)).eq(model.ring.iter().copied()));
                prop_assert_eq!(fences.set.len(), model.set.len());
                for probe in history.iter().rev().step_by(13) {
                    prop_assert_eq!(fences.contains(probe), model.set.contains(probe));
                }
            }
            let mut settled: Vec<Transid> = model.set.into_iter().collect();
            settled.sort_by_key(|t| (t.home_node, t.seq, t.cpu));
            prop_assert!(fences.set.iter().map(|(t, ())| t).eq(settled));
        }
    }

    /// The lookup as the scan from the front of the ring it replaces.
    fn full_scan<'a>(
        ring: &'a UndoRing,
        file: &str,
        key: &[u8],
        fence: u64,
    ) -> Option<&'a Option<Bytes>> {
        (ring.entries.iter())
            .find(|e| e.commit_seq > fence && e.file == file && e.key[..] == *key)
            .map(|e| &e.before)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn undo_lookup_matches_a_full_scan(
            // (commit-sequence step, file, key, before) per image: a step
            // of 0 puts the image in the previous image's commit
            images in prop::collection::vec((0u64..3, 0u8..2, 0u8..6, 0u64..4), 0..80),
            cap in 1usize..24,
            reads in prop::collection::vec((0u64..60, 0u8..2, 0u8..6), 1..24),
        ) {
            let files = ["accounts", "history"];
            let mut ring = UndoRing::new(cap);
            let mut commit_seq = 0;
            for (step, file, key, before) in images {
                commit_seq += step;
                let entry = UndoEntry {
                    commit_seq,
                    file: Name::from_static(files[file as usize]),
                    key: Bytes::from(vec![key]),
                    before: (before > 0).then(|| Bytes::from(vec![before as u8])),
                };
                push_bounded(&mut ring.entries, cap, entry);
                prop_assert!(ring.entries.capacity() <= cap);
            }
            for (fence, file, key) in reads {
                let file = files[file as usize];
                prop_assert_eq!(
                    ring.lookup(file, &[key], fence),
                    full_scan(&ring, file, &[key], fence)
                );
            }
        }
    }
}
