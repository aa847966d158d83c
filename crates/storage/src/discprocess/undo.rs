//! What a volume keeps of its settled transactions: the snapshot-undo
//! ring that snapshot reads reconstruct old values from, and the
//! settled-fence ring that refuses their straggler writes. Both are FIFO
//! rings of bounded size, replicated to the backup whole.

use crate::audit_api::ImageRecord;
use crate::image_codec::{encoded_len, get_image, put_image, read_image, Encoded};
use crate::transids::TransidSet;
use crate::types::Transid;
use bytes::Bytes;
use encompass_sim::{push_bounded, Name, NodeId};
use std::collections::VecDeque;

/// Settled-transaction fences retained to refuse straggler writes (a FIFO
/// ring, `SettledFences`). Old enough fences are evicted — by then every
/// retransmission of the transaction's requests has long since drained.
pub const SETTLED_FENCE_CAPACITY: usize = 4096;

/// Entries a ring's first buffer holds, at the first entry's length
/// rounded up to a power of two (as a trail file's first buffer, §D29).
/// Each later buffer is [`GROWTH`] times the last, or the ring's
/// projected size at capacity once that step would reach half of it.
const FIRST_ENTRIES: usize = 32;
const GROWTH: usize = 4;
/// Commits a ring's first index holds, and long values its first list
/// holds. Their slots are small (4 and 24 bytes), so each later list is
/// [`SLOT_GROWTH`] times the last, up to the ring's capacity. Buffer and
/// lists together, a ring past its first few entries has taken fewer
/// blocks than the `VecDeque` of entries it replaced, which doubled from
/// four.
const FIRST_COMMITS: usize = 128;
const FIRST_LONG: usize = 16;
const SLOT_GROWTH: usize = 8;
/// A full ring's buffer keeps about an eighth of its live bytes free past
/// its tail, so that it compacts once every eighth of its entries and not
/// at every commit.
const SLACK: usize = 8;

/// The most a key or image of an entry reserves: an inline value's tag
/// and bytes, or a long one's tag, index and handle.
const VALUE_MAX_BYTES: usize = {
    let inline = 1 + Bytes::INLINE_CAP;
    let long = 1 + 4 + std::mem::size_of::<Bytes>();
    if inline > long {
        inline
    } else {
        long
    }
};

/// The most bytes one entry of the snapshot-undo ring reserves: its file
/// byte, a key and a before-image at their largest, and its commit's
/// index slot.
pub const UNDO_ENTRY_MAX_BYTES: usize = 1 + 2 * VALUE_MAX_BYTES + std::mem::size_of::<u32>();

/// Before-images of committed transactions in commit order, at most `cap`
/// of them, and the volume commit sequence that orders them.
/// Reconstructing a key as of fence F takes the `before` of the first
/// entry with a commit sequence above F, because per-key commit order
/// equals append order (exclusive record locks serialize writers).
///
/// An entry is what a snapshot read reads of a committed writer's image
/// (the rest is on the audit trail), encoded: its file's index in
/// `names` (one byte), then the key and the before-image, each a tag byte
/// and its bytes (`crate::image_codec`). The entries sit back to back in
/// one buffer, oldest first (DESIGN.md §D32).
pub struct UndoRing {
    cap: usize,
    /// Volume commit sequence: bumped once per committed transaction with
    /// images here, at the moment its locks release. A snapshot fence is
    /// a value of this counter.
    seq: u64,
    /// Highest commit sequence evicted from the ring; fences below it are
    /// too old to reconstruct.
    evicted: u64,
    /// The encoded entries: `buf[head..]` is live, and `buf[..head]` the
    /// evicted prefix, compacted away when the tail reaches the buffer's
    /// capacity.
    buf: Vec<u8>,
    head: usize,
    /// Live entries.
    len: usize,
    /// Where each commit from the one the head entry belongs to through
    /// `seq` starts in `buf`: one slot a commit, so the commit sequences
    /// they stand for are consecutive and the last is `seq`. A start
    /// below `head` (a commit partly evicted) is never read.
    starts: VecDeque<u32>,
    /// The file names the entries index, each once.
    names: Names,
    /// The keys and images longer than [`Bytes::INLINE_CAP`], oldest
    /// first, as the handles they arrived as; `long[0]` has the index
    /// `long_base` (the indexes wrap).
    long: VecDeque<Bytes>,
    long_base: u32,
}

impl UndoRing {
    pub fn new(cap: usize) -> UndoRing {
        UndoRing {
            cap,
            seq: 0,
            evicted: 0,
            buf: Vec::new(),
            head: 0,
            len: 0,
            starts: VecDeque::new(),
            names: Names::default(),
            long: VecDeque::new(),
            long_base: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes reserved by the ring's buffers: the encoded entries, the
    /// commit index and the long values' handles.
    pub fn reserved_bytes(&self) -> usize {
        self.buf.capacity()
            + self.starts.capacity() * std::mem::size_of::<u32>()
            + self.long.capacity() * std::mem::size_of::<Bytes>()
    }

    /// Bytes of evicted entries the buffer still holds, until the tail
    /// reaches its capacity and it compacts them away.
    pub fn evicted_prefix_bytes(&self) -> usize {
        self.head
    }

    /// The fence a snapshot read runs at — the one it carries, or else the
    /// current commit sequence — unless that has aged out of the ring.
    pub fn fence(&self, carried: Option<u64>) -> Option<u64> {
        let fence = carried.unwrap_or(self.seq);
        (fence >= self.evicted).then_some(fence)
    }

    /// Move a committed transaction's before-images in under the next
    /// commit sequence (defining "the volume state after this commit" for
    /// snapshot readers), evicting the oldest entry before each push once
    /// the ring holds `cap`.
    pub fn commit(&mut self, images: &[ImageRecord]) {
        for (i, img) in images.iter().enumerate() {
            if self.len >= self.cap && self.len > 0 {
                self.evict_front();
            }
            let need = 1 + encoded_len(Some(&img.key)) + encoded_len(img.before.as_ref());
            self.make_room(need);
            if i == 0 {
                self.open_commit();
            }
            let file = self.names.index(&img.file);
            self.buf.push(file);
            for value in [Some(img.key.clone()), img.before.clone()] {
                let (long, base, cap) = (&mut self.long, self.long_base, self.cap);
                put_image(&mut self.buf, value, |b| {
                    reserve_slot(long, FIRST_LONG, 2 * cap);
                    long.push_back(b);
                    base.wrapping_add((long.len() - 1) as u32)
                });
            }
            self.len += 1;
        }
        if images.is_empty() {
            self.open_commit();
        }
    }

    /// The `before` of the first entry for `(file, key)` whose writer
    /// committed after `fence`: the key's value at the fence, if a
    /// committed writer has changed it since. The entries of the commits
    /// after `fence` are a suffix, and the index says where it starts.
    pub fn lookup(&self, file: &str, key: &[u8], fence: u64) -> Option<Option<Bytes>> {
        let file = self.names.position(file)?;
        let first = self.seq + 1 - self.starts.len() as u64;
        let from = match fence.checked_sub(first) {
            None => self.head,
            Some(i) => *self.starts.get(usize::try_from(i + 1).ok()?)? as usize,
        };
        let mut cur = &self.buf[from..];
        while let Some((&at, rest)) = cur.split_first() {
            cur = rest;
            let found = match read_image(&mut cur) {
                Encoded::Inline(k) => k == key,
                Encoded::Long(i) => self.long_value(i)[..] == *key,
                Encoded::Absent => false,
            };
            if found && usize::from(at) == file {
                return Some(get_image(&mut cur, |i| self.long_value(i).clone()));
            }
            read_image(&mut cur);
        }
        None
    }

    /// The ring as a fresh backup starts from it: the live entries alone,
    /// with as much room as the primary's buffers reserve, so that the
    /// backup's ring grows when the primary's does and not sooner.
    pub fn replica(&self) -> UndoRing {
        let head = u32::try_from(self.head).expect("indexed at push");
        let mut buf = Vec::with_capacity(self.buf.capacity());
        buf.extend_from_slice(&self.buf[self.head..]);
        let mut starts = VecDeque::with_capacity(self.starts.capacity());
        starts.extend(self.starts.iter().map(|s| s.saturating_sub(head)));
        let mut long = VecDeque::with_capacity(self.long.capacity());
        long.extend(self.long.iter().cloned());
        UndoRing {
            cap: self.cap,
            seq: self.seq,
            evicted: self.evicted,
            buf,
            head: 0,
            len: self.len,
            starts,
            names: self.names.clone(),
            long,
            long_base: self.long_base,
        }
    }

    fn long_value(&self, index: u32) -> &Bytes {
        &self.long[index.wrapping_sub(self.long_base) as usize]
    }

    /// Start commit `seq + 1` at the tail.
    fn open_commit(&mut self) {
        self.seq += 1;
        reserve_slot(&mut self.starts, FIRST_COMMITS, self.cap);
        let tail = u32::try_from(self.buf.len()).expect("an undo ring under 4 GiB");
        self.starts.push_back(tail);
        self.drop_evicted_commits();
    }

    /// Evict the oldest entry. It belongs to the oldest commit the index
    /// holds, so that commit is now (at least partly) evicted.
    fn evict_front(&mut self) {
        self.evicted = self.seq + 1 - self.starts.len() as u64;
        let mut cur = &self.buf[self.head + 1..];
        let before = cur.len();
        for _ in 0..2 {
            if let Encoded::Long(_) = read_image(&mut cur) {
                self.long.pop_front();
                self.long_base = self.long_base.wrapping_add(1);
            }
        }
        self.head += 1 + before - cur.len();
        self.len -= 1;
        self.drop_evicted_commits();
    }

    /// Drop the index slots of the commits whose entries are all evicted.
    fn drop_evicted_commits(&mut self) {
        while self.starts.get(1).is_some_and(|&s| s as usize <= self.head) {
            self.starts.pop_front();
        }
    }

    /// Make room for `need` more bytes past the tail: compact the evicted
    /// prefix away when the tail has reached the buffer's capacity, and
    /// grow the buffer when that leaves too little free.
    fn make_room(&mut self, need: usize) {
        if self.buf.capacity() - self.buf.len() >= need {
            return;
        }
        if self.head > 0 {
            let head = u32::try_from(self.head).expect("indexed at push");
            self.buf.drain(..self.head);
            for start in &mut self.starts {
                *start = start.saturating_sub(head);
            }
            self.head = 0;
            let live = self.buf.len();
            if self.buf.capacity() - live >= need + live / (2 * SLACK) {
                return;
            }
        }
        // toward the live entries' size at capacity, plus the slack
        let live = self.buf.len();
        let entries = self.len + 1;
        let full = (live + need).div_ceil(entries) * self.cap.max(entries);
        let projected = full + full / SLACK;
        let step = match self.buf.capacity() {
            0 => FIRST_ENTRIES * need.next_power_of_two(),
            c => GROWTH * c,
        };
        let target = if 2 * step >= projected {
            projected
        } else {
            step
        };
        self.buf
            .reserve_exact(target.max(live + need + live / SLACK) - live);
    }
}

/// Make room for one more slot in a full `ring` that holds fewer than
/// `bound`: `first` slots, then [`SLOT_GROWTH`] times as many, up to
/// `bound`. (The index holds more only past a run of commits without
/// images; `push_back` grows it from there.)
fn reserve_slot<T>(ring: &mut VecDeque<T>, first: usize, bound: usize) {
    let len = ring.len();
    if len == ring.capacity() && len < bound {
        let target = if len == 0 { first } else { SLOT_GROWTH * len };
        ring.reserve_exact(target.min(bound) - len);
    }
}

/// File names a ring holds before its table takes a block.
const INLINE_NAMES: usize = 4;

/// The file names a ring's entries index, each once. A volume holds a
/// few files, so the first [`INLINE_NAMES`] sit in the ring itself: a
/// ring costs no block for its names, where a `Vec` would cost one in
/// every ring of every world.
#[derive(Clone, Default)]
struct Names {
    inline: [Name; INLINE_NAMES],
    more: Vec<Name>,
    len: usize,
}

impl Names {
    fn position(&self, file: &str) -> Option<usize> {
        (self.inline[..self.len.min(INLINE_NAMES)].iter())
            .chain(&self.more)
            .position(|n| n == file)
    }

    /// `file`'s index, added if it has none.
    fn index(&mut self, file: &Name) -> u8 {
        let at = self.position(file).unwrap_or_else(|| {
            match self.inline.get_mut(self.len) {
                Some(slot) => *slot = file.clone(),
                None => self.more.push(file.clone()),
            }
            self.len += 1;
            self.len - 1
        });
        u8::try_from(at).expect("a volume's undo ring names fewer than 256 files")
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
        for seq in 1..=20u64 {
            ring.commit(&[image(seq, "k", seq)]);
        }
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.evicted, 12, "commits 1..=12 were evicted");
        assert_eq!(ring.seq + 1 - ring.starts.len() as u64, 13, "oldest commit");
        assert_eq!(
            (ring.fence(Some(11)), ring.fence(Some(12))),
            (None, Some(12))
        );
        assert_eq!(ring.fence(None), Some(20));
        // at a steady entry size (four-digit images), wrapping the ring
        // again and again compacts its buffer and stops growing it
        let mut settled = 0;
        for seq in 21..=400u64 {
            ring.commit(&[image(seq, "k", 1_000 + seq)]);
            if seq == 100 {
                settled = ring.buf.capacity();
            }
            if seq > 100 {
                assert_eq!(ring.buf.capacity(), settled, "at commit {seq}");
            }
        }
        assert_eq!(ring.starts.len(), 8);
        assert!(ring.starts.capacity() <= 8 && ring.long.capacity() == 0);
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

    /// One entry of the ring as it was before its entries were bytes.
    struct UndoEntry {
        commit_seq: u64,
        file: Name,
        key: Bytes,
        before: Option<Bytes>,
    }

    /// The ring as it was before its entries were bytes: a `VecDeque` of
    /// entries, the fence's suffix found by `partition_point`.
    struct EntryRing {
        cap: usize,
        seq: u64,
        evicted: u64,
        entries: VecDeque<UndoEntry>,
    }

    impl EntryRing {
        fn fence(&self, carried: Option<u64>) -> Option<u64> {
            let fence = carried.unwrap_or(self.seq);
            (fence >= self.evicted).then_some(fence)
        }

        fn commit(&mut self, images: &[ImageRecord]) {
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

        fn lookup(&self, file: &str, key: &[u8], fence: u64) -> Option<Option<Bytes>> {
            let start = self.entries.partition_point(|e| e.commit_seq <= fence);
            (self.entries.range(start..))
                .find(|e| e.file == file && e.key[..] == *key)
                .map(|e| e.before.clone())
        }
    }

    /// Key `k`: one byte for `k` under 4, else 23 bytes and more, past
    /// the inline limit.
    fn undo_key(k: u8) -> Bytes {
        match k {
            0..=3 => Bytes::from(vec![k]),
            _ => Bytes::from(vec![k; 19 + usize::from(k)]),
        }
    }

    /// A before-image: absent, one byte, 22 bytes (the inline limit) or
    /// 40 (past it).
    fn undo_before(b: u8, fill: u8) -> Option<Bytes> {
        let len = *[1usize, 1, 22, 40].get(usize::from(b).checked_sub(1)?)?;
        Some(Bytes::from(vec![fill.wrapping_add(b); len]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        // Commits of one to several images (a `new` of 0 puts the image in
        // the previous image's commit) on six files (more than a ring
        // names inline), with short and long
        // keys and absent, short, 22-byte and long before-images, in rings
        // of 1 to 23 entries. After every commit the encoded ring agrees
        // with the `VecDeque` ring it replaces: its length, eviction
        // floor and fences, and every lookup at the fence where eviction
        // stands, one below it, and the newest commit less one; at the
        // end, every drawn read.
        #[test]
        fn undo_lookup_matches_a_full_scan(
            images in prop::collection::vec((0u8..3, 0u8..6, 0u8..6, 0u8..5), 0..80),
            cap in 1usize..24,
            reads in prop::collection::vec((0u64..60, 0u8..6, 0u8..6), 1..24),
        ) {
            let files = ["accounts", "history", "branch", "teller", "stock", "orders"];
            let mut ring = UndoRing::new(cap);
            let mut model = EntryRing { cap, seq: 0, evicted: 0, entries: VecDeque::new() };
            let mut commits: Vec<Vec<ImageRecord>> = Vec::new();
            for (i, &(new, file, key, before)) in images.iter().enumerate() {
                let mut img = image(i as u64, "k", 0);
                img.file = Name::from_static(files[usize::from(file)]);
                img.key = undo_key(key);
                img.before = undo_before(before, i as u8);
                match commits.last_mut() {
                    Some(commit) if new == 0 => commit.push(img),
                    _ => commits.push(vec![img]),
                }
            }
            for commit in &commits {
                ring.commit(commit);
                model.commit(commit);
                prop_assert_eq!(ring.len(), model.entries.len());
                prop_assert_eq!(ring.evicted, model.evicted);
                prop_assert_eq!(ring.fence(None), model.fence(None));
                let floor = model.evicted;
                for fence in [floor.saturating_sub(1), floor, model.seq.saturating_sub(1)] {
                    prop_assert_eq!(ring.fence(Some(fence)), model.fence(Some(fence)));
                    for (file, key) in commit.iter().map(|img| (&img.file, &img.key)) {
                        prop_assert_eq!(
                            ring.lookup(file, key, fence),
                            model.lookup(file, key, fence)
                        );
                    }
                }
            }
            for (fence, file, key) in reads {
                let (file, key) = (files[usize::from(file)], undo_key(key));
                prop_assert_eq!(ring.lookup(file, &key, fence), model.lookup(file, &key, fence));
            }
            let copy = ring.replica();
            prop_assert_eq!(copy.buf.len(), ring.buf.len() - ring.head);
            prop_assert_eq!(copy.reserved_bytes(), ring.reserved_bytes());
            for (fence, (file, key)) in (0..).zip(files.iter().cycle().zip(0u8..6)) {
                let key = undo_key(key);
                prop_assert_eq!(copy.lookup(file, &key, fence), model.lookup(file, &key, fence));
            }
        }
    }
}
