//! The one hash table sim-executed code may name, and its hasher.
//!
//! Keys here are small and come from the program itself — rpc ids shaped
//! `(id_space << 56) | (pid << 24) | counter`, transids, short service
//! names — so the table needs mixing, not SipHash's resistance to chosen
//! keys (DESIGN.md §D21). The hasher has no per-process or per-table
//! state: iteration order is a function of the operations applied to the
//! table alone, which is the determinism contract `clippy.toml` enforces by
//! banning every other hash map (§D11).

use std::hash::{BuildHasherDefault, Hasher};

/// `std`'s table over [`MixHasher`] in place of `RandomState`.
/// `clippy.toml` disallows naming `std::collections::{HashMap, HashSet}`
/// anywhere else in the workspace.
#[allow(clippy::disallowed_types)]
pub type DetHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<MixHasher>>;
/// The set twin of [`DetHashMap`].
#[allow(clippy::disallowed_types)]
pub type DetHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<MixHasher>>;

/// Word-at-a-time rotate, xor and folded multiply: each word of the key
/// is xored into the rotated state and multiplied by an odd constant into
/// 128 bits, whose halves are xored together. A plain 64-bit product's low
/// bits depend only on the key's low bits, and hashbrown takes the bucket
/// index from the low bits and the control byte from the top seven; the
/// fold brings every key bit to both ends, so ids that differ only in
/// their pid field do not share a bucket. A `u64` key costs one multiply.
#[derive(Clone, Copy, Default)]
pub struct MixHasher(u64);

/// 2^64 / φ, odd.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl MixHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0.rotate_left(5) ^ word) * u128::from(K);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<MixHasher>::default().hash_one(key)
    }

    /// The two ends of a hash that hashbrown reads: the bucket index is the
    /// low bits (10 of them in a 1 024-bucket table) and the control byte
    /// the top 7. Over each, every bucket must hold between half and twice
    /// its even share of `hashes` — with the field narrowed until an even
    /// share is at least 64 keys, so that a perfect hash passes too.
    fn assert_spread(what: &str, hashes: &[u64]) {
        for (end, shift_of, widest) in [
            ("low", (|_| 0) as fn(u32) -> u32, 10),
            ("top", |bits| 64 - bits, 7),
        ] {
            let mut bits = widest;
            while hashes.len() >> bits < 64 {
                bits -= 1;
            }
            let mut buckets = vec![0usize; 1 << bits];
            for h in hashes {
                buckets[((h >> shift_of(bits)) & ((1 << bits) - 1)) as usize] += 1;
            }
            let even = hashes.len() / buckets.len();
            let (min, max) = (
                *buckets.iter().min().expect("buckets"),
                *buckets.iter().max().expect("buckets"),
            );
            assert!(
                max <= 2 * even && min >= even / 2,
                "{what}: the {end} {bits} bits hold {min}..{max} keys a bucket, {even} if even"
            );
        }
    }

    #[test]
    fn rpc_shaped_ids_spread() {
        // one id space, 64 pids, 4 096 calls each: the ids a busy server's
        // `Served` table remembers
        let hashes: Vec<u64> = (0..64u64)
            .flat_map(|pid| (0..4096u64).map(move |n| (10 << 56) | ((100 + pid * 7) << 24) | n))
            .map(hash_of)
            .collect();
        assert_spread("rpc ids", &hashes);
        // and the other way round: the first calls of very many pids
        let hashes: Vec<u64> = (0..4096u64)
            .flat_map(|pid| (0..16u64).map(move |n| (1 << 56) | (pid << 24) | n))
            .map(hash_of)
            .collect();
        assert_spread("first calls of many pids", &hashes);
    }

    #[test]
    fn transid_shaped_keys_spread() {
        // (home_node, cpu, seq), hashed field by field as `Transid`'s
        // `#[derive(Hash)]` does: 64 nodes x 4 CPUs x 40 transactions
        let hashes: Vec<u64> = (0..10_240u64)
            .map(|i| hash_of(((i % 64) as u8, (i / 64 % 4) as u8, i / 256)))
            .collect();
        assert_spread("transids", &hashes);
    }

    #[test]
    fn service_names_spread() {
        // what a 64-node world registers and looks up, hashed as `str`s:
        // pair services, one `$TXTABLE<cpu>` per CPU, per-node volumes
        let mut names = Vec::new();
        for svc in [
            "$TMP",
            "$AUDIT",
            "$BACKOUT",
            "$DUMP",
            "$OPR",
            "$SB",
            "$SUSPENSE",
        ] {
            names.push(svc.to_string());
        }
        for cpu in 0..16 {
            names.push(format!("$TXTABLE{cpu}"));
            names.push(format!("$AUDIT{cpu}"));
        }
        for class in ["bank", "transfer", "inquiry", "mfg"] {
            names.push(format!("$SC-{class}"));
            names.push(format!("$TCP-{class}"));
        }
        for node in 0..64 {
            for v in 0..8 {
                names.push(format!("$DATA{node}"));
                names.push(format!("$ACCT{node}_{v}"));
            }
        }
        names.sort();
        names.dedup();
        let hashes: Vec<u64> = names.iter().map(|n| hash_of(n.as_str())).collect();
        assert_spread("service names", &hashes);
    }

    /// The determinism contract (DESIGN.md §D11): a table's iteration
    /// order is a function of the operations applied to it and of nothing
    /// else — not the process, the thread or the table instance, which is
    /// what `RandomState` would make it. (Not "of the key set": an
    /// open-addressing table places colliding keys first come, first
    /// served, so two insertion orders of one key set may iterate
    /// differently; a replay applies the same operations in the same
    /// order.)
    #[test]
    fn iteration_order_is_a_function_of_the_operations_alone() {
        fn build() -> Vec<(u64, u64)> {
            let mut map: DetHashMap<u64, u64> = DetHashMap::default();
            for n in 0..5_000u64 {
                map.insert((3 << 56) | ((n % 7) << 24) | n, n);
                if n % 3 == 2 {
                    map.remove(&((3 << 56) | (((n - 2) % 7) << 24) | (n - 2)));
                }
            }
            map.into_iter().collect()
        }
        let here = build();
        let there = std::thread::scope(|s| s.spawn(build).join().expect("builder thread"));
        assert_eq!(here.len(), 5_000 - 5_000 / 3);
        assert_eq!(here, build());
        assert_eq!(here, there);
    }
}
