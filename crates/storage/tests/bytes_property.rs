//! Property tests: a `Bytes` behaves as the `Vec<u8>` it holds, whichever
//! form holds it. Up to `Bytes::INLINE_CAP` (22) bytes live inside the
//! value, longer ones in a shared heap block, and a `'static` slice is
//! borrowed; lengths 0–40 cover both sides of the boundary. Every key of
//! the overlay, the lock table, the B+tree, the undo ring and the trail is
//! a `Bytes`, so a form that compared, hashed or printed differently would
//! change what those tables find and every trace hash.

use bytes::{BufMut, Bytes, BytesMut};
use encompass_sim::DetHashMap;
use encompass_storage::audit_api::ImageRecord;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, BuildHasherDefault};

/// Lengths 0–40; bytes from a three-letter alphabet half the time, so
/// that equal strings, shared prefixes and ties up to a length are common.
fn bytes_model() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop_oneof![0u8..3, any::<u8>()], 0..41)
}

/// Every way this workspace builds a `Bytes` from `v`.
fn forms(v: &[u8]) -> Vec<Bytes> {
    let leaked: &'static [u8] = Box::leak(v.to_vec().into_boxed_slice());
    let mut built = BytesMut::with_capacity(v.len());
    built.put_slice(v);
    vec![
        Bytes::from_static(leaked),
        Bytes::from(leaked),
        Bytes::copy_from_slice(v),
        Bytes::from(v.to_vec()),
        built.freeze(),
    ]
}

fn hash_of(b: &Bytes) -> u64 {
    BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(b)
}

/// `Debug` as the shim has always printed it: `b"…"`, ASCII-escaped.
fn model_debug(v: &[u8]) -> String {
    let escaped: String = v
        .iter()
        .flat_map(|&b| std::ascii::escape_default(b))
        .map(char::from)
        .collect();
    format!("b\"{escaped}\"")
}

#[test]
fn a_bytes_is_three_words() {
    assert_eq!(std::mem::size_of::<Bytes>(), 24);
    assert_eq!(std::mem::size_of::<Option<Bytes>>(), 24);
    assert_eq!(std::mem::size_of::<ImageRecord>(), 160);
    assert_eq!(Bytes::INLINE_CAP, 22);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_form_is_its_bytes(v in bytes_model()) {
        let all = forms(&v);
        let hash = hash_of(&all[0]);
        for b in &all {
            prop_assert_eq!(b.as_slice(), &v[..]);
            prop_assert_eq!(b.len(), v.len());
            prop_assert_eq!(b.to_vec(), v.clone());
            prop_assert_eq!(b.clone().into_iter().collect::<Vec<u8>>(), v.clone());
            prop_assert_eq!(hash_of(b), hash);
            prop_assert_eq!(format!("{b:?}"), model_debug(&v));
            for other in &all {
                prop_assert_eq!(b, other);
                prop_assert_eq!(b.cmp(other), std::cmp::Ordering::Equal);
            }
        }
    }

    #[test]
    fn forms_compare_as_their_bytes(a in bytes_model(), b in bytes_model()) {
        for x in forms(&a) {
            for y in forms(&b) {
                prop_assert_eq!(x.cmp(&y), a.cmp(&b));
                prop_assert_eq!(x.partial_cmp(&y), Some(a.cmp(&b)));
                prop_assert_eq!(x == y, a == b);
            }
        }
    }

    #[test]
    fn maps_find_every_form_by_slice(keys in prop::collection::vec(bytes_model(), 1..24),
                                     probes in prop::collection::vec(bytes_model(), 0..8)) {
        let mut tree = BTreeMap::new();
        let mut hashed = DetHashMap::default();
        let mut model = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            // insert each key in a different form
            let all = forms(k);
            let key = all[i % all.len()].clone();
            tree.insert(key.clone(), i);
            hashed.insert(key, i);
            model.insert(k.clone(), i);
        }
        prop_assert_eq!(tree.len(), model.len());
        prop_assert_eq!(hashed.len(), model.len());
        prop_assert!(tree.keys().map(Bytes::as_slice).eq(model.keys().map(Vec::as_slice)));
        for k in keys.iter().chain(&probes) {
            let want = model.get(k);
            prop_assert_eq!(tree.get(k.as_slice()), want);
            prop_assert_eq!(hashed.get(k.as_slice()), want);
            for form in forms(k) {
                prop_assert_eq!(tree.get(&form), want);
                prop_assert_eq!(hashed.get(&form), want);
            }
        }
    }
}
