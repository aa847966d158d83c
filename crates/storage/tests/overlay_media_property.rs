//! Property test: the DISCPROCESS's layered view (write-behind overlay
//! over flushed media) must be indistinguishable from a flat map, under
//! any interleaving of writes, deletes, flush batches, and scans — full
//! and bounded.

use bytes::Bytes;
use encompass_storage::media::FileImage;
use encompass_storage::overlay::Overlay;
use encompass_storage::types::FileOrganization;
use guardian::Checkpointed;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u16),
    Delete(u16),
    /// Flush up to n dirty entries to the media.
    Flush(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..200, any::<u16>()).prop_map(|(k, v)| Op::Put(k, v)),
        (0u16..200).prop_map(Op::Delete),
        (1u8..20).prop_map(Op::Flush),
    ]
}

fn key(k: u16) -> Bytes {
    Bytes::from(format!("k{k:05}"))
}

/// The layered read: overlay first, then media.
fn layered_get(overlay: &Overlay, media: &FileImage, k: &Bytes) -> Option<Bytes> {
    match overlay.get("f", k) {
        Some(v) => v,
        None => media.read(k),
    }
}

/// The layered scan (the DISCPROCESS's merge logic, reimplemented per its
/// contract).
fn layered_scan(overlay: &Overlay, media: &FileImage) -> Vec<(Bytes, Bytes)> {
    let mut base: BTreeMap<Bytes, Bytes> = media.scan(&[], None, usize::MAX).into_iter().collect();
    for (k, v) in overlay.file_entries("f") {
        match v {
            Some(v) => {
                base.insert(k.clone(), v.clone());
            }
            None => {
                base.remove(k);
            }
        }
    }
    base.into_iter().collect()
}

/// A bounded scan's contract, read off the flat map: `low` and `high`
/// both inclusive, at most `limit` records, none when `low > high`.
fn model_scan(
    model: &BTreeMap<Bytes, Bytes>,
    low: &Bytes,
    high: &Bytes,
    limit: usize,
) -> Vec<(Bytes, Bytes)> {
    (model.iter())
        .filter(|(k, _)| low <= *k && *k <= high)
        .take(limit)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

fn bounds_strategy() -> impl Strategy<Value = (u16, u16, usize)> {
    // bounds on and past the written keys; limits from 0, or none
    let limit = (0usize..7).prop_map(|n| if n == 6 { usize::MAX } else { n });
    (0u16..210, 0u16..210, limit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn overlay_over_media_equals_flat_map(
        ops in prop::collection::vec(op_strategy(), 1..300),
        bounded in prop::collection::vec(bounds_strategy(), 8..9),
    ) {
        let cp = Checkpointed::reviewed("property test: no backup exists");
        let mut overlay = Overlay::new();
        let mut media = FileImage::new(FileOrganization::KeySequenced);
        let mut model: BTreeMap<Bytes, Bytes> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Put(k, v) => {
                    let value = Bytes::from(format!("v{v}"));
                    overlay.put("f", key(k), Some(value.clone()), &cp);
                    model.insert(key(k), value);
                }
                Op::Delete(k) => {
                    overlay.put("f", key(k), None, &cp);
                    model.remove(&key(k));
                }
                Op::Flush(n) => {
                    for (file, k, v) in overlay.take_batch(n as usize, &cp) {
                        prop_assert_eq!(file.as_str(), "f");
                        media.apply(&k, v);
                    }
                }
            }
        }
        // point reads agree with the model everywhere
        for k in 0..200u16 {
            prop_assert_eq!(
                layered_get(&overlay, &media, &key(k)),
                model.get(&key(k)).cloned(),
                "key {}", k
            );
        }
        // the merged scan is exactly the model's content
        let scanned = layered_scan(&overlay, &media);
        let expected: Vec<(Bytes, Bytes)> = model.clone().into_iter().collect();
        prop_assert_eq!(scanned, expected);
        // and a full flush drains the overlay and leaves the media equal
        for (_, k, v) in overlay.take_batch(usize::MAX, &cp) {
            media.apply(&k, v);
        }
        prop_assert!(overlay.is_empty());
        let flushed: Vec<(Bytes, Bytes)> = media.scan(&[], None, usize::MAX);
        let expected: Vec<(Bytes, Bytes)> = model.clone().into_iter().collect();
        prop_assert_eq!(flushed, expected);
        // bounded scans of the flushed file, and of an empty one
        let empty = FileImage::new(FileOrganization::KeySequenced);
        for (low, high, limit) in bounded {
            let (low, high) = (key(low), key(high));
            prop_assert_eq!(
                media.scan(&low, Some(&high), limit),
                model_scan(&model, &low, &high, limit),
                "{:?}..={:?} limit {}", low, high, limit
            );
            prop_assert!(empty.scan(&low, Some(&high), limit).is_empty());
        }
    }
}
