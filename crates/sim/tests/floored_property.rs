//! Property test: a [`Floored`] holds what the floor rule says, under
//! random raises (lower floors included, which must change nothing),
//! inserts, removes, gets and in-place updates, with and without a `keep`
//! predicate. The reference model is the rule written out over an ordered
//! map: a higher floor drops every entry below it that `keep` does not
//! hold. After every step the two must hold the same entries in key
//! order, and every raise must report how many it dropped.
//!
//! Keys are `(seq, tag)` pairs, so the floor is compared with the
//! sequence alone while several keys share one sequence; inserts land
//! below the floor as well as above it.

use encompass_sim::Floored;
use proptest::prelude::*;
use std::collections::BTreeMap;

type Key = (u64, u8);

/// Sequences drawn: a little past the highest floor drawn, so raises
/// both drop entries and land above every entry.
const SEQS: u64 = 24;

#[derive(Clone, Debug)]
enum Op {
    /// Raise the floor; with `keep`, the odd values below it stay.
    Raise {
        floor: u64,
        keep: bool,
    },
    Insert(Key, u32),
    Remove(Key),
    Get(Key),
    /// Overwrite a held value through `get_mut`.
    Update(Key, u32),
}

fn key() -> impl Strategy<Value = Key> {
    (0..SEQS, 0u8..3)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SEQS + 4, any::<bool>()).prop_map(|(floor, keep)| Op::Raise { floor, keep }),
        (key(), 0u32..8).prop_map(|(k, v)| Op::Insert(k, v)),
        (key(), 0u32..8).prop_map(|(k, v)| Op::Insert(k, v)),
        key().prop_map(Op::Remove),
        key().prop_map(Op::Get),
        (key(), 0u32..8).prop_map(|(k, v)| Op::Update(k, v)),
    ]
}

fn kept(keep: bool) -> impl Fn(&u32) -> bool {
    move |v| keep && v % 2 == 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn floored_keeps_what_the_floor_rule_keeps(
        start in 0..4u64,
        ops in prop::collection::vec(op(), 1..120),
    ) {
        let mut floored: Floored<Key, u32> = Floored::new(start);
        let (mut floor, mut model) = (start, BTreeMap::<Key, u32>::new());
        for op in ops {
            match op {
                Op::Raise { floor: to, keep } => {
                    let before = model.len();
                    if to > floor {
                        floor = to;
                        let keep = kept(keep);
                        model.retain(|&(seq, _), v| seq >= to || keep(v));
                    }
                    let dropped = floored.raise(to, kept(keep));
                    prop_assert_eq!(dropped, before - model.len(), "raise({}) dropped", to);
                }
                Op::Insert(k, v) => {
                    prop_assert_eq!(floored.insert(k, v), model.insert(k, v), "insert {:?}", k);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(floored.remove(&k), model.remove(&k), "remove {:?}", k);
                }
                Op::Get(k) => {
                    prop_assert_eq!(floored.get(&k), model.get(&k), "get {:?}", k);
                }
                Op::Update(k, v) => {
                    let held = floored.get_mut(&k).map(|slot| std::mem::replace(slot, v));
                    let expected = model.get_mut(&k).map(|slot| std::mem::replace(slot, v));
                    prop_assert_eq!(held, expected, "get_mut {:?}", k);
                }
            }
            prop_assert_eq!(floored.floor(), floor);
            prop_assert_eq!(floored.len(), model.len());
            let held: Vec<(Key, u32)> = floored.iter().copied().collect();
            let expected: Vec<(Key, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(held, expected, "entries, in key order");
        }
    }
}

/// A raise that keeps nothing drops exactly the entries below the floor,
/// and one that keeps some leaves them in front, in key order.
#[test]
fn a_raise_drops_below_the_floor_and_keeps_only_what_it_is_told() {
    let mut floored: Floored<u64, bool> = Floored::new(0);
    for seq in 0..8 {
        floored.insert(seq, seq == 2 || seq == 5);
    }
    assert_eq!(floored.raise(6, |&pending| pending), 4);
    let held: Vec<u64> = floored.iter().map(|(seq, _)| *seq).collect();
    assert_eq!(held, [2, 5, 6, 7]);
    assert_eq!(
        floored.raise(3, |_| false),
        0,
        "a lower floor changes nothing"
    );
    assert_eq!(floored.raise(7, |_| false), 3);
    assert_eq!(floored.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(), [7]);
}
