//! Allocation budget of the bank's formatters. An account key, a balance,
//! a branch key and a debit tag are short enough for a `Bytes` to hold
//! inline, and they are written through a stack buffer, so building one
//! allocates nothing: a debit's SEND parameters cost their `Vec` alone.

#[path = "../../guardian/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations_in, CountingAlloc};
use encompass::shardbank::branch_key;
use encompass::workload::{account_key, balance_bytes, DebitTag};
use encompass_sim::NodeId;
use std::hint::black_box;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn bank_formatters_allocate_nothing() {
    let tag = DebitTag {
        node: NodeId(255),
        terminal: 255,
        n: u64::MAX,
    };
    let (n, (key, balance, branch, encoded)) = allocations_in(|| {
        (
            account_key(black_box(99_999_999)),
            balance_bytes(black_box(i64::MIN)),
            branch_key(black_box(NodeId(255))),
            black_box(tag).encode(),
        )
    });
    assert_eq!(n, 0, "account_key / balance_bytes / branch_key / encode");
    assert_eq!(key, b"acct99999999");
    assert_eq!(balance, b"-9223372036854775808");
    assert_eq!(branch, b"branch255");
    assert_eq!(encoded, b"ff.ff.ffffffffffffffff");
    assert_eq!(DebitTag::decode(&encoded), Some(tag));
}

#[test]
fn a_debits_parameters_cost_their_vec() {
    let tag = DebitTag {
        node: NodeId(3),
        terminal: 7,
        n: 41,
    };
    let (n, params) = allocations_in(|| vec![account_key(12), balance_bytes(-250), tag.encode()]);
    assert_eq!(n, 1, "the parameter Vec and nothing else");
    drop(params);
}

#[test]
fn text_longer_than_the_buffer_falls_back_to_the_heap() {
    let (n, key) = allocations_in(|| account_key(black_box(u64::MAX)));
    assert!(n >= 1, "24 bytes do not fit inline");
    assert_eq!(key, b"acct18446744073709551615");
}
