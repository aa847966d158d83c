//! Allocation budget of a suspense record's trip through its file. The
//! writer encodes it into one block, written in place; the monitor
//! decodes it and names its replica from the names it has met before, so
//! reading it back allocates nothing.

#[path = "../../guardian/tests/support/counting_alloc.rs"]
mod counting_alloc;

use bytes::Bytes;
use counting_alloc::{allocations_in, CountingAlloc};
use encompass_shard::{replica_file, ReplicaNames, SuspenseRecord};
use encompass_sim::NodeId;
use encompass_storage::types::Transid;
use std::hint::black_box;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_round_trip_allocates_the_encoded_record_only() {
    // a drain that has met this file and destination before
    let mut names = ReplicaNames::default();
    names.replica("branch", NodeId(8));
    let rec = SuspenseRecord {
        transid: Transid {
            home_node: NodeId(7),
            cpu: 3,
            seq: 1_234,
        },
        dest: NodeId(8),
        file: names.file("branch"),
        key: Bytes::from_static(b"branch007"),
        value: Bytes::from_static(b"1250"),
    };
    let (blocks, encoded) = allocations_in(|| black_box(&rec).encode());
    assert!(encoded.len() > Bytes::INLINE_CAP, "a record is not inline");
    assert_eq!(blocks, 1, "the encoded record's one block");
    let (blocks, (back, replica)) = allocations_in(|| {
        let back = SuspenseRecord::decode_named(black_box(&encoded), &mut names);
        let back = back.expect("a valid record");
        let replica = names.replica(&back.file, back.dest);
        (back, replica)
    });
    assert_eq!(blocks, 0, "decoding and naming the replica");
    assert_eq!(back, rec);
    assert_eq!(replica, replica_file("branch", NodeId(8)));
}
