//! ROLLFORWARD bench: recovery of a volume from archive + trail, by trail
//! volume (the T5 cost curve as a timing bench).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use encompass_audit::monitor::MonitorTrail;
use encompass_audit::rollforward::rollforward_volume;
use encompass_audit::trail::{trail_key, TrailMedia};
use encompass_sim::{SimConfig, SimTime, World};
use encompass_storage::audit_api::ImageRecord;
use encompass_storage::media::{archive_key, ArchiveImage};
use encompass_storage::types::{FileOrganization, Transid, VolumeRef};
use guardian::Checkpointed;

/// A world with an empty archive and `n` committed single-image txns on
/// the trail.
fn prepared(n: u64) -> (World, VolumeRef, String) {
    let mut w = World::new(SimConfig::default());
    let node = w.add_node(2);
    let vol = VolumeRef::new(node, "$D");
    let akey = archive_key(&vol, 1);
    let vol2 = vol.clone();
    w.stable_mut().get_or_create::<ArchiveImage, _>(&akey, move || ArchiveImage {
        volume: vol2,
        files: std::collections::BTreeMap::new(),
        audit_watermark: 0,
        generation: 1,
        purge_floor: 1,
    });
    let tk = trail_key(node, "$AUDIT");
    let vol3 = vol.clone();
    {
        let trail = w
            .stable_mut()
            .get_or_create::<TrailMedia, _>(&tk, || TrailMedia::new(4096));
        let records = (0..n)
            .map(|i| ImageRecord {
                seq: i + 1,
                transid: Transid {
                    home_node: node,
                    cpu: 0,
                    seq: i,
                },
                volume: vol3.clone(),
                file: "accounts".into(),
                organization: FileOrganization::KeySequenced,
                key: Bytes::from(format!("k{}", i % 1024)),
                before: None,
                after: Some(Bytes::from(format!("v{i}"))),
            })
            .collect();
        trail.force(records);
    }
    let cp = Checkpointed::reviewed("offline media builder: the bench writes the trail no TMP ran for");
    for i in 0..n {
        MonitorTrail::of(w.stable_mut(), node).record(
            Transid {
                home_node: node,
                cpu: 0,
                seq: i,
            },
            true,
            SimTime::ZERO,
            &cp,
        );
    }
    (w, vol, tk)
}

fn bench_rollforward(c: &mut Criterion) {
    let mut g = c.benchmark_group("rollforward");
    g.sample_size(10);
    for n in [1_000u64, 10_000] {
        g.bench_function(format!("replay_{n}_images"), |b| {
            b.iter_batched(
                || prepared(n),
                |(mut w, vol, tk)| {
                    let report = rollforward_volume(&mut w, &vol, &[tk], 1);
                    assert_eq!(report.redone as u64, n);
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_rollforward);
criterion_main!(benches);
