//! The Monitor Audit Trail: the per-node history of transaction completion
//! statuses (commits and aborts).
//!
//! "A transaction commits at the time its commit record is written to the
//! Monitor Audit Trail." The TMP owns this trail and *forces* every
//! completion record — that single forced write is the commit point of the
//! whole (possibly distributed) transaction, which is why ROLLFORWARD can
//! resolve in-doubt transactions by consulting the home node's monitor
//! trail.

use encompass_sim::{NodeId, StableStorage};
use encompass_storage::transids::TransidMap;
use encompass_storage::types::Transid;
use guardian::Checkpointed;

/// Stable-storage key of a node's monitor audit trail.
pub fn monitor_key(node: NodeId) -> String {
    format!("{node}:monitor-trail")
}

/// One completion record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompletionRecord {
    pub transid: Transid,
    pub committed: bool,
}

/// The persistent monitor trail of one node.
#[derive(Default)]
pub struct MonitorTrail {
    /// Each completed transaction's disposition, by home node and sequence
    /// number (DESIGN.md §D30): every write looks its transid up first, so
    /// a scan here would make the trail quadratic in a run's commits.
    records: TransidMap<bool>,
    commits: usize,
    /// Every record is a forced write.
    pub forces: u64,
}

impl MonitorTrail {
    pub fn new() -> MonitorTrail {
        MonitorTrail::default()
    }

    /// Fetch (creating if needed) the trail of `node`.
    pub fn of(stable: &mut StableStorage, node: NodeId) -> &mut MonitorTrail {
        stable.get_or_create::<MonitorTrail, _>(&monitor_key(node), MonitorTrail::new)
    }

    /// Write a completion record (the commit point when `committed`). This
    /// is the forced write the paper's commit protocol pivots on, so every
    /// path into it must have checkpointed intent to the backup first and
    /// proves it with the [`Checkpointed`] witness:
    ///
    /// ```compile_fail
    /// use encompass_sim::NodeId;
    /// let transid = encompass_storage::types::Transid { home_node: NodeId(1), cpu: 0, seq: 1 };
    /// let mut trail = encompass_audit::monitor::MonitorTrail::new();
    /// trail.record(transid, true); // no checkpoint, no commit record
    /// ```
    pub fn record(&mut self, transid: Transid, committed: bool, _cp: &Checkpointed) {
        if self.write(transid, committed) {
            self.forces += 1;
        }
    }

    /// Write a boxcar of completion records under a *single* physical
    /// force — the group-commit path. Every record in the batch becomes
    /// durable (and, for commits, committed) at the same instant; the
    /// write is still "force at phase one", there is just one of it.
    /// Returns how many records were new (retries are skipped, as in
    /// [`MonitorTrail::record`]). A fully-duplicate batch costs no force.
    pub fn record_group(&mut self, batch: &[(Transid, bool)], _cp: &Checkpointed) -> usize {
        let mut written = 0;
        for &(transid, committed) in batch {
            written += usize::from(self.write(transid, committed));
        }
        if written > 0 {
            self.forces += 1;
        }
        written
    }

    /// Add a record unless `transid` has one: idempotent against TMP
    /// retries, the first disposition stands. True if it was added.
    fn write(&mut self, transid: Transid, committed: bool) -> bool {
        let added = self.records.insert(transid, committed);
        self.commits += usize::from(added && committed);
        added
    }

    /// The recorded outcome of a transaction, if it completed.
    pub fn outcome(&self, transid: Transid) -> Option<bool> {
        self.records.get(&transid)
    }

    /// Every record, by home node, then sequence number.
    pub fn records(&self) -> impl Iterator<Item = CompletionRecord> + '_ {
        let record = |(transid, committed)| CompletionRecord { transid, committed };
        self.records.iter().map(record)
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Count of commit records (experiments).
    pub fn commits(&self) -> usize {
        self.commits
    }

    /// Count of abort records.
    pub fn aborts(&self) -> usize {
        self.len() - self.commits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(seq: u64) -> Transid {
        Transid {
            home_node: NodeId(1),
            cpu: 0,
            seq,
        }
    }

    fn cp() -> Checkpointed {
        Checkpointed::reviewed("unit test: no backup exists")
    }

    #[test]
    fn records_and_outcomes() {
        let mut m = MonitorTrail::new();
        m.record(t(1), true, &cp());
        m.record(t(2), false, &cp());
        assert_eq!(m.outcome(t(1)), Some(true));
        assert_eq!(m.outcome(t(2)), Some(false));
        assert_eq!(m.outcome(t(3)), None);
        assert_eq!(m.commits(), 1);
        assert_eq!(m.aborts(), 1);
        assert_eq!(m.forces, 2);
    }

    #[test]
    fn first_disposition_is_final() {
        let mut m = MonitorTrail::new();
        m.record(t(1), true, &cp());
        // a retried (or conflicting) record cannot change the outcome
        m.record(t(1), false, &cp());
        assert_eq!(m.outcome(t(1)), Some(true));
        assert_eq!(m.len(), 1);
        assert_eq!(m.forces, 1);
    }

    #[test]
    fn group_record_is_one_force() {
        let mut m = MonitorTrail::new();
        let batch = [(t(1), true), (t(2), true), (t(3), false)];
        let written = m.record_group(&batch, &cp());
        assert_eq!(written, 3);
        assert_eq!(m.forces, 1);
        assert_eq!(m.commits(), 2);
        assert_eq!(m.aborts(), 1);
        // a retried batch is absorbed without another force
        let written = m.record_group(&batch[..2], &cp());
        assert_eq!(written, 0);
        assert_eq!(m.forces, 1);
        // and a conflicting retry cannot flip an outcome
        m.record_group(&[(t(3), true)], &cp());
        assert_eq!(m.outcome(t(3)), Some(false));
    }

    /// The trail as it was before it was keyed: a `Vec` in write order,
    /// every lookup a scan.
    #[derive(Default)]
    struct Linear {
        records: Vec<CompletionRecord>,
        forces: u64,
    }

    impl Linear {
        fn outcome(&self, transid: Transid) -> Option<bool> {
            let mut records = self.records.iter();
            records.find(|r| r.transid == transid).map(|r| r.committed)
        }

        fn record_group(&mut self, batch: &[(Transid, bool)]) -> usize {
            let mut written = 0;
            for &(transid, committed) in batch {
                if self.outcome(transid).is_none() {
                    self.records.push(CompletionRecord { transid, committed });
                    written += 1;
                }
            }
            self.forces += u64::from(written > 0);
            written
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        // Random `record`/`record_group` sequences over 24 transids, so
        // retries and conflicting dispositions (within a boxcar, too) are
        // the rule; every query of both must agree after every write.
        #[test]
        fn agrees_with_a_linear_scan(
            ops in prop::collection::vec(
                (0u8..2, prop::collection::vec((0u8..2, 0u64..12, 0u8..2), 1..5)),
                0..60,
            )
        ) {
            let mut trail = MonitorTrail::new();
            let mut model = Linear::default();
            let transid = |cpu, seq| Transid { home_node: NodeId(1), cpu, seq };
            for (group, batch) in ops {
                let batch: Vec<(Transid, bool)> = batch
                    .into_iter()
                    .map(|(cpu, seq, committed)| (transid(cpu, seq), committed == 1))
                    .collect();
                if group == 0 {
                    let (t, committed) = batch[0];
                    trail.record(t, committed, &cp());
                    model.record_group(&batch[..1]);
                } else {
                    let written = trail.record_group(&batch, &cp());
                    prop_assert_eq!(written, model.record_group(&batch));
                }
                prop_assert_eq!(trail.len(), model.records.len());
                prop_assert_eq!(trail.forces, model.forces);
                let commits = model.records.iter().filter(|r| r.committed).count();
                prop_assert_eq!(trail.commits(), commits);
                prop_assert_eq!(trail.aborts(), model.records.len() - commits);
                for (cpu, seq) in (0..3).flat_map(|cpu| (0..13).map(move |seq| (cpu, seq))) {
                    let t = transid(cpu, seq);
                    prop_assert_eq!(trail.outcome(t), model.outcome(t));
                }
            }
            // listed by sequence number, then cpu where one was issued twice
            model.records.sort_by_key(|r| (r.transid.seq, r.transid.cpu));
            prop_assert_eq!(trail.records().collect::<Vec<_>>(), model.records);
        }
    }

    #[test]
    fn lives_in_stable_storage() {
        let mut stable = StableStorage::new();
        MonitorTrail::of(&mut stable, NodeId(3)).record(t(9), true, &cp());
        assert_eq!(
            MonitorTrail::of(&mut stable, NodeId(3)).outcome(t(9)),
            Some(true)
        );
        assert!(stable.contains(&monitor_key(NodeId(3))));
    }
}
