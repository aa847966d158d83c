//! Per-processor transaction tables.
//!
//! "All transaction state changes are broadcast, via the interprocessor
//! bus, to all processors within a single node … regardless of which
//! processors actually participated in the transaction" — a design choice
//! the paper justifies by the bus's speed and reliability (and whose cost
//! experiment T1b measures). One `TxTableProcess` runs on every CPU, and
//! the TMP broadcasts state changes to all of them.

use crate::state::TxState;
use encompass_sim::{counter, Ctx, DetHashMap, Payload, Pid, Process};
use encompass_storage::types::Transid;
use std::collections::hash_map::Entry;

/// A broadcast state change (TMP → every CPU's table).
#[derive(Clone, Copy, Debug)]
pub struct StateBroadcast {
    pub transid: Transid,
    pub state: TxState,
}

/// The name the transaction table of processor `cpu` registers.
pub(crate) fn txtable_name(cpu: u8) -> String {
    format!("$TXTABLE{cpu}")
}

/// The per-CPU transaction table, registered as `$TXTABLE<cpu>` on its
/// node.
///
/// Two broadcasts the TMP sends from one handler can arrive swapped under
/// delivery jitter (a read-only END sends `Ending` then `Ended`). A
/// terminal state that overtakes its Figure-3 predecessor leaves a
/// *tombstone*: the terminal state itself, kept as the entry until the
/// late predecessor arrives and removes both, so that it cannot re-insert
/// a transid that has left the system.
#[derive(Default)]
pub struct TxTableProcess {
    states: DetHashMap<Transid, TxState>,
}

impl TxTableProcess {
    pub fn new() -> TxTableProcess {
        TxTableProcess::default()
    }

    /// Every transid the table holds, tombstones included, in no
    /// particular order.
    pub fn transids(&self) -> impl Iterator<Item = Transid> + '_ {
        self.states.keys().copied()
    }

    fn apply(&mut self, transid: Transid, state: TxState) {
        match self.states.entry(transid) {
            Entry::Occupied(mut entry) => {
                let cur = *entry.get();
                if cur.is_terminal() {
                    // a tombstone: its late predecessor removes it, and
                    // anything else is as stale as that predecessor
                    if state.can_become(cur) {
                        entry.remove();
                    }
                } else if state.is_terminal() {
                    if cur.can_become(state) {
                        // "the transid leaves the system"
                        entry.remove();
                    } else {
                        // it overtook its predecessor: keep the tombstone
                        entry.insert(state);
                    }
                } else if cur.can_become(state) || cur == state {
                    entry.insert(state);
                }
                // else an illegal regression (possible only from
                // reordered broadcasts): Figure 3 is enforced locally
            }
            Entry::Vacant(entry) => {
                if !state.is_terminal() {
                    entry.insert(state);
                }
            }
        }
    }
}

impl Process for TxTableProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // one table per CPU: name carries the CPU number
        ctx.register_name(&txtable_name(ctx.pid().cpu.0));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if let Some(b) = payload.downcast_ref::<StateBroadcast>() {
            ctx.count(counter!("tmf.table_broadcasts"), 1);
            self.apply(b.transid, b.state);
        }
    }

    fn kind(&self) -> &'static str {
        "txtable"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encompass_sim::{NodeId, SimConfig, SimDuration, World};

    fn t(seq: u64) -> Transid {
        Transid {
            home_node: NodeId(0),
            cpu: 0,
            seq,
        }
    }

    /// The state `table` holds for `transid`, read between events; a
    /// tombstone reads as absent.
    fn state_of(w: &World, table: Pid, transid: Transid) -> Option<TxState> {
        let table = w.inspect::<TxTableProcess>(table).expect("table alive");
        (table.states.get(&transid).copied()).filter(|s| !s.is_terminal())
    }

    #[test]
    fn broadcast_query_and_terminal_purge() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let table = w.spawn(n, 0, Box::new(TxTableProcess::new()));
        w.run_until_quiescent();

        w.send_external(
            table,
            Payload::new(StateBroadcast {
                transid: t(1),
                state: TxState::Active,
            }),
        );
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(state_of(&w, table, t(1)), Some(TxState::Active));
        assert_eq!(state_of(&w, table, t(2)), None);

        w.send_external(
            table,
            Payload::new(StateBroadcast {
                transid: t(1),
                state: TxState::Ending,
            }),
        );
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(state_of(&w, table, t(1)), Some(TxState::Ending));

        // terminal: the transid leaves the system
        w.send_external(
            table,
            Payload::new(StateBroadcast {
                transid: t(1),
                state: TxState::Ended,
            }),
        );
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(state_of(&w, table, t(1)), None);
        assert!(w.metrics().get("tmf.table_broadcasts") >= 3);
    }

    /// The TMP sends every table a copy of one shared broadcast: each
    /// table applies it, and the last copy read frees the block.
    #[test]
    fn one_shared_broadcast_reaches_four_tables() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(4);
        let tables: Vec<Pid> = (0..4)
            .map(|cpu| w.spawn(n, cpu, Box::new(TxTableProcess::new())))
            .collect();
        w.run_until_quiescent();
        let change = std::sync::Arc::new(StateBroadcast {
            transid: t(3),
            state: TxState::Active,
        });
        for &table in &tables {
            w.send_external(table, Payload::shared(&change));
        }
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(std::sync::Arc::strong_count(&change), 1, "every copy read");
        for &table in &tables {
            assert_eq!(state_of(&w, table, t(3)), Some(TxState::Active));
        }
        assert_eq!(w.metrics().get("tmf.table_broadcasts"), 4);
    }

    #[test]
    fn illegal_regressions_are_ignored() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let table = w.spawn(n, 0, Box::new(TxTableProcess::new()));
        w.run_until_quiescent();
        for state in [TxState::Active, TxState::Aborting, TxState::Active] {
            w.send_external(
                table,
                Payload::new(StateBroadcast {
                    transid: t(7),
                    state,
                }),
            );
        }
        w.run_for(SimDuration::from_millis(5));
        // the stale Active re-broadcast did not overwrite Aborting
        assert_eq!(state_of(&w, table, t(7)), Some(TxState::Aborting));
    }

    /// A terminal state that overtakes its predecessor keeps a tombstone
    /// until the predecessor arrives; the transid then leaves the table
    /// instead of being re-inserted by the late broadcast.
    #[test]
    fn reordered_terminal_broadcasts_leave_nothing_behind() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let table = w.spawn(n, 0, Box::new(TxTableProcess::new()));
        w.run_until_quiescent();
        let held = |w: &World| -> Vec<Transid> {
            let table = w.inspect::<TxTableProcess>(table).expect("table alive");
            table.transids().collect()
        };
        let swapped = [
            // a read-only END: Ended overtakes Ending
            (t(1), [TxState::Active, TxState::Ended, TxState::Ending]),
            // an abort: Aborted overtakes Aborting
            (t(2), [TxState::Active, TxState::Aborted, TxState::Aborting]),
        ];
        for (transid, states) in swapped {
            for (i, state) in states.into_iter().enumerate() {
                w.send_external(table, Payload::new(StateBroadcast { transid, state }));
                w.run_for(SimDuration::from_millis(5));
                if i == 1 {
                    assert_eq!(held(&w), vec![transid], "the tombstone");
                    assert_eq!(state_of(&w, table, transid), None);
                }
            }
            assert_eq!(held(&w), vec![], "{transid} left the table");
            assert_eq!(state_of(&w, table, transid), None);
        }
    }
}
