//! Per-processor transaction tables.
//!
//! "All transaction state changes are broadcast, via the interprocessor
//! bus, to all processors within a single node … regardless of which
//! processors actually participated in the transaction" — a design choice
//! the paper justifies by the bus's speed and reliability (and whose cost
//! experiment T1b measures). One `TxTableProcess` runs on every CPU; the
//! TMP broadcasts state changes to all of them; local software (File
//! System shims, servers) can query its own CPU's table cheaply.

use crate::state::TxState;
use encompass_sim::{counter, Ctx, DetHashMap, Payload, Pid, Process};
use encompass_storage::types::Transid;

/// A broadcast state change (TMP → every CPU's table).
#[derive(Clone, Copy, Debug)]
pub struct StateBroadcast {
    pub transid: Transid,
    pub state: TxState,
}

/// Query a table for a transaction's state; the reply is
/// `TableAnswer`.
#[derive(Clone, Copy, Debug)]
pub struct TableQuery {
    pub transid: Transid,
}

/// Reply to a [`TableQuery`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TableAnswer {
    pub transid: Transid,
    pub state: Option<TxState>,
}

/// The name the transaction table of processor `cpu` registers.
pub(crate) fn txtable_name(cpu: u8) -> String {
    format!("$TXTABLE{cpu}")
}

/// The per-CPU transaction table. Registered as `$TXTABLE` on its node
/// (one per CPU; lookups resolve per-CPU via pid, queries in tests use the
/// pid directly).
#[derive(Default)]
pub struct TxTableProcess {
    states: DetHashMap<Transid, TxState>,
}

impl TxTableProcess {
    pub fn new() -> TxTableProcess {
        TxTableProcess::default()
    }
}

impl Process for TxTableProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // one table per CPU: name carries the CPU number
        ctx.register_name(&txtable_name(ctx.pid().cpu.0));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, src: Pid, payload: Payload) {
        if let Some(b) = payload.downcast_ref::<StateBroadcast>() {
            ctx.count(counter!("tmf.table_broadcasts"), 1);
            // terminal states remove the transid: "the transid leaves the
            // system"
            if b.state.is_terminal() {
                self.states.remove(&b.transid);
            } else {
                // enforce Figure 3 locally: ignore illegal regressions
                // (possible only from reordered broadcasts)
                match self.states.get(&b.transid) {
                    Some(cur) if !cur.can_become(b.state) && *cur != b.state => return,
                    _ => {}
                }
                self.states.insert(b.transid, b.state);
            }
            return;
        }
        if let Some(q) = payload.downcast_ref::<TableQuery>() {
            let answer = TableAnswer {
                transid: q.transid,
                state: self.states.get(&q.transid).copied(),
            };
            let _ = ctx.send(src, Payload::new(answer));
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
    use std::cell::RefCell;
    use std::rc::Rc;

    fn t(seq: u64) -> Transid {
        Transid {
            home_node: NodeId(0),
            cpu: 0,
            seq,
        }
    }

    struct Asker {
        table: Pid,
        transid: Transid,
        got: Rc<RefCell<Option<TableAnswer>>>,
    }
    impl Process for Asker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let _ = ctx.send(
                self.table,
                Payload::new(TableQuery {
                    transid: self.transid,
                }),
            );
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
            *self.got.borrow_mut() = Some(payload.expect::<TableAnswer>());
        }
    }

    fn query(w: &mut World, n: NodeId, table: Pid, transid: Transid) -> Option<TxState> {
        let got = Rc::new(RefCell::new(None));
        w.spawn(
            n,
            1,
            Box::new(Asker {
                table,
                transid,
                got: got.clone(),
            }),
        );
        w.run_for(SimDuration::from_millis(10));
        let answer = got.borrow().expect("query answered");
        answer.state
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
        assert_eq!(query(&mut w, n, table, t(1)), Some(TxState::Active));
        assert_eq!(query(&mut w, n, table, t(2)), None);

        w.send_external(
            table,
            Payload::new(StateBroadcast {
                transid: t(1),
                state: TxState::Ending,
            }),
        );
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(query(&mut w, n, table, t(1)), Some(TxState::Ending));

        // terminal: the transid leaves the system
        w.send_external(
            table,
            Payload::new(StateBroadcast {
                transid: t(1),
                state: TxState::Ended,
            }),
        );
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(query(&mut w, n, table, t(1)), None);
        assert!(w.metrics().get("tmf.table_broadcasts") >= 3);
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
        assert_eq!(query(&mut w, n, table, t(7)), Some(TxState::Aborting));
    }
}
