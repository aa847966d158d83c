//! The operator process: the paper's example of a non-I/O process-pair,
//! "responsible for formatting and printing error messages on the system
//! console". Here it subscribes to hardware events and tallies them into
//! the metrics, giving experiments a node-local availability log.

use encompass_sim::{counter, Ctx, Payload, Pid, Process, SystemEvent};

/// Spawn one per node (plain process; its state is reconstructible, so a
/// pair adds nothing in the simulation).
#[derive(Default)]
pub struct OperatorProcess {
    seen: u64,
}

impl Process for OperatorProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.subscribe_system();
        ctx.register_name("$OPR");
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, _payload: Payload) {
        // console messages from other processes would be printed here
    }

    fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
        self.seen += 1;
        let counter = match ev {
            SystemEvent::CpuDown(..) => counter!("operator.cpu_down"),
            SystemEvent::CpuUp(..) => counter!("operator.cpu_up"),
            SystemEvent::BusUp(..) => counter!("operator.bus_up"),
            SystemEvent::LinkDown(..) => counter!("operator.link_down"),
            SystemEvent::LinkUp(..) => counter!("operator.link_up"),
        };
        ctx.count(counter, 1);
        ctx.trace("operator", || format!("{ev:?}"));
    }

    fn kind(&self) -> &'static str {
        "operator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encompass_sim::{CpuId, Fault, SimConfig, SimDuration, World};

    #[test]
    fn tallies_hardware_events() {
        let mut w = World::new(SimConfig::default());
        let a = w.add_node(4);
        let b = w.add_node(2);
        let l = w.add_link(a, b, SimDuration::from_millis(1));
        w.spawn(a, 0, Box::new(OperatorProcess::default()));
        w.run_until_quiescent();
        w.inject(Fault::KillCpu(a, CpuId(2)));
        w.inject(Fault::CutLink(l));
        w.inject(Fault::HealLink(l));
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(w.metrics().get("operator.cpu_down"), 1);
        assert_eq!(w.metrics().get("operator.link_down"), 1);
        assert_eq!(w.metrics().get("operator.link_up"), 1);
        assert!(w.lookup_name(a, "$OPR").is_some());
    }
}
