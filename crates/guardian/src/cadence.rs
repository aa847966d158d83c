//! The one shape of a background clock (DESIGN.md §D31).
//!
//! A pair primary that does periodic work keeps a [`Cadence`]: one timer,
//! armed on the grid `epoch + k·every` that [`Cadence::start`] lays down
//! when the process becomes primary. The owner arms it while it has work
//! and stops arming it when the work is gone, so an idle process holds no
//! timer, and a tick that does fire falls on the same instant as the tick
//! of a clock that had never stopped.

use encompass_sim::{Ctx, SimDuration, SimTime, TimerId};

/// A periodic timer of one process: at most one armed, always on the grid
/// of the last [`start`](Cadence::start). Kept by the primary alone; a
/// cadence that has not started arms nothing.
pub struct Cadence {
    every: SimDuration,
    tag: u64,
    epoch: Option<SimTime>,
    armed: Option<TimerId>,
}

impl Cadence {
    /// A clock of period `every` (positive) whose timer fires with `tag`.
    pub const fn new(every: SimDuration, tag: u64) -> Cadence {
        Cadence {
            every,
            tag,
            epoch: None,
            armed: None,
        }
    }

    /// Lay the grid from now, with no timer armed: in `on_primary_start`,
    /// at spawn and after a takeover.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(timer) = self.armed.take() {
            ctx.cancel_timer(timer);
        }
        self.epoch = Some(ctx.now());
    }

    /// Arm the timer for the first grid instant strictly after now, unless
    /// it is armed already.
    pub fn arm(&mut self, ctx: &mut Ctx<'_>) {
        let Some(epoch) = self.epoch.filter(|_| self.armed.is_none()) else {
            return;
        };
        let every = self.every.as_micros();
        assert!(every > 0, "a cadence of tag {} has no period", self.tag);
        let delay = every - ctx.now().since(epoch).as_micros() % every;
        self.armed = Some(ctx.set_timer(SimDuration::from_micros(delay), self.tag));
    }

    /// Is `tag` this cadence's? If so, its timer has just fired and none
    /// is armed.
    pub fn fired(&mut self, tag: u64) -> bool {
        let ours = tag == self.tag;
        if ours {
            self.armed = None;
        }
        ours
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encompass_sim::{Payload, Pid, Process, SimConfig, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    const TICK: u64 = 1;
    const EVERY: SimDuration = SimDuration::from_millis(10);

    /// What the driver does at a scripted instant.
    #[derive(Clone, Copy)]
    enum Step {
        Start,
        Arm,
    }

    /// Runs `script` (instant in ms, step) on its own timers and records
    /// the instants, in ms, at which the cadence fires.
    struct Driver {
        cadence: Cadence,
        script: Vec<(u64, Step)>,
        fired: Rc<RefCell<Vec<u64>>>,
    }

    impl Process for Driver {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, &(at, _)) in self.script.iter().enumerate() {
                ctx.set_timer(SimDuration::from_millis(at), 100 + i as u64);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, _payload: Payload) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
            if self.cadence.fired(tag) {
                self.fired.borrow_mut().push(ctx.now().as_millis());
                return;
            }
            match self.script[(tag - 100) as usize].1 {
                Step::Start => self.cadence.start(ctx),
                Step::Arm => self.cadence.arm(ctx),
            }
        }
    }

    /// The firings of `script`, and the most cadence timers ever armed at
    /// once, looked at after every event.
    fn run(script: &[(u64, Step)]) -> (Vec<u64>, usize) {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let fired = Rc::new(RefCell::new(Vec::new()));
        let pid: Pid = w.spawn(
            n,
            0,
            Box::new(Driver {
                cadence: Cadence::new(EVERY, TICK),
                script: script.to_vec(),
                fired: Rc::clone(&fired),
            }),
        );
        let mut most = 0;
        while w.step() {
            let armed = w.armed_timers().filter(|&t| t == (pid, TICK)).count();
            most = most.max(armed);
        }
        let fired = fired.borrow().clone();
        (fired, most)
    }

    #[test]
    fn a_cadence_fires_on_the_grid_of_its_start() {
        use Step::*;
        // started at 3 ms: armed at 3 (on the grid) fires at 13, armed at
        // 17 fires at 23, armed at 33 (on the grid) fires at 43
        let (fired, _) = run(&[(3, Start), (3, Arm), (17, Arm), (33, Arm)]);
        assert_eq!(fired, [13, 23, 43]);
    }

    #[test]
    fn a_cadence_holds_at_most_one_timer_and_arming_twice_is_one_timer() {
        use Step::*;
        let (fired, most) = run(&[(0, Start), (1, Arm), (2, Arm), (5, Arm), (12, Arm)]);
        assert_eq!(fired, [10, 20]);
        assert_eq!(most, 1);
    }

    #[test]
    fn a_cadence_not_started_arms_nothing() {
        let (fired, most) = run(&[(1, Step::Arm)]);
        assert!(fired.is_empty());
        assert_eq!(most, 0);
    }

    #[test]
    fn a_restart_lays_a_new_grid_and_drops_the_armed_timer() {
        use Step::*;
        // armed at 1 for 10, then restarted at 4 (a takeover): the old
        // timer never fires, and the next arm is on the grid from 4
        let (fired, most) = run(&[(0, Start), (1, Arm), (4, Start), (6, Arm), (15, Arm)]);
        assert_eq!(fired, [14, 24]);
        assert_eq!(most, 1);
    }
}
