//! Screen programs: the stand-in for Screen COBOL.
//!
//! A screen program drives one terminal. The TCP interprets it: it asks
//! the program for its next action ([`ScreenProgram::next`]), feeding back
//! what happened ([`ScreenInput`]). The verbs match the paper's:
//! `BEGIN-TRANSACTION`, `SEND`, `END-TRANSACTION`, `ABORT-TRANSACTION`,
//! `RESTART-TRANSACTION`.
//!
//! Restart semantics: when a transaction fails (or the program requests
//! RESTART), the TCP backs the transaction out and calls
//! [`ScreenProgram::restart`], which must rewind the program to its
//! `BEGIN-TRANSACTION` point *with the same input data* — the TCP
//! checkpointed the data extracted from the input screens, so the restart
//! "may not require re-entering the input screens".

use crate::messages::{AppReply, AppRequest};
use encompass_sim::{Name, SimDuration};
use tmf::session::SessionOptions;

/// What the program wants the TCP to do next.
#[derive(Clone, Debug)]
pub enum ScreenAction {
    /// BEGIN-TRANSACTION, with the transaction's declared options
    /// (class and read mode). [`ScreenAction::begin`] builds the default
    /// read-write begin.
    Begin { options: SessionOptions },
    /// SEND a request to a server class (optionally on a specific node;
    /// `None` = the TCP's own node).
    Send {
        node: Option<encompass_sim::NodeId>,
        class: Name,
        request: AppRequest,
    },
    /// END-TRANSACTION.
    End,
    /// ABORT-TRANSACTION (no automatic restart).
    Abort,
    /// RESTART-TRANSACTION (back out, then restart at BEGIN).
    Restart,
    /// Simulate operator think time / screen interaction.
    Think(SimDuration),
    /// The terminal's work is done.
    Finished,
}

impl ScreenAction {
    /// BEGIN-TRANSACTION with default options (a read-write transaction).
    pub fn begin() -> ScreenAction {
        ScreenAction::Begin {
            options: SessionOptions::default(),
        }
    }

    /// BEGIN-TRANSACTION for a read-only transaction (snapshot reads).
    pub fn begin_read_only() -> ScreenAction {
        ScreenAction::Begin {
            options: SessionOptions::new().read_only(),
        }
    }
}

/// What just happened, fed to the program to get its next action.
#[derive(Debug)]
pub enum ScreenInput<'a> {
    /// First call, and after Think expires.
    Go,
    /// BEGIN completed; the terminal is in transaction mode.
    Began,
    /// A SEND completed with this reply.
    Reply(&'a AppReply),
    /// END completed: the updates are permanent.
    Committed,
    /// The transaction was backed out (voluntary abort, restart, or system
    /// abort). If the TCP is going to auto-restart, it calls `restart()`
    /// instead of delivering this.
    Aborted,
    /// A SEND failed (server class unreachable / timed out). The TCP will
    /// normally restart the transaction; delivered only past the restart
    /// limit.
    SendFailed,
}

/// One terminal's program.
pub trait ScreenProgram: 'static {
    /// Decide the next action.
    fn next(&mut self, input: ScreenInput<'_>) -> ScreenAction;

    /// Rewind to the BEGIN-TRANSACTION point with the same input data
    /// (called on RESTART-TRANSACTION and on automatic restart).
    fn restart(&mut self);

    /// Resume after the `committed`-th END-TRANSACTION that committed.
    /// After a TCP takeover the backup's program instances are fresh; the
    /// TCP hands them the checkpointed number of committed transactions,
    /// and again once more when the takeover learns that the transaction
    /// the primary had open committed, so completed work is never
    /// re-entered. Every program that commits needs it, looping or not.
    fn set_progress(&mut self, committed: u64);
}

/// A fixed linear script (useful for tests): actions are taken in order;
/// `restart` rewinds to the most recent `Begin`.
pub struct ScriptProgram {
    steps: Vec<ScreenAction>,
    next: usize,
    begin_at: usize,
}

impl ScriptProgram {
    pub fn new(steps: Vec<ScreenAction>) -> ScriptProgram {
        ScriptProgram {
            steps,
            next: 0,
            begin_at: 0,
        }
    }
}

impl ScreenProgram for ScriptProgram {
    fn next(&mut self, _input: ScreenInput<'_>) -> ScreenAction {
        if self.next >= self.steps.len() {
            return ScreenAction::Finished;
        }
        let action = self.steps[self.next].clone();
        if matches!(action, ScreenAction::Begin { .. }) {
            self.begin_at = self.next;
        }
        self.next += 1;
        action
    }

    fn restart(&mut self) {
        self.next = self.begin_at;
    }

    fn set_progress(&mut self, committed: u64) {
        // the step after the script's `committed`-th END
        self.next = match committed.checked_sub(1) {
            None => 0,
            Some(k) => (self.steps.iter().enumerate())
                .filter(|(_, s)| matches!(s, ScreenAction::End))
                .nth(k as usize)
                .map_or(self.steps.len(), |(i, _)| i + 1),
        };
        self.begin_at = self.next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_runs_in_order_and_finishes() {
        let mut p = ScriptProgram::new(vec![ScreenAction::begin(), ScreenAction::End]);
        assert!(matches!(
            p.next(ScreenInput::Go),
            ScreenAction::Begin { .. }
        ));
        assert!(matches!(p.next(ScreenInput::Began), ScreenAction::End));
        assert!(matches!(
            p.next(ScreenInput::Committed),
            ScreenAction::Finished
        ));
        assert!(matches!(p.next(ScreenInput::Go), ScreenAction::Finished));
    }

    #[test]
    fn restart_rewinds_to_last_begin() {
        let mut p = ScriptProgram::new(vec![
            ScreenAction::Think(SimDuration::from_millis(1)),
            ScreenAction::begin(),
            ScreenAction::End,
        ]);
        let _ = p.next(ScreenInput::Go); // think
        let _ = p.next(ScreenInput::Go); // begin
        let _ = p.next(ScreenInput::Began); // end
        p.restart();
        assert!(
            matches!(p.next(ScreenInput::Go), ScreenAction::Begin { .. }),
            "restart resumes at BEGIN, not at the think step"
        );
    }

    #[test]
    fn set_progress_resumes_after_the_nth_end() {
        let script = || {
            ScriptProgram::new(vec![
                ScreenAction::begin(),
                ScreenAction::End,
                ScreenAction::Think(SimDuration::from_millis(1)),
                ScreenAction::begin(),
                ScreenAction::End,
            ])
        };
        let mut p = script();
        p.set_progress(0);
        assert!(matches!(
            p.next(ScreenInput::Go),
            ScreenAction::Begin { .. }
        ));
        let mut p = script();
        p.set_progress(1);
        p.restart();
        assert!(matches!(p.next(ScreenInput::Go), ScreenAction::Think(_)));
        let mut p = script();
        p.set_progress(2);
        assert!(matches!(p.next(ScreenInput::Go), ScreenAction::Finished));
    }
}
