//! The transaction state machine (Figure 3 of the paper, refined).
//!
//! ```text
//!            BEGIN
//!              │
//!              ▼        END (phase one)           (decision durable)
//!           ACTIVE ───────────────────► ENDING ──────► COMMITTING
//!              │                           │                │ commit record
//!              │ FAILURE / ABORT           │ FAILURE        │ forced
//!              ▼                           ▼                ▼
//!           ABORTING ──────────────────► ABORTED          ENDED
//!                         (backout)
//! ```
//!
//! "Aborting" and "ending" are parallel states, as are "aborted" and
//! "ended". Once "ended" or "aborted" completes, the transid leaves the
//! system.
//!
//! COMMITTING refines the paper's "ending" state (see DESIGN.md §D12): the
//! home TMP enters it when every phase-one participant has forced its
//! audit images and the commit decision has been checkpointed to the
//! backup. From COMMITTING the only exit is ENDED — an abort can no longer
//! overtake the commit — which is what licenses releasing record locks
//! while the commit record's monitor-trail force is still spinning.
//!
//! The table is the TMP's only gate: `TmpProcess::set_state` asserts it on
//! every change, in every build. Two things that look like transitions
//! add no edge:
//!
//! * *Re-drive.* A takeover that finds an entry ABORTING re-enters the
//!   state it is in — the backout, or the abort record's force, may have
//!   died with the primary — and drives the backout again.
//! * *Operator override.* `ForceDisposition` goes through the same table
//!   as the protocol: it may abort only what can become ABORTING (ACTIVE,
//!   ENDING) and commit only what can become ENDED (ENDING, COMMITTING),
//!   so a COMMITTING or finished transaction keeps its outcome.

use std::fmt;

/// The states of Figure 3, plus the committing refinement of "ending".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TxState {
    /// After BEGIN-TRANSACTION, before commit or abort is requested.
    Active,
    /// Phase one of commit: audit records being forced to the trails.
    Ending,
    /// Home only: phase one complete, commit decision checkpointed, commit
    /// record queued for the monitor trail. Locks may release; an abort
    /// can no longer win.
    Committing,
    /// The commit record is on the Monitor Audit Trail; locks being
    /// released (phase two). Terminal.
    Ended,
    /// The decision to back out has been taken; backout in progress.
    Aborting,
    /// Backout complete; locks being released. Terminal.
    Aborted,
}

impl TxState {
    /// The legal next states (Figure 3's edges, with ENDING → ENDED split
    /// through COMMITTING on the home-commit path; the direct edge remains
    /// for non-home nodes applying a received disposition).
    pub fn successors(self) -> &'static [TxState] {
        match self {
            TxState::Active => &[TxState::Ending, TxState::Aborting],
            TxState::Ending => &[TxState::Committing, TxState::Ended, TxState::Aborting],
            TxState::Committing => &[TxState::Ended],
            TxState::Ended => &[],
            TxState::Aborting => &[TxState::Aborted],
            TxState::Aborted => &[],
        }
    }

    /// Is `next` a legal transition from `self`?
    pub fn can_become(self, next: TxState) -> bool {
        self.successors().contains(&next)
    }

    /// Terminal states: the transid leaves the system after these.
    pub fn is_terminal(self) -> bool {
        matches!(self, TxState::Ended | TxState::Aborted)
    }

    /// All states, for exhaustive enumeration (experiment F3).
    pub fn all() -> [TxState; 6] {
        [
            TxState::Active,
            TxState::Ending,
            TxState::Committing,
            TxState::Ended,
            TxState::Aborting,
            TxState::Aborted,
        ]
    }
}

impl fmt::Display for TxState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxState::Active => "active",
            TxState::Ending => "ending",
            TxState::Committing => "committing",
            TxState::Ended => "ended",
            TxState::Aborting => "aborting",
            TxState::Aborted => "aborted",
        };
        f.write_str(s)
    }
}

/// What a transaction declared about itself at BEGIN-TRANSACTION.
///
/// Read-write is the paper's transaction: it registers volumes, writes
/// audit images, and commits through two-phase END. A read-only
/// transaction promises to issue no writes; TMF exploits the promise by
/// resolving END-TRANSACTION locally at the home TMP — no phase one, no
/// forced commit record — because a transaction with no after-images has
/// nothing to make durable (DESIGN.md §D13).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum TxnClass {
    /// May read and write; commits through the full two-phase protocol.
    #[default]
    ReadWrite,
    /// Promises not to write. Reads run against a snapshot fence and take
    /// no locks; END-TRANSACTION resolves locally without a forced monitor
    /// record.
    ReadOnly,
}

impl fmt::Display for TxnClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxnClass::ReadWrite => "read-write",
            TxnClass::ReadOnly => "read-only",
        };
        f.write_str(s)
    }
}

/// Why a transaction was aborted — the paper's causes of automatic abort
/// plus the voluntary verbs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortReason {
    /// ABORT-TRANSACTION: the application decided to back out, without
    /// automatic restart.
    Voluntary,
    /// RESTART-TRANSACTION: transient problem (e.g. lock timeout /
    /// presumed deadlock); back out and restart at BEGIN-TRANSACTION.
    Restart,
    /// Failure of the processor hosting the requester (primary TCP) or a
    /// server working on the transaction.
    CpuFailure,
    /// Complete loss of communication with a participating node.
    NetworkPartition,
    /// A participating node was inaccessible or refused at phase one.
    Phase1Failure,
    /// An operator forced the disposition (the manual override).
    OperatorOverride,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_3_edges_exactly() {
        use TxState::*;
        let expect = [
            (Active, vec![Ending, Aborting]),
            (Ending, vec![Committing, Ended, Aborting]),
            (Committing, vec![Ended]),
            (Ended, vec![]),
            (Aborting, vec![Aborted]),
            (Aborted, vec![]),
        ];
        for (s, succ) in expect {
            assert_eq!(s.successors(), succ.as_slice(), "{s}");
        }
    }

    #[test]
    fn committing_cannot_abort() {
        // the committing refinement exists precisely so locks can release
        // before the commit record's force completes: once entered, no
        // abort path may win
        assert!(!TxState::Committing.can_become(TxState::Aborting));
        assert!(!TxState::Committing.can_become(TxState::Aborted));
        assert!(TxState::Committing.can_become(TxState::Ended));
    }

    #[test]
    fn terminality() {
        assert!(TxState::Ended.is_terminal());
        assert!(TxState::Aborted.is_terminal());
        assert!(!TxState::Active.is_terminal());
        assert!(!TxState::Ending.is_terminal());
        assert!(!TxState::Committing.is_terminal());
        assert!(!TxState::Aborting.is_terminal());
    }

    #[test]
    fn reachability_from_active_covers_all_states() {
        // BFS over the transition graph reaches every state
        let mut seen = vec![TxState::Active];
        let mut frontier = vec![TxState::Active];
        while let Some(s) = frontier.pop() {
            for &n in s.successors() {
                if !seen.contains(&n) {
                    seen.push(n);
                    frontier.push(n);
                }
            }
        }
        assert_eq!(seen.len(), TxState::all().len());
    }

    #[test]
    fn no_transition_out_of_terminal_states() {
        for s in TxState::all() {
            if s.is_terminal() {
                for n in TxState::all() {
                    assert!(!s.can_become(n));
                }
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(TxState::Active.to_string(), "active");
        assert_eq!(TxState::Aborting.to_string(), "aborting");
    }
}
