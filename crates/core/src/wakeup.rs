//! The single pending wake-up a host agent owns.
//!
//! An agent is a state machine with many deadlines (stack timers, the overlay
//! tick, the application, packets still in user-level processing) but needs
//! only one simulator timer: the earliest of them. [`Wakeup`] keeps that
//! invariant — at most one timer pending per agent, and never one later than
//! the deadline last asked for — so the number of timer events grows with the
//! work an agent does, not with how long it has been running.

use ipop_netsim::{HostCtx, TimerId};
use ipop_simcore::{Duration, SimTime, TimerToken};

/// The only timer either agent arms, so `on_timer` needs no token dispatch.
const WAKEUP: TimerToken = TimerToken(1);

/// Closest a wake-up is armed to the current instant: an agent whose
/// component reports a deadline that is already due advances by at least this
/// much per event instead of spinning at one instant.
const FLOOR: Duration = Duration::from_micros(10);

/// Handle on an agent's one pending wake-up timer.
#[derive(Default)]
pub(crate) struct Wakeup {
    /// Firing instant and handle of the pending timer.
    armed: Option<(SimTime, TimerId)>,
}

impl Wakeup {
    /// Make sure the agent is woken no later than `deadline` (and no sooner
    /// than [`FLOOR`] from now). A pending timer that is already early enough
    /// is kept — the pass it triggers re-arms for what is due then; a later
    /// one is cancelled and replaced.
    pub(crate) fn arm(&mut self, ctx: &mut HostCtx<'_, '_>, deadline: SimTime) {
        let now = ctx.now();
        let at = deadline.max(now + FLOOR);
        if let Some((armed_at, id)) = self.armed {
            if armed_at <= at {
                return;
            }
            ctx.cancel_timer(id);
        }
        self.armed = Some((at, ctx.set_timer(at - now, WAKEUP)));
    }

    /// The pending timer fired: nothing is armed until the next [`Wakeup::arm`].
    pub(crate) fn fired(&mut self) {
        self.armed = None;
    }
}
