//! The application interface.
//!
//! The whole point of IPOP is that *unmodified* applications written against the
//! ordinary sockets API run across wide-area, NATed, firewalled resources as if
//! they were on a LAN. In the simulation, "unmodified" translates to: applications
//! are written purely against [`ipop_netstack::NetStack`] sockets and have no idea
//! whether the stack they talk to is attached to a physical interface (the
//! baseline runs of Tables I–III) or to the IPOP virtual interface (the IPOP runs).
//! The same application object is handed to either a [`crate::node::IpopHostAgent`]
//! or a [`crate::plain::PlainHostAgent`] without modification.

use std::any::Any;

use ipop_netstack::NetStack;
use ipop_simcore::{SimTime, StreamRng};

/// Everything an application may touch while being polled.
pub struct AppEnv<'a> {
    /// The network stack the application's sockets live on (virtual under IPOP,
    /// physical in baseline runs).
    pub stack: &'a mut NetStack,
    /// Current virtual time.
    pub now: SimTime,
    /// Host-local random stream.
    pub rng: &'a mut StreamRng,
    /// The host's name (for labelling results).
    pub host_name: &'a str,
}

/// A socket application driven by polling.
pub trait VirtualApp: Any {
    /// Called once before the first poll.
    fn on_start(&mut self, env: &mut AppEnv<'_>);

    /// Called whenever the host processes an event (packet arrival or timer).
    /// Returns the absolute time at which the application next wants to be woken
    /// even if no traffic arrives, or `None` if it only reacts to traffic.
    fn poll(&mut self, env: &mut AppEnv<'_>) -> Option<SimTime>;

    /// True once the application has finished its work (used by experiment drivers
    /// to decide when to stop the simulation).
    fn finished(&self) -> bool {
        false
    }

    /// Downcasting support for result extraction.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// An application and the stack it runs on — the part both host agents
/// share: [`crate::plain::PlainHostAgent`] hosts one on the physical stack,
/// the IPOP data plane one on the virtual stack behind the tap.
pub(crate) struct AppHost {
    /// The stack the application's sockets live on.
    pub(crate) stack: NetStack,
    app: Box<dyn VirtualApp>,
    rng: StreamRng,
    /// When the application last asked to be polled again.
    next: Option<SimTime>,
    /// The host's name as the application sees it.
    pub(crate) label: String,
}

impl AppHost {
    /// Unlabelled: the agent names the host when it starts.
    pub(crate) fn new(stack: NetStack, app: Box<dyn VirtualApp>, rng: StreamRng) -> Self {
        AppHost {
            stack,
            app,
            rng,
            next: None,
            label: String::new(),
        }
    }

    /// Start the application ([`VirtualApp::on_start`]).
    pub(crate) fn start(&mut self, now: SimTime) {
        self.with_app(now, |app, env| app.on_start(env));
    }

    /// Poll the application once ([`VirtualApp::poll`]).
    pub(crate) fn poll(&mut self, now: SimTime) {
        self.next = self.with_app(now, |app, env| app.poll(env));
    }

    fn with_app<R>(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut dyn VirtualApp, &mut AppEnv<'_>) -> R,
    ) -> R {
        let mut env = AppEnv {
            stack: &mut self.stack,
            now,
            rng: &mut self.rng,
            host_name: &self.label,
        };
        f(self.app.as_mut(), &mut env)
    }

    /// The earliest of the stack's timers and the application's own wake-up.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        [self.stack.next_timeout(), self.next]
            .into_iter()
            .flatten()
            .min()
    }

    /// Downcast the application.
    pub(crate) fn app_as<T: 'static>(&self) -> Option<&T> {
        self.app.as_any().downcast_ref::<T>()
    }
}

/// An application that does nothing (for hosts that only route).
#[derive(Default)]
pub struct NullApp;

impl VirtualApp for NullApp {
    fn on_start(&mut self, _env: &mut AppEnv<'_>) {}

    fn poll(&mut self, _env: &mut AppEnv<'_>) -> Option<SimTime> {
        None
    }

    fn finished(&self) -> bool {
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipop_netstack::StackConfig;
    use std::net::Ipv4Addr;

    #[test]
    fn null_app_is_always_finished() {
        let mut app = NullApp;
        let mut stack = NetStack::new(StackConfig::new(Ipv4Addr::new(1, 2, 3, 4)));
        let mut rng = StreamRng::new(1, "app");
        let mut env = AppEnv {
            stack: &mut stack,
            now: SimTime::ZERO,
            rng: &mut rng,
            host_name: "h",
        };
        app.on_start(&mut env);
        assert_eq!(app.poll(&mut env), None);
        assert!(app.finished());
        assert!(app.as_any().downcast_ref::<NullApp>().is_some());
    }
}
