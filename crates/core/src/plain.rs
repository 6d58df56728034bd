//! The baseline host agent: the same application run directly on the physical
//! network, with no IPOP in the path.
//!
//! Every experiment in the paper compares IPOP against the physical network
//! ("physical" rows of Tables I–III). [`PlainHostAgent`] provides that baseline:
//! it owns a single network stack attached to the physical interface and polls the
//! identical [`VirtualApp`] object against it, so the only difference between the
//! two runs is the presence of the virtualization layer.

use std::any::Any;
use std::net::Ipv4Addr;

use ipop_netsim::{HostAgent, HostCtx};
use ipop_netstack::{NetStack, StackConfig};
use ipop_packet::ipv4::Ipv4Packet;
use ipop_simcore::{StreamRng, TimerToken};

use crate::app::{AppHost, VirtualApp};
use crate::wakeup::Wakeup;

/// A host agent running an application directly on the physical network.
pub struct PlainHostAgent {
    host: AppHost,
    wakeup: Wakeup,
}

impl PlainHostAgent {
    /// Build a baseline agent for a host with physical address `addr`.
    pub fn new(addr: Ipv4Addr, app: Box<dyn VirtualApp>) -> Self {
        let seed = u64::from(u32::from(addr)) ^ 0x00ba_5e11;
        let stack = NetStack::new(StackConfig::new(addr));
        let rng = StreamRng::new(seed, "plain.app");
        PlainHostAgent {
            host: AppHost::new(stack, app, rng),
            wakeup: Wakeup::default(),
        }
    }

    /// Downcast the embedded application.
    pub fn app_as<T: 'static>(&self) -> Option<&T> {
        self.host.app_as()
    }

    fn pump(&mut self, ctx: &mut HostCtx<'_, '_>) {
        let now = ctx.now();
        for _ in 0..32 {
            self.host.poll(now);
            self.host.stack.poll(now);
            let out = self.host.stack.take_packets();
            if out.is_empty() {
                break;
            }
            for pkt in out {
                ctx.send(pkt);
            }
        }
        // With no deadline at all the agent sleeps until the next packet.
        if let Some(next) = self.host.next_deadline() {
            self.wakeup.arm(ctx, next);
        }
    }
}

impl HostAgent for PlainHostAgent {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        self.host.label = format!("{}({})", ctx.name(), ctx.addr());
        self.host.start(ctx.now());
        self.pump(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Ipv4Packet) {
        self.host.stack.handle_packet(ctx.now(), pkt);
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, _token: TimerToken) {
        self.wakeup.fired();
        self.pump(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
