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
use ipop_simcore::{SimTime, StreamRng, TimerToken};

use crate::app::{AppEnv, VirtualApp};
use crate::wakeup::Wakeup;

/// A host agent running an application directly on the physical network.
pub struct PlainHostAgent {
    stack: NetStack,
    app: Box<dyn VirtualApp>,
    app_rng: StreamRng,
    app_next: Option<SimTime>,
    wakeup: Wakeup,
    label: String,
}

impl PlainHostAgent {
    /// Build a baseline agent for a host with physical address `addr`.
    pub fn new(addr: Ipv4Addr, app: Box<dyn VirtualApp>) -> Self {
        let seed = u64::from(u32::from(addr)) ^ 0x00ba_5e11;
        PlainHostAgent {
            stack: NetStack::new(StackConfig::new(addr)),
            app,
            app_rng: StreamRng::new(seed, "plain.app"),
            app_next: None,
            wakeup: Wakeup::default(),
            label: format!("plain-{addr}"),
        }
    }

    /// Downcast the embedded application.
    pub fn app_as<T: 'static>(&self) -> Option<&T> {
        self.app.as_any().downcast_ref::<T>()
    }

    /// Mutable downcast of the embedded application.
    pub fn app_as_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.app.as_any_mut().downcast_mut::<T>()
    }

    fn pump(&mut self, ctx: &mut HostCtx<'_, '_>) {
        let now = ctx.now();
        for _ in 0..32 {
            let mut env = AppEnv {
                stack: &mut self.stack,
                now,
                rng: &mut self.app_rng,
                host_name: &self.label,
            };
            self.app_next = self.app.poll(&mut env);
            self.stack.poll(now);
            let out = self.stack.take_packets();
            if out.is_empty() {
                break;
            }
            for pkt in out {
                ctx.send(pkt);
            }
        }
        // With no deadline at all the agent sleeps until the next packet.
        let next = [self.stack.next_timeout(), self.app_next];
        if let Some(next) = next.into_iter().flatten().min() {
            self.wakeup.arm(ctx, next);
        }
    }
}

impl HostAgent for PlainHostAgent {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        let now = ctx.now();
        self.label = format!("{}({})", ctx.name(), ctx.addr());
        let mut env = AppEnv {
            stack: &mut self.stack,
            now,
            rng: &mut self.app_rng,
            host_name: &self.label,
        };
        self.app.on_start(&mut env);
        self.pump(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_, '_>, pkt: Ipv4Packet) {
        self.stack.handle_packet(ctx.now(), pkt);
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
