//! Self-configuration services built on the overlay's replicated DHT.
//!
//! The paper's headline claim is a *self-configuring* virtual IP network: a
//! machine joins a grid knowing only the virtual subnet and a bootstrap
//! endpoint, and everything else — its virtual address, the IP→overlay-address
//! mapping other nodes need to reach it, its name — is configured through the
//! overlay itself. This crate provides those services as host-side state
//! machines over the DHT:
//!
//! * [`dhcp`] — a DHCP-style address allocator: draw a candidate address from
//!   the subnet, claim it with the DHT's atomic create-if-absent primitive,
//!   retry on collision, confirm, then renew the claim as a lease. The claim
//!   record *is* the Brunet-ARP mapping (`SHA-1(ip) → overlay address`), so
//!   winning an address simultaneously makes it resolvable.
//! * [`lookup`] — the answer cache and outstanding-query table every
//!   resolver over the DHT keeps (the name service, Brunet-ARP).
//! * [`name`] — an overlay name service mapping hostnames to virtual IPs, so
//!   applications can address peers symbolically before any IP is known.
//! * [`pubsub`] — a topic pub/sub client translating topic names to overlay
//!   keys and deliveries back to names.
//!
//! The services drive the overlay through narrow traits ([`DhtClient`],
//! [`pubsub::PubSubClient`]) which [`ipop_overlay::OverlayNode`] implements;
//! tests substitute scripted fakes.

use ipop_overlay::{Address, OverlayNode};
use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime};

pub mod dhcp;
pub mod lookup;
pub mod name;
pub mod pubsub;

pub use dhcp::{DhcpAllocator, DhcpState, Subnet};
pub use name::{NameService, Resolution, ReverseResolution};
pub use pubsub::{PubSub, PubSubClient, TopicMessage};

/// The DHT operations the self-configuration services need — a narrow façade
/// over the overlay node so services can be unit-tested against a fake.
pub trait DhtClient {
    /// Atomic create-if-absent; the outcome arrives as a create reply carrying
    /// the returned token.
    fn create(&mut self, now: SimTime, key: Address, value: Bytes, ttl: Duration) -> u64;
    /// Abandon an outstanding create: a reply arriving after this must not
    /// turn the claim into a refreshed publication.
    fn cancel_create(&mut self, token: u64);
    /// Lookup; the value arrives as a get reply carrying the returned token.
    fn get(&mut self, now: SimTime, key: Address) -> u64;
    /// Store (overwrite) and keep refreshed as a lease.
    fn put(&mut self, now: SimTime, key: Address, value: Bytes, ttl: Duration);
    /// Delete the record and stop refreshing it.
    fn remove(&mut self, now: SimTime, key: Address);
    /// Stop refreshing the record without deleting it (it ages out).
    fn unpublish(&mut self, key: &Address);
}

impl DhtClient for OverlayNode {
    fn create(&mut self, now: SimTime, key: Address, value: Bytes, ttl: Duration) -> u64 {
        self.dht_create(now, key, value, ttl)
    }

    fn cancel_create(&mut self, token: u64) {
        self.dht_cancel_create(token);
    }

    fn get(&mut self, now: SimTime, key: Address) -> u64 {
        self.dht_get(now, key)
    }

    fn put(&mut self, now: SimTime, key: Address, value: Bytes, ttl: Duration) {
        self.dht_put_ttl(now, key, value, ttl);
    }

    fn remove(&mut self, now: SimTime, key: Address) {
        self.dht_remove(now, key);
    }

    fn unpublish(&mut self, key: &Address) {
        self.dht_unpublish(key);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// One recorded DHT operation.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Op {
        Create(Address, Bytes, Duration),
        CancelCreate(u64),
        Get(Address),
        Put(Address, Bytes, Duration),
        Remove(Address),
        Unpublish(Address),
    }

    /// A scripted [`DhtClient`] that records operations and hands out tokens.
    #[derive(Default)]
    pub struct FakeDht {
        pub ops: Vec<Op>,
        pub next_token: u64,
    }

    impl FakeDht {
        pub fn last_token(&self) -> u64 {
            self.next_token
        }
    }

    impl DhtClient for FakeDht {
        fn create(&mut self, _now: SimTime, key: Address, value: Bytes, ttl: Duration) -> u64 {
            self.ops.push(Op::Create(key, value, ttl));
            self.next_token += 1;
            self.next_token
        }

        fn cancel_create(&mut self, token: u64) {
            self.ops.push(Op::CancelCreate(token));
        }

        fn get(&mut self, _now: SimTime, key: Address) -> u64 {
            self.ops.push(Op::Get(key));
            self.next_token += 1;
            self.next_token
        }

        fn put(&mut self, _now: SimTime, key: Address, value: Bytes, ttl: Duration) {
            self.ops.push(Op::Put(key, value, ttl));
        }

        fn remove(&mut self, _now: SimTime, key: Address) {
            self.ops.push(Op::Remove(key));
        }

        fn unpublish(&mut self, key: &Address) {
            self.ops.push(Op::Unpublish(*key));
        }
    }
}
