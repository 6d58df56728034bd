//! A Brunet-like structured peer-to-peer overlay, built from scratch.
//!
//! The paper's IPOP prototype delegates all of the hard networking problems —
//! connection management, NAT/firewall traversal, routability — to the Brunet
//! library (Section II-C). This crate is the reproduction of that substrate:
//!
//! * [`address`] — 160-bit ring addresses; a node's address is the SHA-1 hash of
//!   its virtual IP.
//! * [`packets`] — the link-level and routed wire formats, including the IP-tunnel
//!   payload of paper Fig. 3.
//! * [`table`] — the connection table with structured-near (ring neighbour) and
//!   structured-far (Kleinberg shortcut) edges.
//! * [`node`] — [`OverlayNode`], the dispatcher in front of the components
//!   below, and the routing core they share: greedy structured routing,
//!   decentralized join/leave, ring repair, shortcut formation and
//!   hole-punching link establishment.
//! * [`monitor`] — the link monitor: per-edge RTT estimate, probe deadlines and
//!   the phi-accrual / fixed-limit dead-edge verdict, told what it needs and
//!   returning who to probe and who is dead.
//! * [`dht`] — the replicated soft-state DHT used by IPOP's Brunet-ARP mapper
//!   and the self-configuration services in `ipop-services`: the store
//!   (per-record TTL and version, the narrow [`DhtStore`] trait) and the
//!   protocol over it — publisher renewals, quorum writes and reads,
//!   replication, read repair, anti-entropy, hand-off on leave.
//! * [`pubsub`] — topic-based publish/subscribe: the subscriber set of a topic
//!   is a DHT record at the topic key's owner, which fans publishes out along a
//!   bounded-degree relay tree.
//! * [`transport`] — UDP and TCP adapters that carry overlay traffic over the
//!   host's physical network stack, matching the two Brunet modes the paper
//!   compares in Tables I–III.
//! * [`vstream`] — connection-oriented, ordered, reliable virtual streams
//!   between overlay addresses, multiplexed over routed frames on the same
//!   zero-copy path as the IP tunnel.

pub mod address;
pub mod dht;
pub mod monitor;
pub mod node;
pub mod packets;
pub mod pubsub;
pub mod table;
pub mod transport;
pub mod vstream;

pub use address::{Address, Distance};
pub use dht::{DhtConfig, DhtRecord, DhtStore, SoftStateStore, SyncAction, SyncDigestEntry};
pub use node::{OverlayConfig, OverlayNode, OverlayStats};
pub use packets::{
    ConnectionKind, DeliveryMode, Endpoint, LinkMessage, RoutedPacket, RoutedPayload,
};
pub use table::{Connection, ConnectionState, ConnectionTable};
pub use transport::{OverlayTransport, TcpTransport, TransportMode, UdpTransport};
pub use vstream::{StreamEvent, StreamStats, VStreams, DEFAULT_WINDOW, MAX_SEGMENT};
