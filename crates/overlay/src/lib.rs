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
//! * [`node`] — [`OverlayNode`], its configuration and counters: the
//!   dispatcher in front of the components below, lending each the routing
//!   core for the length of a call.
//! * [`router`] — the routing core they share: the connection table, greedy
//!   structured routing over whatever edges it holds, the outbox, the rng and
//!   the flat counters.
//! * [`ring`] — what keeps that table filled: decentralized join through a
//!   bootstrap node, connect-to-me requests routed over the overlay, the
//!   hole-punching link handshake, ring repair, Kleinberg shortcut formation,
//!   keep-alives and neighbour gossip.
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
pub mod ring;
pub mod router;
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
