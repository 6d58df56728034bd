//! A from-scratch host TCP/IP stack used on both sides of the IPOP tap device.
//!
//! The stack provides:
//!
//! * [`stack::NetStack`] — a poll-driven single-interface IPv4 host with UDP, TCP
//!   and ICMP-echo sockets. Brunet's transports run on an instance attached to the
//!   physical interface; unmodified applications run on a second instance attached
//!   to the virtual tap interface, exactly mirroring the double stack traversal the
//!   paper identifies as IPOP's main per-packet cost.
//! * [`tcp`] — the TCP state machine: three-way handshake, sliding window,
//!   retransmission, slow start / AIMD congestion control and fast retransmit.
//! * [`tap::TapDevice`] and [`eth::EthAdapter`] — the frame-level plumbing between
//!   the virtual stack and the user-level IPOP node, including the static-ARP
//!   "non-existent gateway" trick that keeps ARP contained inside the host.

pub mod eth;
pub mod socket;
pub mod stack;
pub mod tap;
pub mod tcp;

pub use eth::{ArpTable, EthAdapter, EthCounters};
pub use socket::{EchoReply, SocketHandle, UdpMessage};
pub use stack::{NetStack, StackConfig, StackCounters, StackError};
pub use tap::{TapCounters, TapDevice};
pub use tcp::TcpState;
