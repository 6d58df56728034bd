//! Socket objects owned by a [`crate::stack::NetStack`].
//!
//! UDP and ICMP-echo ("ping") sockets are simple bounded queues; TCP sockets wrap
//! the full state machine from [`crate::tcp`]. Applications never hold sockets
//! directly — they hold [`SocketHandle`]s and go through the stack, which is what
//! lets the whole host be a plain state machine inside the discrete-event
//! simulation.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use ipop_packet::Bytes;

use crate::tcp::TcpSocket;

/// Handle referring to a socket inside one stack.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SocketHandle(pub(crate) usize);

/// A datagram delivered to a UDP socket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdpMessage {
    /// Sender address.
    pub src: Ipv4Addr,
    /// Sender port.
    pub src_port: u16,
    /// Payload (shared buffer; cloning is a refcount bump).
    pub data: Bytes,
}

/// A bound UDP endpoint with a bounded receive queue.
#[derive(Debug)]
pub struct UdpSocket {
    /// Bound local port.
    pub port: u16,
    rx: VecDeque<UdpMessage>,
    capacity: usize,
    dropped: u64,
}

impl UdpSocket {
    /// Create a socket bound to `port` with space for `capacity` queued datagrams.
    pub fn new(port: u16, capacity: usize) -> Self {
        UdpSocket {
            port,
            rx: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Queue an incoming datagram, dropping it if the queue is full (as a kernel
    /// socket buffer would).
    pub fn deliver(&mut self, msg: UdpMessage) {
        if self.rx.len() >= self.capacity {
            self.dropped += 1;
        } else {
            self.rx.push_back(msg);
        }
    }

    /// Take the oldest queued datagram.
    pub fn recv(&mut self) -> Option<UdpMessage> {
        self.rx.pop_front()
    }

    /// Number of datagrams waiting.
    pub fn pending(&self) -> usize {
        self.rx.len()
    }

    /// Datagrams dropped due to a full receive queue.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// An echo reply delivered to a ping socket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EchoReply {
    /// Which host answered.
    pub from: Ipv4Addr,
    /// Echo identifier.
    pub identifier: u16,
    /// Echo sequence number.
    pub sequence: u16,
    /// Echoed payload.
    pub payload: Vec<u8>,
}

/// An ICMP echo ("ping") socket identified by its ICMP identifier.
#[derive(Debug)]
pub struct PingSocket {
    /// The ICMP identifier this socket owns.
    pub identifier: u16,
    rx: VecDeque<EchoReply>,
}

impl PingSocket {
    /// Create a ping socket owning `identifier`.
    pub fn new(identifier: u16) -> Self {
        PingSocket {
            identifier,
            rx: VecDeque::new(),
        }
    }

    /// Queue an incoming echo reply.
    pub fn deliver(&mut self, reply: EchoReply) {
        self.rx.push_back(reply);
    }

    /// Take the oldest queued reply.
    pub fn recv(&mut self) -> Option<EchoReply> {
        self.rx.pop_front()
    }

    /// Number of replies waiting.
    pub fn pending(&self) -> usize {
        self.rx.len()
    }
}

/// A passive TCP listener: incoming SYNs spawn connection sockets that wait here
/// until the application accepts them.
#[derive(Debug)]
pub struct TcpListener {
    /// Listening port.
    pub port: u16,
    /// Connection sockets not yet accepted by the application.
    pub backlog: VecDeque<SocketHandle>,
}

/// The socket table entry.
#[derive(Debug)]
pub enum Socket {
    /// A UDP endpoint.
    Udp(UdpSocket),
    /// An ICMP echo endpoint.
    Ping(PingSocket),
    /// A TCP connection.
    Tcp(Box<TcpSocket>),
    /// A passive TCP listener.
    Listener(TcpListener),
    /// A freed slot available for reuse.
    Vacant,
}

impl Socket {
    /// The TCP connection inside, if this is one.
    pub fn as_tcp(&self) -> Option<&TcpSocket> {
        match self {
            Socket::Tcp(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_socket_queues_and_drops() {
        let mut s = UdpSocket::new(5000, 2);
        let msg = |i: u8| UdpMessage {
            src: Ipv4Addr::new(10, 0, 0, i),
            src_port: 1,
            data: vec![i].into(),
        };
        s.deliver(msg(1));
        s.deliver(msg(2));
        s.deliver(msg(3)); // dropped
        assert_eq!(s.pending(), 2);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.recv().unwrap().data, vec![1]);
        assert_eq!(s.recv().unwrap().data, vec![2]);
        assert!(s.recv().is_none());
    }

    #[test]
    fn ping_socket_fifo() {
        let mut p = PingSocket::new(7);
        p.deliver(EchoReply {
            from: Ipv4Addr::LOCALHOST,
            identifier: 7,
            sequence: 1,
            payload: vec![],
        });
        p.deliver(EchoReply {
            from: Ipv4Addr::LOCALHOST,
            identifier: 7,
            sequence: 2,
            payload: vec![],
        });
        assert_eq!(p.pending(), 2);
        assert_eq!(p.recv().unwrap().sequence, 1);
        assert_eq!(p.recv().unwrap().sequence, 2);
        assert!(p.recv().is_none());
    }
}
