//! The host network stack.
//!
//! One [`NetStack`] instance models one IP interface plus the transport sockets
//! bound to it. Every IPOP host instantiates the stack twice: once attached to the
//! physical interface (the "kernel" stack carrying Brunet overlay traffic) and once
//! attached to the virtual tap interface (the stack that unmodified applications
//! use). The paper attributes most of IPOP's per-packet overhead to exactly this
//! double traversal (Section IV-B), so keeping the two instances literally the same
//! type is both a simplification and a fidelity argument.
//!
//! The stack is poll-driven and clockless: callers push packets in with
//! [`NetStack::handle_packet`], call [`NetStack::poll`] with the current virtual
//! time, and drain [`NetStack::take_packets`] for transmission on the attached
//! device.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use ipop_packet::icmp::IcmpPacket;
use ipop_packet::ipv4::{Ipv4Packet, Ipv4Payload};
use ipop_packet::tcp::TcpSegment;
use ipop_packet::udp::UdpDatagram;
use ipop_simcore::SimTime;

use crate::socket::{
    EchoReply, PingSocket, Socket, SocketHandle, TcpListener, UdpMessage, UdpSocket,
};
use crate::tcp::{TcpSocket, MSS_CEILING};

/// Errors returned by stack operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StackError {
    /// The requested local port is already bound.
    PortInUse(u16),
    /// The handle does not refer to a live socket of the expected kind.
    BadHandle,
    /// The operation is not valid in the socket's current state.
    InvalidState,
}

impl std::fmt::Display for StackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StackError::PortInUse(p) => write!(f, "port {p} already in use"),
            StackError::BadHandle => write!(f, "invalid socket handle"),
            StackError::InvalidState => write!(f, "operation invalid in current socket state"),
        }
    }
}

impl std::error::Error for StackError {}

/// Receive-queue capacity (datagrams) of a UDP socket.
const UDP_RX_QUEUE: usize = 1024;

/// Configuration of a stack instance.
#[derive(Clone, Debug)]
pub struct StackConfig {
    /// The interface address.
    pub addr: Ipv4Addr,
    /// Interface MTU in bytes (bounds the TCP MSS).
    pub mtu: usize,
}

impl StackConfig {
    /// A stack bound to `addr` with a 1500-byte MTU.
    pub fn new(addr: Ipv4Addr) -> Self {
        StackConfig { addr, mtu: 1500 }
    }

    /// Same, but with a reduced MTU (used for the virtual tap interface so that an
    /// encapsulated virtual packet still fits in one physical datagram).
    pub fn with_mtu(self, mtu: usize) -> Self {
        StackConfig { mtu, ..self }
    }
}

/// Counters exposed for tests and metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct StackCounters {
    /// Packets accepted by [`NetStack::handle_packet`].
    pub rx_packets: u64,
    /// Packets emitted through the outbox.
    pub tx_packets: u64,
    /// Packets dropped because they were not addressed to this interface.
    pub rx_wrong_addr: u64,
    /// Packets dropped because no socket wanted them.
    pub rx_no_socket: u64,
    /// ICMP echo requests answered automatically.
    pub echo_replied: u64,
}

/// A single-interface IPv4 host stack with UDP, TCP and ICMP-echo sockets.
pub struct NetStack {
    cfg: StackConfig,
    sockets: Vec<Socket>,
    outbox: VecDeque<Ipv4Packet>,
    next_ephemeral: u16,
    next_icmp_ident: u16,
    iss_counter: u32,
    ip_ident: u16,
    counters: StackCounters,
}

impl NetStack {
    /// Create a stack for the given configuration.
    pub fn new(cfg: StackConfig) -> Self {
        NetStack {
            cfg,
            sockets: Vec::new(),
            outbox: VecDeque::new(),
            next_ephemeral: 49_152,
            next_icmp_ident: 1,
            iss_counter: 1,
            ip_ident: 0,
            counters: StackCounters::default(),
        }
    }

    /// The interface address.
    pub fn addr(&self) -> Ipv4Addr {
        self.cfg.addr
    }

    /// The interface MTU.
    pub fn mtu(&self) -> usize {
        self.cfg.mtu
    }

    /// The MSS every TCP socket of this stack offers, active or passive: the
    /// MTU less the IP and TCP headers, capped at the ceiling, never below
    /// the 536 bytes every IPv4 host must accept.
    fn mss(&self) -> usize {
        MSS_CEILING.min(self.cfg.mtu.saturating_sub(40)).max(536)
    }

    /// Counter snapshot.
    pub fn counters(&self) -> StackCounters {
        self.counters
    }

    fn alloc(&mut self, socket: Socket) -> SocketHandle {
        for (i, slot) in self.sockets.iter_mut().enumerate() {
            if matches!(slot, Socket::Vacant) {
                *slot = socket;
                return SocketHandle(i);
            }
        }
        self.sockets.push(socket);
        SocketHandle(self.sockets.len() - 1)
    }

    fn socket(&self, h: SocketHandle) -> Result<&Socket, StackError> {
        self.sockets.get(h.0).ok_or(StackError::BadHandle)
    }

    fn socket_mut(&mut self, h: SocketHandle) -> Result<&mut Socket, StackError> {
        self.sockets.get_mut(h.0).ok_or(StackError::BadHandle)
    }

    fn udp_port_in_use(&self, port: u16) -> bool {
        self.sockets
            .iter()
            .any(|s| matches!(s, Socket::Udp(u) if u.port == port))
    }

    fn tcp_port_in_use(&self, port: u16) -> bool {
        self.sockets.iter().any(|s| match s {
            Socket::Listener(l) => l.port == port,
            Socket::Tcp(t) => t.local().1 == port,
            _ => false,
        })
    }

    /// Allocate an unused ephemeral port for the given protocol space.
    fn ephemeral_port(&mut self, tcp: bool) -> u16 {
        loop {
            let p = self.next_ephemeral;
            self.next_ephemeral = if self.next_ephemeral == u16::MAX {
                49_152
            } else {
                self.next_ephemeral + 1
            };
            let used = if tcp {
                self.tcp_port_in_use(p)
            } else {
                self.udp_port_in_use(p)
            };
            if !used {
                return p;
            }
        }
    }

    fn next_ip_ident(&mut self) -> u16 {
        self.ip_ident = self.ip_ident.wrapping_add(1);
        self.ip_ident
    }

    fn next_iss(&mut self) -> u32 {
        // Deterministic but spread-out initial sequence numbers.
        self.iss_counter = self
            .iss_counter
            .wrapping_mul(2_654_435_761)
            .wrapping_add(12_345);
        self.iss_counter
    }

    fn enqueue(&mut self, dst: Ipv4Addr, payload: Ipv4Payload) {
        let mut pkt = Ipv4Packet::new(self.cfg.addr, dst, payload);
        pkt.header.identification = self.next_ip_ident();
        self.counters.tx_packets += 1;
        self.outbox.push_back(pkt);
    }

    // ------------------------------------------------------------------- UDP API

    /// Bind a UDP socket to `port` (0 = pick an ephemeral port).
    pub fn udp_bind(&mut self, port: u16) -> Result<SocketHandle, StackError> {
        let port = if port == 0 {
            self.ephemeral_port(false)
        } else {
            port
        };
        if self.udp_port_in_use(port) {
            return Err(StackError::PortInUse(port));
        }
        Ok(self.alloc(Socket::Udp(UdpSocket::new(port, UDP_RX_QUEUE))))
    }

    /// The local port a UDP socket is bound to.
    pub fn udp_port(&self, h: SocketHandle) -> Result<u16, StackError> {
        match self.socket(h)? {
            Socket::Udp(u) => Ok(u.port),
            _ => Err(StackError::BadHandle),
        }
    }

    /// Send a datagram from a bound UDP socket.
    pub fn udp_send(
        &mut self,
        h: SocketHandle,
        dst: Ipv4Addr,
        dst_port: u16,
        data: impl Into<ipop_packet::Bytes>,
    ) -> Result<(), StackError> {
        let src_port = self.udp_port(h)?;
        self.enqueue(
            dst,
            Ipv4Payload::Udp(UdpDatagram::new(src_port, dst_port, data)),
        );
        Ok(())
    }

    /// Receive the oldest queued datagram on a UDP socket.
    pub fn udp_recv(&mut self, h: SocketHandle) -> Result<Option<UdpMessage>, StackError> {
        match self.socket_mut(h)? {
            Socket::Udp(u) => Ok(u.recv()),
            _ => Err(StackError::BadHandle),
        }
    }

    // ------------------------------------------------------------------ ping API

    /// Open an ICMP echo socket with a unique identifier.
    pub fn ping_open(&mut self) -> SocketHandle {
        let ident = self.next_icmp_ident;
        self.next_icmp_ident = self.next_icmp_ident.wrapping_add(1).max(1);
        self.alloc(Socket::Ping(PingSocket::new(ident)))
    }

    /// The ICMP identifier owned by a ping socket.
    pub fn ping_identifier(&self, h: SocketHandle) -> Result<u16, StackError> {
        match self.socket(h)? {
            Socket::Ping(p) => Ok(p.identifier),
            _ => Err(StackError::BadHandle),
        }
    }

    /// Send an echo request of `payload_len` bytes to `dst`.
    pub fn ping_send(
        &mut self,
        h: SocketHandle,
        dst: Ipv4Addr,
        sequence: u16,
        payload_len: usize,
    ) -> Result<(), StackError> {
        let ident = self.ping_identifier(h)?;
        let payload = vec![0x5A; payload_len];
        self.enqueue(
            dst,
            Ipv4Payload::Icmp(IcmpPacket::echo_request(ident, sequence, payload)),
        );
        Ok(())
    }

    /// Receive the oldest echo reply on a ping socket.
    pub fn ping_recv(&mut self, h: SocketHandle) -> Result<Option<EchoReply>, StackError> {
        match self.socket_mut(h)? {
            Socket::Ping(p) => Ok(p.recv()),
            _ => Err(StackError::BadHandle),
        }
    }

    // ------------------------------------------------------------------- TCP API

    /// Open a passive listener on `port`.
    pub fn tcp_listen(&mut self, port: u16) -> Result<SocketHandle, StackError> {
        if self.tcp_port_in_use(port) {
            return Err(StackError::PortInUse(port));
        }
        Ok(self.alloc(Socket::Listener(TcpListener {
            port,
            backlog: VecDeque::new(),
        })))
    }

    /// Accept one pending connection from a listener, if any.
    pub fn tcp_accept(&mut self, h: SocketHandle) -> Result<Option<SocketHandle>, StackError> {
        match self.socket_mut(h)? {
            Socket::Listener(l) => Ok(l.backlog.pop_front()),
            _ => Err(StackError::BadHandle),
        }
    }

    /// Actively open a connection to `dst:dst_port`.
    pub fn tcp_connect(
        &mut self,
        dst: Ipv4Addr,
        dst_port: u16,
        now: SimTime,
    ) -> Result<SocketHandle, StackError> {
        let local_port = self.ephemeral_port(true);
        let iss = self.next_iss();
        let mss = self.mss();
        let sock = TcpSocket::connect(self.cfg.addr, local_port, dst, dst_port, iss, now, mss);
        Ok(self.alloc(Socket::Tcp(Box::new(sock))))
    }

    /// True once the connection is established (and not yet fully closed).
    pub fn tcp_is_established(&self, h: SocketHandle) -> bool {
        matches!(self.socket(h), Ok(Socket::Tcp(t)) if t.is_established())
    }

    /// True when the connection has fully terminated.
    pub fn tcp_is_closed(&self, h: SocketHandle) -> bool {
        matches!(self.socket(h), Ok(Socket::Tcp(t)) if t.is_closed())
    }

    /// The remote (address, port) of a TCP connection socket.
    pub fn tcp_remote(&self, h: SocketHandle) -> Option<(Ipv4Addr, u16)> {
        self.socket(h)
            .ok()
            .and_then(|s| s.as_tcp())
            .map(|t| t.remote())
    }

    /// Queue application data on a TCP socket; returns bytes accepted.
    pub fn tcp_send(&mut self, h: SocketHandle, data: &[u8]) -> Result<usize, StackError> {
        match self.socket_mut(h)? {
            Socket::Tcp(t) => Ok(t.send(data)),
            _ => Err(StackError::BadHandle),
        }
    }

    /// Bytes not yet acknowledged (still queued) on a TCP socket.
    pub fn tcp_unacked(&self, h: SocketHandle) -> usize {
        self.socket(h)
            .ok()
            .and_then(|s| s.as_tcp())
            .map_or(0, |t| t.unacked())
    }

    /// Read up to `max` bytes from a TCP socket.
    pub fn tcp_recv(&mut self, h: SocketHandle, max: usize) -> Result<Vec<u8>, StackError> {
        match self.socket_mut(h)? {
            Socket::Tcp(t) => Ok(t.recv(max)),
            _ => Err(StackError::BadHandle),
        }
    }

    /// True when the peer has closed its sending direction and all data was read.
    pub fn tcp_recv_finished(&self, h: SocketHandle) -> bool {
        self.socket(h)
            .ok()
            .and_then(|s| s.as_tcp())
            .is_some_and(|t| t.recv_finished())
    }

    /// Gracefully close a TCP socket (FIN after queued data drains).
    pub fn tcp_close(&mut self, h: SocketHandle) -> Result<(), StackError> {
        match self.socket_mut(h)? {
            Socket::Tcp(t) => {
                t.close();
                Ok(())
            }
            Socket::Listener(_) => {
                *self.socket_mut(h)? = Socket::Vacant;
                Ok(())
            }
            _ => Err(StackError::BadHandle),
        }
    }

    /// Release a fully closed socket's slot.
    pub fn release(&mut self, h: SocketHandle) {
        if let Some(slot) = self.sockets.get_mut(h.0) {
            *slot = Socket::Vacant;
        }
    }

    // ----------------------------------------------------------------- data path

    /// Process one incoming IPv4 packet addressed to this interface.
    pub fn handle_packet(&mut self, now: SimTime, pkt: Ipv4Packet) {
        self.counters.rx_packets += 1;
        if pkt.dst() != self.cfg.addr {
            self.counters.rx_wrong_addr += 1;
            return;
        }
        let src = pkt.src();
        match pkt.payload {
            Ipv4Payload::Icmp(icmp) => self.handle_icmp(src, icmp),
            Ipv4Payload::Udp(udp) => self.handle_udp(src, udp),
            Ipv4Payload::Tcp(tcp) => self.handle_tcp(now, src, tcp),
            Ipv4Payload::Raw(..) => {
                self.counters.rx_no_socket += 1;
            }
        }
    }

    fn handle_icmp(&mut self, src: Ipv4Addr, icmp: IcmpPacket) {
        if icmp.is_echo_request() {
            let reply = IcmpPacket::echo_reply(&icmp);
            self.counters.echo_replied += 1;
            self.enqueue(src, Ipv4Payload::Icmp(reply));
            return;
        }
        if icmp.is_echo_reply() {
            let ident = icmp.identifier;
            for sock in &mut self.sockets {
                if let Socket::Ping(p) = sock {
                    if p.identifier == ident {
                        p.deliver(EchoReply {
                            from: src,
                            identifier: ident,
                            sequence: icmp.sequence,
                            payload: icmp.payload,
                        });
                        return;
                    }
                }
            }
            self.counters.rx_no_socket += 1;
        }
        // Other ICMP error messages are counted but otherwise ignored by the stack.
    }

    fn handle_udp(&mut self, src: Ipv4Addr, udp: UdpDatagram) {
        let port = udp.dst_port;
        for sock in &mut self.sockets {
            if let Socket::Udp(u) = sock {
                if u.port == port {
                    u.deliver(UdpMessage {
                        src,
                        src_port: udp.src_port,
                        data: udp.payload,
                    });
                    return;
                }
            }
        }
        self.counters.rx_no_socket += 1;
    }

    fn handle_tcp(&mut self, now: SimTime, src: Ipv4Addr, seg: TcpSegment) {
        // 1. An existing connection that matches the 4-tuple.
        for sock in &mut self.sockets {
            if let Socket::Tcp(t) = sock {
                if t.matches(src, &seg) && !t.is_closed() {
                    t.on_segment(now, &seg);
                    return;
                }
            }
        }
        // 2. A listener on the destination port (only for initial SYNs).
        if seg.flags.syn && !seg.flags.ack {
            let listener_idx = self
                .sockets
                .iter()
                .position(|s| matches!(s, Socket::Listener(l) if l.port == seg.dst_port));
            if let Some(idx) = listener_idx {
                let iss = self.next_iss();
                let (addr, mss) = (self.cfg.addr, self.mss());
                let child = TcpSocket::accept(addr, seg.dst_port, mss, src, &seg, iss, now);
                let handle = self.alloc(Socket::Tcp(Box::new(child)));
                if let Socket::Listener(l) = &mut self.sockets[idx] {
                    l.backlog.push_back(handle);
                }
                return;
            }
        }
        // 3. Nobody wants it: answer with RST (unless it was itself a RST).
        self.counters.rx_no_socket += 1;
        if !seg.flags.rst {
            let rst = TcpSocket::rst_for(seg.dst_port, &seg);
            self.enqueue(src, Ipv4Payload::Tcp(rst));
        }
    }

    /// Run socket timers and collect outgoing segments into the outbox.
    pub fn poll(&mut self, now: SimTime) {
        for idx in 0..self.sockets.len() {
            let (remote, segments) = match &mut self.sockets[idx] {
                Socket::Tcp(t) => {
                    let segs = t.poll(now);
                    (t.remote().0, segs)
                }
                _ => continue,
            };
            for seg in segments {
                self.enqueue(remote, Ipv4Payload::Tcp(seg));
            }
        }
    }

    /// Drain all packets queued for transmission on the attached device. An
    /// empty outbox (most polls) costs neither an iteration nor a `Vec`.
    pub fn take_packets(&mut self) -> Vec<Ipv4Packet> {
        if self.outbox.is_empty() {
            return Vec::new();
        }
        self.outbox.drain(..).collect()
    }

    /// True if some socket could emit segments if polled right now.
    pub fn wants_poll(&self) -> bool {
        self.sockets
            .iter()
            .any(|s| matches!(s, Socket::Tcp(t) if t.wants_poll()))
    }

    /// The earliest timer deadline across all sockets, if any.
    pub fn next_timeout(&self) -> Option<SimTime> {
        self.sockets
            .iter()
            .filter_map(|s| s.as_tcp().and_then(|t| t.next_timeout()))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipop_simcore::Duration;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn pair() -> (NetStack, NetStack) {
        (
            NetStack::new(StackConfig::new(A)),
            NetStack::new(StackConfig::new(B)),
        )
    }

    /// Move packets between the two stacks until both go quiet; returns the
    /// packets `b` sent.
    fn pump(a: &mut NetStack, b: &mut NetStack, now: &mut SimTime) -> Vec<Ipv4Packet> {
        let mut sent_by_b = Vec::new();
        for _ in 0..100_000 {
            a.poll(*now);
            b.poll(*now);
            let from_a = a.take_packets();
            let from_b = b.take_packets();
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            *now += Duration::from_micros(200);
            for p in from_a {
                b.handle_packet(*now, p);
            }
            for p in from_b {
                sent_by_b.push(p.clone());
                a.handle_packet(*now, p);
            }
        }
        sent_by_b
    }

    #[test]
    fn udp_round_trip_between_stacks() {
        let (mut a, mut b) = pair();
        let sa = a.udp_bind(5000).unwrap();
        let sb = b.udp_bind(6000).unwrap();
        a.udp_send(sa, B, 6000, b"hello".to_vec()).unwrap();
        let mut now = SimTime::ZERO;
        pump(&mut a, &mut b, &mut now);
        let msg = b.udp_recv(sb).unwrap().expect("datagram delivered");
        assert_eq!(msg.data, b"hello");
        assert_eq!(msg.src, A);
        assert_eq!(msg.src_port, 5000);
    }

    #[test]
    fn udp_port_conflicts_rejected() {
        let (mut a, _) = pair();
        a.udp_bind(5000).unwrap();
        assert_eq!(a.udp_bind(5000), Err(StackError::PortInUse(5000)));
        let eph = a.udp_bind(0).unwrap();
        assert!(a.udp_port(eph).unwrap() >= 49_152);
    }

    #[test]
    fn udp_to_unbound_port_is_counted_not_delivered() {
        let (mut a, mut b) = pair();
        let sa = a.udp_bind(5000).unwrap();
        a.udp_send(sa, B, 7777, vec![1]).unwrap();
        let mut now = SimTime::ZERO;
        pump(&mut a, &mut b, &mut now);
        assert_eq!(b.counters().rx_no_socket, 1);
    }

    #[test]
    fn icmp_echo_is_answered_automatically() {
        let (mut a, mut b) = pair();
        let ping = a.ping_open();
        a.ping_send(ping, B, 1, 56).unwrap();
        let mut now = SimTime::ZERO;
        pump(&mut a, &mut b, &mut now);
        let reply = a.ping_recv(ping).unwrap().expect("echo reply");
        assert_eq!(reply.from, B);
        assert_eq!(reply.sequence, 1);
        assert_eq!(reply.payload.len(), 56);
        assert_eq!(b.counters().echo_replied, 1);
    }

    #[test]
    fn packets_for_other_hosts_are_dropped() {
        let (mut a, mut b) = pair();
        let sa = a.udp_bind(5000).unwrap();
        a.udp_send(sa, Ipv4Addr::new(10, 9, 9, 9), 1, vec![1])
            .unwrap();
        for p in a.take_packets() {
            b.handle_packet(SimTime::ZERO, p);
        }
        assert_eq!(b.counters().rx_wrong_addr, 1);
    }

    #[test]
    fn tcp_connect_transfer_close() {
        let (mut a, mut b) = pair();
        let listener = b.tcp_listen(8080).unwrap();
        let mut now = SimTime::ZERO;
        let client = a.tcp_connect(B, 8080, now).unwrap();
        pump(&mut a, &mut b, &mut now);
        assert!(a.tcp_is_established(client));
        let server = b
            .tcp_accept(listener)
            .unwrap()
            .expect("accepted connection");
        assert!(b.tcp_is_established(server));

        // Client sends 100 kB, server echoes the byte count back.
        let blob: Vec<u8> = (0..100_000u32).map(|i| (i % 256) as u8).collect();
        let mut sent = 0;
        let mut got: Vec<u8> = Vec::new();
        while got.len() < blob.len() {
            if sent < blob.len() {
                sent += a.tcp_send(client, &blob[sent..]).unwrap();
            }
            pump(&mut a, &mut b, &mut now);
            got.extend(b.tcp_recv(server, usize::MAX).unwrap());
        }
        assert_eq!(got, blob);

        a.tcp_close(client).unwrap();
        pump(&mut a, &mut b, &mut now);
        assert!(b.tcp_recv_finished(server));
        b.tcp_close(server).unwrap();
        pump(&mut a, &mut b, &mut now);
        now += Duration::from_secs(2);
        pump(&mut a, &mut b, &mut now);
        assert!(b.tcp_is_closed(server));
        assert!(a.tcp_is_closed(client));
    }

    /// A listener offers the MSS its own MTU allows, as a connecting socket
    /// does, also when `mtu` is assigned without `with_mtu`.
    #[test]
    fn passive_open_mss_follows_the_listeners_mtu() {
        let mut a = NetStack::new(StackConfig::new(A));
        let mut b = NetStack::new(StackConfig {
            mtu: 1400,
            ..StackConfig::new(B)
        });
        let listener = b.tcp_listen(8080).unwrap();
        let mut now = SimTime::ZERO;
        let client = a.tcp_connect(B, 8080, now).unwrap();
        let mut from_b = pump(&mut a, &mut b, &mut now);
        let server = b.tcp_accept(listener).unwrap().expect("accepted");
        assert_eq!(b.tcp_send(server, &[7; 10_000]), Ok(10_000));
        from_b.extend(pump(&mut a, &mut b, &mut now));
        assert_eq!(a.tcp_recv(client, usize::MAX).unwrap().len(), 10_000);

        let segments: Vec<&TcpSegment> = from_b
            .iter()
            .filter_map(|p| match &p.payload {
                Ipv4Payload::Tcp(seg) => Some(seg),
                _ => None,
            })
            .collect();
        let syn_ack = segments
            .iter()
            .find(|seg| seg.flags.syn && seg.flags.ack)
            .expect("SYN-ACK");
        assert_eq!(
            syn_ack.mss,
            Some(1360),
            "1400-byte MTU less 40 header bytes"
        );
        let largest = segments.iter().map(|seg| seg.payload.len()).max();
        assert_eq!(largest, Some(1360), "no segment exceeds the listener's MSS");
    }

    #[test]
    fn listener_does_not_emit_segments() {
        let (_, mut b) = pair();
        b.tcp_listen(80).unwrap();
        b.poll(SimTime::ZERO);
        assert!(b.take_packets().is_empty());
        assert!(!b.wants_poll());
        assert!(b.next_timeout().is_none());
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let (mut a, mut b) = pair();
        let mut now = SimTime::ZERO;
        let client = a.tcp_connect(B, 9999, now).unwrap();
        pump(&mut a, &mut b, &mut now);
        assert!(a.tcp_is_closed(client));
        assert!(matches!(a.socket(client).unwrap(), Socket::Tcp(t) if t.was_reset()));
    }

    #[test]
    fn tcp_listener_port_conflicts_rejected() {
        let (_, mut b) = pair();
        b.tcp_listen(80).unwrap();
        assert_eq!(b.tcp_listen(80), Err(StackError::PortInUse(80)));
    }

    #[test]
    fn release_frees_slot_for_reuse() {
        let (mut a, _) = pair();
        let h1 = a.udp_bind(1000).unwrap();
        a.release(h1);
        let h2 = a.udp_bind(1001).unwrap();
        assert_eq!(h1.0, h2.0, "slot reused");
    }

    #[test]
    fn next_timeout_reflects_tcp_timers() {
        let (mut a, _) = pair();
        assert!(a.next_timeout().is_none());
        let now = SimTime::ZERO;
        let _client = a.tcp_connect(B, 80, now).unwrap();
        a.poll(now); // emits SYN, arms the retransmission timer
        let _ = a.take_packets();
        assert!(a.next_timeout().is_some());
    }
}
