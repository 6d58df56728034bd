//! The overlay name service: hostnames → virtual IPs, and back.
//!
//! With dynamically allocated addresses (see [`crate::dhcp`]) no node knows
//! another's virtual IP a priori, so the apps layer needs a symbolic handle.
//! A node registers `SHA-1("name:" + hostname) → its virtual IP` as a
//! refreshed lease in the DHT; resolvers read the record, cache it, and
//! re-resolve when the cache entry expires — the same soft-state pattern as
//! Brunet-ARP, one level up.
//!
//! Registration also writes the reverse record
//! `SHA-1("rname:" + ip octets) → hostname`, so diagnostics and
//! accounting can turn an observed virtual IP back into a name
//! ([`NameService::lookup_ip`]).

use std::net::Ipv4Addr;

use ipop_overlay::Address;
use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime};

use crate::lookup::Lookups;
use crate::selfconfig::DhtClient;

/// The DHT key of a hostname record.
fn name_key(name: &str) -> Address {
    let mut keyed = Vec::with_capacity(5 + name.len());
    keyed.extend_from_slice(b"name:");
    keyed.extend_from_slice(name.as_bytes());
    Address::from_key(&keyed)
}

/// The DHT key of a reverse (IP → hostname) record.
fn reverse_key(ip: Ipv4Addr) -> Address {
    let mut keyed = Vec::with_capacity(6 + 4);
    keyed.extend_from_slice(b"rname:");
    keyed.extend_from_slice(&ip.octets());
    Address::from_key(&keyed)
}

/// Encode a virtual IP as a name-record value.
fn encode_ip(ip: Ipv4Addr) -> Bytes {
    Bytes::copy_from_slice(&ip.octets())
}

/// Decode a name-record value back into a virtual IP.
fn decode_ip(value: &[u8]) -> Option<Ipv4Addr> {
    let octets: [u8; 4] = value.try_into().ok()?;
    Some(Ipv4Addr::from(octets))
}

/// Encode a hostname as a reverse-record value.
fn encode_name(name: &str) -> Bytes {
    Bytes::copy_from_slice(name.as_bytes())
}

/// Decode a reverse-record value back into a hostname.
fn decode_name(value: &[u8]) -> Option<String> {
    String::from_utf8(value.to_vec()).ok()
}

/// Resolver-side (and registrar-side) name service state for one node.
pub(crate) struct NameService {
    /// Hostname → IP: cached answers and outstanding lookups.
    forward: Lookups<String, Ipv4Addr>,
    /// IP → hostname: cached answers and outstanding reverse lookups.
    reverse: Lookups<Ipv4Addr, String>,
}

impl NameService {
    /// A name service whose cache entries live for `cache_ttl`.
    pub(crate) fn new(cache_ttl: Duration) -> Self {
        NameService {
            forward: Lookups::new(cache_ttl),
            reverse: Lookups::new(cache_ttl),
        }
    }

    /// Register (or re-register, e.g. after migration) `name → ip` as a
    /// refreshed lease with the given TTL — plus the reverse `ip → name`
    /// record under [`reverse_key`].
    pub(crate) fn register(
        dht: &mut dyn DhtClient,
        now: SimTime,
        name: &str,
        ip: Ipv4Addr,
        ttl: Duration,
    ) {
        dht.put(now, name_key(name), encode_ip(ip), ttl);
        dht.put(now, reverse_key(ip), encode_name(name), ttl);
    }

    /// Remove the registration for `name` and its reverse record for `ip`.
    pub(crate) fn unregister(dht: &mut dyn DhtClient, now: SimTime, name: &str, ip: Ipv4Addr) {
        dht.remove(now, name_key(name));
        dht.remove(now, reverse_key(ip));
    }

    /// Resolve `name` from cache when fresh; otherwise issue a DHT read,
    /// whose answer arrives via [`NameService::on_reply`], and return `None`.
    pub(crate) fn resolve(
        &mut self,
        dht: &mut dyn DhtClient,
        now: SimTime,
        name: &str,
    ) -> Option<Ipv4Addr> {
        let cached = self.forward.cached(now, name);
        if cached.is_none() {
            let token = dht.get(now, name_key(name));
            self.forward.issued(now, token, name.to_string());
        }
        cached
    }

    /// Feed a DHT get reply. Returns `Some((name, ip))` when the token
    /// belonged to an outstanding name lookup (ip is `None` when no record
    /// exists), `None` when the token is not ours.
    pub(crate) fn on_reply(
        &mut self,
        now: SimTime,
        token: u64,
        value: Option<&[u8]>,
    ) -> Option<(String, Option<Ipv4Addr>)> {
        let name = self.forward.answered(token)?;
        let ip = value.and_then(decode_ip);
        if let Some(ip) = ip {
            self.forward.store(now, name.clone(), ip);
        }
        Some((name, ip))
    }

    /// Reverse-resolve `ip` to the hostname registered for it from cache
    /// when fresh; otherwise issue a DHT read of the [`reverse_key`] record,
    /// whose answer arrives via [`NameService::on_reverse_reply`], and return
    /// `None`.
    pub(crate) fn lookup_ip(
        &mut self,
        dht: &mut dyn DhtClient,
        now: SimTime,
        ip: Ipv4Addr,
    ) -> Option<String> {
        let cached = self.reverse.cached(now, &ip);
        if cached.is_none() {
            let token = dht.get(now, reverse_key(ip));
            self.reverse.issued(now, token, ip);
        }
        cached
    }

    /// Feed a DHT get reply that may answer a reverse lookup. Returns
    /// `Some((ip, hostname))` when the token belonged to an outstanding
    /// reverse lookup (hostname is `None` when no record exists), `None`
    /// when the token is not ours.
    pub(crate) fn on_reverse_reply(
        &mut self,
        now: SimTime,
        token: u64,
        value: Option<&[u8]>,
    ) -> Option<(Ipv4Addr, Option<String>)> {
        let ip = self.reverse.answered(token)?;
        let name = value.and_then(decode_name);
        if let Some(name) = &name {
            self.reverse.store(now, ip, name.clone());
        }
        Some((ip, name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selfconfig::testutil::{FakeDht, Op};

    const IP: Ipv4Addr = Ipv4Addr::new(172, 16, 9, 42);

    #[test]
    fn ip_encoding_round_trips() {
        assert_eq!(decode_ip(&encode_ip(IP)), Some(IP));
        assert_eq!(decode_ip(&[1, 2, 3]), None);
        assert_ne!(name_key("worker-1"), name_key("worker-2"));
        assert_eq!(
            decode_name(&encode_name("worker-1")).as_deref(),
            Some("worker-1")
        );
        assert_ne!(reverse_key(IP), name_key("worker-1"));
        assert_ne!(reverse_key(IP), reverse_key(Ipv4Addr::new(172, 16, 9, 43)));
    }

    #[test]
    fn register_resolve_cache_cycle() {
        let mut ns = NameService::new(Duration::from_secs(60));
        let mut dht = FakeDht::default();
        let t0 = SimTime::ZERO;
        NameService::register(&mut dht, t0, "worker-1", IP, Duration::from_secs(120));
        assert_eq!(
            dht.ops[0],
            Op::Put(
                name_key("worker-1"),
                encode_ip(IP),
                Duration::from_secs(120)
            )
        );
        assert_eq!(
            dht.ops[1],
            Op::Put(
                reverse_key(IP),
                encode_name("worker-1"),
                Duration::from_secs(120)
            ),
            "registration also writes the reverse record"
        );
        // First lookup goes to the DHT.
        assert_eq!(ns.resolve(&mut dht, t0, "worker-1"), None);
        assert_eq!(dht.ops[2], Op::Get(name_key("worker-1")));
        let v = encode_ip(IP);
        assert_eq!(
            ns.on_reply(t0, dht.last_token(), Some(v.as_slice())),
            Some(("worker-1".to_string(), Some(IP)))
        );
        // Second lookup is served from cache, with no DHT read.
        assert_eq!(
            ns.resolve(&mut dht, t0 + Duration::from_secs(10), "worker-1"),
            Some(IP)
        );
        assert_eq!(dht.ops.len(), 3);
        // After the cache TTL the name is re-resolved (migration pickup).
        assert_eq!(
            ns.resolve(&mut dht, t0 + Duration::from_secs(61), "worker-1"),
            None
        );
        assert_eq!(dht.ops[3], Op::Get(name_key("worker-1")));
    }

    #[test]
    fn missing_names_count_as_failures() {
        let mut ns = NameService::new(Duration::from_secs(60));
        let mut dht = FakeDht::default();
        assert_eq!(ns.resolve(&mut dht, SimTime::ZERO, "ghost"), None);
        assert_eq!(
            ns.on_reply(SimTime::ZERO, dht.last_token(), None),
            Some(("ghost".to_string(), None))
        );
        assert_eq!(ns.resolve(&mut dht, SimTime::ZERO, "ghost"), None);
        assert_eq!(
            dht.ops,
            vec![Op::Get(name_key("ghost")), Op::Get(name_key("ghost"))],
            "a missing name is not cached"
        );
        // Unknown tokens are not ours.
        assert_eq!(ns.on_reply(SimTime::ZERO, 999, None), None);
    }

    /// A `DhtGet` whose reply dies with its coordinator never answers: the
    /// outstanding tables must not keep one entry per lost reply.
    #[test]
    fn lost_replies_leave_a_bounded_table() {
        let mut ns = NameService::new(Duration::from_secs(60));
        let mut dht = FakeDht::default();
        let mut first = None;
        for i in 0..1000u32 {
            let now = SimTime::ZERO + Duration::from_millis(100) * u64::from(i);
            let r = ns.resolve(&mut dht, now, &format!("ghost-{i}"));
            assert_eq!(r, None, "nothing ever answered, nothing is cached");
            first.get_or_insert(dht.last_token());
            ns.lookup_ip(&mut dht, now, Ipv4Addr::from(0xAC10_0000 + i));
        }
        // Ten lookups a second, five seconds each: fifty at a time, not 1000.
        assert_eq!(ns.forward.outstanding_len(), 50);
        assert_eq!(ns.reverse.outstanding_len(), 50);
        // A reply that outlived its query is nobody's.
        assert_eq!(ns.on_reply(SimTime::MAX, first.unwrap(), None), None);
    }

    #[test]
    fn unregister_removes_both_records() {
        let mut dht = FakeDht::default();
        NameService::unregister(&mut dht, SimTime::ZERO, "worker-1", IP);
        assert_eq!(
            dht.ops,
            vec![
                Op::Remove(name_key("worker-1")),
                Op::Remove(reverse_key(IP)),
            ]
        );
    }

    #[test]
    fn reverse_lookup_cycle() {
        let mut ns = NameService::new(Duration::from_secs(60));
        let mut dht = FakeDht::default();
        let t0 = SimTime::ZERO;
        // First reverse lookup goes to the DHT under the reverse key.
        assert_eq!(ns.lookup_ip(&mut dht, t0, IP), None);
        assert_eq!(dht.ops, vec![Op::Get(reverse_key(IP))]);
        let v = encode_name("worker-1");
        assert_eq!(
            ns.on_reverse_reply(t0, dht.last_token(), Some(v.as_slice())),
            Some((IP, Some("worker-1".to_string())))
        );
        // Second lookup is served from the reverse cache, with no DHT read.
        assert_eq!(
            ns.lookup_ip(&mut dht, t0 + Duration::from_secs(10), IP),
            Some("worker-1".to_string())
        );
        assert_eq!(dht.ops.len(), 1);
        // After the cache TTL the IP is re-resolved (re-registration pickup).
        assert_eq!(
            ns.lookup_ip(&mut dht, t0 + Duration::from_secs(61), IP),
            None
        );
        assert_eq!(dht.ops[1], Op::Get(reverse_key(IP)));
        // An unregistered IP reverse-resolves to nothing, and is not cached.
        let other = Ipv4Addr::new(172, 16, 9, 77);
        assert_eq!(ns.lookup_ip(&mut dht, t0, other), None);
        let t2 = dht.last_token();
        assert_eq!(ns.on_reverse_reply(t0, t2, None), Some((other, None)));
        assert_eq!(ns.lookup_ip(&mut dht, t0, other), None);
        assert_eq!(dht.ops[3], Op::Get(reverse_key(other)));
        // A forward-lookup token is not a reverse one and vice versa.
        assert_eq!(ns.on_reverse_reply(t0, 999, None), None);
    }
}
