//! The replicated DHT against a replica-set reference model.
//!
//! Five real `OverlayNode`s at the default `replication = 3`, fully meshed
//! with `seed_connection`, so every key's copy set is the three nodes nearest
//! it. Clients on random nodes put, create, renew, get and remove on three
//! keys while an adversarial fabric drops, duplicates, reorders and delays
//! every link message. Once the adversary is quiet the fabric delivers every
//! message after a fixed latency, the nodes keep ticking for more than two
//! anti-entropy sweep intervals plus the longest TTL a client asks for, and
//! then:
//!
//! * a majority of each key's copy set holds the key's freshest live
//!   `(version, value)`, the freshest live copy held anywhere;
//! * a get of each key, from every node, returns that value;
//! * at no point was `created: true` answered for a value while a different
//!   value held an acknowledged, unexpired, unremoved claim on the key;
//! * at no point did a `DhtWithdraw` delete an acknowledged claim's record.
//!
//! Why the longest TTL as well: a replica whose withdraw (after a failed
//! claim) or remove was lost keeps an orphaned copy. No sweep reaches it —
//! anti-entropy runs from the owner over the owner's own records — and a
//! quorum read that polls it serves it and repairs it back onto the copy
//! set. Nobody renews it, so it is gone one TTL later: soft state is the
//! bound this DHT gives for such copies, and the check waits it out.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use ipop_overlay::node::{OverlayConfig, OverlayNode};
use ipop_overlay::packets::{ConnectionKind, Endpoint, LinkMessage, RoutedPayload};
use ipop_overlay::Address;
use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime, StreamRng};

const NODES: usize = 5;
const KEYS: usize = 3;
/// The default copy set: the owner and two replicas.
const COPIES: usize = 3;
/// Every node ticks at the default maintenance interval.
const TICK: Duration = Duration::from_millis(500);
/// The default anti-entropy sweep interval.
const SWEEP: Duration = Duration::from_secs(10);
/// The fabric's latency once the adversary is quiet.
const CLEAN_LATENCY: Duration = Duration::from_millis(5);
/// Clients act during this window; the adversary is loud until its end.
const LOUD: Duration = Duration::from_secs(20);
/// The longest TTL a client asks for.
const MAX_TTL: Duration = Duration::from_secs(60);

fn start() -> SimTime {
    SimTime::ZERO + Duration::from_secs(100)
}

fn addr(i: usize) -> Address {
    Address::from_key(&[i as u8 + 1])
}

fn ep(i: usize) -> Endpoint {
    ([10, 0, 0, i as u8 + 1].into(), 4001)
}

fn idx_of(ep: &Endpoint) -> usize {
    ep.0.octets()[3] as usize - 1
}

fn key(k: usize) -> Address {
    Address::from_key(format!("replica-model-key-{k}").as_bytes())
}

fn value(v: usize) -> Bytes {
    Bytes::from(format!("value-{v}").into_bytes())
}

/// The nodes holding `key`'s copies: the `COPIES` nearest it, as every node
/// of a full mesh computes them.
fn copy_set(key: &Address) -> Vec<usize> {
    let mut all: Vec<usize> = (0..NODES).collect();
    all.sort_by_key(|&i| (addr(i).ring_distance(key), addr(i)));
    all.truncate(COPIES);
    all
}

/// One client operation, drawn by proptest.
#[derive(Clone, Debug)]
struct Op {
    /// Offset into the loud window, in milliseconds.
    at_ms: u64,
    node: usize,
    key: usize,
    kind: OpKind,
    value: usize,
    ttl: Duration,
}

#[derive(Clone, Copy, Debug)]
enum OpKind {
    Put,
    Create,
    /// Re-create the value this node last put or claimed under the key.
    Renew,
    Get,
    Remove,
}

impl Op {
    /// Decode an op from three random words.
    fn from_words([when, what, ttl]: [u64; 3]) -> Self {
        let kind = match what % 5 {
            0 => OpKind::Put,
            1 => OpKind::Create,
            2 => OpKind::Renew,
            3 => OpKind::Get,
            _ => OpKind::Remove,
        };
        Op {
            at_ms: when % (LOUD.as_nanos() / 1_000_000),
            node: ((what >> 8) % NODES as u64) as usize,
            key: ((what >> 16) % KEYS as u64) as usize,
            kind,
            value: ((what >> 24) % 3) as usize,
            ttl: [Duration::from_secs(15), Duration::from_secs(30), MAX_TTL][(ttl % 3) as usize],
        }
    }
}

/// How loud the adversary is, in percent per message.
#[derive(Clone, Copy, Debug)]
struct Adversary {
    drop_pct: u64,
    dup_pct: u64,
    /// Each loud delivery waits 1 ms up to this; unequal waits reorder.
    max_delay_ms: u64,
}

impl Adversary {
    fn from_words([drop, dup, delay]: [u64; 3]) -> Self {
        Adversary {
            drop_pct: drop % 35,
            dup_pct: dup % 25,
            max_delay_ms: 1 + delay % 400,
        }
    }
}

/// A create a client issued: what it claimed, and when.
struct Claim {
    key: usize,
    value: Bytes,
    issued: SimTime,
    ttl: Duration,
}

/// A claim answered `created: true`, with the record version it was
/// acknowledged at and the instant until which its copies are guaranteed
/// live (issue time plus TTL: every copy was stored after the issue).
struct Acked {
    key: usize,
    value: Bytes,
    version: Option<u64>,
    issued: SimTime,
    acked: SimTime,
    until: SimTime,
}

struct World {
    nodes: Vec<OverlayNode>,
    now: SimTime,
    /// In-flight link messages: `(due, seq) → (from, to, message)`.
    wire: BTreeMap<(SimTime, u64), (usize, usize, LinkMessage)>,
    seq: u64,
    rng: StreamRng,
    adversary: Adversary,
    loud_until: SimTime,
    /// `(client, token) → claim` for every create a client issued.
    claims: BTreeMap<(usize, u64), Claim>,
    acked: Vec<Acked>,
    /// Per key, the spans over which a put or a remove may override a
    /// claim: `(node, from, until)`. A remove lasts until it has surely
    /// landed; a put lasts while its publisher keeps re-putting it, until
    /// that node removes the key (`None` while it still does).
    overrides: Vec<Vec<(usize, SimTime, Option<SimTime>)>>,
    /// Per `(node, key)`, the value the node last put or claimed.
    last_value: BTreeMap<(usize, usize), Bytes>,
    /// Get answers: `(client, token) → value`.
    answers: BTreeMap<(usize, u64), Option<Bytes>>,
    violations: Vec<String>,
}

impl World {
    fn new(seed: u64, adversary: Adversary) -> Self {
        let now = start();
        let mut nodes: Vec<OverlayNode> = (0..NODES)
            .map(|i| {
                let cfg = OverlayConfig::new(addr(i), ep(i));
                OverlayNode::new(cfg, StreamRng::new(seed, &format!("replica-model-{i}")))
            })
            .collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            for j in (0..NODES).filter(|&j| j != i) {
                node.seed_connection(now, addr(j), ep(j), ConnectionKind::Near);
            }
        }
        World {
            nodes,
            now,
            wire: BTreeMap::new(),
            seq: 0,
            rng: StreamRng::new(seed, "replica-model-fabric"),
            adversary,
            loud_until: now + LOUD,
            claims: BTreeMap::new(),
            acked: Vec::new(),
            overrides: vec![Vec::new(); KEYS],
            last_value: BTreeMap::new(),
            answers: BTreeMap::new(),
            violations: Vec::new(),
        }
    }

    fn key_index(key_addr: &Address) -> Option<usize> {
        (0..KEYS).find(|&k| key(k) == *key_addr)
    }

    /// Move node `i`'s outbox onto the wire, through the adversary while it
    /// is loud, and collect what the node answered its client.
    fn flush(&mut self, i: usize) {
        for (to, msg) in self.nodes[i].take_outbox() {
            let to = idx_of(&to);
            if self.now >= self.loud_until {
                self.enqueue(self.now + CLEAN_LATENCY, i, to, msg);
                continue;
            }
            let a = self.adversary;
            if self.rng.range_u64(0, 100) < a.drop_pct {
                continue;
            }
            let copies = if self.rng.range_u64(0, 100) < a.dup_pct {
                2
            } else {
                1
            };
            for _ in 0..copies {
                let delay = Duration::from_millis(self.rng.range_u64(1, a.max_delay_ms + 1));
                self.enqueue(self.now + delay, i, to, msg.clone());
            }
        }
        self.collect(i);
    }

    fn enqueue(&mut self, due: SimTime, from: usize, to: usize, msg: LinkMessage) {
        self.seq += 1;
        self.wire.insert((due, self.seq), (from, to, msg));
    }

    /// A withdraw arriving at a node: if it names the record of an
    /// acknowledged claim still owed its copies, note the violation.
    fn inspect(&mut self, msg: &LinkMessage) {
        let LinkMessage::Routed(pkt) = msg else {
            return;
        };
        let RoutedPayload::DhtWithdraw {
            key: k,
            value,
            version,
        } = &pkt.payload
        else {
            return;
        };
        let Some(k) = Self::key_index(k) else {
            return;
        };
        let now = self.now;
        if let Some(a) = self.acked.iter().find(|a| {
            a.key == k && a.value == *value && a.version == Some(*version) && self.guarded(a, now)
        }) {
            self.violations.push(format!(
                "{now:?}: a withdraw of key {k} version {version} targets the claim acknowledged at {:?}",
                a.acked
            ));
        }
    }

    /// Is the acknowledged claim `a` still owed its record at `now`: within
    /// its guaranteed lifetime, with no put or remove on its key that may
    /// have landed since its create?
    fn guarded(&self, a: &Acked, now: SimTime) -> bool {
        now < a.until
            && !self.overrides[a.key]
                .iter()
                .any(|&(_, from, until)| from <= now && until.is_none_or(|t| t >= a.issued))
    }

    /// Drain node `i`'s answers to its client and check each created reply.
    fn collect(&mut self, i: usize) {
        for (token, value) in self.nodes[i].take_dht_replies() {
            self.answers.insert((i, token), value);
        }
        let _ = self.nodes[i].take_lost_leases();
        for (token, created, _) in self.nodes[i].take_dht_create_replies() {
            let Some(claim) = self.claims.get(&(i, token)) else {
                continue;
            };
            if !created {
                continue;
            }
            let now = self.now;
            let (k, claimed) = (claim.key, claim.value.clone());
            if let Some(other) = self.acked.iter().find(|a| {
                a.key == k && a.value != claimed && claim.issued >= a.acked && self.guarded(a, now)
            }) {
                self.violations.push(format!(
                    "{now:?}: key {k} created for {claimed:?} while {:?} (acknowledged at {:?}) holds it",
                    other.value, other.acked
                ));
            }
            // The version the owner holds the claim at, if it still does.
            let owner = copy_set(&key(k))[0];
            let version = self.nodes[owner]
                .dht_store()
                .live(&key(k), now)
                .filter(|rec| rec.value == claimed)
                .map(|rec| rec.version);
            let claim = &self.claims[&(i, token)];
            self.acked.push(Acked {
                key: k,
                value: claimed,
                version,
                issued: claim.issued,
                acked: now,
                until: claim.issued + claim.ttl,
            });
        }
    }

    fn client(&mut self, op: &Op) {
        let (i, now, k) = (op.node, self.now, op.key);
        let ttl = op.ttl;
        let node = &mut self.nodes[i];
        match op.kind {
            OpKind::Put => {
                node.dht_put_ttl(now, key(k), value(op.value), ttl);
                self.overrides[k].push((i, now, None));
                self.last_value.insert((i, k), value(op.value));
            }
            OpKind::Create | OpKind::Renew => {
                let v = match op.kind {
                    OpKind::Renew => self.last_value.get(&(i, k)).cloned(),
                    _ => None,
                };
                let v = v.unwrap_or_else(|| value(op.value));
                let token = node.dht_create(now, key(k), v.clone(), ttl);
                self.last_value.insert((i, k), v.clone());
                self.claims.insert(
                    (i, token),
                    Claim {
                        key: k,
                        value: v,
                        issued: now,
                        ttl,
                    },
                );
            }
            OpKind::Get => {
                node.dht_get(now, key(k));
            }
            OpKind::Remove => {
                node.dht_remove(now, key(k));
                // The remove, and this node's last re-put, may land as late
                // as two delayed hops from now: to the owner, then on to
                // a replica.
                let landed = now + Duration::from_millis(2 * self.adversary.max_delay_ms);
                for span in self.overrides[k].iter_mut().filter(|s| s.0 == i) {
                    span.2.get_or_insert(landed);
                }
                self.overrides[k].push((i, now, Some(landed)));
                self.last_value.remove(&(i, k));
            }
        }
        self.flush(i);
    }

    /// Deliver every message due by `until`, in order.
    fn deliver_until(&mut self, until: SimTime) {
        while let Some(entry) = self.wire.first_entry() {
            if entry.key().0 > until {
                break;
            }
            let ((due, _), (from, to, msg)) = entry.remove_entry();
            self.now = self.now.max(due);
            self.inspect(&msg);
            self.nodes[to].on_message(self.now, ep(from), msg);
            self.flush(to);
        }
    }

    /// Run to `end`: ticks every node at `TICK` (staggered per node),
    /// interleaved with deliveries and the client `ops` that fall due.
    fn run(&mut self, ops: &[Op], end: SimTime) {
        let mut ops = ops.iter().peekable();
        let mut next_tick = self.now;
        while next_tick < end {
            for i in 0..NODES {
                let at = next_tick + Duration::from_millis(97 * i as u64);
                while let Some(op) = ops.peek() {
                    let due = start() + Duration::from_millis(op.at_ms);
                    if due > at {
                        break;
                    }
                    self.deliver_until(due);
                    self.now = self.now.max(due);
                    self.client(op);
                    ops.next();
                }
                self.deliver_until(at);
                self.now = self.now.max(at);
                self.nodes[i].on_tick(self.now);
                self.flush(i);
            }
            next_tick += TICK;
        }
    }

    /// Deliver until the wire is empty, with no ticks.
    fn drain(&mut self) {
        self.deliver_until(SimTime::ZERO + Duration::from_secs(u32::MAX as u64));
    }

    /// The freshest live copy of `k` on any node: `(version, value)`.
    fn freshest(&self, k: usize) -> Option<(u64, Bytes)> {
        self.nodes
            .iter()
            .filter_map(|n| n.dht_store().live(&key(k), self.now))
            .max_by(|a, b| a.freshness().cmp(&b.freshness()))
            .map(|rec| (rec.version, rec.value.clone()))
    }
}

fn check(words: Vec<[u64; 3]>, adversary: Adversary, seed: u64) {
    let mut ops: Vec<Op> = words.into_iter().map(Op::from_words).collect();
    ops.sort_by_key(|op| op.at_ms);
    let mut world = World::new(seed, adversary);
    // Loud, then clean for more than two sweep intervals plus the longest
    // TTL, so every copy nobody renews has aged out.
    let end = world.loud_until + SWEEP * 2 + MAX_TTL + Duration::from_secs(5);
    world.run(&ops, end);
    world.drain();
    prop_assert!(world.violations.is_empty(), "{:#?}", world.violations);
    for (i, node) in world.nodes.iter().enumerate() {
        prop_assert_eq!(
            node.connections().len(),
            NODES - 1,
            "node {} lost an edge",
            i
        );
    }
    for k in 0..KEYS {
        let Some((version, freshest)) = world.freshest(k) else {
            continue;
        };
        let now = world.now;
        let holders: Vec<usize> = copy_set(&key(k))
            .into_iter()
            .filter(|&i| {
                world.nodes[i]
                    .dht_store()
                    .live(&key(k), now)
                    .is_some_and(|rec| rec.version == version && rec.value == freshest)
            })
            .collect();
        prop_assert!(
            holders.len() > COPIES / 2,
            "key {}: only {:?} of {:?} hold the freshest {:?} v{}",
            k,
            holders,
            copy_set(&key(k)),
            freshest,
            version
        );
    }
    // Every get, from every node, returns the freshest value.
    let expected: Vec<Option<Bytes>> = (0..KEYS).map(|k| world.freshest(k).map(|f| f.1)).collect();
    let mut asked = Vec::new();
    for i in 0..NODES {
        for k in 0..KEYS {
            let token = world.nodes[i].dht_get(world.now, key(k));
            world.flush(i);
            asked.push((i, token, k));
        }
    }
    world.drain();
    for (i, token, k) in asked {
        prop_assert_eq!(
            world.answers.get(&(i, token)),
            Some(&expected[k]),
            "node {} get of key {}",
            i,
            k
        );
    }
    prop_assert!(world.violations.is_empty(), "{:#?}", world.violations);
}

proptest! {
    #[test]
    fn replica_sets_converge_on_the_freshest_copy(
        ops in vec(any::<[u64; 3]>(), 1..24),
        adversary: [u64; 3],
        seed: u64,
    ) {
        check(ops, Adversary::from_words(adversary), seed);
    }
}
