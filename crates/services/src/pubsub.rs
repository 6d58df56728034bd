//! Topic pub/sub client: names in, messages out.
//!
//! The overlay's pub/sub engine (see `ipop_overlay::pubsub`) speaks 160-bit
//! topic keys and delivers `(key, msg_id, payload)` triples. Applications
//! speak topic *names*. This module is the thin host-side layer between the
//! two: it derives keys from names, remembers which name each subscription
//! was made under, and translates deliveries back — counting the ones that
//! arrive for a topic this node never subscribed to (stale relay state from
//! an unsubscribe that is still propagating).
//!
//! Like the other services, it drives the overlay through a narrow trait
//! ([`PubSubClient`]) so it can be unit-tested against a scripted fake.

use std::collections::BTreeMap;

use ipop_overlay::pubsub::topic_key;
use ipop_overlay::{Address, OverlayNode};
use ipop_packet::Bytes;
use ipop_simcore::{Duration, SimTime};

/// A message delivered on a subscribed topic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopicMessage {
    /// The topic name the subscription was made under.
    pub topic: String,
    /// Publisher-assigned message id (unique per publisher, used by
    /// workloads to match publishes to deliveries).
    pub msg_id: u64,
    /// The published body. Shared, not copied: every subscriber of a fan-out
    /// holds a slice of the same wire image.
    pub payload: Bytes,
}

/// The pub/sub operations the service needs from the overlay — the
/// [`crate::DhtClient`] pattern, one protocol over.
pub trait PubSubClient {
    /// Register interest in `topic`; renewed as soft state until unsubscribed.
    fn subscribe(&mut self, now: SimTime, topic: Address, ttl: Duration);
    /// Withdraw interest in `topic`.
    fn unsubscribe(&mut self, now: SimTime, topic: Address);
    /// Publish `payload` on `topic`; returns the assigned message id.
    fn publish(&mut self, now: SimTime, topic: Address, payload: Bytes) -> u64;
    /// Drain messages delivered to this node: `(topic key, msg_id, payload)`.
    fn take_delivered(&mut self) -> Vec<(Address, u64, Bytes)>;
}

impl PubSubClient for OverlayNode {
    fn subscribe(&mut self, now: SimTime, topic: Address, ttl: Duration) {
        self.pubsub_subscribe(now, topic, ttl);
    }

    fn unsubscribe(&mut self, now: SimTime, topic: Address) {
        self.pubsub_unsubscribe(now, topic);
    }

    fn publish(&mut self, now: SimTime, topic: Address, payload: Bytes) -> u64 {
        self.pubsub_publish(now, topic, payload)
    }

    fn take_delivered(&mut self) -> Vec<(Address, u64, Bytes)> {
        self.take_pubsub_delivered()
    }
}

/// Host-side pub/sub state for one node: topic-name bookkeeping and counters.
pub struct PubSub {
    ttl: Duration,
    /// Subscribed topics: key → the name the application used. `BTreeMap`
    /// for deterministic iteration in diagnostics.
    topics: BTreeMap<Address, String>,
    /// Messages published through this service.
    pub published: u64,
    /// Messages delivered on subscribed topics.
    pub received: u64,
    /// Deliveries for topics this node is not subscribed to (dropped).
    pub unknown_topic: u64,
}

impl PubSub {
    /// A pub/sub service whose subscriptions live for `ttl` (renewed at half
    /// that by the overlay while subscribed).
    pub fn new(ttl: Duration) -> Self {
        PubSub {
            ttl,
            topics: BTreeMap::new(),
            published: 0,
            received: 0,
            unknown_topic: 0,
        }
    }

    /// Subscribe to the named topic. Idempotent: re-subscribing just renews.
    pub fn subscribe(&mut self, client: &mut dyn PubSubClient, now: SimTime, name: &str) {
        let key = topic_key(name);
        self.topics.insert(key, name.to_string());
        client.subscribe(now, key, self.ttl);
    }

    /// Unsubscribe from the named topic. No-op when not subscribed.
    pub fn unsubscribe(&mut self, client: &mut dyn PubSubClient, now: SimTime, name: &str) {
        let key = topic_key(name);
        if self.topics.remove(&key).is_some() {
            client.unsubscribe(now, key);
        }
    }

    /// Publish `payload` on the named topic (no subscription needed) and
    /// return the assigned message id.
    pub fn publish(
        &mut self,
        client: &mut dyn PubSubClient,
        now: SimTime,
        name: &str,
        payload: Bytes,
    ) -> u64 {
        self.published += 1;
        client.publish(now, topic_key(name), payload)
    }

    /// Drain delivered messages, translating topic keys back to the names
    /// they were subscribed under. Deliveries for unknown topics are counted
    /// and dropped.
    pub fn poll(&mut self, client: &mut dyn PubSubClient) -> Vec<TopicMessage> {
        let mut out = Vec::new();
        for (key, msg_id, payload) in client.take_delivered() {
            match self.topics.get(&key) {
                Some(name) => {
                    self.received += 1;
                    out.push(TopicMessage {
                        topic: name.clone(),
                        msg_id,
                        payload,
                    });
                }
                None => self.unknown_topic += 1,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names of the subscribed topics, in key order.
    fn subscriptions(ps: &PubSub) -> Vec<&str> {
        ps.topics.values().map(String::as_str).collect()
    }

    /// One recorded pub/sub operation.
    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Subscribe(Address, Duration),
        Unsubscribe(Address),
        Publish(Address, Bytes),
    }

    /// A scripted [`PubSubClient`] that records operations and queues
    /// deliveries for the next poll.
    #[derive(Default)]
    struct FakePubSub {
        ops: Vec<Op>,
        inbox: Vec<(Address, u64, Bytes)>,
        next_id: u64,
    }

    impl PubSubClient for FakePubSub {
        fn subscribe(&mut self, _now: SimTime, topic: Address, ttl: Duration) {
            self.ops.push(Op::Subscribe(topic, ttl));
        }

        fn unsubscribe(&mut self, _now: SimTime, topic: Address) {
            self.ops.push(Op::Unsubscribe(topic));
        }

        fn publish(&mut self, _now: SimTime, topic: Address, payload: Bytes) -> u64 {
            self.ops.push(Op::Publish(topic, payload));
            self.next_id += 1;
            self.next_id
        }

        fn take_delivered(&mut self) -> Vec<(Address, u64, Bytes)> {
            std::mem::take(&mut self.inbox)
        }
    }

    const TTL: Duration = Duration::from_secs(120);

    #[test]
    fn subscribe_publish_poll_cycle() {
        let mut ps = PubSub::new(TTL);
        let mut client = FakePubSub::default();
        let t0 = SimTime::ZERO;

        ps.subscribe(&mut client, t0, "events");
        assert_eq!(client.ops, vec![Op::Subscribe(topic_key("events"), TTL)]);
        assert_eq!(subscriptions(&ps), vec!["events"]);

        let id = ps.publish(&mut client, t0, "events", Bytes::from(&b"hi"[..]));
        assert_eq!(id, 1);
        assert_eq!(ps.published, 1);
        assert_eq!(
            client.ops[1],
            Op::Publish(topic_key("events"), Bytes::from(&b"hi"[..]))
        );

        client
            .inbox
            .push((topic_key("events"), 1, Bytes::from(&b"hi"[..])));
        let got = ps.poll(&mut client);
        assert_eq!(
            got,
            vec![TopicMessage {
                topic: "events".to_string(),
                msg_id: 1,
                payload: Bytes::from(&b"hi"[..]),
            }]
        );
        assert_eq!(ps.received, 1);
    }

    #[test]
    fn unknown_topic_deliveries_are_counted_and_dropped() {
        let mut ps = PubSub::new(TTL);
        let mut client = FakePubSub::default();
        client
            .inbox
            .push((topic_key("ghost"), 9, Bytes::from(&b"x"[..])));
        assert!(ps.poll(&mut client).is_empty());
        assert_eq!(ps.unknown_topic, 1);
        assert_eq!(ps.received, 0);
    }

    #[test]
    fn unsubscribe_is_tracked_and_idempotent() {
        let mut ps = PubSub::new(TTL);
        let mut client = FakePubSub::default();
        let t0 = SimTime::ZERO;
        ps.subscribe(&mut client, t0, "a");
        ps.subscribe(&mut client, t0, "b");
        ps.unsubscribe(&mut client, t0, "a");
        // Unsubscribing a topic we never held sends nothing.
        ps.unsubscribe(&mut client, t0, "a");
        ps.unsubscribe(&mut client, t0, "never");
        assert_eq!(
            client.ops,
            vec![
                Op::Subscribe(topic_key("a"), TTL),
                Op::Subscribe(topic_key("b"), TTL),
                Op::Unsubscribe(topic_key("a")),
            ]
        );
        assert_eq!(subscriptions(&ps), vec!["b"]);
        // A straggler delivery for the dropped topic is now unknown.
        client
            .inbox
            .push((topic_key("a"), 3, Bytes::from(&b"x"[..])));
        assert!(ps.poll(&mut client).is_empty());
        assert_eq!(ps.unknown_topic, 1);
    }
}
