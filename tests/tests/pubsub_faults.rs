//! Pub/sub under faults: the topic root (the ring owner of the topic key,
//! which holds the subscriber set and fans publishes out) crashes, and the
//! soft-state machinery must re-home the topic on the new ring owner without
//! permanently losing a single subscriber — the subscriber records come back
//! through DHT replication/anti-entropy and the subscribers' own TTL/2
//! renewals, and the next publish reaches everyone.

use std::net::Ipv4Addr;

use ipop::prelude::*;
use ipop_netsim::planetlab;
use ipop_overlay::pubsub::topic_key;
use ipop_overlay::Address;
use ipop_tests::{FaultEvent, FaultHarness, FaultScenario};

fn vip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, 6, (i + 1) as u8)
}

#[test]
fn topic_root_crash_loses_no_subscribers() {
    const N: usize = 16;
    const TOPIC: &str = "vm-events";
    let mut net = Network::new(0x70B1_C007);
    let plab = planetlab(&mut net, N, 1.0, 13);
    let members = plab
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &h)| IpopMember::router(h, vip(i)))
        .collect();
    let options = DeployOptions {
        // Short subscription TTL: renewals fire every 10 s, so the re-homed
        // root re-learns its subscribers quickly after the crash.
        pubsub_ttl: Some(Duration::from_secs(20)),
        dht_sweep_interval: Some(Duration::from_secs(10)),
        ..DeployOptions::udp()
    };
    let hosts = ipop::deploy_ipop(&mut net, members, options);

    // Static members: overlay addresses are the SHA-1 of their virtual IPs,
    // so the topic root — the member ring-closest to the topic key — is known
    // before the run.
    let key = topic_key(TOPIC);
    let root = (0..N)
        .min_by_key(|&i| Address::from_ip(vip(i)).ring_distance(&key))
        .expect("members exist");
    let publisher = (0..N)
        .find(|&i| i != root)
        .expect("a publisher distinct from the root");
    let subscribers: Vec<usize> = (0..N)
        .filter(|&i| i != root && i != publisher)
        .take(5)
        .collect();

    let scenario = FaultScenario::new().at(Duration::from_secs(75), FaultEvent::Crash(root));
    let mut h = FaultHarness::new(NetworkSim::new(net), hosts, scenario);

    // Converge, then subscribe.
    h.run_until(SimTime::ZERO + Duration::from_secs(60));
    for &s in &subscribers {
        let now = h.now();
        h.agent_mut(s)
            .expect("subscriber alive")
            .subscribe(now, TOPIC);
    }
    h.run_for(Duration::from_secs(5));

    // Baseline: a pre-crash publish reaches every subscriber through the
    // still-live root.
    let now = h.now();
    h.agent_mut(publisher).expect("publisher alive").publish(
        now,
        TOPIC,
        ipop_packet::Bytes::copy_from_slice(b"before"),
    );
    h.run_for(Duration::from_secs(5));
    for &s in &subscribers {
        let msgs = h
            .agent_mut(s)
            .expect("subscriber alive")
            .take_topic_messages();
        assert_eq!(
            msgs.len(),
            1,
            "subscriber {s} got the pre-crash publish: {msgs:?}"
        );
        assert_eq!(msgs[0].payload.as_slice(), b"before");
    }

    // The root crashes at 75 s; give the overlay time to detect the dead
    // edges, repair the ring, and re-home the subscriber records on the new
    // owner (replica sweep + the subscribers' own 10 s renewals).
    h.run_until(SimTime::ZERO + Duration::from_secs(120));
    assert!(h.crashed.contains(&root), "the root crashed on schedule");
    let totals = h.overlay_totals();
    assert!(
        totals.dead_edges_detected >= 1,
        "the crashed root's edges were detected dead"
    );

    // The post-crash publish must reach every subscriber: zero permanently
    // lost subscriptions.
    let now = h.now();
    h.agent_mut(publisher).expect("publisher alive").publish(
        now,
        TOPIC,
        ipop_packet::Bytes::copy_from_slice(b"after"),
    );
    h.run_for(Duration::from_secs(10));
    for &s in &subscribers {
        let msgs = h
            .agent_mut(s)
            .expect("subscriber alive")
            .take_topic_messages();
        assert_eq!(
            msgs.len(),
            1,
            "subscriber {s} survived the root crash: {msgs:?}"
        );
        assert_eq!(msgs[0].topic, TOPIC);
        assert_eq!(msgs[0].payload.as_slice(), b"after");
    }

    // And the subscriptions stayed registered app-side, not just delivered.
    for &s in &subscribers {
        let (_published, received, unknown) =
            h.agent_mut(s).expect("subscriber alive").pubsub_counters();
        assert_eq!(received, 2, "subscriber {s} received both publishes");
        assert_eq!(unknown, 0, "no deliveries on unknown topics");
    }
}

/// A publish that reaches a root holding no topic record is answered with a
/// retryable nack instead of vanishing: the publisher backs off, retries the
/// same message id, and the publish lands once the record exists. Here the
/// record is simply *not there yet* — the publish fires before anyone has
/// subscribed — which is the same recordless-root shape a re-home window
/// produces, minus the crash timing.
#[test]
fn recordless_root_nacks_and_the_publisher_retries_until_delivered() {
    const N: usize = 16;
    const TOPIC: &str = "early-bird";
    let mut net = Network::new(0x9ACC_ED01);
    let plab = planetlab(&mut net, N, 1.0, 17);
    let members = plab
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &h)| IpopMember::router(h, vip(i)))
        .collect();
    let options = DeployOptions {
        pubsub_ttl: Some(Duration::from_secs(60)),
        ..DeployOptions::udp()
    };
    let hosts = ipop::deploy_ipop(&mut net, members, options);

    let key = topic_key(TOPIC);
    let root = (0..N)
        .min_by_key(|&i| Address::from_ip(vip(i)).ring_distance(&key))
        .expect("members exist");
    let publisher = (0..N).find(|&i| i != root).expect("publisher");
    let subscriber = (0..N)
        .find(|&i| i != root && i != publisher)
        .expect("subscriber");

    let mut h = FaultHarness::new(NetworkSim::new(net), hosts, FaultScenario::new());
    h.run_until(SimTime::ZERO + Duration::from_secs(60));

    // Publish before any subscription exists: the root holds no record.
    let now = h.now();
    h.agent_mut(publisher).expect("publisher alive").publish(
        now,
        TOPIC,
        ipop_packet::Bytes::copy_from_slice(b"too-soon"),
    );
    h.run_for(Duration::from_secs(2));

    // The root nacked rather than dropped, and the publisher is now backing
    // off between retries of the same message.
    let root_stats = h.agent(root).expect("root alive").overlay_stats();
    assert!(
        root_stats.pubsub_nacks_sent >= 1,
        "the recordless root nacked: {}",
        root_stats.pubsub_nacks_sent
    );
    let pub_stats = h.agent(publisher).expect("publisher alive").overlay_stats();
    assert!(
        pub_stats.pubsub_nacks_received >= 1,
        "the publisher heard the nack"
    );
    assert_eq!(
        h.agent(subscriber)
            .expect("subscriber alive")
            .pubsub_counters()
            .1,
        0,
        "nothing delivered yet"
    );

    // Now the subscription arrives; the pending retry must deliver the
    // original publish without the application resending anything.
    let now = h.now();
    h.agent_mut(subscriber)
        .expect("subscriber alive")
        .subscribe(now, TOPIC);
    h.run_for(Duration::from_secs(25));

    let msgs = h
        .agent_mut(subscriber)
        .expect("subscriber alive")
        .take_topic_messages();
    assert_eq!(msgs.len(), 1, "the retried publish arrived: {msgs:?}");
    assert_eq!(msgs[0].payload.as_slice(), b"too-soon");
    let pub_stats = h.agent(publisher).expect("publisher alive").overlay_stats();
    assert!(
        pub_stats.pubsub_publish_retries >= 1,
        "delivery came from the retry path: {}",
        pub_stats.pubsub_publish_retries
    );
    assert_eq!(
        pub_stats.pubsub_publish_failures, 0,
        "the publish never hit the retry budget"
    );
}

/// The topic re-homes twice — away from a partitioned root and back after the
/// heal — while one subscriber unsubscribes mid-partition. The old root comes
/// back carrying a stale subscriber set, and its periodic rewrite now goes
/// through the quorum create path where the fresher post-unsubscribe record
/// wins: the unsubscribed node must never be resurrected as a ghost, and the
/// publish after the dust settles must reach exactly the remaining
/// subscribers.
#[test]
fn rehomed_topic_resurrects_no_ghost_subscribers() {
    const N: usize = 16;
    const TOPIC: &str = "vm-events";
    let mut net = Network::new(0x6057_5B5C);
    let plab = planetlab(&mut net, N, 1.0, 29);
    let members = plab
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &h)| IpopMember::router(h, vip(i)))
        .collect();
    let options = DeployOptions {
        pubsub_ttl: Some(Duration::from_secs(20)),
        dht_sweep_interval: Some(Duration::from_secs(10)),
        ..DeployOptions::udp()
    };
    let hosts = ipop::deploy_ipop(&mut net, members, options);

    let key = topic_key(TOPIC);
    let root = (0..N)
        .min_by_key(|&i| Address::from_ip(vip(i)).ring_distance(&key))
        .expect("members exist");
    let publisher = (0..N).find(|&i| i != root).expect("publisher");
    let subscribers: Vec<usize> = (0..N)
        .filter(|&i| i != root && i != publisher)
        .take(5)
        .collect();
    let quitter = subscribers[0];
    let keepers = &subscribers[1..];

    // The root is cut off alone at 75 s and rejoins at 100 s — long enough
    // for its live entries to age out and for the survivors' renewals to
    // re-home the record on the interim owner.
    let scenario = FaultScenario::new()
        .at(Duration::from_secs(75), FaultEvent::Partition(root, 1))
        .at(Duration::from_secs(100), FaultEvent::Heal);
    let mut h = FaultHarness::new(NetworkSim::new(net), hosts, scenario);

    h.run_until(SimTime::ZERO + Duration::from_secs(60));
    for &s in &subscribers {
        let now = h.now();
        h.agent_mut(s)
            .expect("subscriber alive")
            .subscribe(now, TOPIC);
    }
    h.run_for(Duration::from_secs(5));

    // Baseline publish through the original root.
    let now = h.now();
    h.agent_mut(publisher).expect("publisher alive").publish(
        now,
        TOPIC,
        ipop_packet::Bytes::copy_from_slice(b"before"),
    );
    h.run_for(Duration::from_secs(5));
    for &s in &subscribers {
        let msgs = h
            .agent_mut(s)
            .expect("subscriber alive")
            .take_topic_messages();
        assert_eq!(msgs.len(), 1, "subscriber {s} got the baseline: {msgs:?}");
    }

    // 75 s: the root is partitioned away. 77 s: one subscriber quits. Its
    // renewals stop, so whatever copy of its entry survives anywhere ages out
    // within one TTL.
    h.run_until(SimTime::ZERO + Duration::from_secs(77));
    let now = h.now();
    h.agent_mut(quitter)
        .expect("quitter alive")
        .unsubscribe(now, TOPIC);

    // Ride through the partition, the heal, the re-home back onto the old
    // root and the stale entries' expiry.
    h.run_until(SimTime::ZERO + Duration::from_secs(135));

    // The post-churn publish must reach exactly the remaining subscribers.
    let now = h.now();
    h.agent_mut(publisher).expect("publisher alive").publish(
        now,
        TOPIC,
        ipop_packet::Bytes::copy_from_slice(b"after"),
    );
    h.run_for(Duration::from_secs(15));

    for &s in keepers {
        let msgs = h
            .agent_mut(s)
            .expect("subscriber alive")
            .take_topic_messages();
        assert_eq!(
            msgs.len(),
            1,
            "subscriber {s} survived the double re-home: {msgs:?}"
        );
        assert_eq!(msgs[0].payload.as_slice(), b"after");
    }

    // The ghost check: the quitter saw nothing after its unsubscribe — no
    // delivery, no unknown-topic arrival — even though the old root carried
    // its entry into the partition.
    let ghost_msgs = h
        .agent_mut(quitter)
        .expect("quitter alive")
        .take_topic_messages();
    assert!(
        ghost_msgs.is_empty(),
        "ghost delivery to the unsubscribed node: {ghost_msgs:?}"
    );
    let (_, received, unknown) = h.agent(quitter).expect("quitter alive").pubsub_counters();
    assert_eq!(received, 1, "the quitter only ever saw the baseline");
    assert_eq!(unknown, 0, "no stray deliveries on an unsubscribed topic");

    // And the publish was never lost: whatever nacks the re-home produced
    // were retried to success, not counted out.
    let failures: u64 = (0..N)
        .filter_map(|i| h.agent(i))
        .map(|a| a.overlay_stats().pubsub_publish_failures)
        .sum();
    assert_eq!(failures, 0, "a publish exhausted its retry budget");
}
