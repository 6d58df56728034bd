//! Flat interned address space and latency model for very large worlds.
//!
//! The full [`network::Network`](crate::network) model — per-host agents,
//! per-link state machines, NAT boxes — costs too much per node to reach the
//! 10k–100k scale the overlay's Kleinberg routing needs for a meaningful
//! stretch measurement. [`ScaleNet`] is the deliberately minimal substrate
//! for those runs: node identity is a dense `u32`, endpoints and latencies
//! are *computed*, not stored, so the whole network model is a few words
//! regardless of node count.
//!
//! * **Interned endpoints** — node `i` owns `10.x.y.z:4001` where `x.y.z`
//!   encodes `i + 1`; both directions of the mapping are arithmetic, so there
//!   is no `HashMap<Endpoint, NodeId>` scaling with the world.
//! * **Deterministic latency** — a base propagation delay plus per-pair
//!   jitter derived by hashing `(seed, src, dst)`: stable across runs and
//!   across shard layouts, no per-pair state.
//! * **Shard mapping** — nodes are partitioned into contiguous blocks for the
//!   sharded simulator; neighbours on the ring land in the same shard, so
//!   most near-edge chatter stays shard-local.

use std::net::Ipv4Addr;

use ipop_simcore::{fnv1a, Duration, FNV_OFFSET};

use crate::nat::Endpoint;

/// Interned endpoint space + latency model for 10k–100k node runs.
#[derive(Copy, Clone, Debug)]
pub struct ScaleNet {
    nodes: u32,
    shards: u32,
    /// Nodes per shard (last shard may be short).
    chunk: u32,
    seed: u64,
    /// Minimum one-way delay; also the sharded simulator's slice width.
    base: Duration,
    /// Jitter span added on top of `base` (exclusive).
    jitter: Duration,
}

/// Port every scale node listens on.
pub const SCALE_PORT: u16 = 4001;

impl ScaleNet {
    /// A network of `nodes` nodes split into `shards` contiguous blocks.
    /// Pair latency is `base + hash(seed, src, dst) % jitter`.
    pub fn new(nodes: u32, shards: u32, seed: u64, base: Duration, jitter: Duration) -> Self {
        assert!(nodes > 0 && shards > 0);
        assert!(
            nodes < (1 << 24),
            "endpoint interning encodes node ids in 24 bits"
        );
        assert!(!base.is_zero(), "zero-latency links would break slicing");
        ScaleNet {
            nodes,
            shards: shards.min(nodes),
            chunk: nodes.div_ceil(shards.min(nodes)),
            seed,
            base,
            jitter,
        }
    }

    /// Total node count.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The minimum one-way latency: the widest safe slice for the sharded
    /// simulator (a cross-shard message always lands at least one slice out).
    pub fn min_latency(&self) -> Duration {
        self.base
    }

    /// The interned endpoint of node `id`: `10.x.y.z:4001` encoding `id + 1`.
    pub fn endpoint(&self, id: u32) -> Endpoint {
        debug_assert!(id < self.nodes);
        let v = 0x0A00_0000u32 | (id + 1);
        (Ipv4Addr::from(v), SCALE_PORT)
    }

    /// Invert [`ScaleNet::endpoint`]. Returns `None` for endpoints outside
    /// the interned space.
    pub fn node_of(&self, ep: &Endpoint) -> Option<u32> {
        if ep.1 != SCALE_PORT {
            return None;
        }
        let v = u32::from(ep.0);
        if v & 0xFF00_0000 != 0x0A00_0000 {
            return None;
        }
        let id = (v & 0x00FF_FFFF).checked_sub(1)?;
        (id < self.nodes).then_some(id)
    }

    /// The shard owning node `id` (contiguous blocks).
    pub fn shard_of(&self, id: u32) -> u32 {
        debug_assert!(id < self.nodes);
        id / self.chunk
    }

    /// First node of `shard`.
    pub fn shard_start(&self, shard: u32) -> u32 {
        shard * self.chunk
    }

    /// One past the last node of `shard`.
    pub fn shard_end(&self, shard: u32) -> u32 {
        ((shard + 1) * self.chunk).min(self.nodes)
    }

    /// One-way latency from `src` to `dst`: base plus a per-ordered-pair
    /// jitter that is a pure function of `(seed, src, dst)` — identical
    /// across runs and independent of shard layout.
    pub fn latency(&self, src: u32, dst: u32) -> Duration {
        let j = self.jitter.as_nanos();
        if j == 0 {
            return self.base;
        }
        let hash = [self.seed, u64::from(src), u64::from(dst)]
            .iter()
            .fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()));
        Duration::from_nanos(self.base.as_nanos() + hash % j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> ScaleNet {
        ScaleNet::new(
            10_000,
            8,
            42,
            Duration::from_millis(1),
            Duration::from_millis(9),
        )
    }

    #[test]
    fn endpoint_interning_round_trips() {
        let n = net();
        for id in [0u32, 1, 199, 200, 9_999] {
            let ep = n.endpoint(id);
            assert_eq!(n.node_of(&ep), Some(id), "id {id} via {ep:?}");
        }
        // Outside the space: wrong port, wrong prefix, out of range.
        assert_eq!(n.node_of(&(Ipv4Addr::new(10, 0, 0, 1), 9999)), None);
        assert_eq!(
            n.node_of(&(Ipv4Addr::new(192, 168, 0, 1), SCALE_PORT)),
            None
        );
        assert_eq!(n.node_of(&(Ipv4Addr::new(10, 0, 39, 17), SCALE_PORT)), None);
        assert_eq!(n.node_of(&(Ipv4Addr::new(10, 0, 0, 0), SCALE_PORT)), None);
    }

    #[test]
    fn shards_partition_the_nodes() {
        let n = ScaleNet::new(10_001, 8, 7, Duration::from_millis(1), Duration::ZERO);
        let mut covered = 0u32;
        for s in 0..n.shards() {
            let (lo, hi) = (n.shard_start(s), n.shard_end(s));
            assert!(lo < hi, "shard {s} non-empty");
            for id in lo..hi {
                assert_eq!(n.shard_of(id), s);
            }
            covered += hi - lo;
        }
        assert_eq!(covered, 10_001);
    }

    #[test]
    fn more_shards_than_nodes_collapses() {
        let n = ScaleNet::new(3, 16, 7, Duration::from_millis(1), Duration::ZERO);
        assert_eq!(n.shards(), 3);
        assert_eq!(n.shard_of(2), 2);
    }

    #[test]
    fn latency_is_deterministic_and_bounded() {
        let a = net();
        let b = net();
        for (s, d) in [(0u32, 1u32), (17, 9_000), (42, 42)] {
            let l = a.latency(s, d);
            assert_eq!(l, b.latency(s, d), "pure function of (seed, src, dst)");
            assert!(l >= a.min_latency());
            assert!(l < a.min_latency() + Duration::from_millis(9));
        }
        // Jitter actually varies and is direction-sensitive.
        assert_ne!(a.latency(0, 1), a.latency(1, 0));
    }
}
