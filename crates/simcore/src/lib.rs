//! Deterministic discrete-event simulation engine used by every other crate in the
//! IPOP workspace.
//!
//! The engine is intentionally small and completely deterministic: a virtual clock
//! ([`SimTime`]), a priority event queue with FIFO tie-breaking ([`EventQueue`]),
//! seedable random-number streams ([`rng::StreamRng`]) and sample statistics
//! with one quantile rule ([`stats`]). All protocol logic in the workspace (the
//! physical network model, the host TCP/IP stacks, the Brunet-like overlay and
//! the IPOP node itself) runs as events inside one single-threaded simulation,
//! so a given seed always reproduces the exact same packet trace. Parallelism is applied *across*
//! independent simulations (parameter sweeps in the benchmark harness), and —
//! for very large worlds — *inside* one run via the sharded simulator
//! ([`shard::ShardedSim`]), which partitions the world and fans slices out to
//! threads behind a deterministic barrier merge.
//!
//! # Quick example
//!
//! A simulation is a loop over one [`EventQueue`]: pop the earliest event, set
//! the clock to its instant, run it. Events due at the same instant pop in the
//! order they were pushed.
//!
//! ```
//! use ipop_simcore::{Duration, EventQueue, SimTime};
//!
//! /// Events are a type, dispatched by `match`: scheduling one allocates nothing.
//! enum Tick { Again, Last(&'static str) }
//!
//! let ms = |n| SimTime::ZERO + Duration::from_millis(n);
//! let mut queue = EventQueue::new();
//! queue.push(ms(5), Tick::Again);
//! let mut log = Vec::new();
//! while let Some(ev) = queue.pop() {
//!     match ev.payload {
//!         // events may schedule further events; these two share an instant
//!         Tick::Again => {
//!             queue.push(ev.at + Duration::from_millis(5), Tick::Last("first"));
//!             queue.push(ms(10), Tick::Last("second"));
//!         }
//!         Tick::Last(label) => log.push((ev.at, label)),
//!     }
//! }
//! assert_eq!(log, [(ms(10), "first"), (ms(10), "second")]);
//! ```

pub mod event;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;

pub use event::{EventId, EventQueue, ScheduledEvent, TimerToken};
pub use rng::{fnv1a, StreamRng, FNV_OFFSET};
pub use shard::{ShardCtl, ShardRunOutcome, ShardWorld, ShardedSim};
pub use time::{Duration, SimTime};
