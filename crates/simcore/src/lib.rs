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
//! ```
//! use ipop_simcore::{Control, Duration, Event, SimTime, Simulator};
//!
//! struct World { ticks: u32 }
//!
//! /// Events are a type, dispatched by `match`: scheduling one allocates nothing.
//! enum Tick { Again, Last }
//!
//! impl Event<World> for Tick {
//!     fn fire(self, w: &mut World, ctl: &mut Control<'_, World, Tick>) {
//!         w.ticks += 1;
//!         // events may schedule further events
//!         if let Tick::Again = self {
//!             ctl.schedule_event_in(Duration::from_millis(5), Tick::Last);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(World { ticks: 0 });
//! sim.schedule_event_in(Duration::from_millis(5), Tick::Again);
//! sim.run();
//! assert_eq!(sim.world().ticks, 2);
//! assert_eq!(sim.now(), SimTime::ZERO + Duration::from_millis(10));
//! ```

pub mod event;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod time;

pub use event::{EventId, EventQueue, ScheduledEvent};
pub use rng::StreamRng;
pub use shard::{ShardCtl, ShardRunOutcome, ShardWorld, ShardedSim};
pub use sim::{Control, Event, RunOutcome, Simulator, TimerToken};
pub use time::{Duration, SimTime};
