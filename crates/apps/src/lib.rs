//! Workloads used to evaluate IPOP — the same application mix as the paper's
//! Section IV.
//!
//! * [`ping`] — ICMP echo RTT measurement (Table I, Fig. 5).
//! * [`ttcp`] — bulk TCP throughput measurement (Tables II, III).
//! * [`mpi`] — a minimal tagged-message layer over TCP, standing in for the
//!   message-passing traffic LAM/MPI generates.
//! * [`nfs`] — a block-read remote file service with client-side caching (the NFS
//!   virtual file system of the LSS experiment).
//! * [`lss`] — the Light Scattering Spectroscopy master/worker application
//!   (Table IV).
//!
//! Every application implements [`ipop::VirtualApp`] and is therefore oblivious to
//! whether it runs on a physical network (baseline) or on an IPOP virtual network.

pub mod lss;
pub mod mpi;
pub mod nfs;
pub mod ping;
pub mod ttcp;

pub use lss::{LssFileServer, LssMaster, LssParams, LssReport, LssWorker};
pub use mpi::{Channel, Message};
pub use nfs::{NfsClient, NfsServer};
pub use ping::{PingApp, PingReport};
pub use ttcp::{TtcpApp, TtcpReport};
