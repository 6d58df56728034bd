//! The LSS (Light Scattering Spectroscopy) parallel application.
//!
//! Paper Section IV-C: LSS analyses a set of spectral images against database
//! files of analytically generated spectra, finding the least-squares best fit.
//! The parallel version distributes the per-database fitting across workers with
//! MPI; images and the 32 MB database files live on a central NFS server whose
//! client-side caches are cold for the first image and warm afterwards (Table IV).
//!
//! The reproduction keeps the same structure: a master hands out `(image,
//! database)` work units over [`crate::mpi`] channels; each worker fetches the
//! database through its [`crate::nfs::NfsClient`] (cold the first time, cached
//! afterwards), "computes" the least-squares fit for a duration proportional to
//! the database size, and returns the best fit; the master reduces the results and
//! moves to the next image. Execution times per image fall out of the simulation.

use std::any::Any;

use std::net::Ipv4Addr;

use ipop::app::{AppEnv, VirtualApp};
use ipop_netstack::SocketHandle;
use ipop_simcore::{Duration, SimTime};

use crate::mpi::{tags, Channel};
use crate::nfs::{NfsClient, NfsServer};

/// Parameters of the LSS workload (paper defaults: 6 images, 4 databases of 32 MB).
#[derive(Clone, Debug)]
pub struct LssParams {
    /// Number of spectral images to analyse.
    pub images: u32,
    /// Number of database files.
    pub databases: u32,
    /// Size of each database file in bytes.
    pub database_size: u64,
    /// Compute time for fitting one image against one megabyte of database on an
    /// otherwise idle node.
    pub compute_per_mb: Duration,
}

impl Default for LssParams {
    fn default() -> Self {
        LssParams {
            images: 6,
            databases: 4,
            database_size: 32 * 1024 * 1024,
            compute_per_mb: Duration::from_millis(1300),
        }
    }
}

impl LssParams {
    /// A scaled-down variant for fast tests.
    pub fn small() -> Self {
        LssParams {
            images: 2,
            databases: 2,
            database_size: 512 * 1024,
            compute_per_mb: Duration::from_millis(200),
        }
    }

    /// Compute time to fit one image against one full database.
    pub fn compute_per_database(&self) -> Duration {
        self.compute_per_mb
            .mul_f64(self.database_size as f64 / (1024.0 * 1024.0))
    }
}

/// Per-image timing recorded by the master.
#[derive(Clone, Debug, Default)]
pub struct LssReport {
    /// Completion time of each image, in seconds, in order.
    pub image_seconds: Vec<f64>,
}

impl LssReport {
    /// Time for the first image (cold NFS caches), as Table IV reports it.
    pub fn first_image(&self) -> f64 {
        self.image_seconds.first().copied().unwrap_or(0.0)
    }

    /// Total time for the remaining images (warm caches).
    pub fn remaining_images(&self) -> f64 {
        self.image_seconds.iter().skip(1).sum()
    }

    /// Total run time.
    pub fn total(&self) -> f64 {
        self.image_seconds.iter().sum()
    }
}

// ---------------------------------------------------------------------- file server

/// The NFS file server side of the experiment (runs on F4 in the paper's setup).
pub struct LssFileServer {
    params: LssParams,
    listener: Option<SocketHandle>,
    server: NfsServer,
    channels: Vec<Channel>,
}

impl LssFileServer {
    /// A file server exporting the workload's database files (ids `0..databases`).
    pub fn new(params: LssParams) -> Self {
        let mut server = NfsServer::new();
        for db in 0..params.databases {
            server.export(db, params.database_size);
        }
        LssFileServer {
            params,
            listener: None,
            server,
            channels: Vec::new(),
        }
    }

    /// Total blocks served so far (cold-vs-warm diagnostics).
    pub fn blocks_served(&self) -> u64 {
        self.server.blocks_served
    }
}

impl VirtualApp for LssFileServer {
    fn on_start(&mut self, env: &mut AppEnv<'_>) {
        self.listener = env.stack.tcp_listen(2049).ok();
        let _ = &self.params;
    }

    fn poll(&mut self, env: &mut AppEnv<'_>) -> Option<SimTime> {
        if let Some(listener) = self.listener {
            while let Ok(Some(conn)) = env.stack.tcp_accept(listener) {
                self.channels.push(Channel::new(conn));
            }
        }
        for chan in &mut self.channels {
            self.server.serve(env.stack, chan);
            chan.pump(env.stack);
        }
        None
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// --------------------------------------------------------------------------- master

#[derive(Debug)]
enum MasterState {
    WaitingForWorkers,
    Dispatching { image: u32 },
    Finished,
}

/// The LSS master: distributes work units, reduces results, records per-image times.
pub struct LssMaster {
    params: LssParams,
    expected_workers: usize,
    listener: Option<SocketHandle>,
    workers: Vec<Channel>,
    state: MasterState,
    outstanding: u32,
    image_started: SimTime,
    report: LssReport,
}

impl LssMaster {
    /// A master that waits for `expected_workers` workers before starting.
    pub fn new(params: LssParams, expected_workers: usize) -> Self {
        LssMaster {
            params,
            expected_workers,
            listener: None,
            workers: Vec::new(),
            state: MasterState::WaitingForWorkers,
            outstanding: 0,
            image_started: SimTime::ZERO,
            report: LssReport::default(),
        }
    }

    /// The per-image timing report (valid once finished).
    pub fn report(&self) -> &LssReport {
        &self.report
    }

    fn dispatch_image(&mut self, env: &mut AppEnv<'_>, image: u32) {
        // Round-robin databases across workers, like the paper's static split.
        for db in 0..self.params.databases {
            let worker = (db as usize) % self.workers.len();
            let payload = [image.to_be_bytes(), db.to_be_bytes()].concat();
            self.workers[worker].send(env.stack, tags::WORK, &payload);
            self.outstanding += 1;
        }
        self.image_started = env.now;
    }
}

impl VirtualApp for LssMaster {
    fn on_start(&mut self, env: &mut AppEnv<'_>) {
        self.listener = env.stack.tcp_listen(5300).ok();
    }

    fn poll(&mut self, env: &mut AppEnv<'_>) -> Option<SimTime> {
        if let Some(listener) = self.listener {
            while let Ok(Some(conn)) = env.stack.tcp_accept(listener) {
                self.workers.push(Channel::new(conn));
            }
        }
        // Always pump worker channels.
        let mut results = 0;
        for chan in &mut self.workers {
            while let Some(msg) = chan.recv(env.stack) {
                match msg.tag {
                    tags::RESULT => results += 1,
                    tags::REGISTER => {}
                    _ => {}
                }
            }
            chan.pump(env.stack);
        }
        match self.state {
            MasterState::WaitingForWorkers => {
                if self.workers.len() >= self.expected_workers {
                    self.state = MasterState::Dispatching { image: 0 };
                    self.dispatch_image(env, 0);
                }
            }
            MasterState::Dispatching { image } => {
                self.outstanding -= results;
                if self.outstanding == 0 {
                    self.report
                        .image_seconds
                        .push(env.now.saturating_since(self.image_started).as_secs_f64());
                    let next = image + 1;
                    if next >= self.params.images {
                        for chan in &mut self.workers {
                            chan.send(env.stack, tags::SHUTDOWN, &[]);
                        }
                        self.state = MasterState::Finished;
                    } else {
                        self.state = MasterState::Dispatching { image: next };
                        self.dispatch_image(env, next);
                    }
                }
            }
            MasterState::Finished => {}
        }
        None
    }

    fn finished(&self) -> bool {
        matches!(self.state, MasterState::Finished)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// --------------------------------------------------------------------------- worker

#[derive(Debug)]
enum WorkerState {
    Connecting,
    Idle,
    // The fields identify the in-flight request in `Debug` traces of stuck
    // workers; nothing reads them programmatically.
    #[allow(dead_code)]
    Fetching {
        image: u32,
        db: u32,
    },
    Computing {
        done_at: SimTime,
    },
    Finished,
}

/// An LSS worker: fetches databases through NFS, computes fits, reports results.
pub struct LssWorker {
    params: LssParams,
    master_addr: Ipv4Addr,
    nfs_addr: Ipv4Addr,
    master: Option<Channel>,
    nfs_chan: Option<Channel>,
    nfs: NfsClient,
    state: WorkerState,
    queue: Vec<(u32, u32)>,
    /// Work units completed.
    pub completed: u32,
}

impl LssWorker {
    /// A worker that reports to `master_addr` and reads files from `nfs_addr`.
    pub fn new(params: LssParams, master_addr: Ipv4Addr, nfs_addr: Ipv4Addr) -> Self {
        LssWorker {
            params,
            master_addr,
            nfs_addr,
            master: None,
            nfs_chan: None,
            nfs: NfsClient::new(),
            state: WorkerState::Connecting,
            queue: Vec::new(),
            completed: 0,
        }
    }

    fn start_next(&mut self, env: &mut AppEnv<'_>) {
        if let Some((image, db)) = self.queue.pop() {
            if self.nfs.begin_read(db, self.params.database_size) {
                // Cached: go straight to compute.
                self.state = WorkerState::Computing {
                    done_at: env.now + self.params.compute_per_database(),
                };
                let _ = image;
            } else {
                self.state = WorkerState::Fetching { image, db };
            }
        } else {
            self.state = WorkerState::Idle;
        }
    }
}

impl VirtualApp for LssWorker {
    fn on_start(&mut self, env: &mut AppEnv<'_>) {
        if let Ok(h) = env.stack.tcp_connect(self.master_addr, 5300, env.now) {
            self.master = Some(Channel::new(h));
        }
        if let Ok(h) = env.stack.tcp_connect(self.nfs_addr, 2049, env.now) {
            self.nfs_chan = Some(Channel::new(h));
        }
    }

    fn poll(&mut self, env: &mut AppEnv<'_>) -> Option<SimTime> {
        let master = self.master.as_mut()?;
        let nfs_chan = self.nfs_chan.as_mut()?;
        // Collect work and control messages.
        while let Some(msg) = master.recv(env.stack) {
            match msg.tag {
                tags::WORK if msg.payload.len() == 8 => {
                    let image = u32::from_be_bytes(msg.payload[0..4].try_into().unwrap());
                    let db = u32::from_be_bytes(msg.payload[4..8].try_into().unwrap());
                    self.queue.push((image, db));
                }
                tags::SHUTDOWN => self.state = WorkerState::Finished,
                _ => {}
            }
        }
        master.pump(env.stack);
        match self.state {
            WorkerState::Connecting => {
                if master.ready(env.stack) {
                    master.send(env.stack, tags::REGISTER, b"worker");
                    self.state = WorkerState::Idle;
                }
                None
            }
            WorkerState::Idle => {
                if !self.queue.is_empty() {
                    self.start_next(env);
                }
                match self.state {
                    WorkerState::Computing { done_at } => Some(done_at),
                    // A fetch makes progress as NFS replies arrive; no timer needed.
                    _ => None,
                }
            }
            WorkerState::Fetching { .. } => {
                if self.nfs.drive(env.stack, nfs_chan) {
                    self.state = WorkerState::Computing {
                        done_at: env.now + self.params.compute_per_database(),
                    };
                    if let WorkerState::Computing { done_at } = self.state {
                        return Some(done_at);
                    }
                }
                None
            }
            WorkerState::Computing { done_at } => {
                if env.now >= done_at {
                    master.send(env.stack, tags::RESULT, &[0u8; 64]);
                    self.completed += 1;
                    self.start_next(env);
                    match self.state {
                        WorkerState::Computing { done_at } => Some(done_at),
                        _ => None,
                    }
                } else {
                    Some(done_at)
                }
            }
            WorkerState::Finished => None,
        }
    }

    fn finished(&self) -> bool {
        matches!(self.state, WorkerState::Finished)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_compute_time_scales_with_database_size() {
        let p = LssParams::default();
        assert_eq!(p.compute_per_database(), Duration::from_millis(1300 * 32));
        let s = LssParams::small();
        assert!(s.compute_per_database() < p.compute_per_database());
    }

    #[test]
    fn report_splits_first_and_remaining() {
        let report = LssReport {
            image_seconds: vec![811.0, 167.0, 167.0],
        };
        assert_eq!(report.first_image(), 811.0);
        assert_eq!(report.remaining_images(), 334.0);
        assert_eq!(report.total(), 1145.0);
        let empty = LssReport::default();
        assert_eq!(empty.first_image(), 0.0);
        assert_eq!(empty.total(), 0.0);
    }
}
