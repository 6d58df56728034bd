//! An NFS-like remote file service with client-side caching.
//!
//! The paper's LSS experiment keeps its images, spectral databases and binaries on
//! a central file server (F4) exported over an NFS-based virtual file system with
//! *client-side disk caching*: the first image analysis is slow because every node
//! must fetch its 32 MB database files over the wide-area virtual network, and all
//! later images hit the warm cache (Table IV). This module provides that
//! behaviour: a block-oriented read protocol over TCP plus a whole-file client
//! cache.

use std::collections::BTreeMap;

use ipop_netstack::NetStack;

use crate::mpi::Channel;

/// Block size of the read protocol (NFSv3-era rsize).
pub const BLOCK_SIZE: usize = 32 * 1024;

/// Protocol tags.
mod tags {
    /// Client → server: read request.
    pub const READ: u32 = 10;
    /// Server → client: read reply (block data).
    pub const DATA: u32 = 11;
    /// Server → client: error (no such file / out of range).
    pub const ERROR: u32 = 12;
}

/// A read request: file id, block index.
fn encode_read(file_id: u32, block: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(8);
    v.extend_from_slice(&file_id.to_be_bytes());
    v.extend_from_slice(&block.to_be_bytes());
    v
}

fn decode_read(data: &[u8]) -> Option<(u32, u32)> {
    if data.len() != 8 {
        return None;
    }
    Some((
        u32::from_be_bytes([data[0], data[1], data[2], data[3]]),
        u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
    ))
}

/// The server side: a set of exported files (synthetic contents).
#[derive(Debug, Default)]
pub struct NfsServer {
    files: BTreeMap<u32, u64>,
    /// Blocks served (diagnostics / cold-vs-warm verification).
    pub blocks_served: u64,
}

impl NfsServer {
    /// A server exporting no files.
    pub fn new() -> Self {
        Self::default()
    }

    /// Export a synthetic file of `size` bytes under `file_id`.
    pub fn export(&mut self, file_id: u32, size: u64) {
        self.files.insert(file_id, size);
    }

    /// Size of an exported file.
    pub fn size_of(&self, file_id: u32) -> Option<u64> {
        self.files.get(&file_id).copied()
    }

    /// Handle any complete requests waiting on `channel`.
    pub fn serve(&mut self, stack: &mut NetStack, channel: &mut Channel) {
        while let Some(msg) = channel.recv(stack) {
            if msg.tag != tags::READ {
                continue;
            }
            let Some((file_id, block)) = decode_read(&msg.payload) else {
                channel.send(stack, tags::ERROR, b"bad request");
                continue;
            };
            let Some(&size) = self.files.get(&file_id) else {
                channel.send(stack, tags::ERROR, b"no such file");
                continue;
            };
            let offset = block as u64 * BLOCK_SIZE as u64;
            if offset >= size {
                channel.send(stack, tags::ERROR, b"eof");
                continue;
            }
            let len = ((size - offset) as usize).min(BLOCK_SIZE);
            // Synthetic file contents: a deterministic pattern including the block
            // number, so clients can verify integrity.
            let mut reply = Vec::with_capacity(8 + len);
            reply.extend_from_slice(&msg.payload);
            reply.resize(8 + len, (block % 251) as u8);
            self.blocks_served += 1;
            channel.send(stack, tags::DATA, &reply);
        }
    }
}

/// Progress of an ongoing whole-file fetch.
#[derive(Debug)]
struct Fetch {
    file_id: u32,
    next_block_to_request: u32,
    blocks_received: u32,
    total_blocks: u32,
    window: u32,
}

/// The client side: whole-file reads with a local cache.
#[derive(Debug, Default)]
pub struct NfsClient {
    cache: BTreeMap<u32, u64>,
    fetch: Option<Fetch>,
    /// Cache hits (whole-file).
    pub cache_hits: u64,
    /// Whole-file fetches that had to go to the server.
    pub cache_misses: u64,
    /// Bytes fetched over the network.
    pub bytes_fetched: u64,
}

impl NfsClient {
    /// A client with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is `file_id` fully cached?
    pub fn is_cached(&self, file_id: u32) -> bool {
        self.cache.contains_key(&file_id)
    }

    /// Drop the whole cache (used to model a cold start).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Begin reading `file_id` of `size` bytes. Returns `true` immediately if the
    /// file is already cached; otherwise starts a fetch which must be driven by
    /// [`NfsClient::drive`] until it reports completion.
    pub fn begin_read(&mut self, file_id: u32, size: u64) -> bool {
        if self.cache.contains_key(&file_id) {
            self.cache_hits += 1;
            return true;
        }
        self.cache_misses += 1;
        let total_blocks = size.div_ceil(BLOCK_SIZE as u64) as u32;
        self.fetch = Some(Fetch {
            file_id,
            next_block_to_request: 0,
            blocks_received: 0,
            total_blocks,
            window: 8,
        });
        false
    }

    /// Drive an ongoing fetch: issue outstanding block requests (up to a fixed
    /// window) and consume replies. Returns `true` when the file is fully fetched
    /// (and now cached).
    pub fn drive(&mut self, stack: &mut NetStack, channel: &mut Channel) -> bool {
        let Some(fetch) = &mut self.fetch else {
            return true;
        };
        // Consume replies.
        while let Some(msg) = channel.recv(stack) {
            if msg.tag == tags::DATA && msg.payload.len() >= 8 {
                if let Some((fid, _block)) = decode_read(&msg.payload[..8]) {
                    if fid == fetch.file_id {
                        fetch.blocks_received += 1;
                        self.bytes_fetched += (msg.payload.len() - 8) as u64;
                    }
                }
            }
        }
        // Issue more requests, keeping `window` outstanding.
        let outstanding = fetch.next_block_to_request - fetch.blocks_received;
        let mut budget = fetch.window.saturating_sub(outstanding);
        while budget > 0 && fetch.next_block_to_request < fetch.total_blocks {
            channel.send(
                stack,
                tags::READ,
                &encode_read(fetch.file_id, fetch.next_block_to_request),
            );
            fetch.next_block_to_request += 1;
            budget -= 1;
        }
        if fetch.blocks_received >= fetch.total_blocks {
            let file_id = fetch.file_id;
            let size = fetch.total_blocks as u64 * BLOCK_SIZE as u64;
            self.cache.insert(file_id, size);
            self.fetch = None;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipop_netstack::StackConfig;
    use ipop_simcore::{Duration, SimTime};
    use std::net::Ipv4Addr;

    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn pump(a: &mut NetStack, b: &mut NetStack, now: &mut SimTime) {
        for _ in 0..10_000 {
            a.poll(*now);
            b.poll(*now);
            let fa = a.take_packets();
            let fb = b.take_packets();
            if fa.is_empty() && fb.is_empty() {
                break;
            }
            *now += Duration::from_micros(200);
            for p in fa {
                b.handle_packet(*now, p);
            }
            for p in fb {
                a.handle_packet(*now, p);
            }
        }
    }

    #[test]
    fn fetch_then_cache_hit() {
        let mut cs = NetStack::new(StackConfig::new(C));
        let mut ss = NetStack::new(StackConfig::new(S));
        let listener = ss.tcp_listen(2049).unwrap();
        let mut now = SimTime::ZERO;
        let ch = cs.tcp_connect(S, 2049, now).unwrap();
        let mut client_chan = Channel::new(ch);
        pump(&mut cs, &mut ss, &mut now);
        let sh = ss.tcp_accept(listener).unwrap().unwrap();
        let mut server_chan = Channel::new(sh);

        let mut server = NfsServer::new();
        let file_size = 1_000_000u64;
        server.export(7, file_size);
        let mut client = NfsClient::new();

        assert!(
            !client.begin_read(7, file_size),
            "cold cache requires a fetch"
        );
        for _ in 0..10_000 {
            let done = client.drive(&mut cs, &mut client_chan);
            pump(&mut cs, &mut ss, &mut now);
            server.serve(&mut ss, &mut server_chan);
            pump(&mut cs, &mut ss, &mut now);
            if done {
                break;
            }
        }
        assert!(client.is_cached(7));
        assert!(client.bytes_fetched >= file_size);
        assert_eq!(client.cache_misses, 1);
        let blocks = file_size.div_ceil(BLOCK_SIZE as u64);
        assert_eq!(server.blocks_served, blocks);

        // Second read: pure cache hit, no further traffic.
        assert!(client.begin_read(7, file_size));
        assert_eq!(client.cache_hits, 1);
        assert_eq!(server.blocks_served, blocks);

        // Clearing the cache forces a refetch.
        client.clear_cache();
        assert!(!client.begin_read(7, file_size));
    }

    #[test]
    fn unknown_file_gets_error() {
        let mut server = NfsServer::new();
        assert_eq!(server.size_of(3), None);
        server.export(3, 100);
        assert_eq!(server.size_of(3), Some(100));
    }
}
