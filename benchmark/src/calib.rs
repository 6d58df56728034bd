//! Machine-speed reference.
//!
//! The sandbox this benchmark runs in shares its host: for minutes at a time
//! every process runs up to twice as slow, CPU time and wall time alike, and
//! the same binary on the same seed reads 0.5 s or 1.1 s. No median over
//! repetitions removes a drift that outlasts the run. So each repetition
//! times a fixed piece of work of the benchmark's own — written against
//! `std` only, so no change to the repository can speed it up — right before
//! and right after the measured call, and time metrics are reported at
//! reference speed: `measured × NOMINAL_S / reference time measured`. The
//! raw figures stay on record in the ledger (`proc.raw_wall_s`,
//! `proc.speed_factor`).
//!
//! The work has a cache-resident part (ordered-map churn as in event queues
//! and routing tables, packet-sized buffers filled and folded, integer
//! mixing) and a memory-bound part (dependent loads across a buffer larger
//! than the last-level cache share a guest can count on), because contention
//! on the host slows the two differently and the workloads are a mix. On
//! 130 repetitions per workload across quiet and contended spells, windows
//! of 13 repetitions varied by 19–27 % in raw median wall time and by 2–7 %
//! in the lower quartile at reference speed; a third, streaming part was
//! tried and tracked worse.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What one reference measurement reads on the quiet 2-core sandbox the
/// baseline was recorded on. Only a scale: it makes calibrated seconds read
/// like seconds.
pub const NOMINAL_S: f64 = 0.015;

/// Elements of the memory-bound part's buffer (32 MiB of `u32`), a power of
/// two.
const CHASE_LEN: usize = 8 << 20;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The reference: fixed deterministic work over a buffer built once.
pub struct Reference {
    /// Small offsets, written once so every page is resident. The walk adds
    /// the loaded offset to a full-period LCG step, so the next address is
    /// unknown until the load returns and the prefetcher cannot help.
    chase: Vec<u32>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            chase: (0..CHASE_LEN as u32).map(|i| i % 7).collect(),
        }
    }

    /// Cache-resident part. Returns a digest so the optimiser keeps it all.
    pub fn compute(&self) -> u64 {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut digest = 0u64;
        let mut map: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..2_048u64 {
            map.insert(xorshift(&mut state), i);
        }
        for round in 0..24_000u64 {
            // Ordered-map churn: pop the minimum, push a later key.
            if let Some((k, v)) = map.pop_first() {
                map.insert(k.wrapping_add(xorshift(&mut state) >> 20), v ^ round);
            }
            // A packet-sized buffer: allocate, fill, fold.
            if round % 8 == 0 {
                let mut buf = vec![0u8; 1400];
                let seed = xorshift(&mut state);
                for (j, b) in buf.iter_mut().enumerate() {
                    *b = (seed >> (j % 56)) as u8;
                }
                let buf = black_box(buf);
                digest = buf.iter().fold(digest, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
                });
            }
            digest ^= xorshift(&mut state);
        }
        digest ^ map.len() as u64
    }

    /// Memory-bound part: a chain of dependent loads.
    pub fn memory(&self) -> u64 {
        let mut i = 0usize;
        let mut digest = 0u64;
        for _ in 0..100_000 {
            let step = i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            i = step.wrapping_add(self.chase[i] as usize) & (CHASE_LEN - 1);
            digest = digest.wrapping_add(i as u64);
        }
        digest
    }

    /// Seconds the reference takes right now.
    pub fn measure(&self) -> f64 {
        let t = Instant::now();
        black_box(self.compute());
        black_box(self.memory());
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        let r = Reference::new();
        assert_eq!(r.compute(), r.compute());
        assert_eq!(r.memory(), r.memory());
        assert!(CHASE_LEN.is_power_of_two());
    }
}
