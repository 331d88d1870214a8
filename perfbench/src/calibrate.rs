//! Host-speed correction.
//!
//! The benchmark shares its host with other tenants' virtual machines, and
//! their load changes how fast this host runs by up to a quarter, in
//! stretches of seconds — invisibly to the guest: steal time stays near
//! zero and CPU time rises along with wall time.  A fixed loop timed just
//! before each measured step shows the host's speed at that moment; the
//! step's times are scaled by the loop's speed relative to a reference, so
//! that runs made in busy and quiet stretches report the same figures for
//! the same work.

use std::time::Instant;

/// The loop's wall time on the reference host (2 vCPUs of a 2.1 GHz Xeon,
/// in a quiet stretch), in seconds.
const REFERENCE_S: f64 = 0.0085;
/// Words per thread: 512 KiB, a cache-resident working set like most of
/// the simulator's, and small enough to add little to the resident size
/// the benchmark measures.
const WORDS: usize = 1 << 16;
const PASSES: usize = 96;

/// The loop's buffers, one per load thread, allocated once.
pub struct Calibrator {
    buffers: Vec<Vec<u64>>,
}

impl Calibrator {
    pub fn new(threads: usize) -> Calibrator {
        Calibrator {
            buffers: (0..threads).map(|_| (0..WORDS as u64).collect()).collect(),
        }
    }

    /// How much slower than the reference host this host runs right now:
    /// the loop's wall time, on every load thread at once, over
    /// [`REFERENCE_S`].
    pub fn slowness(&mut self) -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for buffer in &mut self.buffers {
                s.spawn(move || churn(buffer));
            }
        });
        start.elapsed().as_secs_f64() / REFERENCE_S
    }
}

/// A fixed mix of dependent arithmetic and scattered loads and stores.
fn churn(words: &mut [u64]) {
    let mask = words.len() - 1;
    let mut x = 0u64;
    for pass in 0..PASSES {
        for i in 0..words.len() {
            let j = (i.wrapping_mul(7919) + pass) & mask;
            x = x.wrapping_add(words[j]).rotate_left(3);
            words[i] ^= x;
        }
    }
    std::hint::black_box(x);
}
