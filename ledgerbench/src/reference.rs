//! The host-speed reference: a fixed task, independent of the node's code,
//! timed between blocks so that times can be stated at a nominal host
//! speed.
//!
//! Shared cloud hosts change speed by tens of percent from one run to the
//! next as neighbours come and go; a run's raw times then say as much
//! about the host as about the program. The reference task mixes
//! dependent memory loads over a 4 MiB table with integer hashing, and it
//! lives in the benchmark, so no change to the program can speed it up. A
//! time measured next to it is scaled by `REFERENCE_NOMINAL_NS / t_ref`,
//! where `t_ref` is the geometric mean of the reference samples that
//! bracket the measurement. Per-layer times of a traced pass stay raw.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::workload::Rng;

/// Reference time of an idle 2-CPU development host, nanoseconds. Only
/// the ratio to it matters: a normalised time reads what the host would
/// have measured at this reference speed.
pub const REFERENCE_NOMINAL_NS: f64 = 200_000.0;

/// Map operations per timing.
const MAP_OPS: usize = 256;
/// Interpreter steps per timing.
const STEPS: usize = 2_048;
/// Keccak-f[1600] permutations per timing.
const PERMUTATIONS: usize = 256;
/// Timings per sample; the sample is their median.
const REPEATS: usize = 3;
/// Least time between two samples of a pass.
const INTERVAL: Duration = Duration::from_millis(25);

/// The reference task: ordered-map churn (allocation, pointer-heavy
/// search), a branchy interpreter loop over a seeded program, and a
/// four-lane add-rotate-xor hash, in proportions like the node's own mix
/// of state maps, VM dispatch and keccak.
pub struct Reference {
    program: Vec<u8>,
    rng: Rng,
}

impl Reference {
    /// A reference with a fixed seeded program.
    pub fn new() -> Self {
        let mut rng = Rng::new(0x00ef_e4e1_ce00);
        let program = (0..4_096).map(|_| (rng.next_u64() % 6) as u8).collect();
        Self { program, rng }
    }

    fn once(&mut self) -> u64 {
        let start = Instant::now();
        let mut map = std::collections::BTreeMap::new();
        for i in 0..MAP_OPS as u64 {
            let key = self.rng.next_u64() % 4_096;
            if i % 3 == 2 {
                map.remove(&key);
            } else {
                map.insert(key, vec![i; 4]);
            }
        }
        let mut stack = [0u64; 4];
        let mut pc = 0usize;
        for _ in 0..STEPS {
            let op = self.program[pc % self.program.len()];
            pc = match op {
                0 => {
                    stack[0] = stack[0].wrapping_add(stack[1] ^ pc as u64);
                    pc + 1
                }
                1 => {
                    stack.swap(0, 3);
                    pc + 2
                }
                2 => {
                    stack[2] = stack[2].rotate_left(7) ^ stack[0];
                    pc + 3
                }
                3 if stack[0] & 1 == 0 => pc + 5,
                4 => {
                    stack[1] = stack[1].wrapping_mul(31).wrapping_add(stack[2]);
                    pc + 1
                }
                _ => pc + 7,
            };
        }
        let mut lanes = [0u64; 25];
        lanes[0] = stack[0] ^ stack[1];
        lanes[1] = stack[2] ^ stack[3] ^ map.len() as u64;
        for _ in 0..PERMUTATIONS {
            keccak_f(&mut lanes);
        }
        black_box(lanes);
        start.elapsed().as_nanos() as u64
    }

    /// One reference sample, nanoseconds (median of a few timings).
    pub fn sample(&mut self) -> f64 {
        let mut times: Vec<u64> = (0..REPEATS).map(|_| self.once()).collect();
        times.sort_unstable();
        times[REPEATS / 2] as f64
    }
}

/// Round constants of Keccak-f[1600].
const RC: [u64; 24] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808a,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808b,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008a,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000a,
    0x0000_0000_8000_808b,
    0x8000_0000_0000_008b,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800a,
    0x8000_0000_8000_000a,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];
/// Rotation offsets, in pi-step order.
const ROTATIONS: [u32; 24] =
    [1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44];
/// Lane order of the pi step.
const PI: [usize; 24] =
    [10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1];

/// The Keccak-f[1600] permutation, written out here so that the
/// reference does not share the node's hashing code.
fn keccak_f(a: &mut [u64; 25]) {
    for rc in RC {
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                a[x + 5 * y] ^= d;
            }
        }
        let mut last = a[1];
        for (&pi, &rotation) in PI.iter().zip(&ROTATIONS) {
            let next = a[pi];
            a[pi] = last.rotate_left(rotation);
            last = next;
        }
        for y in 0..5 {
            let row = [a[5 * y], a[5 * y + 1], a[5 * y + 2], a[5 * y + 3], a[5 * y + 4]];
            for x in 0..5 {
                a[5 * y + x] = row[x] ^ (!row[(x + 1) % 5] & row[(x + 2) % 5]);
            }
        }
        a[0] ^= rc;
    }
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

/// Reference samples taken through a pass. Each measurement belongs to
/// the bracket between two consecutive samples and is scaled by
/// `REFERENCE_NOMINAL_NS / sqrt(t_a * t_b)` of that bracket.
pub struct HostSpeed {
    reference: Reference,
    samples: Vec<f64>,
    last: Instant,
}

impl HostSpeed {
    /// Builds the reference and takes the first sample.
    pub fn new() -> Self {
        let mut reference = Reference::new();
        let samples = vec![reference.sample()];
        Self { reference, samples, last: Instant::now() }
    }

    /// Samples now; returns the index of the bracket that starts here.
    pub fn sample(&mut self) -> usize {
        self.samples.push(self.reference.sample());
        self.last = Instant::now();
        self.samples.len() - 1
    }

    /// The bracket a measurement starting now falls in.
    pub fn bracket(&self) -> usize {
        self.samples.len() - 1
    }

    /// Samples when the last sample is older than the sampling interval.
    pub fn sample_if_due(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    /// The scale factor of bracket `i`; a sample must follow it.
    pub fn factor(&self, i: usize) -> f64 {
        let (a, b) = (self.samples[i], self.samples[i + 1]);
        REFERENCE_NOMINAL_NS / (a * b).sqrt().max(1.0)
    }

    /// Every sample taken, nanoseconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}
