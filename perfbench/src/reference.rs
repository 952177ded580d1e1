//! A fixed reference kernel that measures how fast the host runs
//! simulator-like code right now.
//!
//! A shared host changes speed by tens of percent over minutes. The
//! untraced samples time this kernel next to every simulation and
//! express the simulation's time in units of the kernel's time, so a
//! slowdown that hits both cancels. The kernel uses nothing from the
//! repository's crates: a change to the simulator cannot move it.
//!
//! Its work resembles the simulator's hot path: lookups with LRU updates
//! in a set-associative tag array a few MiB large (a TLB or cache
//! model), driven by a random address stream mixed with a sequential
//! one, and read-modify-writes to random words of a larger table (the
//! GUPS-like memory traffic of the simulated programs).

use std::hint::black_box;
use std::time::Instant;

const SETS: usize = 1 << 15;
const WAYS: usize = 16;
/// 128 MiB: larger than any host cache, like the simulator's own
/// footprint.
const TABLE_WORDS: usize = 1 << 24;
/// Operations of one timed pass.
const OPS: u64 = 1 << 20;

pub struct Reference {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    table: Vec<u64>,
    rng: u64,
    seq: u64,
    clock: u32,
}

impl Reference {
    pub fn new() -> Self {
        let mut r = Self {
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
            table: (0..TABLE_WORDS as u64).collect(),
            rng: 0x9E37_79B9_7F4A_7C15,
            seq: 0,
            clock: 0,
        };
        // One untimed pass faults the arrays in and warms the tags.
        black_box(r.pass());
        r
    }

    fn next_random(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn lookup(&mut self, line: u64) -> bool {
        let set = (line as usize) & (SETS - 1);
        let tag = line >> 15;
        let ways = &mut self.tags[set * WAYS..(set + 1) * WAYS];
        let stamps = &mut self.stamps[set * WAYS..(set + 1) * WAYS];
        self.clock = self.clock.wrapping_add(1);
        if let Some(w) = ways.iter().position(|&t| t == tag) {
            stamps[w] = self.clock;
            return true;
        }
        let victim = (0..WAYS).min_by_key(|&w| stamps[w]).unwrap_or(0);
        ways[victim] = tag;
        stamps[victim] = self.clock;
        false
    }

    /// One fixed pass of `OPS` operations; returns a checksum.
    fn pass(&mut self) -> u64 {
        let mut sum = 0u64;
        for i in 0..OPS {
            let r = self.next_random();
            let line = if i & 1 == 0 {
                r >> 20
            } else {
                self.seq = self.seq.wrapping_add(1);
                self.seq >> 3
            };
            sum += u64::from(self.lookup(line));
            let w = (r as usize) & (TABLE_WORDS - 1);
            self.table[w] ^= r;
            sum = sum.wrapping_add(self.table[w] & 1);
        }
        sum
    }

    /// MiB the kernel keeps resident (its arrays), which a sample
    /// subtracts from its peak resident set.
    pub fn resident_mb() -> f64 {
        (TABLE_WORDS * 8 + SETS * WAYS * (8 + 4)) as f64 / (1024.0 * 1024.0)
    }

    /// Wall seconds of one pass.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.pass());
        t.elapsed().as_secs_f64()
    }
}
