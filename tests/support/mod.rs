//! Deliberately naive reference models of the replacement policies and
//! the MSA shadow stacks, written from their doc comments rather than
//! from the optimized slabs: one small struct per set, explicit lists
//! instead of stamps or bit tricks. `tests/slab_oracle.rs` drives them
//! side by side with `ReplacementArray` and `StackDistanceProfiler`.

use std::collections::VecDeque;

/// One set's replacement state under one policy.
#[derive(Debug, Clone)]
pub enum RefSet {
    /// True-LRU as an explicit recency list: `order[0]` is MRU, the last
    /// element LRU. A fresh set lists way 0 first and way K-1 last.
    Lru { order: Vec<u32> },
    /// NRU: `not_used[w]` is the way's "not recently used" bit.
    Nru { not_used: Vec<bool> },
    /// BT-PLRU: `points_right[node]` for the heap-ordered internal nodes
    /// (root = 1); `false` points at the lower half.
    Plru { points_right: Vec<bool>, ways: u32 },
    /// 2-bit RRIP: one re-reference prediction value per way.
    Rrip { rrpv: Vec<u8> },
}

impl RefSet {
    /// A fresh set; `kind` is 0 = True-LRU, 1 = NRU, 2 = BT-PLRU,
    /// 3 = RRIP.
    pub fn new(kind: u8, ways: u32) -> Self {
        match kind {
            0 => RefSet::Lru {
                order: (0..ways).collect(),
            },
            1 => RefSet::Nru {
                not_used: vec![true; ways as usize],
            },
            2 => RefSet::Plru {
                points_right: vec![false; 2 * ways as usize],
                ways,
            },
            // Every way starts "distant".
            _ => RefSet::Rrip {
                rrpv: vec![3; ways as usize],
            },
        }
    }

    /// Marks `way` most recently used.
    pub fn touch(&mut self, way: u32) {
        match self {
            RefSet::Lru { order } => {
                order.retain(|&w| w != way);
                order.insert(0, way);
            }
            RefSet::Nru { not_used } => {
                not_used[way as usize] = false;
                // All used: every other way becomes not-recently-used.
                if not_used.iter().all(|&n| !n) {
                    for (w, n) in not_used.iter_mut().enumerate() {
                        *n = w as u32 != way;
                    }
                }
            }
            RefSet::Plru { points_right, ways } => {
                // Every node on the path points away from the way.
                for (node, went_right) in plru_path(*ways, way) {
                    points_right[node] = !went_right;
                }
            }
            RefSet::Rrip { rrpv } => rrpv[way as usize] = 0,
        }
    }

    /// A fill: RRIP inserts at 3 (distant) or 2 (long); the recency
    /// policies touch the way unless the fill is distant.
    pub fn on_fill(&mut self, way: u32, distant: bool) {
        match self {
            RefSet::Rrip { rrpv } => rrpv[way as usize] = if distant { 3 } else { 2 },
            _ if !distant => self.touch(way),
            _ => {}
        }
    }

    /// The victim among the ways in `allowed` (nonempty, in range).
    pub fn victim(&mut self, allowed: &[bool]) -> u32 {
        match self {
            // The least recently used allowed way.
            RefSet::Lru { order } => *order
                .iter()
                .rev()
                .find(|&&w| allowed[w as usize])
                .expect("an allowed way"),
            // The lowest allowed not-recently-used way; if none, every
            // allowed way ages to not-recently-used first.
            RefSet::Nru { not_used } => {
                if !(0..not_used.len()).any(|w| allowed[w] && not_used[w]) {
                    for (w, n) in not_used.iter_mut().enumerate() {
                        *n |= allowed[w];
                    }
                }
                (0..not_used.len())
                    .find(|&w| allowed[w] && not_used[w])
                    .expect("an aged way") as u32
            }
            // Follow each node's pointer when its half holds an allowed
            // way, otherwise take the other half.
            RefSet::Plru { points_right, ways } => {
                let (mut lo, mut len, mut node) = (0usize, *ways as usize, 1usize);
                while len > 1 {
                    let half = len / 2;
                    let left_ok = allowed[lo..lo + half].iter().any(|&a| a);
                    let right_ok = allowed[lo + half..lo + len].iter().any(|&a| a);
                    let go_right = if points_right[node] {
                        right_ok
                    } else {
                        !left_ok
                    };
                    if go_right {
                        lo += half;
                        node = 2 * node + 1;
                    } else {
                        node *= 2;
                    }
                    len = half;
                }
                lo as u32
            }
            // The first allowed way at RRPV 3; age the allowed ways by one
            // until there is one.
            RefSet::Rrip { rrpv } => loop {
                if let Some(w) = (0..rrpv.len()).find(|&w| allowed[w] && rrpv[w] == 3) {
                    return w as u32;
                }
                for (w, v) in rrpv.iter_mut().enumerate() {
                    if allowed[w] {
                        *v += 1;
                    }
                }
            },
        }
    }

    /// Exact or estimated LRU stack position (0 = MRU).
    pub fn stack_position(&self, way: u32) -> u32 {
        match self {
            RefSet::Lru { order } => order.iter().position(|&w| w == way).expect("listed") as u32,
            // Used ways rank first, then unused ones, each by way index.
            RefSet::Nru { not_used } => {
                let mut ranked: Vec<u32> = (0..not_used.len() as u32)
                    .filter(|&w| !not_used[w as usize])
                    .collect();
                ranked.extend((0..not_used.len() as u32).filter(|&w| not_used[w as usize]));
                ranked.iter().position(|&w| w == way).expect("ranked") as u32
            }
            // Each path node pointing toward the way adds its level's
            // weight (the subtree half-width below that node).
            RefSet::Plru { points_right, ways } => {
                let mut half = *ways / 2;
                let mut position = 0;
                for (node, went_right) in plru_path(*ways, way) {
                    if points_right[node] == went_right {
                        position += half;
                    }
                    half /= 2;
                }
                position
            }
            // A quarter of the stack per RRPV step, then rank among the
            // lower-indexed ways with the same RRPV; capped at K-1.
            RefSet::Rrip { rrpv } => {
                let k = rrpv.len() as u32;
                let v = rrpv[way as usize];
                let rank = (0..way as usize).filter(|&w| rrpv[w] == v).count() as u32;
                (u32::from(v) * k / 4 + rank).min(k - 1)
            }
        }
    }
}

/// The `(node, went_right)` steps from the root of a `ways`-leaf heap-
/// ordered tree down to leaf `way`.
fn plru_path(ways: u32, way: u32) -> Vec<(usize, bool)> {
    let mut path = Vec::new();
    let (mut lo, mut len, mut node) = (0u32, ways, 1usize);
    while len > 1 {
        let half = len / 2;
        let right = way >= lo + half;
        path.push((node, right));
        if right {
            lo += half;
            node = 2 * node + 1;
        } else {
            node *= 2;
        }
        len = half;
    }
    path
}

/// MSA shadow directory for one kind: an MRU-first `VecDeque` per
/// sampled set and `ways + 1` depth counters (the last one counts
/// misses).
#[derive(Debug, Clone)]
pub struct RefMsa {
    ways: usize,
    interval: u64,
    stacks: Vec<VecDeque<u64>>,
    /// Hits per depth, then misses.
    pub counters: Vec<u64>,
}

impl RefMsa {
    /// A directory over `sets` sets sampling every `interval`-th one.
    pub fn new(sets: u64, ways: u32, interval: u64) -> Self {
        Self {
            ways: ways as usize,
            interval,
            stacks: vec![VecDeque::new(); sets.div_ceil(interval) as usize],
            counters: vec![0; ways as usize + 1],
        }
    }

    /// Records `tag` in `set`: its depth before the access (`ways` on a
    /// miss), after which it sits at the front; `None` for unsampled
    /// sets.
    pub fn record(&mut self, set: u64, tag: u64) -> Option<u32> {
        if !set.is_multiple_of(self.interval) {
            return None;
        }
        let stack = &mut self.stacks[(set / self.interval) as usize];
        let depth = match stack.iter().position(|&t| t == tag) {
            Some(pos) => {
                stack.remove(pos);
                pos
            }
            None => {
                if stack.len() == self.ways {
                    stack.pop_back();
                }
                self.ways
            }
        };
        stack.push_front(tag);
        self.counters[depth] += 1;
        Some(depth as u32)
    }
}
