//! Mattson Stack Algorithm (MSA) stack-distance profilers.
//!
//! For a K-way associative cache, the profiler keeps — per entry kind — an
//! LRU stack of `K+1` counters (§3.1 of the paper, after Mattson et al.
//! 1970): `counter[i]` counts hits at LRU stack depth `i` (0 = MRU) and
//! `counter[K]` counts misses. Because the counters are gathered against a
//! *shadow* full-LRU tag directory rather than the (partitioned) physical
//! cache, they predict the hit rate the kind would achieve if it were
//! granted any number of ways `n`: the predicted hits are simply
//! `counter[0] + … + counter[n-1]`.
//!
//! The shadow directory can sample every `interval`-th set to bound cost,
//! exactly like hardware auxiliary tag directories. Each kind's directory
//! is one flat `sampled_sets × ways` tag slab plus a per-set depth, so
//! recording an access touches one contiguous row, never a per-set heap
//! block.

use csalt_types::{CkptError, CkptReader, CkptWriter, EntryKind, LineSlab};
use serde::{Deserialize, Serialize};

/// Stack-distance profiler for one cache: two shadow LRU tag directories
/// (data and TLB) plus their `K+1` hit counters.
#[derive(Debug, Clone)]
pub struct StackDistanceProfiler {
    ways: u32,
    sets: u64,
    interval: u64,
    /// Shadow tags: `tags[kind][sampled_set * ways + i]` is the tag at
    /// stack depth `i` (MRU first). Slots at or past the set's depth are
    /// never written and stay zero.
    tags: [LineSlab; 2],
    /// `depth[kind][sampled_set]`: valid entries in that stack.
    depth: [Vec<u64>; 2],
    counters: [Vec<u64>; 2],
}

/// A read-only snapshot of one kind's counters, for the partitioning
/// algorithms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LruStackCounts {
    counts: Vec<u64>,
}

impl LruStackCounts {
    /// Wraps raw counters (length `K+1`; last slot is the miss counter).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 slots are supplied.
    pub fn new(counts: Vec<u64>) -> Self {
        assert!(counts.len() >= 2, "need at least one way plus miss slot");
        Self { counts }
    }

    /// Associativity `K` these counters describe.
    pub fn ways(&self) -> u32 {
        (self.counts.len() - 1) as u32
    }

    /// Hits recorded at stack depth `i`.
    pub fn at(&self, i: u32) -> u64 {
        self.counts[i as usize]
    }

    /// Misses (accesses beyond depth `K`).
    pub fn misses(&self) -> u64 {
        *self.counts.last().expect("nonempty by construction")
    }

    /// Predicted hits were this kind granted `n` ways: `Σ counts[0..n]`.
    ///
    /// # Panics
    ///
    /// Panics if `n > K`.
    pub fn hits_with_ways(&self, n: u32) -> u64 {
        assert!(n <= self.ways(), "cannot grant more ways than exist");
        self.counts[..n as usize].iter().sum()
    }

    /// Total recorded accesses.
    pub fn accesses(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Raw counter slice (length `K+1`).
    pub fn as_slice(&self) -> &[u64] {
        &self.counts
    }
}

impl StackDistanceProfiler {
    /// Creates a profiler for a `sets`-set, `ways`-way cache, sampling
    /// every `interval`-th set (1 = profile every set).
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero or `interval > sets`.
    pub fn new(sets: u64, ways: u32, interval: u64) -> Self {
        assert!(sets > 0 && ways > 0 && interval > 0, "zero dimension");
        assert!(interval <= sets, "interval exceeds set count");
        let sampled = sets.div_ceil(interval) as usize;
        Self {
            ways,
            sets,
            interval,
            tags: [0, 1].map(|_| LineSlab::new(sampled * ways as usize, 0)),
            depth: [0, 1].map(|_| vec![0; sampled]),
            counters: [vec![0; ways as usize + 1], vec![0; ways as usize + 1]],
        }
    }

    /// Associativity being profiled.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Records one access of `kind` to `(set, tag)` and returns the stack
    /// depth observed (`ways` ⇒ shadow miss). Non-sampled sets return
    /// `None` without touching state.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn record(&mut self, set: u64, tag: u64, kind: EntryKind) -> Option<u32> {
        assert!(set < self.sets, "set {set} out of range");
        // Fast path for full profiling (interval 1): no division.
        let idx = if self.interval == 1 {
            set as usize
        } else {
            if !set.is_multiple_of(self.interval) {
                return None;
            }
            (set / self.interval) as usize
        };
        let k = kind.index();
        let w = self.ways as usize;
        let stack = &mut self.tags[k][idx * w..idx * w + w];
        let len = &mut self.depth[k][idx];
        let d = *len as usize;
        let depth = match stack[..d].iter().position(|&t| t == tag) {
            Some(pos) => {
                // Move-to-front as one rotation instead of remove+insert.
                stack[..=pos].rotate_right(1);
                pos as u32
            }
            None => {
                // Push on top: the first empty slot — or, in a full stack,
                // the LRU casualty — rotates to the front.
                stack[..=d.min(w - 1)].rotate_right(1);
                stack[0] = tag;
                *len = (d + 1).min(w) as u64;
                self.ways
            }
        };
        self.counters[kind.index()][depth as usize] += 1;
        Some(depth)
    }

    /// Records an access whose stack depth was *estimated externally*
    /// (pseudo-LRU position estimation, §3.4). Depth `>= ways` counts as
    /// a miss.
    pub fn record_estimated(&mut self, kind: EntryKind, depth: u32) {
        let d = depth.min(self.ways) as usize;
        self.counters[kind.index()][d] += 1;
    }

    /// Snapshot of one kind's counters.
    pub fn counts(&self, kind: EntryKind) -> LruStackCounts {
        LruStackCounts::new(self.counters[kind.index()].clone())
    }

    /// Total accesses recorded across both kinds this epoch.
    pub fn accesses(&self) -> u64 {
        self.counters.iter().flatten().sum()
    }

    /// Clears the counters for a new epoch. Shadow tag state is retained
    /// so the next epoch starts warm (matching hardware, where only the
    /// counters are cleared).
    pub fn reset_counters(&mut self) {
        for c in &mut self.counters {
            c.iter_mut().for_each(|v| *v = 0);
        }
    }

    /// Serializes the shadow directories (each kind's depth array and
    /// tag slab as one array apiece) and stack counters, with the
    /// profiled geometry as guard words.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u32(self.ways);
        w.u64(self.sets);
        w.u64(self.interval);
        for (depth, tags) in self.depth.iter().zip(&self.tags) {
            w.slice_u64(depth);
            w.slice_u64(tags);
        }
        for counters in &self.counters {
            w.slice_u64(counters);
        }
    }

    /// Restores state written by [`StackDistanceProfiler::ckpt_save`];
    /// geometry must match this profiler's, no stack may be deeper than
    /// the ways, and slots past a stack's depth must be empty.
    pub fn ckpt_load(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        if r.u32()? != self.ways || r.u64()? != self.sets || r.u64()? != self.interval {
            return Err(CkptError::Mismatch("stack profiler geometry"));
        }
        let w = self.ways as usize;
        for (depth, tags) in self.depth.iter_mut().zip(&mut self.tags) {
            let (got_depth, got_tags) = (r.vec_u64()?, r.vec_u64()?);
            if got_depth.len() != depth.len() || got_tags.len() != tags.len() {
                return Err(CkptError::Mismatch("stack profiler sampled sets"));
            }
            for (&d, row) in got_depth.iter().zip(got_tags.chunks_exact(w)) {
                if d > w as u64 || row[d as usize..].iter().any(|&t| t != 0) {
                    return Err(CkptError::Corrupt("shadow stack depth"));
                }
            }
            *depth = got_depth;
            tags.copy_from_slice(&got_tags);
        }
        for counters in &mut self.counters {
            let loaded = r.vec_u64()?;
            if loaded.len() != counters.len() {
                return Err(CkptError::Mismatch("stack counter width"));
            }
            *counters = loaded;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits_mru() {
        let mut p = StackDistanceProfiler::new(16, 4, 1);
        p.record(0, 0xa, EntryKind::Data);
        let d = p.record(0, 0xa, EntryKind::Data);
        assert_eq!(d, Some(0));
        let c = p.counts(EntryKind::Data);
        assert_eq!(c.at(0), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn stack_depth_reflects_intervening_tags() {
        let mut p = StackDistanceProfiler::new(16, 4, 1);
        p.record(3, 1, EntryKind::Data); // miss
        p.record(3, 2, EntryKind::Data); // miss
        p.record(3, 3, EntryKind::Data); // miss
                                         // Tag 1 now at depth 2.
        assert_eq!(p.record(3, 1, EntryKind::Data), Some(2));
        let c = p.counts(EntryKind::Data);
        assert_eq!(c.at(2), 1);
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn capacity_eviction_counts_as_miss() {
        let mut p = StackDistanceProfiler::new(16, 2, 1);
        p.record(0, 1, EntryKind::Tlb);
        p.record(0, 2, EntryKind::Tlb);
        p.record(0, 3, EntryKind::Tlb); // evicts tag 1 from shadow
        assert_eq!(p.record(0, 1, EntryKind::Tlb), Some(2)); // miss depth == ways
        assert_eq!(p.counts(EntryKind::Tlb).misses(), 4);
    }

    #[test]
    fn kinds_have_independent_stacks() {
        let mut p = StackDistanceProfiler::new(16, 4, 1);
        p.record(0, 7, EntryKind::Data);
        // Same tag as TLB is a *miss* in the TLB stack.
        assert_eq!(p.record(0, 7, EntryKind::Tlb), Some(4));
        assert_eq!(p.counts(EntryKind::Data).misses(), 1);
        assert_eq!(p.counts(EntryKind::Tlb).misses(), 1);
        assert_eq!(p.counts(EntryKind::Tlb).at(0), 0);
    }

    #[test]
    fn sampling_skips_unsampled_sets() {
        let mut p = StackDistanceProfiler::new(64, 4, 32);
        assert!(p.record(0, 1, EntryKind::Data).is_some());
        assert!(p.record(1, 1, EntryKind::Data).is_none());
        assert!(p.record(32, 1, EntryKind::Data).is_some());
        assert_eq!(p.accesses(), 2);
    }

    #[test]
    fn hits_with_ways_is_prefix_sum() {
        let c = LruStackCounts::new(vec![10, 5, 3, 1, 7]);
        assert_eq!(c.ways(), 4);
        assert_eq!(c.hits_with_ways(0), 0);
        assert_eq!(c.hits_with_ways(1), 10);
        assert_eq!(c.hits_with_ways(4), 19);
        assert_eq!(c.misses(), 7);
        assert_eq!(c.accesses(), 26);
    }

    #[test]
    #[should_panic(expected = "cannot grant more ways")]
    fn hits_with_too_many_ways_panics() {
        LruStackCounts::new(vec![1, 2]).hits_with_ways(2);
    }

    #[test]
    fn reset_clears_counters_keeps_shadow() {
        let mut p = StackDistanceProfiler::new(16, 4, 1);
        p.record(0, 9, EntryKind::Data);
        p.reset_counters();
        assert_eq!(p.accesses(), 0);
        // Shadow retained: same tag now hits at MRU.
        assert_eq!(p.record(0, 9, EntryKind::Data), Some(0));
    }

    #[test]
    fn estimated_depths_feed_counters() {
        let mut p = StackDistanceProfiler::new(16, 4, 1);
        p.record_estimated(EntryKind::Data, 2);
        p.record_estimated(EntryKind::Data, 99); // clamps to miss
        let c = p.counts(EntryKind::Data);
        assert_eq!(c.at(2), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn counters_sum_matches_access_count() {
        let mut p = StackDistanceProfiler::new(8, 4, 1);
        for i in 0..1000u64 {
            let kind = if i % 3 == 0 {
                EntryKind::Tlb
            } else {
                EntryKind::Data
            };
            p.record(i % 8, (i * 7) % 13, kind);
        }
        assert_eq!(p.accesses(), 1000);
        let total = p.counts(EntryKind::Data).accesses() + p.counts(EntryKind::Tlb).accesses();
        assert_eq!(total, 1000);
    }
}
