//! Differential tests of the flat set-major slabs against the naive
//! reference models in `tests/support/`: every replacement policy at
//! every associativity the engine uses (and the 1- and 64-way extremes),
//! and the MSA shadow stacks with full and sampled profiling. Any
//! divergence in a victim, a stack position or a shadow depth fails.

mod support;

use csalt::cache::{way_range_mask, ReplacementArray};
use csalt::profiler::StackDistanceProfiler;
use csalt::types::{EntryKind, ReplacementKind};
use proptest::prelude::*;
use support::{RefMsa, RefSet};

const KINDS: [ReplacementKind; 4] = [
    ReplacementKind::TrueLru,
    ReplacementKind::Nru,
    ReplacementKind::BtPlru,
    ReplacementKind::Rrip,
];
const WAYS: [u32; 7] = [1, 2, 4, 8, 12, 16, 64];
const SETS: usize = 3;

/// One replacement operation, with raw fields reduced modulo the
/// geometry at run time.
#[derive(Debug, Clone, Copy)]
enum Op {
    Touch {
        set: usize,
        way: u32,
    },
    Fill {
        set: usize,
        way: u32,
        distant: bool,
    },
    /// `range` picks a partition-style `lo..hi` mask over a random one.
    Victim {
        set: usize,
        bits: u64,
        range: bool,
    },
    Position {
        set: usize,
        way: u32,
    },
}

/// Decodes a generated `(opcode, set, (bits, flag))` tuple.
fn op((code, set, (bits, flag)): (u8, usize, (u64, bool))) -> Op {
    let way = bits as u32;
    match code {
        0 => Op::Touch { set, way },
        1 => Op::Fill {
            set,
            way,
            distant: flag,
        },
        2 => Op::Victim {
            set,
            bits,
            range: flag,
        },
        _ => Op::Position { set, way },
    }
}

/// A nonempty mask over `ways` ways derived from `bits`.
fn mask_for(ways: u32, bits: u64, range: bool) -> u64 {
    let full = way_range_mask(0, ways);
    if range {
        let lo = (bits % u64::from(ways)) as u32;
        let hi = lo + 1 + ((bits >> 32) % u64::from(ways - lo)) as u32;
        way_range_mask(lo, hi)
    } else if bits & full == 0 {
        full
    } else {
        bits & full
    }
}

fn kind_index(kind: ReplacementKind) -> u8 {
    KINDS.iter().position(|&k| k == kind).expect("listed") as u8
}

/// Runs `ops` against both sides, comparing every victim and, after each
/// operation, every stack position of the set it touched.
fn check_policy(kind: ReplacementKind, ways: u32, ops: &[Op]) {
    let mut flat = ReplacementArray::new(kind, SETS, ways);
    let mut naive = vec![RefSet::new(kind_index(kind), ways); SETS];
    for op in ops {
        let set = match *op {
            Op::Touch { set, way } => {
                flat.touch(set, way % ways);
                naive[set].touch(way % ways);
                set
            }
            Op::Fill { set, way, distant } => {
                flat.on_fill(set, way % ways, distant);
                naive[set].on_fill(way % ways, distant);
                set
            }
            Op::Victim { set, bits, range } => {
                let mask = mask_for(ways, bits, range);
                let allowed: Vec<bool> = (0..ways).map(|w| mask & (1u64 << w) != 0).collect();
                let got = flat.victim(set, mask);
                prop_assert_eq!(
                    got,
                    naive[set].victim(&allowed),
                    "{:?} {}-way victim",
                    kind,
                    ways
                );
                set
            }
            Op::Position { set, way } => {
                let way = way % ways;
                prop_assert_eq!(
                    flat.stack_position(set, way),
                    naive[set].stack_position(way)
                );
                set
            }
        };
        for w in 0..ways {
            prop_assert_eq!(
                flat.stack_position(set, w),
                naive[set].stack_position(w),
                "{:?} {}-way: set {} way {} after {:?}",
                kind,
                ways,
                set,
                w,
                op
            );
        }
    }
}

proptest! {
    /// Every policy × associativity agrees with its naive model on every
    /// victim and stack position (BT-PLRU only at power-of-two ways).
    #[test]
    fn replacement_slabs_match_naive_models(
        raw in prop::collection::vec((0u8..4, 0..SETS, (any::<u64>(), any::<bool>())), 1..120),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(op).collect();
        for kind in KINDS {
            for ways in WAYS {
                if kind == ReplacementKind::BtPlru && !ways.is_power_of_two() {
                    continue;
                }
                check_policy(kind, ways, &ops);
            }
        }
    }

    /// The flat shadow-stack slabs report the same depth as a `VecDeque`
    /// per set on every record, and end with the same counters, for full
    /// (interval 1) and sampled (interval 4) profiling.
    #[test]
    fn msa_slabs_match_naive_stacks(
        records in prop::collection::vec((0u64..16, 0u64..24, any::<bool>()), 1..300),
    ) {
        for interval in [1u64, 4] {
            for ways in WAYS {
                let mut flat = StackDistanceProfiler::new(16, ways, interval);
                let mut naive = [RefMsa::new(16, ways, interval), RefMsa::new(16, ways, interval)];
                for &(set, tag, is_tlb) in &records {
                    let kind = if is_tlb { EntryKind::Tlb } else { EntryKind::Data };
                    prop_assert_eq!(
                        flat.record(set, tag, kind),
                        naive[kind.index()].record(set, tag),
                        "{}-way interval {}: set {} tag {}",
                        ways,
                        interval,
                        set,
                        tag
                    );
                }
                for kind in [EntryKind::Data, EntryKind::Tlb] {
                    prop_assert_eq!(
                        flat.counts(kind).as_slice(),
                        &naive[kind.index()].counters[..]
                    );
                }
            }
        }
    }
}
