//# path: crates/cache/src/fixture_per_set_heap.rs
//# expect: S009
// One heap block per set: every access chases a pointer from the outer
// vector into that set's own allocation.

pub enum SetState {
    Lru { stamps: Vec<u64> },
}

pub struct Cache {
    repl: Vec<SetState>,
    shadow: [Vec<Vec<u64>>; 2],
}
