//! [`LineSlab`]: the flat, host-line-aligned `u64` array that holds a
//! set-associative structure's per-way state, set after set.

use std::ops::{Deref, DerefMut};

/// Host cache-line size in `u64` words.
const LINE_WORDS: usize = 8;

/// A fixed-length `u64` slab whose first word starts a 64-byte host line,
/// so a set row of 8 words is exactly one host line and a 4-word row
/// never straddles two. (A large `Vec<u64>` typically starts 16 bytes
/// past a page boundary, which would split every such row.) Dereferences
/// to `[u64]`; cloning re-aligns the copy.
#[derive(Debug)]
pub struct LineSlab {
    buf: Vec<u64>,
    start: usize,
    len: usize,
}

impl LineSlab {
    /// A slab of `len` words, each `fill`. A zero fill is allocated
    /// zeroed, so its pages are only mapped in when first written.
    pub fn new(len: usize, fill: u64) -> Self {
        let buf = vec![fill; len + LINE_WORDS - 1];
        let misalign = (buf.as_ptr() as usize / 8) % LINE_WORDS;
        let start = (LINE_WORDS - misalign) % LINE_WORDS;
        Self { buf, start, len }
    }
}

impl Deref for LineSlab {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl DerefMut for LineSlab {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

impl Clone for LineSlab {
    fn clone(&self) -> Self {
        let mut slab = Self::new(self.len, 0);
        slab.copy_from_slice(self);
        slab
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_start_on_host_lines_and_clones_realign() {
        for len in [0, 1, 8, 1000, 1 << 16] {
            let mut slab = LineSlab::new(len, 7);
            assert_eq!(slab.len(), len);
            assert!(slab.iter().all(|&w| w == 7));
            assert_eq!(slab.as_ptr() as usize % 64, 0);
            if len > 0 {
                slab[len - 1] = 9;
            }
            let copy = slab.clone();
            assert_eq!(copy.as_ptr() as usize % 64, 0);
            assert_eq!(&copy[..], &slab[..]);
        }
    }
}
