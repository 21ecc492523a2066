//! A flat `u64` bitset over vertex ids.
//!
//! The cover-time inner loop marks visited vertices; a bitset keeps that
//! mark at one bit per vertex (64× denser than `Vec<bool>` is wide, and the
//! popcount-based [`NodeBitSet::count`] lets the engine track coverage
//! without a separate counter when convenient). The engine actually keeps
//! an explicit remaining-counter — `insert` returns whether the bit was
//! newly set, and `insert_all` how many bits a whole round newly set,
//! precisely to support that.

/// Fixed-capacity bitset over `0..len` vertex ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeBitSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeBitSet {
    /// An empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        NodeBitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Universe size.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the universe itself is empty (this is about the
    /// *universe*, not the member count — see [`count`](Self::count)).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `v`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, v: u32) -> bool {
        let v = v as usize;
        debug_assert!(v < self.len, "vertex {v} outside universe {}", self.len);
        let (w, b) = (v / 64, v % 64);
        let mask = 1u64 << b;
        let was_unset = self.words[w] & mask == 0;
        self.words[w] |= mask;
        was_unset
    }

    /// Inserts every vertex of `vs`; returns how many were not already
    /// present. A vertex repeated in `vs` counts once, so the result
    /// equals folding [`insert`](Self::insert) over `vs`.
    ///
    /// Branch-free: each vertex is counted as `word & mask == 0` and then
    /// OR-ed in unconditionally. The engine marks a whole round of token
    /// positions through this, where it measured faster than a branch on
    /// "is the vertex new" (`docs/ARCHITECTURE.md`, "Round-granular
    /// marking").
    #[inline]
    pub fn insert_all(&mut self, vs: &[u32]) -> usize {
        let len = self.len;
        let words = &mut self.words[..];
        let mut added = 0usize;
        for &v in vs {
            let v = v as usize;
            debug_assert!(v < len, "vertex {v} outside universe {len}");
            let mask = 1u64 << (v % 64);
            let w = &mut words[v / 64];
            added += (*w & mask == 0) as usize;
            *w |= mask;
        }
        added
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        let v = v as usize;
        debug_assert!(v < self.len, "vertex {v} outside universe {}", self.len);
        self.words[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Removes `v`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: u32) -> bool {
        let v = v as usize;
        debug_assert!(v < self.len, "vertex {v} outside universe {}", self.len);
        let (w, b) = (v / 64, v % 64);
        let mask = 1u64 << b;
        let was_set = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        was_set
    }

    /// Number of members (popcount).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when every vertex of the universe is a member.
    pub fn is_full(&self) -> bool {
        self.count() == self.len
    }

    /// Clears all bits, keeping the allocation (the workhorse-collection
    /// pattern: estimators reuse one set across trials).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterator over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some((wi * 64) as u32 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeBitSet::new(100);
        assert!(!s.contains(63));
        assert!(s.insert(63));
        assert!(!s.insert(63)); // second insert reports already-present
        assert!(s.contains(63));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert!(!s.contains(63));
    }

    #[test]
    fn count_and_full() {
        let mut s = NodeBitSet::new(65); // crosses a word boundary
        for v in 0..65 {
            assert!(!s.is_full());
            s.insert(v);
        }
        assert_eq!(s.count(), 65);
        assert!(s.is_full());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut s = NodeBitSet::new(10);
        s.insert(3);
        s.insert(7);
        s.clear();
        assert_eq!(s.count(), 0);
        assert_eq!(s.len(), 10);
        assert!(!s.contains(3));
    }

    #[test]
    fn iter_ascending() {
        let mut s = NodeBitSet::new(200);
        for v in [5u32, 64, 127, 128, 199] {
            s.insert(v);
        }
        let got: Vec<u32> = s.iter().collect();
        assert_eq!(got, vec![5, 64, 127, 128, 199]);
    }

    #[test]
    fn insert_all_counts_a_repeated_vertex_once() {
        let mut s = NodeBitSet::new(10);
        assert_eq!(s.insert_all(&[3, 3, 7, 3, 7]), 2);
        assert_eq!(s.insert_all(&[3, 7]), 0);
        assert_eq!(s.insert_all(&[]), 0);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn insert_all_at_word_edges() {
        let mut s = NodeBitSet::new(129);
        assert_eq!(s.insert_all(&[63, 64, 127, 128]), 4);
        assert_eq!(s.count(), 4);
        for v in [63u32, 64, 127, 128] {
            assert!(s.contains(v), "{v}");
        }
        for v in [0u32, 62, 65, 126] {
            assert!(!s.contains(v), "{v}");
        }
        assert_eq!(s.insert_all(&[128, 0, 63]), 1);
    }

    #[test]
    fn insert_all_equals_folding_insert() {
        // Deterministic pseudo-random batches over a 200-vertex universe,
        // dense enough that later batches mostly hit present vertices.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut bulk = NodeBitSet::new(200);
        let mut folded = NodeBitSet::new(200);
        for len in [0usize, 1, 5, 64, 65, 200, 300] {
            let batch: Vec<u32> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 200) as u32
                })
                .collect();
            let want = batch.iter().filter(|&&v| folded.insert(v)).count();
            assert_eq!(bulk.insert_all(&batch), want, "batch of {len}");
            assert_eq!(bulk, folded, "batch of {len}");
        }
    }

    #[test]
    fn empty_universe() {
        let s = NodeBitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert!(s.is_full()); // vacuously full
    }
}
