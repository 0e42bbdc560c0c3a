//! A fixed-width bit set used for reachability bookkeeping.

use std::fmt;

/// A fixed-length set of bits backed by `u64` words.
///
/// The routing crate stores, for every switch, the set of leaf switches
/// reachable downward (and via up-then-down paths) as one `BitSet` per
/// switch; set union is the inner loop of the reachability dynamic program,
/// so it operates on whole words.
///
/// # Examples
///
/// ```
/// use rfc_graph::BitSet;
///
/// let mut a = BitSet::new(130);
/// a.insert(0);
/// a.insert(129);
/// let mut b = BitSet::new(130);
/// b.insert(64);
/// assert!(a.union_with(&b));
/// assert_eq!(a.count_ones(), 3);
/// assert!(a.contains(64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set able to hold bits `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits this set can hold.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Whether bit `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Unions `other` into `self`, returning `true` if any bit changed.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different lengths.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        let mut changed = false;
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            let next = *w | o;
            changed |= next != *w;
            *w = next;
        }
        changed
    }

    /// Calls `f(i)` for every index set in exactly one of the two sets,
    /// in ascending order — one XOR per word, so near-equal sets cost
    /// almost nothing.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different lengths.
    pub fn for_each_diff(&self, other: &BitSet, mut f: impl FnMut(usize)) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (wi, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut x = a ^ b;
            while x != 0 {
                f(wi * 64 + x.trailing_zeros() as usize);
                x &= x - 1;
            }
        }
    }

    /// Whether every bit of `other` is also set in `self`.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different lengths.
    pub fn is_superset(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & b == b)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl crate::HeapBytes for BitSet {
    /// Heap bytes of the word array: one `u64` per 64 bits of universe.
    fn heap_bytes(&self) -> usize {
        crate::heap::slice_heap_bytes(&self.words)
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BitSet")
            .field("len", &self.len)
            .field("ones", &self.count_ones())
            .finish()
    }
}

/// Iterator over set bit indices, produced by [`BitSet::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(100);
        assert!(!s.contains(63));
        s.insert(63);
        s.insert(64);
        assert!(s.contains(63) && s.contains(64));
        s.remove(63);
        assert!(!s.contains(63) && s.contains(64));
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        b.insert(3);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "second union is a no-op");
    }

    #[test]
    fn superset_checks_every_bit() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(69);
        b.insert(69);
        assert!(a.is_superset(&b));
        b.insert(1);
        assert!(!a.is_superset(&b));
    }

    #[test]
    fn iter_ones_matches_contents() {
        let mut s = BitSet::new(200);
        for i in [0, 1, 63, 64, 127, 128, 199] {
            s.insert(i);
        }
        let ones: Vec<_> = s.iter_ones().collect();
        assert_eq!(ones, vec![0, 1, 63, 64, 127, 128, 199]);
    }

    #[test]
    fn clear_empties_the_set() {
        let mut s = BitSet::new(10);
        s.insert(5);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter_ones().count(), 0);
    }

    #[test]
    fn zero_length_set_is_fine() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter_ones().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut s = BitSet::new(5);
        s.insert(5);
    }
}
