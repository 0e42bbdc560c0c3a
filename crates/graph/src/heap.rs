//! Heap-size accounting for the routing-footprint bounds.

/// Logical heap bytes held by a value, excluding the value's own
/// `size_of::<Self>()` footprint.
///
/// Implementations report **logical** size — `len × size_of::<T>()` for a
/// `Vec<T>`, via [`slice_heap_bytes`] — not allocator capacity, so the
/// figure is a deterministic function of the data structure's contents and
/// can be bounded per terminal (`crates/sim/tests/footprint.rs`, DESIGN.md
/// §15) without tripping on growth-policy or allocator differences between
/// machines.
pub trait HeapBytes {
    /// Logical bytes of owned heap storage.
    fn heap_bytes(&self) -> usize;
}

/// Logical heap bytes of a slice: `len × size_of::<T>()`.
#[inline]
#[must_use]
pub fn slice_heap_bytes<T>(s: &[T]) -> usize {
    std::mem::size_of_val(s)
}

impl<T> HeapBytes for Vec<T> {
    fn heap_bytes(&self) -> usize {
        slice_heap_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_reports_logical_bytes() {
        let mut v: Vec<u32> = Vec::with_capacity(100);
        v.push(1);
        v.push(2);
        assert_eq!(v.heap_bytes(), 8, "capacity does not count");
    }
}
