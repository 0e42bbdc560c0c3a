//! Graph substrate for the Random Folded Clos (RFC) reproduction.
//!
//! This crate provides the graph data structures and algorithms that every
//! other crate in the workspace builds on:
//!
//! * [`Csr`] — a compact, immutable adjacency structure for undirected
//!   graphs (compressed sparse row).
//! * [`traversal`] — breadth-first search, eccentricity, exact and sampled
//!   diameter, and average-distance estimation.
//! * [`connectivity`] — union-find, connected components, and the
//!   random-link-removal disconnection threshold used by Table 3 of the
//!   paper.
//! * [`random`] — Steger–Wormald pairing-model generation of random regular
//!   graphs and random semiregular bipartite graphs (the paper's Listings 1
//!   and 2).
//! * [`BitSet`], [`IntervalSet`], [`ReachSet`] — fixed-universe index sets:
//!   a dense bit set, a sorted-disjoint-range set, and the density-adaptive
//!   enum over both that the routing crate uses to store per-switch
//!   reachability (DESIGN.md §15).
//! * [`HeapBytes`] — logical heap-size accounting behind the routing
//!   bytes per terminal bounds (DESIGN.md §15).
//!
//! # Examples
//!
//! Generate a random 4-regular graph on 16 vertices (the paper's Figure 3)
//! and compute its diameter:
//!
//! ```
//! use rand::SeedableRng;
//! use rfc_graph::{random::random_regular, traversal::diameter, Csr};
//!
//! # fn main() -> Result<(), rfc_graph::GenerationError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let adj = random_regular(16, 4, &mut rng)?;
//! let graph = Csr::from_adjacency(&adj);
//! assert!(diameter(&graph).unwrap() <= 4);
//! # Ok(())
//! # }
//! ```

pub mod bisection;
mod bitset;
pub mod connectivity;
mod csr;
mod error;
mod heap;
mod interval;
pub mod random;
mod reach;
pub mod traversal;

pub use bitset::BitSet;
pub use connectivity::DisjointSets;
pub use csr::Csr;
pub use error::GenerationError;
pub use heap::{slice_heap_bytes, HeapBytes};
pub use interval::{IntervalOnes, IntervalSet};
pub use reach::{ReachOnes, ReachSet};

/// Checked conversion into the dense `u32` vertex/index space.
///
/// Every graph in this workspace identifies vertices (and ports,
/// terminals, …) by `u32`. This is the single place where `usize`-valued
/// counts cross into that space: a topology large enough to overflow
/// fails loudly here instead of silently truncating into a
/// valid-looking but wrong identifier. The paper's largest scenario
/// (100K terminals, §6) sits four orders of magnitude below the limit.
#[inline]
#[must_use]
#[expect(
    clippy::cast_possible_truncation,
    reason = "the assert above the cast checks that it fits"
)]
pub fn vid(i: usize) -> u32 {
    assert!(
        u32::try_from(i).is_ok(),
        "index {i} exceeds the u32 vertex space"
    );
    i as u32
}

#[cfg(test)]
mod vid_tests {
    use super::vid;

    #[test]
    fn vid_is_identity_within_range() {
        assert_eq!(vid(0), 0);
        assert_eq!(vid(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 vertex space")]
    fn vid_panics_on_overflow() {
        let _ = vid(u32::MAX as usize + 1);
    }
}
