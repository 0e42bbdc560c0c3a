//! Routing for the topologies of the RFC paper.
//!
//! * [`UpDownRouting`] — the deadlock-free equal-cost multi-path up/down
//!   routing of folded Clos networks (Section 4.1): per-switch bitsets of
//!   leaves reachable *downward* and *up-then-down* drive both the
//!   common-ancestor existence check of Theorem 4.2 and the ECMP next-hop
//!   queries used by the simulator, its only router.
//! * [`ksp`] — Yen's k-shortest paths, the routing the Jellyfish paper
//!   requires (used here for path-diversity analysis).
//! * [`fault`] — how many random link failures up/down routing survives
//!   (the paper's Figure 11).
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use rfc_routing::UpDownRouting;
//! use rfc_topology::FoldedClos;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let net = FoldedClos::random(8, 16, 3, &mut rng)?;
//! let routing = UpDownRouting::new(&net);
//! if routing.has_updown_property() {
//!     // ECMP candidates out of leaf 0 toward leaf 9:
//!     let hops = routing.next_hops(0, 9);
//!     assert!(!hops.is_empty());
//! }
//! # Ok::<(), rfc_topology::TopologyError>(())
//! ```

pub mod fault;
pub mod ksp;
mod updown;

pub use updown::{RepairScope, UpDownRouting};
