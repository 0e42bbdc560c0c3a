//! Folded Clos topologies for datacenter networks.
//!
//! This crate implements every topology compared in the paper:
//!
//! * [`FoldedClos`] — the common multi-level indirect network structure
//!   (Definition 3.1), with constructors for:
//!   * the **commodity fat-tree** ([`FoldedClos::cft`], the R-port l-tree
//!     of Al-Fares et al. — Definition 3.2 with arities R/2, …, R/2, R),
//!   * the **k-ary l-tree** ([`FoldedClos::kary_tree`], Petrini–Vanneschi),
//!   * the **orthogonal fat-tree** ([`FoldedClos::oft`], Valerio et al.,
//!     built from the projective plane PG(2, q)),
//!   * the **random folded Clos** ([`FoldedClos::random`], the paper's
//!     contribution — Definition 4.1 restricted to radix-regular networks,
//!     with every stage an independent uniform random semiregular bipartite
//!     graph).
//! * [`Rrn`] — the random regular network (Jellyfish) direct-topology
//!   baseline.
//! * [`expansion`] — incremental (strong) expansion of RFCs and RRNs with
//!   rewiring accounting (Section 5).
//! * [`Network`] — the trait unifying direct and indirect networks for the
//!   resiliency and cost studies.
//!
//! # Examples
//!
//! Build the paper's first simulation scenario: a 3-level CFT of radix 36
//! (11,664 compute nodes, 648 leaf switches) and an RFC with equal
//! resources:
//!
//! ```
//! use rand::SeedableRng;
//! use rfc_topology::{FoldedClos, Network};
//!
//! let cft = FoldedClos::cft(36, 3)?;
//! assert_eq!(cft.num_terminals(), 11_664);
//! assert_eq!(cft.level_size(0), 648);
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0xC105);
//! let rfc = FoldedClos::random(36, 648, 3, &mut rng)?;
//! assert_eq!(rfc.num_terminals(), 11_664);
//! assert_eq!(rfc.num_switches(), cft.num_switches());
//! # Ok::<(), rfc_topology::TopologyError>(())
//! ```

mod cft;
mod error;
pub mod expansion;
mod folded_clos;
mod live;
mod network;
mod oft;
mod rfc;
mod rrn;
mod xgft;

pub use error::TopologyError;
pub use folded_clos::{CloKind, FoldedClos, Link};
pub use live::{LinkEvent, LinkEventKind, LiveClos};
pub use network::Network;
pub use rrn::Rrn;
