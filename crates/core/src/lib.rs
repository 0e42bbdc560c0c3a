//! # rfc-net — Random Folded Clos networks for datacenter design
//!
//! A full reproduction of *"Random Folded Clos Topologies for Datacenter
//! Networks"* (Camarero, Martínez, Beivide — HPCA 2017): the RFC topology
//! family, every baseline it is compared against (commodity fat-trees,
//! k-ary l-trees, orthogonal fat-trees, random regular networks), the
//! up/down routing theory of Theorem 4.2, a cycle-level network
//! simulator, and drivers regenerating every table and figure of the
//! paper's evaluation.
//!
//! This crate is the facade: it re-exports the workspace's building
//! blocks and adds the paper-level analyses.
//!
//! * [`topology`] (re-export of `rfc-topology`) — build networks:
//!   [`FoldedClos::random`] is the paper's proposal.
//! * [`routing`] (re-export of `rfc-routing`) — [`UpDownRouting`]:
//!   deadlock-free ECMP routing and the common-ancestor check.
//! * [`sim`] (re-export of `rfc-sim`) — the INSEE-style simulator.
//! * [`theory`] — Theorem 4.2 thresholds, scalability and bisection
//!   formulas.
//! * [`cost`] — switch/wire/port accounting and the Section 5 case
//!   studies.
//! * [`scenarios`] — the 11K/100K/200K simulation scenarios at three
//!   scales.
//! * [`experiments`] — one driver per table/figure.
//! * [`parallel`] — the scoped worker pool the drivers fan out on
//!   (`RFC_THREADS` / `rfcgen --threads`), with deterministic per-job
//!   seeding.
//!
//! # Quick start
//!
//! Build a random folded Clos at the Theorem 4.2 threshold, check
//! up/down routing, and simulate uniform traffic:
//!
//! ```
//! use rand::SeedableRng;
//! use rfc_net::routing::UpDownRouting;
//! use rfc_net::sim::{SimConfig, SimNetwork, Simulation, TrafficPattern};
//! use rfc_net::topology::FoldedClos;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let n1 = rfc_net::theory::max_leaves_at_threshold(8, 3).unwrap();
//! let net = rfc_net::scenarios::rfc_with_updown(8, n1, 3, 50, &mut rng)?;
//! let routing = UpDownRouting::new(&net);
//! assert!(routing.has_updown_property());
//!
//! let sim_net = SimNetwork::from_folded_clos(&net);
//! let sim = Simulation::new(&sim_net, &routing, SimConfig::quick());
//! let result = sim.run(TrafficPattern::Uniform, 0.3, 7);
//! assert!(result.accepted_load > 0.2);
//! # Ok::<(), rfc_net::topology::TopologyError>(())
//! ```

pub mod cost;
pub mod experiments;
pub mod json;
pub mod report;
pub mod scenarios;
pub mod theory;

/// The graph substrate (re-export of `rfc-graph`).
pub use rfc_graph as graph;

/// Finite fields and projective planes (re-export of `rfc-galois`).
pub use rfc_galois as galois;

/// Topology constructions (re-export of `rfc-topology`).
pub use rfc_topology as topology;

/// Routing (re-export of `rfc-routing`).
pub use rfc_routing as routing;

/// The cycle-level simulator (re-export of `rfc-sim`).
pub use rfc_sim as sim;

/// The deterministic worker pool (re-export of `rfc-parallel`).
///
/// Lives in its own bottom-of-the-stack crate so `rfc-routing` and
/// `rfc-sim` can parallelize their table builds with the same pool the
/// experiment drivers use; re-exported here to keep the historical
/// `rfc_net::parallel` path working.
pub use rfc_parallel as parallel;

pub use rfc_routing::UpDownRouting;
pub use rfc_topology::{FoldedClos, Network, Rrn};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let net = crate::FoldedClos::random(8, 16, 2, &mut rng).unwrap();
        let routing = crate::UpDownRouting::new(&net);
        let _ = routing.has_updown_property();
        assert_eq!(crate::theory::cft_terminals(8, 2), 32);
    }
}
