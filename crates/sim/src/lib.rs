//! Cycle-level interconnection network simulator.
//!
//! A from-scratch substitute for INSEE (the simulator used in the paper's
//! Section 6) implementing exactly the Table 2 configuration:
//!
//! * virtual cut-through flow control with per-packet credits,
//! * 4 virtual channels per input port, buffers of 4 packets,
//! * 16-phit packets, 1-cycle link latency,
//! * random arbitration (one iteration per cycle),
//! * "up/down random" request mode: each head packet asks for one
//!   uniformly random candidate among its equal-cost next hops per cycle,
//! * 10,000 measured cycles after a warmup.
//!
//! Packets route over folded Clos networks by up/down routing
//! ([`rfc_routing::UpDownRouting`]), the simulator's only router. On a
//! fixed table every route climbs and then descends (Valiant routing
//! chains two such routes on disjoint virtual-channel classes), so no
//! cyclic buffer dependency can form and the flow-controlled engine is
//! deadlock-free. Under churn a descending packet can climb again after
//! a table repair (24 of 289,927 hops in the `rfc-churn` benchmark
//! setting), and deadlock freedom there is unproven.
//!
//! The simulator is packet-granular: a packet reserves a whole-packet
//! buffer slot downstream before advancing (virtual cut-through) and each
//! traversed output port is busy for `packet_length` cycles (the
//! serialization bandwidth constraint), while the header advances one hop
//! per cycle — so unloaded latency is `hops + packet_length` and link
//! bandwidth is honored.
//!
//! Beyond the paper's configuration the engine offers (all off/zero by
//! default): a per-hop router pipeline delay
//! ([`SimConfig::router_latency`]), Valiant randomized routing
//! ([`SimConfig::valiant_routing`]), hash-based ECMP
//! ([`RequestMode::UpDownHash`]), extra adversarial traffic patterns
//! and latency percentiles.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use rfc_routing::UpDownRouting;
//! use rfc_sim::{SimConfig, Simulation, SimNetwork, TrafficPattern};
//! use rfc_topology::FoldedClos;
//!
//! let net = FoldedClos::cft(4, 2)?;
//! let routing = UpDownRouting::new(&net);
//! let sim_net = SimNetwork::from_folded_clos(&net);
//! let mut config = SimConfig::paper_defaults();
//! config.warmup_cycles = 200;
//! config.measure_cycles = 1_000;
//! let result = Simulation::new(&sim_net, &routing, config)
//!     .run(TrafficPattern::Uniform, 0.2, 7);
//! assert!(result.accepted_load > 0.15, "uniform 0.2 load is below saturation");
//! # Ok::<(), rfc_topology::TopologyError>(())
//! ```

mod candidates;
mod churn;
mod config;
mod engine;
mod network;
mod shard;
mod stats;
mod traffic;

pub use churn::{ChurnResult, FaultSchedule};
pub use config::{RequestMode, SimConfig};
pub use engine::{RunScratch, Simulation};
pub use network::SimNetwork;
pub use stats::SimResult;
pub use traffic::TrafficPattern;
