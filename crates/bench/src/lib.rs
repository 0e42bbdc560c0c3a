//! The engine performance baseline behind `BENCH_sim.json`.
//!
//! This crate holds one binary, `engine_baseline` (see its module docs
//! for usage): the CI determinism and throughput gate, whose per-scale
//! routing footprint feeds the routing-bytes ratchet. Paper experiments
//! run through `rfcgen repro --only <name>`; per-layer timings come from
//! the `rfcbench` benchmark at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
