//! `rfcbench` — end-to-end and per-layer benchmark of the rfc-net
//! reproduction.
//!
//! Four workloads ([`suite::Workload`]) stress different layers:
//! engine stepping on a saturated RFC, memory and set-up on the
//! 209,952-terminal CFT, routing repair under link churn, and the
//! `rfcgen repro` job at small scale. Each run is a closed loop of jobs
//! for a fixed time; every call into a layer is timed from outside the
//! library, optionally kept as a trace span ([`trace`]), and every
//! simulated output is checked against committed goldens ([`golden`]).
//! See README.md for the metrics and how each relates to the others.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod cli;
pub mod clock;
pub mod compare;
pub mod golden;
pub mod probe;
pub mod stats;
pub mod suite;
pub mod trace;
