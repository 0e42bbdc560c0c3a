//! Workspace-level umbrella for the RFC reproduction.
//!
//! This crate exists to host the repository-level integration tests
//! (`tests/`) and runnable examples (`examples/`); all functionality
//! lives in [`rfc_net`] and the crates it re-exports.

pub use rfc_net;
