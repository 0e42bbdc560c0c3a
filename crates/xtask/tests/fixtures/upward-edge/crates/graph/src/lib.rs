//! Fixture crate: empty body; only the manifest matters.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
