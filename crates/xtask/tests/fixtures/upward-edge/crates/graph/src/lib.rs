//! Fixture crate: empty body; only the manifest matters.
