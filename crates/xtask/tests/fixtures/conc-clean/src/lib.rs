//! Fixture root package: empty body; only the header block matters.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
