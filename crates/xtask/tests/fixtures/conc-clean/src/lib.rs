//! Fixture root package: empty body.
