//! In-tree static analysis for the rfc-net workspace (`cargo xtask lint`).
//!
//! The workspace's core guarantee — byte-identical experiment output at
//! any thread count, for any seed — rests on invariants split between
//! two tools. Clippy, configured by `[workspace.lints]` in `Cargo.toml`
//! and by `clippy.toml`, is type-aware and enforces the determinism
//! bans (hash collections, wall-clock reads, ambient entropy), the panic
//! surface and lossy casts; every surviving site carries a reasoned
//! `#[expect(..., reason = "...")]` (DESIGN.md §9). `cargo xtask lint`
//! machine-checks what clippy cannot, in one pass
//! ([`workspace::run_lint`]) that reads and scans each non-test file
//! once and runs every check below on the same lines.
//!
//! * **Lint inheritance** ([`workspace`]) — every crate manifest
//!   inherits `[workspace.lints]`, so clippy's rules and the
//!   `unsafe_code` ban reach every crate.
//! * **The `#[expect]` ledger** ([`rules`]) — the ratchets below count
//!   the `#[expect]` attributes of the panic and cast lints, and an
//!   attribute that covers a whole crate or module fails. Every
//!   `.expect(` carries a message, and marked hot loops do not allocate.
//! * **Layering** ([`layers`]) — the inter-crate dependency DAG must
//!   match the committed `xtask-layers.toml`; upward edges and
//!   undeclared crates fail closed (DESIGN.md §12).
//! * **Atomic orderings and lockstep regions** ([`conc`]) — every
//!   atomic operation outside `crates/compat` spells its `Ordering::`
//!   at the call site, `Ordering::Relaxed` is legal only under a
//!   reasoned `// xtask: allow(relaxed-ordering) — <reason>` (and such
//!   an allow must cover a `Relaxed`), and `lockstep-begin` /
//!   `lockstep-end` markers ban locks, channels, sleeps, blocking I/O,
//!   and `SeqCst` from the per-cycle shard path (DESIGN.md §14).
//! * **Ratchets** ([`ratchet`]) — one `section → key → count` table in
//!   `xtask-ratchet.toml`. Per crate: the `#[expect]` counts of the
//!   panic surface and of lossy casts, and the lock-type / atomic-type
//!   sync primitives. Every count may only decrease.
//!
//! Everything is plain lexical analysis over the source tree (no `syn`,
//! no registry dependencies), so the tool builds in the same hermetic
//! environment as the rest of the workspace. The committed TOML files
//! and the manifests are all read by one line reader (`toml.rs`), and
//! a missing or malformed committed file fails closed at its line.

pub mod conc;
pub mod layers;
pub mod ratchet;
pub mod rules;
pub mod scan;
mod toml;
pub mod workspace;

pub use workspace::{run_lint, LintReport};
