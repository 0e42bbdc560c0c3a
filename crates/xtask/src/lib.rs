//! In-tree static analysis for the rfc-net workspace (`cargo xtask lint`).
//!
//! The workspace's core guarantee — byte-identical experiment output at
//! any thread count, for any seed — rests on invariants that clippy
//! cannot express. This crate machine-checks them on every run:
//!
//! * **Determinism rules** ([`rules`]) — in the seed-deterministic
//!   crates (`graph`, `galois`, `topology`, `routing`, `sim`, `core`)
//!   non-test code may not touch `HashMap`/`HashSet` (iteration order),
//!   `Instant::now`/`SystemTime::now` (wall-clock), or ambient RNG
//!   sources. Escape hatch: `// xtask: allow(<rule>) — <reason>`.
//! * **Panic-surface ratchet** ([`ratchet`]) — `.unwrap()` / `.expect(` /
//!   panic-macro counts per crate may only decrease relative to the
//!   committed `xtask-ratchet.toml`, and every `expect` must carry a
//!   message.
//! * **Lint gates** ([`workspace`]) — every crate keeps the standard
//!   `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]` header and
//!   inherits `[workspace.lints]`.
//!
//! `cargo xtask audit` adds two workspace-level passes on the same
//! walker (DESIGN.md §12):
//!
//! * **Layering** ([`layers`]) — the inter-crate dependency DAG must
//!   match the committed `xtask-layers.toml`; upward edges and
//!   undeclared crates fail closed.
//! * **Numeric-cast ratchet** ([`casts`]) — per-crate potentially-lossy
//!   `as` cast counts may only decrease (`lossy-cast` keys in
//!   `xtask-ratchet.toml`).
//!
//! No pass scans for `unsafe`: the lint gates make the compiler reject
//! it in every crate.
//!
//! `cargo xtask conc` adds the concurrency-soundness passes over the
//! sharded execution substrate (DESIGN.md §14; all three commands run
//! together with `cargo xtask lint --all`):
//!
//! * **Atomic orderings** ([`conc`]) — every atomic operation outside
//!   `crates/compat` spells its `Ordering::` at the call site, and
//!   `Ordering::Relaxed` is legal only at sites enumerated in the
//!   committed `xtask-conc.toml` allowlist (which may not drift from
//!   the tree).
//! * **Lockstep regions** ([`conc`]) — `lockstep-begin` / `lockstep-end`
//!   raw-comment markers ban locks, channels, sleeps, blocking I/O,
//!   and `SeqCst` from the per-cycle shard path.
//! * **Sync-primitive ratchet** ([`conc`]) — per-crate lock-type and
//!   atomic-type counts may only decrease (`sync-lock` / `sync-atomic`
//!   keys in `xtask-ratchet.toml`).
//!
//! Everything is plain lexical analysis over the source tree (no `syn`,
//! no registry dependencies), so the tool builds in the same hermetic
//! environment as the rest of the workspace. See DESIGN.md §9 for the
//! lint workflow and §12 for the audit passes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod casts;
pub mod conc;
pub mod layers;
pub mod ratchet;
pub mod rules;
pub mod scan;
pub mod workspace;

pub use audit::{run_audit, AuditReport};
pub use conc::{run_conc, ConcReport};
pub use workspace::{run_lint, LintReport};
