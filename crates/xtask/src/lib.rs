//! In-tree static analysis for the rfc-net workspace (`cargo xtask lint`).
//!
//! The workspace's core guarantee — byte-identical experiment output at
//! any thread count, for any seed — rests on invariants that clippy
//! cannot express. `cargo xtask lint` machine-checks them in one pass
//! ([`workspace::run_lint`]): it reads and scans each non-test file
//! once and runs every check below on the same lines.
//!
//! * **Determinism rules** ([`rules`]) — in the seed-deterministic
//!   crates (`graph`, `galois`, `parallel`, `topology`, `routing`,
//!   `sim`, `core`) non-test code may not touch `HashMap`/`HashSet`
//!   (iteration order), `Instant::now`/`SystemTime::now` (wall-clock),
//!   or ambient RNG sources. Escape hatch:
//!   `// xtask: allow(<rule>) — <reason>`.
//! * **Lint gates** ([`workspace`]) — every crate keeps the standard
//!   `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]` header and
//!   inherits `[workspace.lints]`; every `expect` carries a message.
//! * **Layering** ([`layers`]) — the inter-crate dependency DAG must
//!   match the committed `xtask-layers.toml`; upward edges and
//!   undeclared crates fail closed (DESIGN.md §12).
//! * **Atomic orderings and lockstep regions** ([`conc`]) — every
//!   atomic operation outside `crates/compat` spells its `Ordering::`
//!   at the call site, `Ordering::Relaxed` is legal only at sites
//!   enumerated in the committed `xtask-conc.toml` allowlist (which may
//!   not drift from the tree), and `lockstep-begin` / `lockstep-end`
//!   markers ban locks, channels, sleeps, blocking I/O, and `SeqCst`
//!   from the per-cycle shard path (DESIGN.md §14).
//! * **Ratchets** ([`ratchet`]) — one `section → key → count` table in
//!   `xtask-ratchet.toml`. Per crate: the panic surface (`.unwrap()` /
//!   `.expect(` / panic macros), the potentially-lossy `as` casts
//!   ([`casts`]) and the lock-type / atomic-type sync primitives.
//!   Every count may only decrease.
//!
//! No check scans for `unsafe`: the lint gates make the compiler reject
//! it in every crate.
//!
//! Everything is plain lexical analysis over the source tree (no `syn`,
//! no registry dependencies), so the tool builds in the same hermetic
//! environment as the rest of the workspace. See DESIGN.md §9 for the
//! workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod casts;
pub mod conc;
pub mod layers;
pub mod ratchet;
pub mod rules;
pub mod scan;
pub mod workspace;

pub use workspace::{run_lint, LintReport};
