//! # mp-util — zero-dependency support utilities
//!
//! The hermetic-build substrate of the workspace: everything the SMR
//! library, data structures, benchmarks, and tests previously pulled from
//! crates.io (`rand`, `crossbeam-utils`, `proptest`) reimplemented in-tree
//! so the whole workspace builds and tests with `cargo build --offline` —
//! in the spirit of the paper's pitch that the reclamation scheme is
//! *self-contained* and droppable into any runtime.
//!
//! Scope is deliberately narrow (see DESIGN.md): only what this workspace
//! uses, no feature flags, no platform probing beyond cache-line size.
//!
//! * [`rng`](mod@rng) / [`SmallRng`] / [`RngExt`] — a deterministic
//!   SplitMix64-seeded xoshiro256++ PRNG. **Non-cryptographic; for
//!   benchmark workloads and tests only.**
//! * [`CachePadded`] — cache-line alignment to stop false sharing.
//! * [`Backoff`] — exponential spin backoff for contended retry loops.
//! * [`check`] — a seeded, shrinking property-test runner whose failures
//!   replay from a printed seed.
//! * [`hist`] / [`Histogram`] — a 64-bucket power-of-two latency
//!   histogram, mergeable and allocation-free.
//! * [`pool`] — slab-backed block pool (8-byte size classes carved from
//!   64 KiB chunks, per-thread magazines, chunk-level recycling) serving
//!   SMR node memory.
//! * [`shadow`] — a sharded shadow table (key → state record with atomic
//!   transitions), the substrate of `mp-smr`'s reclamation oracle.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backoff;
pub mod cache_padded;
pub mod check;
pub mod hist;
pub mod pool;
pub mod rng;
pub mod shadow;

pub use backoff::Backoff;
pub use cache_padded::CachePadded;
pub use check::Checker;
pub use hist::Histogram;
pub use shadow::{ShadowSlot, ShadowTable};
pub use rng::{rng, RngCore, RngExt, SeedableRng, SmallRng, SplitMix64, UniformInt, Xoshiro256pp};
