//! # margin-pointers — meta-crate
//!
//! Re-exports the SMR schemes (`mp-smr`) and the client data structures
//! (`mp-ds`) under one roof; hosts the cross-crate integration tests,
//! which run with the reclamation oracle armed. The runnable examples
//! live in `mp-bench` (`crates/bench/examples/`), so they build unarmed.

pub use mp_ds as ds;
pub use mp_smr as smr;

/// README.md's Rust snippets, compiled by `cargo test` as doctests so the
/// README cannot name an API that no longer exists.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
