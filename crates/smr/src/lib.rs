//! # mp-smr — Safe Memory Reclamation with Bounded Wasted Memory
//!
//! This crate implements **margin pointers (MP)**, the safe-memory-reclamation
//! (SMR) scheme of Solomon & Morrison (PPoPP 2021), together with the baseline
//! schemes the paper evaluates against: hazard pointers (HP), epoch-based
//! reclamation (EBR), hazard eras (HE), interval-based reclamation (IBR),
//! drop-the-anchor (DTA), and a leaky no-op reclaimer.
//!
//! ## The SMR problem
//!
//! In a nonblocking data structure a removed node cannot be freed immediately:
//! other threads may still hold local references to it. An SMR scheme buffers
//! *retired* nodes and frees each one only once no thread can access it. The
//! number of retired-but-unreclaimed nodes is *wasted memory*; MP is the first
//! self-contained nonblocking scheme that both keeps run-time overhead low and
//! guarantees a *predetermined* bound on wasted memory (independent of thread
//! scheduling), by protecting *logical key intervals* instead of physical
//! node addresses.
//!
//! ## Interface
//!
//! All schemes implement the [`Smr`] trait (shared state) and expose a
//! per-thread [`SmrHandle`] mirroring the paper's Listing 1 API:
//! `start_op` / `end_op`, `read`, `alloc`, `retire`, `unprotect`, plus MP's
//! optional `update_lower_bound` / `update_upper_bound` extension. Client
//! data structures are generic over `S: Smr`, so any scheme plugs into any
//! structure unchanged — MP degrades to plain HP when the extension calls
//! are omitted.
//!
//! ```
//! use mp_smr::{Config, Smr, SmrHandle, schemes::Mp};
//!
//! let smr = Mp::new(Config::default().with_max_threads(4));
//! let mut h = smr.register();
//! let mut op = h.pin(); // RAII: start_op now, end_op on drop
//! let node = op.alloc_with_index(42u64, 7 << 16);
//! // ... link `node` into a structure, later unlink it ...
//! unsafe { op.retire(node) };
//! drop(op);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod any;
pub mod api;
pub mod builder;
pub mod error;
#[cfg(feature = "hb-oracle")]
pub mod hb;
pub mod node;
#[cfg(feature = "oracle")]
pub mod oracle;
pub mod packed;
pub mod registry;
pub mod schemes;
pub mod telemetry;

pub use any::{AnyHandle, AnySmr, SchemeKind};
pub use api::{Config, ConfigError, OpGuard, Smr, SmrHandle};
pub use builder::SmrBuilder;
pub use error::SmrError;
pub use node::{gauge, SmrNode};
pub use packed::{Atomic, Shared};
pub use telemetry::{
    Counter, FenceSite, HandleTelemetry, SchemeTelemetry, Telemetry, TelemetrySnapshot,
};
