//! The SMR schemes evaluated in the paper.
//!
//! | Scheme | Paper §| Wasted memory | Protection granularity |
//! |--------|--------|---------------|------------------------|
//! | [`Mp`] | §4 | **Predetermined bound** | logical key intervals (margins) |
//! | [`Hp`] | §3.1 | Predetermined bound | physical node per dereference |
//! | [`Ebr`] | §3.2 | Unbounded (not robust) | whole operations |
//! | [`He`] | §3.3 | Robust, unbounded | era per dereference |
//! | [`Ibr`] | §3.3 | Robust, unbounded | epoch interval per operation |
//! | [`Dta`] | §3.1 | Robust† | anchor every k hops (lists only) |
//! | [`Leaky`] | — | Everything | none (never reclaims) |
//!
//! † frozen-node memory can grow arbitrarily; see §3.1.
//!
//! A scheme file holds what is the scheme's own: its announcement arrays
//! and handle-local mirrors, `start_op`/`end_op`/`read`/`unprotect`, the
//! stamps it gives nodes, and a `Protection` — a snapshot of the
//! announcements plus the predicate "may this retired node still be
//! referenced?". Registration, allocation accounting, the retire → scan →
//! free pipeline, orphan adoption and drain-on-drop exist once, in the
//! crate-private `core` module; `common` holds the pieces several schemes
//! share (scan trigger, epoch clock, pending gauge).

pub(crate) mod common;
pub(crate) mod core;

mod dta;
mod ebr;
mod he;
mod hp;
mod ibr;
mod leaky;
mod mp;

pub use dta::{Dta, DtaHandle, Freezer};
pub use ebr::{Ebr, EbrHandle};
pub use he::{He, HeHandle};
pub use hp::{Hp, HpHandle};
pub use ibr::{Ibr, IbrHandle};
pub use leaky::{Leaky, LeakyHandle};
pub use mp::{Mp, MpHandle};
