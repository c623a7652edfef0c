//! Runtime scheme selection: [`SchemeKind`], [`AnySmr`], [`AnyHandle`].
//!
//! The seven schemes are distinct types, which is right for benchmarks
//! (static dispatch, no accidental cross-scheme state) but wrong for
//! operators: a binary that takes the scheme's name on its command line
//! had to carry a hand-written match in every driver. `AnySmr` is that match,
//! written once — an enum-dispatched facade implementing [`Smr`] whose
//! handles ([`AnyHandle`]) implement [`SmrHandle`], so every generic client
//! (data structures, the bench driver, the examples) runs unchanged over a
//! scheme chosen at runtime:
//!
//! ```
//! use mp_smr::{AnySmr, Config, SchemeKind, Smr, SmrHandle};
//!
//! let smr = AnySmr::try_with_kind(SchemeKind::Ebr, Config::default()).unwrap();
//! assert_eq!(smr.scheme_name(), "EBR");
//! let mut h = smr.try_register().unwrap();
//! let mut op = h.pin();
//! let node = op.alloc(42u32);
//! unsafe { op.retire(node) };
//! ```
//!
//! A name parses through `FromStr` (`mp`, `hp`, `ebr`, `he`, `ibr`, `dta`,
//! `leaky`, case-insensitive; anything else is an error naming the
//! choices). The library reads no environment variable: when no kind is
//! given ([`AnySmr::try_new`], [`SmrBuilder::try_build_any`] without
//! [`scheme`](crate::builder::SmrBuilder::scheme)), the scheme is MP.
//!
//! The cost is one enum discriminant branch per handle call — noise next
//! to the fences the calls themselves issue. Benchmarks that measure those
//! fences should keep instantiating concrete scheme types.
//!
//! [`SmrBuilder::try_build_any`]: crate::builder::SmrBuilder::try_build_any

use std::sync::Arc;

use crate::api::{Config, Smr, SmrHandle};
use crate::error::SmrError;
use crate::packed::{Atomic, Shared};
use crate::schemes::{Dta, Ebr, He, Hp, Ibr, Leaky, Mp};
use crate::schemes::{DtaHandle, EbrHandle, HeHandle, HpHandle, IbrHandle, LeakyHandle, MpHandle};
use crate::telemetry::{SchemeTelemetry, Telemetry, TelemetrySnapshot};

/// The scheme table: one row per scheme — enum variant, scheme type, handle
/// type, display name (identical to the scheme's [`Smr::name`]) and
/// parsed spelling. Generates [`SchemeKind`] with its `ALL`, `name`
/// and `FromStr`, [`AnySmr`] and [`AnyHandle`] with their constructors and
/// `kind()`s, and the `delegate!` match the trait impls below forward
/// through. Adding a scheme is adding a row.
macro_rules! scheme_table {
    (
        $d:tt
        $(($variant:ident, $scheme:ident, $handle:ident, $name:literal, $env:literal)),+ $(,)?
    ) => {
        /// Names one of the reclamation schemes, for runtime selection.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum SchemeKind {
            $(#[doc = concat!("Selects [`", stringify!($scheme), "`].")] $variant,)+
        }

        impl SchemeKind {
            /// Every selectable scheme, in the benchmark harness's canonical order.
            pub const ALL: [SchemeKind; [$($env),+].len()] = [$(SchemeKind::$variant),+];

            /// The scheme's display name, identical to its [`Smr::name`].
            pub fn name(self) -> &'static str {
                match self {
                    $(SchemeKind::$variant => $name,)+
                }
            }
        }

        impl std::str::FromStr for SchemeKind {
            type Err = String;

            fn from_str(s: &str) -> Result<SchemeKind, String> {
                $(if s.eq_ignore_ascii_case($env) {
                    return Ok(SchemeKind::$variant);
                })+
                Err(format!(
                    "unknown scheme {:?} (expected one of: {})",
                    s.to_ascii_lowercase(),
                    [$($env),+].join(", ")
                ))
            }
        }

        /// Runtime-selected SMR scheme (see module docs).
        pub enum AnySmr {
            $(#[doc = concat!("A wrapped [`", stringify!($scheme), "`] instance.")]
            $variant(Arc<$scheme>),)+
        }

        /// Per-thread handle for [`AnySmr`].
        pub enum AnyHandle {
            $(#[doc = concat!("A wrapped [`", stringify!($scheme), "`] handle.")]
            $variant($handle),)+
        }

        /// One `match` covering every variant of [`AnySmr`] or
        /// [`AnyHandle`], binding the inner value as `$inner` for `$body`.
        macro_rules! delegate {
            ($d enum_:ident, $d on:expr, $d inner:ident => $d body:expr) => {
                match $d on {
                    $($d enum_::$variant($d inner) => $d body,)+
                }
            };
        }

        impl AnySmr {
            /// Constructs the named scheme behind the facade.
            pub fn try_with_kind(kind: SchemeKind, cfg: Config) -> Result<Arc<AnySmr>, SmrError> {
                Ok(Arc::new(match kind {
                    $(SchemeKind::$variant => AnySmr::$variant($scheme::try_new(cfg)?),)+
                }))
            }

            /// Which scheme this facade wraps.
            pub fn kind(&self) -> SchemeKind {
                match self {
                    $(AnySmr::$variant(_) => SchemeKind::$variant,)+
                }
            }

            fn try_register_any(&self) -> Result<AnyHandle, SmrError> {
                Ok(match self {
                    $(AnySmr::$variant(s) => AnyHandle::$variant(s.try_register()?),)+
                })
            }
        }

        impl AnyHandle {
            /// Which scheme this handle belongs to.
            pub fn kind(&self) -> SchemeKind {
                match self {
                    $(AnyHandle::$variant(_) => SchemeKind::$variant,)+
                }
            }
        }
    };
}

scheme_table! { $
    (Mp, Mp, MpHandle, "MP", "mp"),
    (Hp, Hp, HpHandle, "HP", "hp"),
    (Ebr, Ebr, EbrHandle, "EBR", "ebr"),
    (He, He, HeHandle, "HE", "he"),
    (Ibr, Ibr, IbrHandle, "IBR", "ibr"),
    (Dta, Dta, DtaHandle, "DTA", "dta"),
    (Leaky, Leaky, LeakyHandle, "Leaky", "leaky"),
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl AnySmr {
    /// The wrapped scheme's display name ("MP", "HP", …) — unlike
    /// [`Smr::name`], which is static and answers `"ANY"` for this type.
    pub fn scheme_name(&self) -> &'static str {
        self.kind().name()
    }
}

impl Smr for AnySmr {
    type Handle = AnyHandle;

    /// Constructs MP behind the facade; [`AnySmr::try_with_kind`] picks
    /// another scheme.
    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError> {
        AnySmr::try_with_kind(SchemeKind::Mp, cfg)
    }

    fn try_register(self: &Arc<Self>) -> Result<AnyHandle, SmrError> {
        self.try_register_any()
    }

    fn name() -> &'static str {
        "ANY"
    }

    fn telemetry(&self) -> &SchemeTelemetry {
        delegate!(AnySmr, self, s => s.telemetry())
    }
}

impl Telemetry for AnyHandle {
    fn tele(&self) -> &TelemetrySnapshot {
        delegate!(AnyHandle, self, h => h.tele())
    }

    fn tele_mut(&mut self) -> &mut TelemetrySnapshot {
        delegate!(AnyHandle, self, h => h.tele_mut())
    }
}

impl SmrHandle for AnyHandle {
    fn start_op(&mut self) {
        delegate!(AnyHandle, self, h => h.start_op())
    }

    fn end_op(&mut self) {
        delegate!(AnyHandle, self, h => h.end_op())
    }

    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, refno: usize) -> Shared<T> {
        delegate!(AnyHandle, self, h => h.read(src, refno))
    }

    fn unprotect(&mut self, refno: usize) {
        delegate!(AnyHandle, self, h => h.unprotect(refno))
    }

    fn alloc_with_tail<T: Send + Sync>(
        &mut self,
        data: T,
        index: Option<u32>,
        tail_len: usize,
    ) -> Shared<T> {
        delegate!(AnyHandle, self, h => h.alloc_with_tail(data, index, tail_len))
    }

    // SAFETY: [INV-11] trait contract forwarded verbatim to the wrapped
    // handle; this facade adds no aliasing of its own.
    unsafe fn retire<T: Send + Sync>(&mut self, node: Shared<T>) {
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        delegate!(AnyHandle, self, h => unsafe { h.retire(node) })
    }

    fn update_lower_bound<T: Send + Sync>(&mut self, node: Shared<T>) {
        delegate!(AnyHandle, self, h => h.update_lower_bound(node))
    }

    fn update_upper_bound<T: Send + Sync>(&mut self, node: Shared<T>) {
        delegate!(AnyHandle, self, h => h.update_upper_bound(node))
    }

    fn retired_len(&self) -> usize {
        delegate!(AnyHandle, self, h => h.retired_len())
    }

    fn force_empty(&mut self) {
        delegate!(AnyHandle, self, h => h.force_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parses_all_names_case_insensitively() {
        for kind in SchemeKind::ALL {
            assert_eq!(kind.name().parse::<SchemeKind>().unwrap(), kind);
            assert_eq!(kind.name().to_ascii_lowercase().parse::<SchemeKind>().unwrap(), kind);
        }
        assert!("btrfs".parse::<SchemeKind>().is_err());
    }

    #[test]
    fn facade_runs_the_full_handle_protocol_per_scheme() {
        for kind in SchemeKind::ALL {
            let cfg = Config { max_threads: 2, ..Config::default() };
            let smr = AnySmr::try_with_kind(kind, cfg).unwrap();
            assert_eq!(smr.kind(), kind);
            assert_eq!(smr.scheme_name(), kind.name());
            let mut h = smr.try_register().unwrap();
            assert_eq!(h.kind(), kind);
            let mut op = h.pin();
            let node = op.alloc(7u64);
            let cell = Atomic::new(node);
            let r = op.read(&cell, 0);
            // SAFETY: [INV-12] protected by the read above within this op.
            assert_eq!(unsafe { *r.deref().data() }, 7);
            cell.store(Shared::null(), core::sync::atomic::Ordering::Release);
            // SAFETY: [INV-12] unlinked above, retired once.
            unsafe { op.retire(node) };
            drop(op);
            h.force_empty();
            drop(h);
        }
    }

    #[test]
    fn registry_exhaustion_surfaces_through_the_facade() {
        let cfg = Config { max_threads: 1, ..Config::default() };
        let smr = AnySmr::try_with_kind(SchemeKind::Hp, cfg).unwrap();
        let h = smr.try_register().unwrap();
        match smr.try_register() {
            Err(SmrError::RegistryExhausted { max_threads }) => assert_eq!(max_threads, 1),
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("expected RegistryExhausted"),
        }
        drop(h);
        assert!(smr.try_register().is_ok(), "slot recycles after handle drop");
    }
}
