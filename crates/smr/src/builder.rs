//! One fluent constructor for every scheme: [`SmrBuilder`].
//!
//! Standing up a scheme takes a [`Config`] value and, for a scheme chosen
//! at run time, a [`SchemeKind`]. `SmrBuilder` folds them into one chain
//! that ends in the scheme's `new`:
//!
//! ```
//! use mp_smr::{schemes::Mp, SmrBuilder, Smr};
//!
//! let smr = SmrBuilder::new()
//!     .max_threads(8)
//!     .slots_per_thread(4)
//!     .margin(1 << 20)
//!     .build::<Mp>();
//! let _h = smr.register();
//! ```
//!
//! Latency timing is not a builder setting: it is one process-global
//! switch, [`telemetry::set_armed`](crate::telemetry::set_armed).

use std::sync::Arc;

use crate::any::{AnySmr, SchemeKind};
use crate::api::{Config, Smr};
use crate::error::SmrError;

/// Fluent builder over [`Config`] and the runtime scheme choice.
/// Construct with [`SmrBuilder::new`] (paper §6 defaults), chain setters,
/// finish with [`try_build`](SmrBuilder::try_build) for a statically chosen
/// scheme or [`try_build_any`](SmrBuilder::try_build_any) for one selected
/// at runtime via [`scheme`](SmrBuilder::scheme). A setter only stores its
/// value; [`Config::validate`] judges them all when the scheme is built, so
/// the `try_*` finishers return [`SmrError::Config`] and never panic on a
/// value.
#[derive(Debug, Clone, Default)]
pub struct SmrBuilder {
    cfg: Config,
    kind: Option<SchemeKind>,
}

impl SmrBuilder {
    /// A builder over the default [`Config`].
    pub fn new() -> SmrBuilder {
        SmrBuilder::default()
    }

    /// Sets [`Config::max_threads`].
    pub fn max_threads(mut self, n: usize) -> Self {
        self.cfg.max_threads = n;
        self
    }

    /// Sets [`Config::slots_per_thread`].
    pub fn slots_per_thread(mut self, n: usize) -> Self {
        self.cfg.slots_per_thread = n;
        self
    }

    /// Sets [`Config::empty_freq`].
    pub fn empty_freq(mut self, n: usize) -> Self {
        self.cfg.empty_freq = n;
        self
    }

    /// Sets [`Config::epoch_freq`].
    pub fn epoch_freq(mut self, n: usize) -> Self {
        self.cfg.epoch_freq = n;
        self
    }

    /// Sets [`Config::margin`].
    pub fn margin(mut self, margin: u32) -> Self {
        self.cfg.margin = margin;
        self
    }

    /// Sets [`Config::anchor_hops`].
    pub fn anchor_hops(mut self, k: usize) -> Self {
        self.cfg.anchor_hops = k;
        self
    }

    /// Sets [`Config::stall_patience`].
    pub fn stall_patience(mut self, n: usize) -> Self {
        self.cfg.stall_patience = n;
        self
    }

    /// Selects the scheme [`try_build_any`](SmrBuilder::try_build_any)
    /// constructs (MP when never called).
    pub fn scheme(mut self, kind: SchemeKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Constructs the scheme, reporting an invalid accumulated [`Config`]
    /// as [`SmrError::Config`].
    pub fn try_build<S: Smr>(self) -> Result<Arc<S>, SmrError> {
        S::try_new(self.cfg)
    }

    /// Constructs the scheme (which validates the accumulated [`Config`]).
    ///
    /// The panicking convenience over [`try_build`](SmrBuilder::try_build).
    pub fn build<S: Smr>(self) -> Arc<S> {
        match self.try_build() {
            Ok(smr) => smr,
            Err(e) => panic!("{e}"),
        }
    }

    /// Constructs the scheme selected at runtime behind the [`AnySmr`]
    /// facade: the kind set via [`scheme`](SmrBuilder::scheme) if any,
    /// else MP.
    pub fn try_build_any(self) -> Result<Arc<AnySmr>, SmrError> {
        AnySmr::try_with_kind(self.kind.unwrap_or(SchemeKind::Mp), self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ConfigError;
    use crate::schemes::{Ebr, Mp};
    use crate::SmrHandle;
    use crate::telemetry::{Counter, Telemetry};

    #[test]
    fn builder_accumulates_config_and_builds_any_scheme() {
        let b = SmrBuilder::new()
            .max_threads(3)
            .slots_per_thread(5)
            .empty_freq(11)
            .epoch_freq(22)
            .margin(1 << 18)
            .anchor_hops(33)
            .stall_patience(4);
        let want = Config {
            max_threads: 3,
            slots_per_thread: 5,
            empty_freq: 11,
            epoch_freq: 22,
            margin: 1 << 18,
            anchor_hops: 33,
            stall_patience: 4,
        };
        assert_eq!(b.cfg, want);

        let mp = b.clone().build::<Mp>();
        let mut h = mp.register();
        let op = h.pin();
        assert_eq!(op.counter(Counter::Ops), 1);
        drop(op);

        let ebr = b.build::<Ebr>();
        let _h = ebr.register();
    }

    #[test]
    fn explicit_scheme_kind_wins_for_build_any() {
        let smr = SmrBuilder::new()
            .max_threads(2)
            .scheme(crate::any::SchemeKind::He)
            .try_build_any()
            .unwrap();
        assert_eq!(smr.scheme_name(), "HE");
        let _h = smr.try_register().unwrap();
    }

    /// Every value `Config::validate` rejects comes back from both `try_*`
    /// finishers as the matching error; no setter panics first.
    #[test]
    fn try_build_returns_every_invalid_value_as_a_config_error() {
        type Set = fn(SmrBuilder) -> SmrBuilder;
        let zero = |field| ConfigError::ZeroFrequency { field };
        let cases: [(Set, ConfigError); 8] = [
            (|b| b.max_threads(0), ConfigError::ZeroThreads),
            (|b| b.slots_per_thread(0), ConfigError::ZeroSlots),
            (|b| b.margin(1 << 16), ConfigError::MarginTooSmall { margin: 1 << 16 }),
            (|b| b.margin(1 << 31), ConfigError::MarginTooLarge { margin: 1 << 31 }),
            (|b| b.empty_freq(0), zero("empty_freq")),
            (|b| b.epoch_freq(0), zero("epoch_freq")),
            (|b| b.anchor_hops(0), zero("anchor_hops")),
            (|b| b.stall_patience(0), zero("stall_patience")),
        ];
        for (set, want) in cases {
            let err = set(SmrBuilder::new()).try_build::<Mp>().err();
            assert_eq!(err, Some(SmrError::Config(want)));
            let err = set(SmrBuilder::new()).try_build_any().err();
            assert_eq!(err, Some(SmrError::Config(want)));
        }
    }
}
