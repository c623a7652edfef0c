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
/// Construct with [`SmrBuilder::new`] (paper §6 defaults) or
/// [`SmrBuilder::from_config`], chain setters, finish with
/// [`try_build`](SmrBuilder::try_build) for a statically chosen scheme or
/// [`try_build_any`](SmrBuilder::try_build_any) for one selected at
/// runtime via [`scheme`](SmrBuilder::scheme).
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

    /// A builder starting from an existing [`Config`].
    pub fn from_config(cfg: Config) -> SmrBuilder {
        SmrBuilder { cfg, ..SmrBuilder::default() }
    }

    /// The configuration as currently accumulated.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Sets the maximum number of concurrently registered handles.
    pub fn max_threads(mut self, n: usize) -> Self {
        self.cfg = self.cfg.with_max_threads(n);
        self
    }

    /// Sets the number of protection slots per thread.
    pub fn slots_per_thread(mut self, n: usize) -> Self {
        self.cfg = self.cfg.with_slots_per_thread(n);
        self
    }

    /// Sets the scan cadence (see [`Config::empty_freq`]).
    pub fn empty_freq(mut self, n: usize) -> Self {
        self.cfg = self.cfg.with_empty_freq(n);
        self
    }

    /// Sets how many allocations/unlinks elapse between epoch increments.
    pub fn epoch_freq(mut self, n: usize) -> Self {
        self.cfg = self.cfg.with_epoch_freq(n);
        self
    }

    /// Sets MP's margin (protected interval size). Must be > 2^16.
    pub fn margin(mut self, margin: u32) -> Self {
        self.cfg = self.cfg.with_margin(margin);
        self
    }

    /// Sets DTA's anchor distance.
    pub fn anchor_hops(mut self, k: usize) -> Self {
        self.cfg = self.cfg.with_anchor_hops(k);
        self
    }

    /// Sets DTA's stall-detection patience.
    pub fn stall_patience(mut self, n: usize) -> Self {
        self.cfg = self.cfg.with_stall_patience(n);
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
        let c = b.config();
        assert_eq!(c.max_threads, 3);
        assert_eq!(c.slots_per_thread, 5);
        assert_eq!(c.empty_freq, 11);
        assert_eq!(c.epoch_freq, 22);
        assert_eq!(c.margin, 1 << 18);
        assert_eq!(c.anchor_hops, 33);
        assert_eq!(c.stall_patience, 4);

        let mp = b.clone().build::<Mp>();
        let mut h = mp.register();
        let op = h.pin();
        assert_eq!(op.counter(Counter::Ops), 1);
        drop(op);

        let ebr = b.build::<Ebr>();
        let _h = ebr.register();
    }

    #[test]
    fn from_config_preserves_the_seed_config() {
        let cfg = Config::default().with_empty_freq(7);
        assert_eq!(SmrBuilder::from_config(cfg).config().empty_freq, 7);
    }

    #[test]
    #[should_panic(expected = "margin must exceed")]
    fn builder_rejects_invalid_margin_eagerly() {
        let _ = SmrBuilder::new().margin(1 << 10);
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

    #[test]
    fn try_build_surfaces_config_errors() {
        let cfg = Config { max_threads: 0, ..Config::default() };
        let res = SmrBuilder::from_config(cfg).try_build::<Mp>();
        assert!(matches!(res, Err(crate::error::SmrError::Config(_))));

        let cfg = Config { epoch_freq: 0, ..Config::default() };
        let res = SmrBuilder::from_config(cfg).try_build::<Mp>();
        assert!(matches!(
            res,
            Err(crate::error::SmrError::Config(crate::ConfigError::ZeroFrequency {
                field: "epoch_freq"
            }))
        ));
    }
}
