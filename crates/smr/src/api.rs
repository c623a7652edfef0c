//! The SMR scheme interface (paper §2, Listing 1).
//!
//! A scheme is split into shared state ([`Smr`]) and a per-thread handle
//! ([`SmrHandle`]). The handle carries the thread's retired list, protection
//! slots cursor, and statistics; it is `Send` (movable to the thread that
//! will use it) but not shared between threads, matching the paper's model
//! of per-thread SMR state.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Instant;

use crate::error::SmrError;
use crate::node::MAX_INDEX;
use crate::packed::{Atomic, Shared};
use crate::telemetry::{self, SchemeTelemetry, Telemetry};

/// Tunable SMR parameters (paper §4.3 Listing 2 constants + §6 defaults).
///
/// The fields are public and have no setters: write
/// `Config { margin: 1 << 22, ..Config::default() }`, or chain the same
/// names on [`SmrBuilder`](crate::SmrBuilder). [`Config::validate`] is the
/// one place a value is rejected, and every scheme's
/// [`try_new`](Smr::try_new) runs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Capacity of per-thread slot arrays; at most this many handles may be
    /// registered concurrently (`thread_cnt`).
    pub max_threads: usize,
    /// Protection slots per thread (`MPs_per_thread`); each `refno` passed
    /// to [`SmrHandle::read`] must be `< slots_per_thread`.
    pub slots_per_thread: usize,
    /// The scan cadence (`empty_freq`; §6 uses 30), the one knob of the
    /// scan trigger. A handle scans when its retired list reaches the
    /// watermark `W = max(empty_freq, 2 · max_threads · slots_per_thread)`
    /// (HP's `k × H` rule, `k = 2`); a scan that kept `kept` nodes re-arms
    /// the trigger at `max(W, kept + empty_freq)`, so under a stalled
    /// reader the handle scans once per `empty_freq` further retires.
    /// Nothing else triggers a scan but [`SmrHandle::force_empty`] and a
    /// handle's drop.
    pub empty_freq: usize,
    /// Events (allocations for HE/IBR/EBR, unlinks for MP) a thread performs
    /// between increments of the global epoch (`epoch_freq`; §6 uses 150·T).
    pub epoch_freq: usize,
    /// MP protection interval size (`margin`; §6 picks 2^20). Must exceed
    /// 2^16 or the pointer-precision check can never pass (§4.3.1), and
    /// `2 · margin` must stay below [`MAX_INDEX`].
    pub margin: u32,
    /// DTA: node traversals between anchor updates (the paper uses 100).
    pub anchor_hops: usize,
    /// DTA: reclamation attempts tolerated before a non-advancing thread is
    /// declared stalled and its anchored segment is frozen.
    pub stall_patience: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_threads: 32,
            slots_per_thread: 8,
            empty_freq: 30,
            epoch_freq: 150,
            margin: 1 << 20,
            anchor_hops: 100,
            stall_patience: 8,
        }
    }
}

/// A violated [`Config`] invariant, reported by [`Config::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `margin` does not exceed the 2^16 pointer precision (§4.3.1): the
    /// packed index check could then never pass and every read would take
    /// the hazard-pointer fallback.
    MarginTooSmall {
        /// The rejected margin.
        margin: u32,
    },
    /// [`MAX_INDEX`] is not greater than `2 · margin`: the index space
    /// would not fit even two disjoint protection intervals, so midpoint
    /// assignment degenerates immediately into `USE_HP` collisions.
    MarginTooLarge {
        /// The rejected margin.
        margin: u32,
    },
    /// `slots_per_thread` is zero: no operation could protect anything.
    ZeroSlots,
    /// `max_threads` is zero: no handle could ever register.
    ZeroThreads,
    /// An "every `n` events" field is zero, i.e. never: with `epoch_freq`
    /// the epoch stops advancing (Theorem 4.2's `F` is infinite; HE and IBR
    /// pin everything ever retired), with `anchor_hops` a DTA traversal
    /// never re-posts its anchor and outruns the segment the freezer covers.
    ZeroFrequency {
        /// The offending [`Config`] field.
        field: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::MarginTooSmall { margin } => write!(
                f,
                "margin ({margin}) must exceed pointer precision (2^16 = {}), §4.3.1",
                1u32 << 16
            ),
            ConfigError::MarginTooLarge { margin } => write!(
                f,
                "MAX_INDEX ({MAX_INDEX}) must exceed 2·margin ({})",
                2u64 * margin as u64
            ),
            ConfigError::ZeroSlots => write!(f, "slots_per_thread must be > 0"),
            ConfigError::ZeroThreads => write!(f, "max_threads must be > 0"),
            ConfigError::ZeroFrequency { field } => write!(f, "{field} must be > 0"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Checks every field and cross-field invariant; every scheme's
    /// [`Smr::try_new`] calls this, so an invalid value (e.g. a margin the
    /// index space cannot hold twice) is an [`SmrError::Config`] at
    /// construction instead of silently degraded protection.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if self.slots_per_thread == 0 {
            return Err(ConfigError::ZeroSlots);
        }
        if self.margin <= 1 << 16 {
            return Err(ConfigError::MarginTooSmall { margin: self.margin });
        }
        if MAX_INDEX as u64 <= 2 * self.margin as u64 {
            return Err(ConfigError::MarginTooLarge { margin: self.margin });
        }
        for (field, every) in [
            ("epoch_freq", self.epoch_freq),
            ("empty_freq", self.empty_freq),
            ("anchor_hops", self.anchor_hops),
            ("stall_patience", self.stall_patience),
        ] {
            if every == 0 {
                return Err(ConfigError::ZeroFrequency { field });
            }
        }
        Ok(())
    }
}

/// Shared state of an SMR scheme.
pub trait Smr: Send + Sync + Sized + 'static {
    /// The per-thread handle type.
    type Handle: SmrHandle;

    /// Constructs the scheme with the given configuration, reporting an
    /// invalid configuration as [`SmrError::Config`] instead of panicking.
    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError>;

    /// Registers the calling context as a participating thread and returns
    /// its handle, or [`SmrError::RegistryExhausted`] when
    /// `Config::max_threads` handles are already live — a recoverable
    /// condition: retry after a peer drops its handle (tids recycle).
    fn try_register(self: &Arc<Self>) -> Result<Self::Handle, SmrError>;

    /// Constructs the scheme with the given configuration.
    ///
    /// The panicking convenience over [`try_new`](Smr::try_new): an invalid
    /// [`Config`] is a bug in the caller, reported with the error's message.
    fn new(cfg: Config) -> Arc<Self> {
        match Self::try_new(cfg) {
            Ok(smr) => smr,
            Err(e) => panic!("{e}"),
        }
    }

    /// Registers the calling context as a participating thread and returns
    /// its handle. Panics if `Config::max_threads` handles are already live.
    ///
    /// The panicking convenience over [`try_register`](Smr::try_register);
    /// code that can wait for a peer to drop its handle calls that instead.
    fn register(self: &Arc<Self>) -> Self::Handle {
        match self.try_register() {
            Ok(h) => h,
            Err(SmrError::RegistryExhausted { .. }) => {
                panic!("SMR: more handles registered than Config::max_threads")
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Human-readable scheme name (used by the benchmark harness).
    fn name() -> &'static str;

    /// Scheme-wide telemetry: the live waste gauges, in nodes and bytes.
    /// Every scheme exposes the same state, so consumers never match on
    /// scheme types.
    fn telemetry(&self) -> &SchemeTelemetry;

    /// Global gauge: retired nodes not yet reclaimed, across all handles
    /// (the paper's *wasted memory*). Includes orphaned retired nodes.
    fn retired_pending(&self) -> usize {
        self.telemetry().pending()
    }
}

/// Per-thread SMR operations (paper Listing 1).
///
/// # Protocol
///
/// * Open every data-structure operation with [`pin`], whose guard runs
///   [`start_op`] now and [`end_op`] when it drops.
/// * Load shared node pointers only through [`read`], passing a `refno`
///   identifying which local reference is being refreshed (`prev`, `curr`,
///   …). How long the returned [`Shared`] may be dereferenced is stated
///   once, at [`read`].
/// * `read(src, refno)` is only sound when `src` is a field of a node that
///   is itself protected by this handle (or a structure root), and the
///   client follows the usual hazard-pointer validation discipline — the
///   schemes revalidate `*src` after announcing protection, which proves
///   the target was linked at announcement time (§3.1).
/// * Do not hold references across operations (§2 model assumption).
///
/// [`pin`]: SmrHandle::pin
/// [`start_op`]: SmrHandle::start_op
/// [`end_op`]: SmrHandle::end_op
/// [`read`]: SmrHandle::read
pub trait SmrHandle: Send + Telemetry + 'static {
    /// Begins an operation and returns an RAII guard that ends it on drop.
    ///
    /// This is the preferred client entry point: the returned [`OpGuard`]
    /// calls [`start_op`](SmrHandle::start_op) on creation and
    /// [`end_op`](SmrHandle::end_op) when dropped (including during
    /// unwinding), so unbalanced bracketing is impossible. The guard
    /// derefs to the handle, so `read`/`alloc`/`retire` are called on it
    /// directly:
    ///
    /// ```
    /// use mp_smr::{Config, Smr, SmrHandle, schemes::Mp};
    ///
    /// let smr = Mp::new(Config { max_threads: 1, ..Config::default() });
    /// let mut h = smr.register();
    /// let mut op = h.pin();
    /// let node = op.alloc_with_index(42u64, 7 << 16);
    /// // ... link `node`, traverse via op.read(...), later unlink it ...
    /// unsafe { op.retire(node) };
    /// drop(op); // end_op: all protections released
    /// ```
    ///
    /// Operations must not be nested: do not call `pin`, or a data-structure
    /// operation (each opens with `pin`), while a guard is alive on the same
    /// thread. The `oracle` feature's nesting check (armed in every workspace
    /// test build) panics on it, naming the scheme and replay seed.
    fn pin(&mut self) -> OpGuard<'_, Self>
    where
        Self: Sized,
    {
        #[cfg(feature = "oracle")]
        crate::oracle::pin_enter();
        // When telemetry is armed the guard times the whole operation into
        // the op-latency histogram; disarmed this is one relaxed load.
        let t0 = telemetry::timer();
        self.start_op();
        OpGuard { handle: self, t0 }
    }

    /// Begins a data-structure operation (announces epoch/activity).
    ///
    /// Prefer [`pin`](SmrHandle::pin), which cannot leak the operation and
    /// is how every `mp-ds` structure opens one; the raw `start_op`/`end_op`
    /// pair is the primitive each scheme implements and `pin` calls.
    fn start_op(&mut self);

    /// Ends the operation: under HP's rule, which portable code follows,
    /// nothing returned by [`read`](SmrHandle::read) since `start_op` may
    /// be dereferenced afterwards (`read` states each scheme's rule). What
    /// is released, and whether a fence is paid, is the scheme's business —
    /// HP clears its hazard slots, EBR leaves its epoch, MP and HE keep
    /// their announcements standing and issue no fence at all.
    fn end_op(&mut self);

    /// Protected pointer load, provided the caller respects the
    /// trait-level protocol. Loops internally until protection is
    /// validated, so it is lock-free rather than wait-free (paper Thm 4.4).
    ///
    /// How long the returned node stays protected, which the `oracle`
    /// feature's ledger enforces on every dereference of a retired node:
    ///
    /// * HP: until `refno` is read again, [`unprotect`]ed, or `end_op`.
    /// * MP and HE: until `refno` is read again or [`unprotect`]ed. (An MP
    ///   margin read outlives its operation only while the global epoch
    ///   stands; its hazard fallback ends at `end_op`, like HP's.)
    /// * EBR, IBR, DTA and Leaky: for the whole operation.
    ///
    /// Structures written against every scheme follow HP's rule.
    ///
    /// [`unprotect`]: SmrHandle::unprotect
    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, refno: usize) -> Shared<T>;

    /// Declares that the local reference `refno` is dropped: the node its
    /// last [`read`](SmrHandle::read) returned is no longer protected. Clears
    /// the slot in HP and HE; a no-op for the scheme in MP (margins keep
    /// protecting future accesses, §4.3) and in epoch-based schemes.
    fn unprotect(&mut self, _refno: usize) {}

    /// Allocates a node for `data`: [`alloc_with_tail`] with the scheme's
    /// choice of index and no tail.
    ///
    /// [`alloc_with_tail`]: SmrHandle::alloc_with_tail
    fn alloc<T: Send + Sync>(&mut self, data: T) -> Shared<T> {
        self.alloc_with_tail(data, None, 0)
    }

    /// Allocates a node with an explicit index — for sentinel nodes whose
    /// position in the key space is fixed (paper §5.1 step 3).
    fn alloc_with_index<T: Send + Sync>(&mut self, data: T, index: u32) -> Shared<T> {
        self.alloc_with_tail(data, Some(index), 0)
    }

    /// The one allocation path: a node for `data` followed by a *tail* of
    /// `tail_len` null links, read back through [`Shared::tail`] — a node
    /// with as many forward pointers as it needs (a skip-list tower, a tree
    /// node's child edges — none for a leaf) in one block, instead of a
    /// payload padded to the tallest case. The length
    /// lives in the node's header, is fixed for the node's lifetime, and is
    /// what every free path sizes the block from. Panics if `tail_len`
    /// exceeds [`MAX_TAIL_LEN`](crate::node::MAX_TAIL_LEN).
    ///
    /// `index` is the node's MP index: `Some` for a node whose position in
    /// the key space is fixed (a sentinel); `None` lets the scheme choose —
    /// MP takes the midpoint of the current search interval maintained via
    /// [`update_lower_bound`] / [`update_upper_bound`] (Listing 5); other
    /// schemes ignore indices.
    ///
    /// # Allocation behavior
    ///
    /// Node memory is served from the slab pool ([`mp_util::pool`]), in the
    /// 8-byte size class of header + payload + tail (+ the birth word, for
    /// MP, the one scheme that keeps one) — for a node, which is
    /// a whole number of words, exactly its size: steady-state churn —
    /// alloc, retire, reclaim, alloc again — recycles blocks through the
    /// thread's magazines and performs no heap allocations;
    /// [`Counter::PoolHits`]/[`Counter::PoolMisses`] record the recycled /
    /// fresh-carve split. Reclaimed node blocks are returned to the same
    /// pool.
    ///
    /// [`update_lower_bound`]: SmrHandle::update_lower_bound
    /// [`update_upper_bound`]: SmrHandle::update_upper_bound
    /// [`Counter::PoolHits`]: crate::telemetry::Counter::PoolHits
    /// [`Counter::PoolMisses`]: crate::telemetry::Counter::PoolMisses
    fn alloc_with_tail<T: Send + Sync>(
        &mut self,
        data: T,
        index: Option<u32>,
        tail_len: usize,
    ) -> Shared<T>;

    /// Retires a removed node: buffers it and reclaims it once unprotected.
    ///
    /// # Safety
    /// `node` must be *removed* (no shared pointer leads to it), non-null,
    /// and retired at most once (§2 model).
    // SAFETY: [INV-11] trait declaration: obligation stated in `# Safety`
    // above, discharged by every caller ([INV-04]).
    unsafe fn retire<T: Send + Sync>(&mut self, node: Shared<T>);

    /// MP extension: the search interval's lower endpoint moved to `node`
    /// (Listing 5). Default no-op; requires `node` to be protected.
    fn update_lower_bound<T: Send + Sync>(&mut self, _node: Shared<T>) {}

    /// MP extension: the search interval's upper endpoint moved to `node`.
    fn update_upper_bound<T: Send + Sync>(&mut self, _node: Shared<T>) {}

    /// Current length of this handle's retired list (wasted memory held by
    /// this thread).
    fn retired_len(&self) -> usize;

    /// Forces a reclamation attempt regardless of `empty_freq` cadence.
    ///
    /// Scans are allocation-free in steady state: the scan compacts the
    /// retired list in place and protection snapshots refill handle-owned
    /// buffers in place (`tests/zero_alloc.rs` counts the heap calls).
    fn force_empty(&mut self);
}

/// RAII scope of one SMR-bracketed operation, created by
/// [`SmrHandle::pin`]: `start_op` has run, and `end_op` runs exactly once
/// when the guard drops — on every exit path, including panics. Derefs
/// mutably to the handle so all [`SmrHandle`] methods are available on the
/// guard itself.
///
/// Pointers returned by [`read`](SmrHandle::read) during the guard's
/// lifetime live by `read`'s rule, and under HP's, which portable code
/// follows, none outlives the guard: dropping it is `end_op`.
pub struct OpGuard<'a, H: SmrHandle> {
    handle: &'a mut H,
    /// Armed-telemetry op timer; `None` when telemetry is disarmed.
    t0: Option<Instant>,
}

impl<H: SmrHandle> Deref for OpGuard<'_, H> {
    type Target = H;

    #[inline]
    fn deref(&self) -> &H {
        self.handle
    }
}

impl<H: SmrHandle> DerefMut for OpGuard<'_, H> {
    #[inline]
    fn deref_mut(&mut self) -> &mut H {
        self.handle
    }
}

impl<H: SmrHandle> Drop for OpGuard<'_, H> {
    fn drop(&mut self) {
        self.handle.end_op();
        // Time after end_op so the sample includes the release fence —
        // that is the latency a client actually observes per operation.
        if let Some(t0) = self.t0 {
            self.handle.tele_mut().record_op_nanos(t0.elapsed().as_nanos() as u64);
        }
        #[cfg(feature = "oracle")]
        crate::oracle::pin_exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Counter;

    #[test]
    fn default_config_matches_paper_section6() {
        let c = Config::default();
        assert_eq!(c.empty_freq, 30);
        assert_eq!(c.epoch_freq, 150);
        assert_eq!(c.margin, 1 << 20);
        assert_eq!(c.anchor_hops, 100);
        assert!(c.margin > 1 << 16);
    }

    #[test]
    fn validate_accepts_default_and_rejects_each_invariant() {
        assert_eq!(Config::default().validate(), Ok(()));

        let c = Config { max_threads: 0, ..Config::default() };
        assert_eq!(c.validate(), Err(ConfigError::ZeroThreads));

        let c = Config { slots_per_thread: 0, ..Config::default() };
        assert_eq!(c.validate(), Err(ConfigError::ZeroSlots));

        // 2^16 exactly is not strictly greater than the precision.
        let c = Config { margin: 1 << 16, ..Config::default() };
        assert_eq!(c.validate(), Err(ConfigError::MarginTooSmall { margin: 1 << 16 }));

        // A margin the index space cannot hold twice: 2·2^31 > MAX_INDEX.
        let c = Config { margin: 1 << 31, ..Config::default() };
        assert_eq!(c.validate(), Err(ConfigError::MarginTooLarge { margin: 1 << 31 }));
        // The largest power of two that fits is accepted.
        assert_eq!(Config { margin: 1 << 30, ..Config::default() }.validate(), Ok(()));

        // "Every 0 events" is never.
        for (field, c) in [
            ("epoch_freq", Config { epoch_freq: 0, ..Config::default() }),
            ("empty_freq", Config { empty_freq: 0, ..Config::default() }),
            ("anchor_hops", Config { anchor_hops: 0, ..Config::default() }),
            ("stall_patience", Config { stall_patience: 0, ..Config::default() }),
        ] {
            assert_eq!(c.validate(), Err(ConfigError::ZeroFrequency { field }));
        }
    }

    #[test]
    fn config_error_messages_name_the_fields() {
        let msg = ConfigError::MarginTooLarge { margin: 70_000 }.to_string();
        assert!(msg.contains("MAX_INDEX") && msg.contains("140000"), "{msg}");
        assert!(ConfigError::MarginTooSmall { margin: 3 }.to_string().contains("65536"));
        let msg = ConfigError::ZeroFrequency { field: "epoch_freq" }.to_string();
        assert!(msg.contains("epoch_freq"), "{msg}");
    }

    #[test]
    fn schemes_reject_invalid_config_at_construction() {
        let bad = Config { margin: 1 << 31, ..Config::default() };
        for result in [
            std::panic::catch_unwind(|| crate::schemes::Mp::new(bad.clone())).map(drop),
            std::panic::catch_unwind(|| crate::schemes::Hp::new(bad.clone())).map(drop),
            std::panic::catch_unwind(|| crate::schemes::Ebr::new(bad.clone())).map(drop),
        ] {
            assert!(result.is_err(), "invalid config must be rejected by every scheme");
        }
    }

    #[test]
    fn op_guard_brackets_and_releases_on_drop() {
        use crate::schemes::Mp;
        let smr = Mp::new(Config { max_threads: 1, ..Config::default() });
        let mut h = smr.register();
        let fences_before = h.tele().fences();
        let mut op = h.pin();
        assert_eq!(op.counter(Counter::Ops), 1, "pin must start_op");
        let n = op.alloc_with_index(1u8, 5 << 16);
        // SAFETY: [INV-12] never published, retired once.
        unsafe { op.retire(n) };
        drop(op);
        // Amortized MP: the first start_op announces the epoch (one fence);
        // end_op releases hazard slots fence-free and keeps the margins.
        assert_eq!(h.tele().fences(), fences_before + 1, "first pin announces once");
        assert_eq!(h.counter(Counter::FencesStartOp), 1);
        assert_eq!(h.counter(Counter::FencesEndOp), 0, "amortized end_op is fence-free");
        // The handle is reusable after the guard drops.
        let op = h.pin();
        assert_eq!(op.counter(Counter::Ops), 2);
    }

    #[test]
    fn op_guard_ends_op_during_unwind() {
        use crate::schemes::Mp;
        let smr = Mp::new(Config { max_threads: 1, ..Config::default() });
        let mut h = smr.register();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _op = h.pin();
            panic!("client panicked mid-operation");
        }));
        assert!(caught.is_err());
        assert_eq!(h.counter(Counter::Ops), 1);
        // end_op (fence-free under amortized MP) must still have run: the
        // hazard row is cleared even though no fence is issued.
        assert_eq!(h.tele().fences(), 1, "only the start_op announcement fences");
    }
}
