//! No reclamation: retired nodes are never freed while the scheme lives.
//!
//! `Leaky` is the zero-overhead upper bound used to isolate SMR cost in
//! benchmarks (reads are plain loads; no fences, no scans). Retired nodes
//! are buffered and released only when the scheme itself is dropped, so the
//! process does not actually leak in tests.

use std::sync::Arc;

use core::sync::atomic::Ordering;

use crate::api::{Config, Smr, SmrHandle};
use crate::error::SmrError;
use crate::node::Retired;
use crate::packed::{Atomic, Shared};
use crate::schemes::core::{
    impl_handle_telemetry, smr_core_accessors, HandleCore, Protection, Scheme, SchemeCore,
};

/// The leaky "scheme": never reclaims (see module docs).
pub struct Leaky {
    core: SchemeCore,
}

/// Per-thread handle for [`Leaky`].
pub struct LeakyHandle {
    scheme: Arc<Leaky>,
    core: HandleCore,
}

/// No scan ever runs, so no waste bound applies — but allocations and
/// retires are still lifecycle-tracked and counted in the pending gauge,
/// keeping the no-reclamation baseline honest about its memory pressure.
impl Scheme for Leaky {
    const NAME: &'static str = "Leaky";
    #[cfg(feature = "oracle")]
    const PROTECTS_BY_EPOCH: bool = true;
    const RECLAIMS: bool = false;

    fn core(&self) -> &SchemeCore {
        &self.core
    }
}

/// Nothing is announced and everything retired stays pinned.
struct Everything;

impl Protection<Leaky> for Everything {
    fn snapshot(&mut self, _scheme: &Leaky) {}

    fn is_protected(&self, _r: &Retired) -> bool {
        true
    }
}

impl Smr for Leaky {
    type Handle = LeakyHandle;

    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError> {
        Ok(Arc::new(Leaky { core: SchemeCore::try_new(cfg)? }))
    }

    fn try_register(self: &Arc<Self>) -> Result<LeakyHandle, SmrError> {
        Ok(LeakyHandle { core: self.core.try_register()?, scheme: self.clone() })
    }

    smr_core_accessors!();
}

impl_handle_telemetry!(LeakyHandle);

impl SmrHandle for LeakyHandle {
    fn start_op(&mut self) {
        self.core.start_op::<Leaky>();
    }

    fn end_op(&mut self) {
        self.core.end_op();
    }

    #[inline]
    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, _refno: usize) -> Shared<T> {
        src.load(Ordering::Acquire)
    }

    fn alloc_with_tail<T: Send + Sync>(
        &mut self,
        data: T,
        index: Option<u32>,
        tail_len: usize,
    ) -> Shared<T> {
        self.core.alloc::<Leaky, _>(data, index.unwrap_or(0), 0, tail_len)
    }

    // SAFETY: [INV-11] trait contract: the caller retires a removed node
    // exactly once (the winning unlink CAS is at the call site).
    unsafe fn retire<T: Send + Sync>(&mut self, node: Shared<T>) {
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        unsafe { self.core.retire(&*self.scheme, &mut Everything, node, 0, 0) }
    }

    fn retired_len(&self) -> usize {
        self.core.retired_len()
    }

    fn force_empty(&mut self) {
        self.core.scan(&*self.scheme, &mut Everything);
    }
}

impl Drop for LeakyHandle {
    fn drop(&mut self) {
        self.core.release(&*self.scheme, &mut Everything);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Counter, Telemetry};

    #[test]
    fn leaky_never_reclaims_until_scheme_drop() {
        let smr = Leaky::new(Config { max_threads: 1, ..Config::default() });
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(7u32);
        unsafe { h.retire(n) }; // SAFETY: [INV-12] test-owned, retired once.
        h.force_empty();
        h.end_op();
        assert_eq!(h.retired_len(), 1, "leaky keeps everything");
        assert_eq!(smr.retired_pending(), 1);
        drop(h);
        assert_eq!(smr.core.registry.orphan_count(), 1, "node parked as orphan on handle drop");
        // Scheme drop reclaims orphans; exact gauge equality is asserted by
        // the single-process `leak_check` integration test.
    }

    #[test]
    fn read_is_plain_load() {
        let smr = Leaky::new(Config { max_threads: 1, ..Config::default() });
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(99u64);
        let cell = Atomic::new(n);
        let r = h.read(&cell, 0);
        assert_eq!(r, n);
        assert_eq!(h.counter(Counter::Fences), 0, "no protection fences");
        // SAFETY: [INV-12] leaky never reclaims; the node is live.
        assert_eq!(unsafe { *r.deref().data() }, 99);
        h.end_op();
        unsafe { h.retire(n) }; // SAFETY: [INV-12] test-owned, retired once.
    }
}
