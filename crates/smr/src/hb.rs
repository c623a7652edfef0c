//! Happens-before oracle glue (`--features hb-oracle`).
//!
//! Routes the schemes' instrumentation hooks into one process-global
//! [`mp_util::hb::HbTracker`], translating per-scheme protection semantics
//! into the tracker's vocabulary via an [`HbPolicy`] installed at each
//! `start_op`, and turning tracker verdicts into
//! [`oracle::violation`](crate::oracle::violation) panics — which carry the
//! scheme name, thread, and `MP_CHECK_SEED` replay context — *after* the
//! tracker lock is released, so a `#[should_panic]` negative test cannot
//! poison the ledger for later tests in the same process.
//!
//! Every hook is a free function so call sites stay one cfg-gated line.
//! Threads self-register on first contact and unregister when their TLS
//! slot is destroyed at thread exit, recycling the tracker tid so clock
//! widths track the peak live-thread count; handles dropped mid-teardown
//! route through [`on_handle_drop`] so a dead thread's protection claims
//! do not outlive its (cleared) announcement rows.

use std::cell::Cell;
use std::sync::OnceLock;

use mp_util::hb::{HbTracker, HbViolation};

/// How a scheme's protection claims map onto tracker records. Installed
/// per-thread by `start_op`; consulted by the deref/free hooks.
#[derive(Clone, Copy, Debug)]
pub struct HbPolicy {
    /// Blanket (epoch-style) protection: while the thread is in an op,
    /// every deref is justified without per-node records.
    pub blanket: bool,
    /// Check frees against live foreign protection records. Only sound
    /// when the scheme's protect hook fires strictly after a validated
    /// announce fence (the hazard-pointer re-read protocol), making
    /// "record happens-before free" imply "the scan saw the hazard".
    pub free_check: bool,
    /// Protection records die at op boundaries (hazards are cleared by
    /// `end_op`) rather than persisting (margins, eras).
    pub op_scoped: bool,
}

impl HbPolicy {
    /// Margin pointers: per-node records (margins + HP fallback) that
    /// persist across ops — margins and the epoch announcement are only
    /// re-announced lazily, so a claim outlives the op that made it.
    pub const MP: HbPolicy = HbPolicy { blanket: false, free_check: false, op_scoped: false };
    /// Hazard pointers: slot-keyed, op-scoped records; the validated
    /// re-read protocol makes the free check exact.
    pub const HP: HbPolicy = HbPolicy { blanket: false, free_check: true, op_scoped: true };
    /// Hazard eras: one era announcement covers many nodes, and eras
    /// persist until overwritten — per-node, non-scoped records, no free
    /// check (the era read never re-validates the source pointer).
    pub const HE: HbPolicy = HbPolicy { blanket: false, free_check: false, op_scoped: false };
    /// Epoch-style schemes (EBR/IBR/DTA/Leaky): blanket protection.
    pub const EPOCH: HbPolicy = HbPolicy { blanket: true, free_check: false, op_scoped: true };
}

fn tracker() -> &'static HbTracker {
    static TRACKER: OnceLock<HbTracker> = OnceLock::new();
    TRACKER.get_or_init(HbTracker::new)
}

/// Thread-local tid holder whose `Drop` (thread exit) withdraws the
/// thread's claims and recycles its tracker tid, keeping vector-clock
/// widths bounded by the peak live-thread count even when a test harness
/// spawns thousands of short-lived threads.
struct TidSlot(Cell<Option<usize>>);

impl Drop for TidSlot {
    fn drop(&mut self) {
        if let Some(id) = self.0.get() {
            tracker().release_thread(id);
        }
    }
}

thread_local! {
    static TID: TidSlot = const { TidSlot(Cell::new(None)) };
    // Teardown paths (struct Drop impls freeing live nodes) run outside any
    // op; default to the blanket policy so they are never free-checked.
    static POLICY: Cell<HbPolicy> = const { Cell::new(HbPolicy::EPOCH) };
}

/// The calling thread's tracker tid, or `None` when its TLS slot is
/// already destroyed (a hook firing during thread teardown) — hooks then
/// no-op, which only under-approximates the tracked relation.
fn tid() -> Option<usize> {
    TID.try_with(|t| match t.0.get() {
        Some(id) => id,
        None => {
            let id = tracker().register_thread();
            t.0.set(Some(id));
            id
        }
    })
    .ok()
}

fn bail(v: HbViolation) -> ! {
    crate::oracle::violation(v.what, v.addr, v.detail)
}

/// `start_op` hook: installs the scheme's policy and opens an op span.
pub fn on_start_op(policy: HbPolicy) {
    let Some(id) = tid() else { return };
    let _ = POLICY.try_with(|p| p.set(policy));
    tracker().begin_op(id, policy.blanket, policy.op_scoped);
}

/// `end_op` hook: closes the op span (op-scoped records die).
pub fn on_end_op() {
    let Some(id) = tid() else { return };
    tracker().end_op(id);
}

/// Handle-`Drop` hook: the thread's announcement rows are being cleared,
/// so all of its protection claims are withdrawn with them.
pub fn on_handle_drop() {
    let Some(id) = tid() else { return };
    tracker().clear_thread(id);
}

/// SeqCst-fence hook (`counted_fence` and the schemes' raw scan fences).
pub fn on_fence_sc() {
    let Some(id) = tid() else { return };
    tracker().fence_sc(id);
}

/// Validated-protection hook: the calling thread announced protection of
/// `addr` and validated the announcement. `slot` keys single-address
/// (hazard) records; `None` records interval/era/margin claims.
pub fn on_protect(slot: Option<usize>, addr: u64) {
    let Some(id) = tid() else { return };
    tracker().protect(id, slot, addr);
}

/// Protection-withdrawal hook for slot-keyed records.
pub fn on_unprotect(slot: usize) {
    let Some(id) = tid() else { return };
    tracker().unprotect(id, slot);
}

/// Allocation hook (after the reclamation oracle's `on_alloc`).
pub fn on_alloc(addr: u64) {
    let Some(id) = tid() else { return };
    tracker().on_alloc(id, addr);
}

/// Retire hook (after the reclamation oracle's `on_retire`, so a
/// double-retire panics with the shadow table's diagnosis first).
pub fn on_retire(addr: u64) {
    let Some(id) = tid() else { return };
    tracker().on_retire(id, addr);
}

/// Free hook: drops the node's tracker state and — under a `free_check`
/// policy — panics if a foreign protection record happens-before the free.
pub fn on_free(addr: u64) {
    let Some(id) = tid() else { return };
    let check = match POLICY.try_with(|p| p.get()) {
        Ok(p) => p.free_check,
        Err(_) => false,
    };
    if let Err(v) = tracker().on_free(id, addr, check) {
        bail(v);
    }
}

/// `Shared::deref` hook: a retired node may only be dereferenced under
/// blanket protection or a live record of this thread.
pub fn on_deref(addr: u64) {
    let Some(id) = tid() else { return };
    if let Err(v) = tracker().deref_check(id, addr) {
        bail(v);
    }
}
