//! The reclamation oracle (mp-smr's `oracle` feature): turns latent SMR
//! bugs into immediate, seed-replayable panics. Every test build of the
//! workspace arms it: the root package enables the feature on its mp-smr
//! dev-dependency, so `cargo test` and `cargo test --workspace` run armed.
//!
//! SMR bugs are timing-dependent: a use-after-free or double-free corrupts
//! memory silently and surfaces (if ever) far from the cause. Under this
//! feature every SMR node's lifecycle is mirrored in a shadow table
//! ([`mp_util::shadow::ShadowTable`]) keyed by node address, with the birth
//! epoch as an incarnation tag distinguishing address reuse:
//!
//! ```text
//!   Allocated ──retire──▶ Retired ──reclaim──▶ Freed (entry pruned on
//!       │                                        real deallocation)
//!       └───────owned drop (never published)──────▶ Freed
//! ```
//!
//! Illegal transitions — double retire, retire after free, double free,
//! free of an untracked address, a birth-tag mismatch betraying a stale
//! retired record — panic on the spot, naming the violation, the address,
//! the scheme that last started an operation on the offending thread, the
//! thread, and the replay seed (see [`set_replay_seed`]).
//!
//! ## Poisoning and quarantine
//!
//! On reclamation the payload is dropped in place, overwritten with
//! [`POISON_BYTE`], and the header canary flips from [`CANARY_ALIVE`] to
//! [`CANARY_POISON`]; [`crate::Shared::deref`] validates the canary on
//! every dereference. To keep that check *defined behavior* (not a racy
//! read of returned-to-the-allocator memory), freed nodes are parked in a
//! bounded FIFO quarantine and only handed back to the allocator once the
//! quarantine exceeds [`QUARANTINE_CAP`] — the same trick sanitizers use,
//! giving a deterministic use-after-free detection window without Miri or
//! TSan (which the hermetic toolchain cannot assume).
//!
//! ## Waste-bound monitor
//!
//! Schemes with a bounded-waste guarantee call [`check_waste_bound`] after
//! every `empty()` with their per-handle kept-list length and the bound
//! computed from [`crate::Config`] (MP: the Theorem 4.2 formula; HP: total
//! hazard slots; HE: an era-pile heuristic). EBR/IBR/DTA/Leaky are exempt —
//! their waste is unbounded by design under stalls.
//!
//! Everything here is test machinery: the module (and every call site) is
//! compiled out of every build that does not arm the feature, `cargo
//! build --release`, the `mp-bench` examples and benches, and
//! `cargo test -p mp-smr` among them.

use std::alloc::Layout;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use mp_util::shadow::{ShadowSlot, ShadowTable};

/// Lifecycle state: allocated, not yet retired.
pub const ALLOCATED: u8 = 0;
/// Lifecycle state: retired, awaiting reclamation.
pub const RETIRED: u8 = 1;

/// Header canary value of a live (not yet reclaimed) node.
pub(crate) const CANARY_ALIVE: u64 = 0xa11c_0de5_afe5_eed5;
/// Header canary value after reclamation (while the node sits in
/// quarantine).
pub(crate) const CANARY_POISON: u64 = 0xdead_f12e_d00d_beef;
/// Byte poured over the payload when a node is reclaimed.
pub(crate) const POISON_BYTE: u8 = 0x5a;

/// Reclaimed nodes held in quarantine before the allocator gets them back.
/// Inside this window a buggy dereference reads poison deterministically.
pub const QUARANTINE_CAP: usize = 1 << 15;

static REPLAY_SEED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SCHEME: Cell<&'static str> = const { Cell::new("?") };
    static PIN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn table() -> &'static ShadowTable {
    static TABLE: OnceLock<ShadowTable> = OnceLock::new();
    TABLE.get_or_init(ShadowTable::new)
}

/// Records the checker base seed driving the current test, so oracle panics
/// print a `MP_CHECK_SEED=…` replay line. `0` means "unset".
pub fn set_replay_seed(seed: u64) {
    REPLAY_SEED.store(seed, Ordering::Release);
}

/// Notes that `scheme` started an operation on the calling thread; panics
/// from this thread attribute the violation to it. Called by every scheme's
/// `start_op`.
pub fn enter_scheme(name: &'static str) {
    SCHEME.with(|s| s.set(name));
}

/// Diagnostic suffix: offending scheme, thread, and replay seed.
pub(crate) fn context() -> String {
    let scheme = SCHEME.with(|s| s.get());
    let thread = std::thread::current();
    let name = thread.name().map(str::to_owned).unwrap_or_else(|| format!("{:?}", thread.id()));
    let seed = REPLAY_SEED.load(Ordering::Acquire);
    if seed == 0 {
        format!("scheme={scheme} thread={name}; set MP_CHECK_SEED to replay seeded tests")
    } else {
        format!("scheme={scheme} thread={name}; replay with MP_CHECK_SEED={seed:#x}")
    }
}

pub(crate) fn violation(what: &str, addr: u64, detail: String) -> ! {
    panic!("reclamation oracle: {what} of node {addr:#x} ({detail}; {})", context());
}

fn state_name(state: u8) -> &'static str {
    match state {
        ALLOCATED => "Allocated",
        RETIRED => "Retired",
        _ => "?",
    }
}

/// Records a fresh allocation at `addr` with birth-epoch tag `birth`.
///
/// The allocator can only return an address the table does not track: a
/// freed node's entry is pruned exactly when its memory leaves quarantine.
/// A tracked address here means a node was freed behind the oracle's back.
pub(crate) fn on_alloc(addr: u64, birth: u64) {
    let r = table().transition(addr, |cur| match cur {
        None => Ok(Some(ShadowSlot { state: ALLOCATED, tag: birth })),
        Some(s) => Err(format!(
            "allocator returned an address still tracked as {} (tag {})",
            state_name(s.state),
            s.tag
        )),
    });
    if let Err(detail) = r {
        violation("allocation", addr, detail);
    }
}

/// Transitions `addr` to Retired. Fires on double retire, retire after
/// free (the address is untracked or re-incarnated), and retire of a node
/// the oracle never saw allocated.
pub(crate) fn on_retire(addr: u64, birth: u64) {
    let r = table().transition(addr, |cur| match cur {
        Some(s) if s.tag != birth => Err(format!(
            "stale retire: birth tag {} does not match live incarnation {}",
            birth, s.tag
        )),
        Some(s) if s.state == ALLOCATED => Ok(Some(ShadowSlot { state: RETIRED, ..s })),
        Some(s) if s.state == RETIRED => Err("double retire".to_string()),
        Some(s) => Err(format!("retire in state {}", state_name(s.state))),
        None => Err("retire of a freed or never-allocated node".to_string()),
    });
    if let Err(detail) = r {
        violation("retire", addr, detail);
    }
}

/// Transitions `addr` to Freed (entry pruned once the memory leaves
/// quarantine — see [`quarantine_node`]). Accepts `Allocated` (an owned
/// drop of a never-published node) and `Retired` (normal reclamation);
/// anything else is a double free or a free of an untracked node.
pub(crate) fn on_free(addr: u64, birth: u64) {
    let r = table().transition(addr, |cur| match cur {
        Some(s) if s.tag != birth => Err(format!(
            "stale free: birth tag {} does not match live incarnation {}",
            birth, s.tag
        )),
        Some(s) if s.state == ALLOCATED || s.state == RETIRED => Ok(None),
        Some(s) => Err(format!("free in state {}", state_name(s.state))),
        None => Err("double free (or free of a never-allocated node)".to_string()),
    });
    if let Err(detail) = r {
        violation("free", addr, detail);
    }
}

/// Panics with a use-after-free report; called by `Shared::deref` when the
/// header canary is not [`CANARY_ALIVE`].
pub(crate) fn uaf_panic(addr: u64, canary: u64) -> ! {
    let kind = if canary == CANARY_POISON {
        "use-after-free: node dereferenced after reclamation".to_string()
    } else {
        format!("use-after-free or wild pointer: unknown canary {canary:#x}")
    };
    violation("dereference", addr, kind);
}

/// Asserts a scheme's per-handle retired-list length against its
/// predetermined waste bound (called after every `empty()`; also the entry
/// point negative tests use to prove the monitor fires).
///
/// # Panics
/// If `retired_len > bound` — the scheme kept more wasted memory than its
/// formula admits, i.e. its reclamation scan is broken.
pub fn check_waste_bound(scheme: &str, retired_len: usize, bound: u128) {
    if retired_len as u128 > bound {
        panic!(
            "reclamation oracle: waste bound violated for {scheme}: \
             retired list holds {retired_len} nodes > bound {bound} ({})",
            context()
        );
    }
}

struct Quarantined {
    ptr: *mut u8,
    layout: Layout,
}

// SAFETY: [INV-07] the pointer is exclusively owned by the quarantine (the
// node was reclaimed); the only deref-like use is the eviction dealloc,
// which [INV-10] covers.
unsafe impl Send for Quarantined {}

static QUARANTINE: Mutex<VecDeque<Quarantined>> = Mutex::new(VecDeque::new());

/// Parks a reclaimed (already poisoned) node's memory in the FIFO
/// quarantine; once the quarantine exceeds [`QUARANTINE_CAP`], the oldest
/// entry is handed back to the block pool and its shadow entry pruned.
///
/// Ordering contract with the node pool (`mp_util::pool`): a freed block
/// enters quarantine *before* it can ever be reinserted into the pool, and
/// its shadow entry is pruned *before* the pool sees it — so while an
/// address is still tracked as `Freed`, the pool cannot serve it back and
/// every dereference of it reads poison deterministically. Recycling
/// therefore does not weaken UAF detection.
///
/// # Safety
/// `ptr` must be the start of a live allocation of `layout` that no other
/// owner will deallocate.
// SAFETY: [INV-11] obligation stated in `# Safety` above; discharged by
// the poison-and-quarantine paths in node.rs ([INV-10]).
pub(crate) unsafe fn quarantine_node(ptr: *mut u8, layout: Layout) {
    let evicted = {
        let mut q = QUARANTINE.lock().unwrap_or_else(|p| p.into_inner());
        q.push_back(Quarantined { ptr, layout });
        if q.len() > QUARANTINE_CAP {
            q.pop_front()
        } else {
            None
        }
    };
    if let Some(old) = evicted {
        // Prune the shadow entry: the address may now be legitimately
        // reused by the pool or the allocator.
        // CAST-OK: shadow-table key; oracle tracks addresses as u64.
        let _ = table().transition(old.ptr as u64, |_| Ok(None));
        // SAFETY: [INV-10] the quarantine entry owned this allocation
        // exclusively. Handing it to the pool (not straight to `std::alloc`)
        // is what lets recycled blocks flow back to `alloc_node` under the
        // oracle; the shadow entry was pruned first, so `on_alloc` sees an
        // untracked address.
        unsafe { mp_util::pool::dealloc(old.ptr, old.layout) };
    }
}

/// Marks the calling thread as inside a [`crate::SmrHandle::pin`]-scoped
/// operation; panics on nesting, which the trait protocol forbids. Only
/// `pin` comes through here: the data structures bracket their operations
/// with raw `start_op` / `end_op`, so nesting through those is not seen.
pub(crate) fn pin_enter() {
    PIN_DEPTH.with(|d| {
        let depth = d.get();
        if depth > 0 {
            panic!(
                "reclamation oracle: nested pin(): an operation guard is already \
                 live on this thread ({})",
                context()
            );
        }
        d.set(depth + 1);
    });
}

/// Closes the scope opened by [`pin_enter`] (runs on every guard drop,
/// including unwinds).
pub(crate) fn pin_exit() {
    PIN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
}

#[cfg(test)]
mod tests {
    use super::*;

    // The shadow table and quarantine are process-global, shared with every
    // other test in this binary; these tests therefore use only addresses
    // they fabricate (odd, unaligned values no allocator returns) and real
    // nodes they own, and assert relative behavior only.

    #[test]
    fn lifecycle_roundtrip_is_clean() {
        let addr = 0x1001; // fabricated: never a real allocation
        on_alloc(addr, 3);
        on_retire(addr, 3);
        on_free(addr, 3);
        // Freed entries are pruned only on quarantine eviction; prune
        // manually so this fabricated address does not linger.
        let _ = table().transition(addr, |_| Ok(None));
    }

    #[test]
    fn double_retire_is_rejected() {
        let addr = 0x2003;
        on_alloc(addr, 1);
        on_retire(addr, 1);
        let err = std::panic::catch_unwind(|| on_retire(addr, 1));
        assert!(err.is_err(), "second retire must panic");
        let _ = table().transition(addr, |_| Ok(None));
    }

    #[test]
    fn free_without_alloc_is_rejected() {
        let err = std::panic::catch_unwind(|| on_free(0x3005, 0));
        assert!(err.is_err(), "freeing an untracked address must panic");
    }

    #[test]
    fn tag_mismatch_is_rejected() {
        let addr = 0x4007;
        on_alloc(addr, 10);
        let err = std::panic::catch_unwind(|| on_retire(addr, 11));
        assert!(err.is_err(), "stale birth tag must panic");
        let _ = table().transition(addr, |_| Ok(None));
    }

    #[test]
    fn waste_bound_boundary() {
        check_waste_bound("X", 64, 64); // at the bound: fine
        let err = std::panic::catch_unwind(|| check_waste_bound("X", 65, 64));
        assert!(err.is_err(), "one past the bound must panic");
    }

    #[test]
    fn panic_messages_carry_context() {
        enter_scheme("TEST-SCHEME");
        set_replay_seed(0xabcd);
        let err = std::panic::catch_unwind(|| check_waste_bound("HP", 2, 1)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("HP"), "{msg}");
        assert!(msg.contains("TEST-SCHEME"), "{msg}");
        assert!(msg.contains("MP_CHECK_SEED=0xabcd"), "{msg}");
    }

    #[test]
    fn pin_nesting_is_rejected() {
        pin_enter();
        let err = std::panic::catch_unwind(pin_enter);
        assert!(err.is_err(), "nested pin must panic");
        pin_exit();
        // Balanced again: a fresh pin succeeds.
        pin_enter();
        pin_exit();
    }
}
