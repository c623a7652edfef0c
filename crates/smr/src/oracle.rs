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
//!   Allocated ──retire──▶ Retired ──reclaim──▶ (entry removed)
//!       │                                            ▲
//!       └───────owned drop (never published)─────────┘
//! ```
//!
//! A free removes the node's entry, so the table holds exactly the nodes
//! allocated and not yet freed, and [`live_nodes`] is its size. A freed
//! block waits in quarantine untracked: its address cannot be served
//! again before it leaves, and a second free of it finds no entry.
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
//! `POISON_BYTE`, and the header canary flips from `CANARY_ALIVE` to
//! `CANARY_POISON`; [`crate::Shared::deref`] validates the canary on
//! every dereference. To keep that check *defined behavior* (not a racy
//! read of returned-to-the-allocator memory), freed nodes are parked in a
//! bounded FIFO quarantine and only handed back to the allocator once the
//! quarantine exceeds [`QUARANTINE_CAP`] — the same trick sanitizers use,
//! giving a deterministic use-after-free detection window without Miri or
//! TSan (which the hermetic toolchain cannot assume).
//!
//! ## Protection ledger
//!
//! [`crate::SmrHandle::read`] keeps a node safe until its refno is read
//! again or released (paper §2, Listing 1), under HP only until `end_op`
//! (`read`'s docs give each scheme's rule), and a freed node's canary
//! shows only the violations that lost the race to the scan. So
//! `Retired::new` flips the canary to `CANARY_RETIRED`, and each handle
//! keeps a `Ledger`: per refno, the address its last read returned,
//! plus the nodes the handle allocated in its open operation and has not
//! retired. A re-read, `unprotect` or handle drop ends an entry; a
//! hazard-backed entry (HP's, MP's fallback) also ends at `end_op`.
//! `start_op` links the ledger into a thread-local list of open
//! operations and `end_op` unlinks it. A `Shared::deref` of a retired node
//! on a thread with an open operation must find the address in one of
//! that thread's ledgers, unless one of the operations is an
//! epoch-protecting scheme's (EBR, IBR, DTA, Leaky), which covers every
//! node it can reach. Otherwise it panics, naming the missing protection.
//! No lock, no clock: a read writes one word, and only a deref of a
//! retired node looks at the list.
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
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use mp_util::shadow::{ShadowSlot, ShadowTable};

/// Lifecycle state: allocated, not yet retired.
pub const ALLOCATED: u8 = 0;
/// Lifecycle state: retired, awaiting reclamation.
pub const RETIRED: u8 = 1;

/// Header canary value of a live (not yet reclaimed) node.
pub(crate) const CANARY_ALIVE: u64 = 0xa11c_0de5_afe5_eed5;
/// Header canary value of a retired node not yet reclaimed: a deref must
/// be covered by an open operation of the reading thread (see [`Ledger`]).
pub(crate) const CANARY_RETIRED: u64 = 0x2e71_2ed0_2e71_2ed0;
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
    /// The ledger rows of this thread's open operations.
    static OPEN: RefCell<Vec<*const Row>> = const { RefCell::new(Vec::new()) };
}

fn table() -> &'static ShadowTable {
    static TABLE: OnceLock<ShadowTable> = OnceLock::new();
    TABLE.get_or_init(ShadowTable::new)
}

/// SMR nodes allocated and not yet freed (linked, owned or retired and
/// pending), across every scheme in the process: the shadow table's size,
/// exact because a free removes the node's entry.
pub fn live_nodes() -> usize {
    table().len()
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
/// freed node's entry went with its free, and its block reaches the pool
/// only when it leaves quarantine. A tracked address here means a node was
/// freed behind the oracle's back.
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

/// Removes `addr`'s entry: the node is freed, and its block goes to
/// quarantine untracked ([`quarantine_node`]). Accepts `Allocated` (an
/// owned drop of a never-published node) and `Retired` (normal
/// reclamation); an address with no entry is a double free or a free of an
/// untracked node.
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
/// header canary is neither [`CANARY_ALIVE`] nor [`CANARY_RETIRED`].
pub(crate) fn uaf_panic(addr: u64, canary: u64) -> ! {
    let kind = if canary == CANARY_POISON {
        "use-after-free: node dereferenced after reclamation".to_string()
    } else {
        format!("use-after-free or wild pointer: unknown canary {canary:#x}")
    };
    violation("dereference", addr, kind);
}

/// Tag bit of a [`Ledger`] entry backed by a hazard slot, which `end_op`
/// clears (node addresses are 8-byte aligned, so the bit is free).
const HAZARD: u64 = 1;

/// One handle's protection record (see the module docs). Boxed, so the
/// handle may move while the row is linked into its thread's list of open
/// operations. The handle writes the row, and the deref check reads it
/// only on the thread that linked it, so a handle must not move to another
/// thread inside an operation; one that does leaves its row behind,
/// closed and leaked, at its next `end_op`.
pub(crate) struct Ledger(NonNull<Row>);

struct Row {
    /// Per refno, the address the last read through it returned, tagged
    /// [`HAZARD`] when a hazard slot backs it; 0 when none stands.
    reads: Box<[u64]>,
    /// Some entry of `reads` may be tagged [`HAZARD`].
    hazards: bool,
    /// Nodes allocated in the open operation and not retired since.
    allocated: Vec<u64>,
    /// The open operation protects by epoch: it covers every node.
    epoch: bool,
    /// Linked into a thread's list of open operations.
    open: bool,
}

impl Row {
    /// A fresh, unlinked row, freed by its ledger's `Drop`.
    fn leak(refnos: usize) -> NonNull<Row> {
        let row = Row {
            reads: vec![0; refnos].into(),
            hazards: false,
            allocated: Vec::new(),
            epoch: false,
            open: false,
        };
        NonNull::from(Box::leak(Box::new(row)))
    }

    fn covers(&self, addr: u64) -> bool {
        self.epoch || self.reads.iter().any(|&e| e & !HAZARD == addr) || self.allocated.contains(&addr)
    }
}

// SAFETY: [INV-07] the row is the ledger's own allocation, handed over
// with it; the thread-local list that also points at it is read only on
// the linking thread ([INV-10]).
unsafe impl Send for Ledger {}

impl Ledger {
    /// An empty ledger for a handle with `refnos` protection slots.
    pub(crate) fn new(refnos: usize) -> Self {
        Ledger(Row::leak(refnos))
    }

    fn row(&mut self) -> &mut Row {
        // SAFETY: [INV-10] the row is this ledger's own allocation, and the
        // deref check, its only other reader, runs on the same thread and
        // never while this borrow lives.
        unsafe { self.0.as_mut() }
    }

    /// `start_op`: links the row into the thread's open operations;
    /// `epoch` says the scheme protects by epoch.
    pub(crate) fn open(&mut self, epoch: bool) {
        let row = self.row();
        row.epoch = epoch;
        if !row.open {
            let ptr = self.0.as_ptr().cast_const();
            self.row().open = OPEN.try_with(|open| open.borrow_mut().push(ptr)).is_ok();
        }
    }

    /// `end_op`: hazard-backed entries and the allocation list end, and
    /// the row leaves the thread's open operations.
    pub(crate) fn close(&mut self) {
        let row = self.row();
        if row.hazards {
            row.hazards = false;
            row.reads.iter_mut().filter(|e| **e & HAZARD != 0).for_each(|e| *e = 0);
        }
        row.allocated.clear();
        if !self.unlink() {
            // The row stays behind, closed, in another thread's list and is
            // never written again; the handle goes on with a fresh one.
            let refnos = self.row().reads.len();
            self.0 = Row::leak(refnos);
        }
    }

    /// Closes the row and takes it out of this thread's open operations.
    /// False when some other thread's list may still hold it: the handle
    /// moved mid-operation.
    fn unlink(&mut self) -> bool {
        let row = self.row();
        if !row.open {
            return true;
        }
        row.open = false;
        let ptr = self.0.as_ptr().cast_const();
        OPEN.try_with(|open| {
            let mut open = open.borrow_mut();
            open.iter().position(|&p| p == ptr).map(|i| open.swap_remove(i)).is_some()
        })
        // This thread's list is gone with its other thread-locals, so which
        // list holds the row cannot be told: keep it.
        .unwrap_or(false)
    }

    /// A read through `refno` returned `addr` (0 for null), protected by a
    /// hazard slot when `hazard` is set.
    #[inline]
    pub(crate) fn read(&mut self, refno: usize, addr: u64, hazard: bool) {
        let row = self.row();
        row.reads[refno] = if hazard && addr != 0 { addr | HAZARD } else { addr };
        row.hazards |= hazard;
    }

    /// `unprotect(refno)`: the entry ends.
    pub(crate) fn release(&mut self, refno: usize) {
        self.row().reads[refno] = 0;
    }

    /// The handle allocated `addr`; listed while its operation is open.
    pub(crate) fn allocated(&mut self, addr: u64) {
        let row = self.row();
        if row.open {
            row.allocated.push(addr);
        }
    }

    /// The handle retired `addr`, which leaves its allocation list.
    pub(crate) fn retired(&mut self, addr: u64) {
        let allocated = &mut self.row().allocated;
        if let Some(i) = allocated.iter().rposition(|&a| a == addr) {
            allocated.swap_remove(i);
        }
    }
}

impl Drop for Ledger {
    fn drop(&mut self) {
        if self.unlink() {
            // SAFETY: [INV-10] the row came from `Box::leak` in `new` and no
            // list links it any more.
            drop(unsafe { Box::from_raw(self.0.as_ptr()) });
        }
    }
}

/// The deref check, for a node whose canary reads retired: on a thread
/// with an open operation, some open operation must cover `addr`.
pub(crate) fn retired_deref(addr: u64) {
    let covered = OPEN.try_with(|open| {
        let mut none_open = true;
        for &row in open.borrow().iter() {
            // SAFETY: [INV-10] a listed row is live — its ledger unlinks it
            // before freeing it, and leaks it when it cannot — and is
            // written only by its handle on this thread, not during this
            // check.
            let row = unsafe { &*row };
            if row.open {
                if row.covers(addr) {
                    return true;
                }
                none_open = false;
            }
        }
        none_open
    });
    if covered == Ok(false) {
        violation(
            "unprotected dereference",
            addr,
            "a retired node that no refno of this thread's open operations \
             returned and none of them allocated; HP's reads last until re-read, \
             unprotect or end_op, MP's and HE's until re-read or unprotect"
                .to_string(),
        );
    }
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
/// entry is handed back to the block pool.
///
/// Ordering contract with the node pool (`mp_util::pool`): a freed block
/// enters quarantine *before* it can ever be reinserted into the pool, and
/// its shadow entry is already gone ([`on_free`]) — so while a block sits
/// here the pool cannot serve it back and every dereference of it reads
/// poison deterministically, and once it leaves, `on_alloc` finds its
/// address untracked. Recycling therefore does not weaken UAF detection.
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
        // SAFETY: [INV-10] the quarantine entry owned this allocation
        // exclusively. Handing it to the pool (not straight to `std::alloc`)
        // is what lets recycled blocks flow back to `alloc_node` under the
        // oracle; `on_free` removed the shadow entry, so `on_alloc` sees an
        // untracked address.
        unsafe { mp_util::pool::dealloc(old.ptr, old.layout) };
    }
}

/// Marks the calling thread as inside a [`crate::SmrHandle::pin`]-scoped
/// operation, as every data-structure operation is; panics on nesting,
/// which the trait protocol forbids.
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
        assert_eq!(table().get(addr), None, "the free removed the entry");
    }

    /// A node counts from its allocation until its free, retired or not.
    /// Other tests in this binary move the count too, so only this test's
    /// own entries are checked exactly.
    #[test]
    fn live_nodes_counts_nodes_until_their_free() {
        let (a, b) = (0x5009, 0x500b); // fabricated: never real allocations
        on_alloc(a, 1);
        on_alloc(b, 1);
        on_retire(b, 1);
        assert!(live_nodes() >= 2, "an allocated and a retired node are live");
        assert!(table().get(a).is_some() && table().get(b).is_some());
        on_free(a, 1);
        on_free(b, 1);
        assert_eq!((table().get(a), table().get(b)), (None, None), "a free ends the count");
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

    /// A handle that moves to another thread inside an operation leaves
    /// its row behind, closed: the first thread's checks skip it, the
    /// handle goes on with a fresh row, and nothing dangles.
    #[test]
    fn a_handle_moved_mid_operation_leaves_its_row_behind() {
        use crate::{schemes::Hp, Config, Smr, SmrHandle};
        let smr = Hp::new(Config { max_threads: 2, ..Config::default() });
        let mut h = smr.register();
        h.start_op();
        let mut h = std::thread::scope(|s| {
            s.spawn(move || {
                h.end_op();
                h.start_op();
                h.end_op();
                h
            })
            .join()
            .expect("the moved handle's thread panicked")
        });
        // No open operation on this thread: a retired deref passes.
        retired_deref(0x10);
        h.start_op();
        let err = std::panic::catch_unwind(|| retired_deref(0x10));
        assert!(err.is_err(), "the fresh row is checked");
        h.end_op();
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
