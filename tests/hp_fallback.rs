//! MP's compatibility claim (§4.1): a client that never calls the optional
//! `update_*_bound` extension gets plain hazard-pointer behavior — same
//! interface, same safety, bounded waste — and an ascending-insert list
//! (the index-collision worst case) stays correct while falling back. A
//! client that does supply bounds pays no fallback it did not earn.

use margin_pointers::ds::{nmtree, ConcurrentSet, LinkedList, NmTree};
use margin_pointers::smr::node::USE_HP;
use margin_pointers::smr::schemes::Mp;
use margin_pointers::smr::{Atomic, Config, Counter, Shared, Smr, SmrHandle, Telemetry};
use std::sync::atomic::Ordering;

#[test]
fn mp_without_bound_hints_degenerates_to_hp() {
    let smr = Mp::new(Config { max_threads: 2, empty_freq: 1, ..Config::default() });
    let mut client = smr.register(); // never calls update_*_bound
    let mut owner = smr.register();

    owner.start_op();
    client.start_op();
    // Without hints the search interval is (0,0) ⇒ every alloc collides.
    let n = client.alloc(42u32);
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    assert_eq!(unsafe { n.deref() }.index(), USE_HP);

    // Reads of USE_HP nodes are hazard-protected and block reclamation.
    let cell = Atomic::new(n);
    let got = owner.read(&cell, 0);
    assert!(owner.counter(Counter::HpFallbackReads) >= 1);

    cell.store(Shared::null(), Ordering::Release);
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { client.retire(n) };
    client.force_empty();
    assert_eq!(client.retired_len(), 1, "owner's hazard pins the node");
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    assert_eq!(unsafe { *got.deref().data() }, 42);

    owner.end_op();
    client.force_empty();
    assert_eq!(client.retired_len(), 0);
    client.end_op();
}

#[test]
fn ascending_insert_list_collides_but_stays_correct() {
    let smr = Mp::new(
        Config { max_threads: 2, empty_freq: 4, epoch_freq: 16, ..Config::default() },
    );
    let list: LinkedList<Mp> = LinkedList::new(&smr);
    let mut h = smr.register();
    // Ascending inserts halve the remaining index range each time; with
    // 32-bit indices everything beyond ~32 nodes gets USE_HP (§6, Fig 7a).
    const N: u64 = 500;
    for k in 0..N {
        assert!(list.insert(&mut h, k), "insert {k}");
    }
    assert!(h.counter(Counter::CollisionAllocs) > N / 2, "expected mass collisions");
    // Semantics unaffected by the fallback.
    for k in 0..N {
        assert!(list.contains(&mut h, k));
    }
    assert!(!list.contains(&mut h, N + 1));
    for k in (0..N).step_by(2) {
        assert!(list.remove(&mut h, k));
    }
    for k in 0..N {
        assert_eq!(list.contains(&mut h, k), k % 2 == 1, "key {k}");
    }
    // Reads of colliding nodes report the HP path.
    let before = h.counter(Counter::HpFallbackReads);
    for k in 0..N {
        list.contains(&mut h, k);
    }
    assert!(h.counter(Counter::HpFallbackReads) > before, "fallback reads must be visible");
}

#[test]
fn fresh_tree_first_inserts_collide_nowhere() {
    // The tree's search interval opens under the ∞₀ leaf's `MAX_INDEX`
    // (§5.3), so an empty tree's first leaf is born with a margin index,
    // not as a `USE_HP` collision. 5 then lands left of 10 under a router
    // keyed 10, which carries 10's index: 7 gets the gap between 5 and 10,
    // where with 5's index it would meet the empty interval (i5, i5).
    let smr = Mp::new(
        Config { max_threads: 1, slots_per_thread: nmtree::SLOTS_NEEDED, ..Config::default() },
    );
    let tree: NmTree<Mp> = NmTree::new(&smr);
    let mut h = smr.register();
    for k in [10u64, 5, 7] {
        assert!(tree.insert(&mut h, k), "insert {k}");
    }
    assert_eq!(h.counter(Counter::CollisionAllocs), 0, "first three inserts collided");
    for k in [10u64, 5, 7] {
        assert!(tree.contains(&mut h, k), "contains {k}");
    }
}

