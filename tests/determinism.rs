//! Fixed-seed determinism: the whole randomized pipeline — PRNG stream,
//! op-sequence generation, and the structures the ops drive — must be a
//! pure function of the seed, on every platform. Guards the in-tree PRNG
//! (and everything seeded from it) against platform or refactoring drift,
//! which would silently invalidate recorded bench seeds and printed
//! model-checker repros.

use mp_util::{Checker, RngCore, RngExt, SeedableRng, SmallRng};

use margin_pointers::ds::{ConcurrentSet, LinkedList};
use margin_pointers::smr::schemes::{Ebr, Hp, Mp};
use margin_pointers::smr::{Config, Smr};

const SEED: u64 = 0xd5ea_5eed_0000_0001;

/// The op-sequence shape shared with the model checker.
fn gen_ops(rng: &mut SmallRng, key_space: u64, max_len: usize) -> Vec<(u8, u64)> {
    let len = rng.random_range(1..max_len);
    (0..len).map(|_| (rng.random_range(0..3u8), rng.random_range(0..key_space))).collect()
}

#[test]
fn same_seed_same_op_sequences() {
    let a = Checker::new().seed(SEED);
    let b = Checker::new().seed(SEED);
    for case in 0..8 {
        let ops_a = gen_ops(&mut a.case_rng(case), 128, 400);
        let ops_b = gen_ops(&mut b.case_rng(case), 128, 400);
        assert_eq!(ops_a, ops_b, "case {case} diverged for one seed");
    }
    // And a different seed diverges (the streams are actually seeded).
    let c = Checker::new().seed(SEED + 1);
    assert_ne!(gen_ops(&mut a.case_rng(0), 128, 400), gen_ops(&mut c.case_rng(0), 128, 400));
}

/// Replays the `SEED` op stream single-threaded on a list under scheme `S`
/// and returns the sorted final contents.
fn final_contents<S: Smr>() -> Vec<u64> {
    let smr =
        S::new(Config { max_threads: 1, empty_freq: 4, epoch_freq: 8, ..Config::default() });
    let list: LinkedList<S> = LinkedList::new(&smr);
    let mut h = smr.register();
    let mut rng = SmallRng::seed_from_u64(SEED);
    for (kind, key) in gen_ops(&mut rng, 64, 2_000) {
        match kind {
            0 => {
                list.insert(&mut h, key);
            }
            1 => {
                list.remove(&mut h, key);
            }
            _ => {
                list.contains(&mut h, key);
            }
        }
    }
    list.collect(&mut h)
}

#[test]
fn same_seed_same_final_structure_contents_under_mp() {
    let first = final_contents::<Mp>();
    let second = final_contents::<Mp>();
    assert_eq!(first, second, "identical seeds must produce identical final contents");
    assert!(!first.is_empty(), "the sequence should have left keys behind");
}

#[test]
fn same_seed_same_final_structure_contents_under_hp() {
    assert_eq!(final_contents::<Hp>(), final_contents::<Hp>());
}

#[test]
fn same_seed_same_final_structure_contents_under_ebr() {
    assert_eq!(final_contents::<Ebr>(), final_contents::<Ebr>());
}

/// Single-threaded operation results are a property of the *set*, not of
/// the reclamation scheme: the same seed must leave the same keys behind
/// no matter which scheme reclaimed the garbage along the way. A scheme
/// that frees a live node (or resurrects a dead one) breaks this.
#[test]
fn final_contents_agree_across_schemes() {
    let mp = final_contents::<Mp>();
    assert_eq!(mp, final_contents::<Hp>(), "MP and HP diverged on one op stream");
    assert_eq!(mp, final_contents::<Ebr>(), "MP and EBR diverged on one op stream");
}

/// Golden stream for the exact seed the bench driver defaults to, as
/// literals: any change to the PRNG (or its seeding path) that would break
/// recorded benchmark reproducibility trips this before a bench ever runs.
#[test]
fn bench_default_seed_stream_is_stable() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_cafe_f00d_0001);
    let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(first[..2], [0xc638_e5f8_ebe6_5308, 0xc103_22dc_8041_22f0]);
    assert_eq!(first[2..], [0xac55_90d3_69fe_2a32, 0xc0f2_fd0f_45cc_fc57]);
    // Draws through the sampling layer are pinned too.
    let mut r = SmallRng::seed_from_u64(0x5eed_cafe_f00d_0001);
    let draws: Vec<u64> = (0..8).map(|_| r.random_range(0..1_000u64)).collect();
    assert_eq!(draws, [774, 753, 673, 753, 55, 356, 59, 488]);
}
