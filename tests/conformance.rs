//! Conformance matrix: every SMR scheme on every structure it supports,
//! run through one recorded churn (`mp_bench::churn`) with and without a
//! misbehaving thread.
//!
//! Each combo runs seeded plans on two workers while a third thread
//! misbehaves in one of the two ways the paper's threat model cares
//! about: it stalls inside a pinned operation (§1), or it unwinds out of
//! pinned operations again and again. Fourteen combos also run a
//! fault-free row: four workers × 3 000 operations over 24 keys. Further
//! down, the scenario matrix adds a leaked pin, registry exhaustion and a
//! killed thread at six workers, a wide-margin stall checks Theorem 4.2,
//! and MP on the list, the skip list and the NM-tree meets a thread that
//! stalls again and again.
//!
//! Every row records its whole run, faults and recovery included, and
//! the harness checks that history for linearizability. The root
//! package's mp-smr dev-dependency arms the reclamation oracle for every
//! test build: any lifecycle violation (double retire, double free,
//! use-after-free via the poisoned-canary check on every `deref`) panics
//! at once, and each scheme's waste bound is checked inside every scan.
//! Plans come from `Checker`, so a failure prints the seed that
//! `MP_CHECK_SEED` replays, and the fault rows' plans are shrunk.

mod common;

use mp_bench::churn::{self, seeds, Churn, Draw, Fault};
use mp_util::{RngExt, SmallRng};

use margin_pointers::ds::{ConcurrentSet, DtaList, HashMap, LinkedList, NmTree, SkipList};
use margin_pointers::smr::schemes::{Dta, Ebr, He, Hp, Ibr, Leaky, Mp};
use margin_pointers::smr::{Config, Smr, SmrHandle};

/// The fault rows' key space.
const KEY_SPACE: u64 = 48;

/// Aggressive cadences so reclamation (and with it the oracle's
/// free/waste-bound hooks) runs many times within a short plan.
fn cfg() -> Config {
    Config {
        max_threads: 5,
        slots_per_thread: margin_pointers::ds::skiplist::SLOTS_NEEDED,
        empty_freq: 4,
        epoch_freq: 8,
        anchor_hops: 4,
        stall_patience: 2,
        ..Config::default()
    }
}

/// The running test's name, which libtest gives the thread running it.
fn test_name() -> String {
    std::thread::current().name().unwrap_or("conformance").to_owned()
}

/// Two workers split a plan of 64–256 steps by parity while `fault`'s
/// thread misbehaves; a few keys are prefilled so early removes have
/// something to reclaim.
fn survives<S: Smr, D: ConcurrentSet<S>>(fault: Fault) {
    let generate = |rng: &mut SmallRng| {
        let len = rng.random_range(64..256);
        churn::plan(rng, Draw::Thirds, len, KEY_SPACE)
    };
    common::check(&test_name(), 3, generate, |steps| {
        let share = |first| steps.iter().skip(first).step_by(2).copied().collect();
        Churn {
            prefill: (0..8).map(|k| k * 5 % KEY_SPACE).collect(),
            keys: KEY_SPACE,
            workers: vec![share(0), share(1)],
            fault: Some(fault),
        }
        .run::<S, D>(&S::new(cfg()));
    });
}

/// The fault-free row: four workers × 3 000 steps over 24 keys, half of
/// them prefilled, for the most same-key contention.
fn fault_free_row<S: Smr, D: ConcurrentSet<S>>() {
    const KEYS: u64 = 24;
    common::check(&test_name(), 1, seeds(4), |seeds| {
        Churn {
            prefill: (0..KEYS).step_by(2).collect(),
            keys: KEYS,
            workers: churn::plans(seeds, Draw::Thirds, 3_000, KEYS),
            fault: None,
        }
        .run::<S, D>(&S::new(cfg()));
    });
}

/// Expands one module per scheme × structure combo, holding the two fault
/// rows and, where a combo names it, the fault-free row.
macro_rules! conformance_suite {
    ($($module:ident => $scheme:ident on $ds:ty $(, $fault_free:ident)?;)*) => {$(
        mod $module {
            use super::*;

            #[test]
            fn survives_a_stalled_thread() {
                survives::<$scheme, $ds>(Fault::Stall);
            }

            #[test]
            fn survives_mid_op_panics() {
                survives::<$scheme, $ds>(Fault::MidOpPanic);
            }

            $(
                #[test]
                fn $fault_free() {
                    fault_free_row::<$scheme, $ds>();
                }
            )?
        }
    )*};
}

/// Fence-amortization-specific stall scenario: with persistent margins, a
/// stalled thread pins intervals it announced in *earlier, completed*
/// operations — a wider exposure than the pre-amortization design, where
/// `end_op` withdrew every margin. Writers churn exactly the covered
/// range; the explicit Theorem 4.2 formula check below, and under the
/// oracle its waste-bound monitor inside every `empty()`, must hold: the
/// epoch filter, not margin withdrawal, is what caps the pile-up.
mod mp_stalled_wide_margin {
    use super::*;

    const STALL_MARGIN: u32 = 1 << 24;
    const STALL_SLOTS: usize = margin_pointers::ds::skiplist::SLOTS_NEEDED;

    fn stall_config() -> Config {
        Config {
            max_threads: 5,
            slots_per_thread: STALL_SLOTS,
            empty_freq: 4,
            epoch_freq: 8,
            margin: STALL_MARGIN,
            ..Config::default()
        }
    }

    /// Theorem 4.2 terms: waste ≤ T·H + T·H·M·F·T with M = margin + 2^16
    /// (precision slack).
    fn theorem_bound() -> u128 {
        let t = 5u128;
        let h = STALL_SLOTS as u128;
        let m = STALL_MARGIN as u128 + (1 << 16);
        let f = 8u128;
        t * h + t * h * m * f * t
    }

    /// The §1 scenario: the staller's completed reads leave standing
    /// margins over the whole key range, then it stalls inside a pinned
    /// op while two writers run 7 200 updates each on the covered keys.
    #[test]
    fn waste_stays_in_theorem_4_2_bound_under_covered_churn() {
        common::check(&test_name(), 1, seeds(2), |seeds| {
            let peak_pending = Churn {
                prefill: (0..KEY_SPACE).collect(),
                keys: KEY_SPACE,
                workers: churn::plans(seeds, Draw::RemoveInsert, 7_200, KEY_SPACE),
                fault: Some(Fault::ReadThenStall),
            }
            .run::<Mp, LinkedList<Mp>>(&Mp::new(stall_config()))
            .peak_pending;
            // Under the oracle the Theorem 4.2 bound is also enforced
            // inside every scan.
            let bound = theorem_bound();
            assert!(
                (peak_pending as u128) <= bound,
                "peak waste {peak_pending} exceeds Theorem 4.2 bound {bound}"
            );
            // Empirical sharpness: the stalled margins cover the whole
            // churned range, so without the epoch filter the pile-up would
            // track the total churn (thousands of retires). The filter caps
            // the margin-pinned set at nodes whose lifetime contains the
            // stalled epoch, leaving only scan-cadence backlog (each
            // writer's unscanned list, up to the 2·5·31 = 310-node
            // watermark) on top.
            assert!(
                peak_pending <= 2_000,
                "stalled wide margin pinned {peak_pending} nodes; epoch filter ineffective"
            );
        });
    }
}

/// MP on the list, skip list and NM-tree while one thread stalls again and
/// again holding the margins its last read announced, under fast epochs.
/// This is the window where a node born after the stalled thread's epoch
/// could be margin-covered yet invisible to the reclaimer's epoch filter
/// (see mp.rs's module docs for the deviation that closes it): a node
/// freed there shows as a canary panic or a non-linearizable read.
mod mp_repeated_stall {
    use super::*;

    const KEYS: u64 = 512;

    fn stall_cfg() -> Config {
        Config {
            max_threads: 8,
            slots_per_thread: margin_pointers::ds::skiplist::SLOTS_NEEDED,
            empty_freq: 4,
            epoch_freq: 8,
            ..Config::default()
        }
    }

    /// Most nodes pending at any poll: the bound a scheme that freed
    /// nothing would break, since every case retires over twice as many.
    const PENDING_BOUND: usize = 5_000;

    /// Three workers × 24 000 steps over 512 keys, half of them prefilled:
    /// about 12 000 retires a case on the list and skip list, 24 000 on the
    /// NM-tree, which retires two nodes per remove. The staller must have
    /// stalled a hundred times at least, so stalls came and went all
    /// through the churn.
    fn safe_and_bounded<D: ConcurrentSet<Mp>>() {
        common::check(&test_name(), 3, seeds(3), |seeds| {
            let outcome = Churn {
                prefill: (0..KEYS).step_by(2).collect(),
                keys: KEYS,
                workers: churn::plans(seeds, Draw::Thirds, 24_000, KEYS),
                fault: Some(Fault::RepeatedStall),
            }
            .run::<Mp, D>(&Mp::new(stall_cfg()));
            let retires = outcome.stats.retires() as usize;
            assert!(retires > 2 * PENDING_BOUND, "only {retires} retires: the bound shows nothing");
            let stalls = outcome.misbehaver_ops;
            assert!(stalls >= 100, "the staller stalled only {stalls} times");
            let peak = outcome.peak_pending;
            assert!(peak < PENDING_BOUND, "waste {peak} not bounded ({retires} retires)");
        });
    }

    #[test]
    fn list() {
        safe_and_bounded::<LinkedList<Mp>>();
    }

    #[test]
    fn skiplist() {
        safe_and_bounded::<SkipList<Mp>>();
    }

    #[test]
    fn nmtree() {
        safe_and_bounded::<NmTree<Mp>>();
    }
}

/// Robustness scenario matrix: four thread-misbehavior scenarios × the
/// four schemes the paper's comparison leans on, at a higher thread count
/// than the base suite. Each scenario must (a) complete — no deadlock, no
/// OOM, every worker's plan recorded — (b) leave a linearizable history
/// through the fault and the recovery after it, and (c) for the
/// bounded-waste schemes (MP, HP, HE) keep the scheme's retired-node gauge
/// under the cap the scan trigger implies: no handle holds more than a
/// watermark plus `empty_freq` unscanned or kept nodes. EBR is exempt from
/// (c) by design — a stalled or leaked pin defeats epoch reclamation (§1),
/// which is exactly the paper's motivation; survival is still asserted.
mod scenario_matrix {
    use super::*;

    const WORKERS: usize = 6;
    /// 1 500 insert-remove pairs.
    const OPS_PER_WORKER: usize = 3_000;
    /// The list's slot row, as the benchmark's `list-read` sizes it. The
    /// trigger's watermark grows with the row: a skip list's 31 slots would
    /// let each handle hold 620 unscanned nodes.
    const LIST_SLOTS: usize = 4;
    /// Handles that retire: the workers and the misbehaver (the prefill
    /// only inserts, the recovery runs after the poll).
    const RETIRING_HANDLES: usize = WORKERS + 1;

    /// Aggressive cadences. `max_threads` leaves exactly a couple of spare
    /// slots so registry exhaustion comes quickly while the other faults
    /// keep the recovery's slot.
    fn matrix_cfg() -> Config {
        Config {
            max_threads: WORKERS + 4,
            slots_per_thread: LIST_SLOTS,
            empty_freq: 64,
            epoch_freq: 16,
            ..Config::default()
        }
    }

    /// Check (c)'s cap in nodes: a handle scans once its list reaches the
    /// watermark `max(empty_freq, 2·T·H)` and re-arms at `kept +
    /// empty_freq`, so each retiring handle holds at most a watermark plus
    /// `empty_freq` — 7 × (80 + 64) = 1 008 nodes here.
    ///
    /// That assumes a scan keeps at most a watermark's worth, which holds
    /// for MP and HP but not for HE: HE keeps every retired node whose
    /// lifetime spans a reserved era, however many that is. So the cap
    /// holds for insert-then-remove pairs only, the matrix's draw, which
    /// keeps the list near empty and the nodes short-lived (HE peaked at
    /// 657–721). Remove-then-insert pairs keep the 48-key list full, and
    /// there HE reached 1 052. A bound derived per scheme replaces this
    /// cap in ROADMAP item 4.
    fn node_cap() -> usize {
        let c = matrix_cfg();
        let watermark = c.empty_freq.max(2 * c.max_threads * c.slots_per_thread);
        RETIRING_HANDLES * (watermark + c.empty_freq)
    }

    fn run_scenario<S: Smr>(fault: Fault, waste_capped: bool) {
        common::check(&test_name(), 1, seeds(WORKERS), |seeds| {
            let out = Churn {
                prefill: (0..KEY_SPACE).collect(),
                keys: KEY_SPACE,
                workers: churn::plans(seeds, Draw::InsertRemove, OPS_PER_WORKER, KEY_SPACE),
                fault: Some(fault),
            }
            .run::<S, LinkedList<S>>(&S::new(matrix_cfg()));
            // (a) Every recorded operation reached the scheme: its op
            // counter drops none under the fault.
            assert!(
                out.stats.ops() >= out.recorded as u64,
                "{}: {} operations recorded, {} counted",
                S::name(),
                out.recorded,
                out.stats.ops()
            );
            // (c) Bounded-waste schemes keep the gauge under the trigger's
            // cap even while a thread misbehaves; EBR is exempt (§1).
            if waste_capped {
                assert!(
                    out.peak_pending <= node_cap(),
                    "{}: peak retired nodes {} exceeded the trigger's cap of {}",
                    S::name(),
                    out.peak_pending,
                    node_cap()
                );
            }
        });
    }

    macro_rules! scenario_suite {
        ($($module:ident => $scheme:ident capped $capped:literal;)*) => {$(
            mod $module {
                use super::*;

                #[test]
                fn survives_a_stalled_pin() {
                    run_scenario::<$scheme>(Fault::Stall, $capped);
                }

                #[test]
                fn survives_a_leaked_pin_and_handle() {
                    run_scenario::<$scheme>(Fault::LeakedPin, $capped);
                }

                #[test]
                fn recovers_from_registry_exhaustion_with_tid_reuse() {
                    let fault = Fault::RegistryExhaustion { max_threads: WORKERS + 4 };
                    run_scenario::<$scheme>(fault, $capped);
                }

                #[test]
                fn survives_a_killed_thread_with_stranded_backlog() {
                    run_scenario::<$scheme>(Fault::KilledThread, $capped);
                }
            }
        )*};
    }

    scenario_suite! {
        mp  => Mp  capped true;
        hp  => Hp  capped true;
        he  => He  capped true;
        ebr => Ebr capped false;
    }
}

/// Every slot of the registry's first and last rows keeps its node
/// through a scan. Two readers take those rows and protect distinct nodes,
/// one per slot; the writer between them retires them all and scans, and
/// every node must stay retired and pass the canary check. Deterministic,
/// so a scan that skips a slot or a boundary row fails here on every run;
/// the stress rows above meet such a fault only when a race lands there.
/// MP runs without bound hints, so every read takes its §4.3.2 hazard
/// fallback.
mod slot_rows {
    use super::*;
    use margin_pointers::smr::{Atomic, Shared};
    use std::sync::atomic::Ordering;

    const SLOTS: usize = 4;

    fn every_slot_keeps_its_node<S: Smr>() {
        let smr = S::new(Config { max_threads: 3, slots_per_thread: SLOTS, ..Config::default() });
        // The registry hands out the lowest free tid: rows 0, 1 and 2.
        let (mut first, mut writer, mut last) = (smr.register(), smr.register(), smr.register());
        writer.start_op();
        let nodes: Vec<_> = (0..2 * SLOTS as u64).map(|k| writer.alloc(k)).collect();
        let cells: Vec<_> = nodes.iter().map(|&n| Atomic::new(n)).collect();
        let (firsts, lasts) = cells.split_at(SLOTS);
        first.start_op();
        last.start_op();
        let held: Vec<_> = (firsts.iter().enumerate().map(|(slot, c)| first.read(c, slot)))
            .chain(lasts.iter().enumerate().map(|(slot, c)| last.read(c, slot)))
            .collect();
        for (cell, &n) in cells.iter().zip(&nodes) {
            cell.store(Shared::null(), Ordering::Release);
            // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
            unsafe { writer.retire(n) };
        }
        writer.end_op();
        writer.force_empty();
        assert_eq!(writer.retired_len(), 2 * SLOTS, "{}: a scan freed a node a slot held", S::name());
        for (k, n) in held.iter().enumerate() {
            // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
            assert_eq!(unsafe { *n.deref().data() }, k as u64);
        }
        first.end_op();
        last.end_op();
    }

    #[test]
    fn hp() {
        every_slot_keeps_its_node::<Hp>();
    }

    #[test]
    fn he() {
        every_slot_keeps_its_node::<He>();
    }

    #[test]
    fn ibr() {
        every_slot_keeps_its_node::<Ibr>();
    }

    #[test]
    fn mp() {
        every_slot_keeps_its_node::<Mp>();
    }
}

conformance_suite! {
    mp_list       => Mp    on LinkedList<Mp>, histories_linearizable;
    mp_skiplist   => Mp    on SkipList<Mp>, histories_linearizable;
    mp_nmtree     => Mp    on NmTree<Mp>, histories_linearizable;
    mp_hashmap    => Mp    on HashMap<Mp>, histories_linearizable;
    hp_list       => Hp    on LinkedList<Hp>, histories_linearizable;
    hp_skiplist   => Hp    on SkipList<Hp>, histories_linearizable;
    hp_nmtree     => Hp    on NmTree<Hp>, histories_linearizable;
    hp_hashmap    => Hp    on HashMap<Hp>, histories_linearizable;
    ebr_list      => Ebr   on LinkedList<Ebr>, histories_linearizable;
    ebr_skiplist  => Ebr   on SkipList<Ebr>;
    ebr_nmtree    => Ebr   on NmTree<Ebr>;
    ebr_hashmap   => Ebr   on HashMap<Ebr>;
    he_list       => He    on LinkedList<He>, histories_linearizable;
    he_skiplist   => He    on SkipList<He>, histories_linearizable;
    he_nmtree     => He    on NmTree<He>;
    he_hashmap    => He    on HashMap<He>, histories_linearizable;
    ibr_list      => Ibr   on LinkedList<Ibr>;
    ibr_skiplist  => Ibr   on SkipList<Ibr>, histories_linearizable;
    ibr_nmtree    => Ibr   on NmTree<Ibr>;
    ibr_hashmap   => Ibr   on HashMap<Ibr>;
    leaky_list    => Leaky on LinkedList<Leaky>;
    leaky_skiplist=> Leaky on SkipList<Leaky>;
    leaky_nmtree  => Leaky on NmTree<Leaky>;
    leaky_hashmap => Leaky on HashMap<Leaky>;
    dta_list      => Dta   on DtaList, histories_linearizable;
}
