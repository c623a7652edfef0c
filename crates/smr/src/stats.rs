//! Per-handle operation statistics.
//!
//! The paper's evaluation reports three metrics beyond throughput:
//! memory fences issued per traversed node (Figure 5), the average length of
//! a thread's retired list sampled at operation start (Figure 6, 7c), and
//! MP's hazard-pointer fallback rate (Figure 7a discussion). Counters are
//! plain per-handle `u64`s — no atomics on the hot path — and are aggregated
//! by the benchmark driver after threads join.

/// Which protection-path call site issued a fence. The per-site split is
/// the profiling surface behind the fence-amortization work: ~64 fences/op
/// is indistinguishable from ~2 fences/op in the aggregate `fences` counter
/// until you know whether they come from per-op bracketing (`StartOp` /
/// `EndOp`), per-uncovered-node margin announcements (`Announce`), or the
/// §4.3.2 hazard-pointer fallback (`HpProtect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceSite {
    /// Operation-start announcement (epoch / era / reservation publish).
    StartOp,
    /// Operation-end slot clearing (ablation or single batched fence).
    EndOp,
    /// Mid-operation protection announcement: MP margin announce, HE era
    /// re-publish, IBR upper-bound extension, DTA anchor post.
    Announce,
    /// Hazard-pointer protection store: HP's per-node announce and MP's
    /// §4.3.2 collision/epoch fallback.
    HpProtect,
}

/// Counters accumulated by one SMR handle.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OpStats {
    /// Full memory fences (or sequentially consistent protection stores)
    /// issued on the protection path.
    pub fences: u64,
    /// Fences issued at operation start ([`FenceSite::StartOp`]).
    pub fences_start_op: u64,
    /// Fences issued at operation end ([`FenceSite::EndOp`]).
    pub fences_end_op: u64,
    /// Fences issued by mid-op protection announcements
    /// ([`FenceSite::Announce`]).
    pub fences_announce: u64,
    /// Fences issued by hazard-pointer protection stores
    /// ([`FenceSite::HpProtect`]).
    pub fences_hp_protect: u64,
    /// Nodes traversed, incremented by the client data structure once per
    /// node visited during searches. Denominator of Figure 5.
    pub nodes_traversed: u64,
    /// Operations started (`start_op` calls).
    pub ops: u64,
    /// Sum over operations of the retired-list length at `start_op`.
    /// `retired_sampled_sum / ops` is Figure 6's wasted-memory metric.
    pub retired_sampled_sum: u64,
    /// Nodes allocated through this handle.
    pub allocs: u64,
    /// Nodes retired through this handle.
    pub retires: u64,
    /// Nodes reclaimed (freed) by this handle's `empty()` runs.
    pub frees: u64,
    /// Reclamation passes executed.
    pub empties: u64,
    /// MP only: `read` calls that took the hazard-pointer fallback path
    /// (index collision, USE_HP class, or epoch-advance fallback).
    pub hp_fallback_reads: u64,
    /// MP only: nodes allocated with the `USE_HP` collision index.
    pub collision_allocs: u64,
    /// Node allocations served a recycled block (from the thread's magazine
    /// or a chunk free list). `pool_hits / allocs` is the pool hit rate.
    pub pool_hits: u64,
    /// Node allocations served a fresh carve: memory no node used before
    /// (cold pool), or an unpoolable layout sent to the system allocator.
    pub pool_misses: u64,
    /// `empty()` passes that had to grow a scan-scratch buffer (heap
    /// realloc during a reclamation scan). Zero in steady state — the
    /// zero-allocation-scan witness of the perf work.
    pub scan_heap_allocs: u64,
    /// `empty()` passes that adopted a peer's published protection
    /// snapshot instead of walking the slot rows (scan coalescing).
    pub snapshot_reuses: u64,
    /// Registrations that reused a tid released by an earlier handle
    /// (thread-churn witness; always 0 or 1 per handle, summed on merge).
    pub tid_recycles: u64,
    /// Total wall nanoseconds spent inside `empty()` scans. Always on
    /// (scans are rare, so the two clock reads per scan are noise);
    /// `scan_nanos / frees` is the bench's `scan_ns_per_free` column.
    pub scan_nanos: u64,
    /// Backpressure help-scans: reclamation passes this handle ran because
    /// the scheme's retired-bytes gauge crossed the help watermark (the
    /// first rung of the backpressure ladder), adopting orphans first.
    pub help_scans: u64,
    /// Backpressure throttle waits: bounded backoffs taken on the
    /// allocation path while the gauge sat above the hard cap (the second
    /// rung of the ladder).
    pub throttle_waits: u64,
}

impl OpStats {
    /// Merges `other` into `self` (used when aggregating across handles).
    ///
    /// Every field accumulates with `u64::saturating_add`: on a soak run
    /// long enough to approach the counter range, a merged total pins at
    /// `u64::MAX` instead of wrapping into a small nonsense value (debug
    /// builds would panic on the wrap; release builds would silently
    /// corrupt every derived ratio).
    pub fn merge(&mut self, other: &OpStats) {
        self.fences = self.fences.saturating_add(other.fences);
        self.fences_start_op = self.fences_start_op.saturating_add(other.fences_start_op);
        self.fences_end_op = self.fences_end_op.saturating_add(other.fences_end_op);
        self.fences_announce = self.fences_announce.saturating_add(other.fences_announce);
        self.fences_hp_protect = self.fences_hp_protect.saturating_add(other.fences_hp_protect);
        self.nodes_traversed = self.nodes_traversed.saturating_add(other.nodes_traversed);
        self.ops = self.ops.saturating_add(other.ops);
        self.retired_sampled_sum =
            self.retired_sampled_sum.saturating_add(other.retired_sampled_sum);
        self.allocs = self.allocs.saturating_add(other.allocs);
        self.retires = self.retires.saturating_add(other.retires);
        self.frees = self.frees.saturating_add(other.frees);
        self.empties = self.empties.saturating_add(other.empties);
        self.hp_fallback_reads = self.hp_fallback_reads.saturating_add(other.hp_fallback_reads);
        self.collision_allocs = self.collision_allocs.saturating_add(other.collision_allocs);
        self.pool_hits = self.pool_hits.saturating_add(other.pool_hits);
        self.pool_misses = self.pool_misses.saturating_add(other.pool_misses);
        self.scan_heap_allocs = self.scan_heap_allocs.saturating_add(other.scan_heap_allocs);
        self.snapshot_reuses = self.snapshot_reuses.saturating_add(other.snapshot_reuses);
        self.tid_recycles = self.tid_recycles.saturating_add(other.tid_recycles);
        self.scan_nanos = self.scan_nanos.saturating_add(other.scan_nanos);
        self.help_scans = self.help_scans.saturating_add(other.help_scans);
        self.throttle_waits = self.throttle_waits.saturating_add(other.throttle_waits);
    }

    /// Average scan nanoseconds per reclaimed node — the amortized cost of
    /// the reclamation path. The watermark trigger exists to keep this flat
    /// as threads scale; the fixed-cadence ablation is its baseline.
    pub fn scan_ns_per_free(&self) -> f64 {
        if self.frees == 0 {
            0.0
        } else {
            self.scan_nanos as f64 / self.frees as f64
        }
    }

    /// Fences issued per traversed node (Figure 5's y-axis).
    pub fn fences_per_node(&self) -> f64 {
        if self.nodes_traversed == 0 {
            0.0
        } else {
            self.fences as f64 / self.nodes_traversed as f64
        }
    }

    /// Average retired-list length at operation start (Figure 6's y-axis).
    pub fn avg_retired_at_op_start(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.retired_sampled_sum as f64 / self.ops as f64
        }
    }

    /// Fraction of node allocations served by the block pool, in `[0, 1]`.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Fresh-memory allocations per operation (node allocs that were not
    /// served a recycled block, i.e. pool misses, over ops).
    pub fn allocs_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.pool_misses as f64 / self.ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = OpStats { fences: 1, nodes_traversed: 2, ops: 3, ..Default::default() };
        let b = OpStats {
            fences: 10,
            fences_start_op: 4,
            fences_end_op: 3,
            fences_announce: 2,
            fences_hp_protect: 1,
            nodes_traversed: 20,
            ops: 30,
            retired_sampled_sum: 40,
            allocs: 50,
            retires: 60,
            frees: 70,
            empties: 80,
            hp_fallback_reads: 90,
            collision_allocs: 100,
            pool_hits: 110,
            pool_misses: 120,
            scan_heap_allocs: 130,
            snapshot_reuses: 140,
            tid_recycles: 150,
            scan_nanos: 160,
            help_scans: 170,
            throttle_waits: 180,
        };
        a.merge(&b);
        assert_eq!(a.fences, 11);
        assert_eq!(a.fences_start_op, 4);
        assert_eq!(a.fences_end_op, 3);
        assert_eq!(a.fences_announce, 2);
        assert_eq!(a.fences_hp_protect, 1);
        assert_eq!(a.nodes_traversed, 22);
        assert_eq!(a.ops, 33);
        assert_eq!(a.retired_sampled_sum, 40);
        assert_eq!(a.allocs, 50);
        assert_eq!(a.retires, 60);
        assert_eq!(a.frees, 70);
        assert_eq!(a.empties, 80);
        assert_eq!(a.hp_fallback_reads, 90);
        assert_eq!(a.collision_allocs, 100);
        assert_eq!(a.pool_hits, 110);
        assert_eq!(a.pool_misses, 120);
        assert_eq!(a.scan_heap_allocs, 130);
        assert_eq!(a.snapshot_reuses, 140);
        assert_eq!(a.tid_recycles, 150);
        assert_eq!(a.scan_nanos, 160);
        assert_eq!(a.help_scans, 170);
        assert_eq!(a.throttle_waits, 180);
    }

    /// Soak-run wrap audit: merging into a counter near `u64::MAX`
    /// saturates instead of wrapping — on every field, including both
    /// operands pre-saturated.
    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let near_max = OpStats {
            fences: u64::MAX - 1,
            fences_start_op: u64::MAX,
            fences_end_op: u64::MAX,
            fences_announce: u64::MAX,
            fences_hp_protect: u64::MAX,
            nodes_traversed: u64::MAX,
            ops: u64::MAX - 5,
            retired_sampled_sum: u64::MAX,
            allocs: u64::MAX,
            retires: u64::MAX,
            frees: u64::MAX,
            empties: u64::MAX,
            hp_fallback_reads: u64::MAX,
            collision_allocs: u64::MAX,
            pool_hits: u64::MAX,
            pool_misses: u64::MAX,
            scan_heap_allocs: u64::MAX,
            snapshot_reuses: u64::MAX,
            tid_recycles: u64::MAX,
            scan_nanos: u64::MAX,
            help_scans: u64::MAX,
            throttle_waits: u64::MAX,
        };
        let mut acc = near_max.clone();
        acc.merge(&OpStats { fences: 10, ops: 3, ..Default::default() });
        assert_eq!(acc.fences, u64::MAX, "fences pinned at MAX, not wrapped");
        assert_eq!(acc.ops, u64::MAX - 2, "headroom consumed exactly");
        acc.merge(&near_max);
        assert_eq!(acc, OpStats { ops: u64::MAX, fences: u64::MAX, ..near_max.clone() });
        // Ratios remain finite and sane at saturation.
        assert!(acc.fences_per_node() <= 1.0 + 1e-12);
    }

    #[test]
    fn derived_ratios() {
        let s = OpStats {
            fences: 5,
            nodes_traversed: 10,
            ops: 4,
            retired_sampled_sum: 12,
            ..Default::default()
        };
        assert!((s.fences_per_node() - 0.5).abs() < 1e-12);
        assert!((s.avg_retired_at_op_start() - 3.0).abs() < 1e-12);
        let z = OpStats::default();
        assert_eq!(z.fences_per_node(), 0.0);
        assert_eq!(z.avg_retired_at_op_start(), 0.0);
        assert_eq!(z.pool_hit_rate(), 0.0);
        assert_eq!(z.allocs_per_op(), 0.0);
        let p = OpStats { ops: 8, pool_hits: 6, pool_misses: 2, ..Default::default() };
        assert!((p.pool_hit_rate() - 0.75).abs() < 1e-12);
        assert!((p.allocs_per_op() - 0.25).abs() < 1e-12);
        assert_eq!(z.scan_ns_per_free(), 0.0);
        let s = OpStats { frees: 4, scan_nanos: 1000, ..Default::default() };
        assert!((s.scan_ns_per_free() - 250.0).abs() < 1e-12);
    }
}
