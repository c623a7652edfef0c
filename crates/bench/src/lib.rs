//! # mp-bench — benchmark harness for the margin-pointers reproduction
//!
//! Reimplements the paper's evaluation methodology (§6): fixed-duration
//! runs in which every thread repeatedly invokes a random operation on a
//! uniformly random key, reporting aggregate throughput, wasted memory
//! (average retired-list length at operation start), and memory-fence
//! counts. One loop ([`driver`]) runs every point and one writer
//! ([`report::Table::emit`]) records it; one `harness = false` bench
//! target per paper table/figure regenerates the corresponding rows (see
//! DESIGN.md's per-experiment index), and the `soak` target drives the
//! same loop oversubscribed, with skewed keys, handle churn and optional
//! stalled readers.
//!
//! ## Scaling
//!
//! The paper ran 5-second, 10-repetition sweeps to 100 threads on an
//! 88-hardware-thread machine. Defaults here are CI-sized; set
//! `MP_BENCH_FULL=1` for paper-scale parameters, or override individual
//! knobs: `MP_BENCH_THREADS` (comma list), `MP_BENCH_DURATION_MS`,
//! `MP_BENCH_PREFILL`, `MP_BENCH_RUNS`. `MP_BENCH_DIR` redirects the
//! CSV output.

#![warn(missing_docs)]

pub mod driver;
pub mod linearize;
pub mod report;
pub mod workload;

pub use driver::{run, run_kind, BenchParams, BenchResult, Prefill};
pub use report::Table;
pub use workload::{KeyDist, Mix, READ_DOMINATED, READ_ONLY, WRITE_DOMINATED};

/// Reads the thread counts to sweep (env `MP_BENCH_THREADS`, e.g. "1,2,4").
pub fn thread_sweep() -> Vec<usize> {
    if let Ok(s) = std::env::var("MP_BENCH_THREADS") {
        return s.split(',').filter_map(|t| t.trim().parse().ok()).collect();
    }
    if full_scale() {
        vec![1, 2, 4, 8, 16, 32, 48, 64, 80, 100]
    } else {
        vec![1, 2, 4]
    }
}

/// Per-point run duration.
pub fn duration() -> std::time::Duration {
    let ms = std::env::var("MP_BENCH_DURATION_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if full_scale() { 5_000 } else { 250 });
    std::time::Duration::from_millis(ms)
}

/// Structure prefill size (`S`); the key range is `2S` (§6). The paper uses
/// S = 500 K for the BST/skip list and 5 K for the list.
pub fn prefill_size(paper_default: usize) -> usize {
    if let Ok(s) = std::env::var("MP_BENCH_PREFILL") {
        if let Ok(v) = s.parse() {
            return v;
        }
    }
    if full_scale() {
        paper_default
    } else {
        // CI scale: shrink 500 K → 20 K and 5 K → 1 K.
        (paper_default / 25).max(200)
    }
}

/// Repetitions per data point (paper: 10).
pub fn runs() -> usize {
    std::env::var("MP_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if full_scale() { 10 } else { 1 })
}

/// True when `MP_BENCH_FULL=1`: reproduce at the paper's scale.
pub fn full_scale() -> bool {
    std::env::var("MP_BENCH_FULL").map(|v| v == "1").unwrap_or(false)
}

/// The §6 comparison set in [`for_each_scheme!`]'s order, for sweeps that
/// select the scheme at run time ([`run_kind`]). DTA is list-specific
/// (without its freezer it degenerates to EBR) and not part of it.
pub const COMPARISON_SET: [mp_smr::SchemeKind; 5] = {
    use mp_smr::SchemeKind::{Ebr, He, Hp, Ibr, Mp};
    [Mp, Ibr, He, Hp, Ebr]
};

/// Runs `$body` once per SMR scheme (the §6 comparison set: MP, IBR, HE,
/// HP, EBR), binding `$scheme_ty`/`$name`/a freshly computed [`BenchResult`]
/// for the data-structure family `$ds` (a generic type constructor such as
/// `LinkedList`). DTA is list-specific and handled separately (Figure 4).
#[macro_export]
macro_rules! for_each_scheme {
    ($ds:ident, $p:expr, $runs:expr, |$name:ident, $res:ident| $body:block) => {{
        {
            let $name = "MP";
            let $res =
                $crate::driver::run_avg::<mp_smr::schemes::Mp, $ds<mp_smr::schemes::Mp>>($p, $runs);
            $body
        }
        {
            let $name = "IBR";
            let $res = $crate::driver::run_avg::<mp_smr::schemes::Ibr, $ds<mp_smr::schemes::Ibr>>(
                $p, $runs,
            );
            $body
        }
        {
            let $name = "HE";
            let $res =
                $crate::driver::run_avg::<mp_smr::schemes::He, $ds<mp_smr::schemes::He>>($p, $runs);
            $body
        }
        {
            let $name = "HP";
            let $res =
                $crate::driver::run_avg::<mp_smr::schemes::Hp, $ds<mp_smr::schemes::Hp>>($p, $runs);
            $body
        }
        {
            let $name = "EBR";
            let $res = $crate::driver::run_avg::<mp_smr::schemes::Ebr, $ds<mp_smr::schemes::Ebr>>(
                $p, $runs,
            );
            $body
        }
    }};
}
