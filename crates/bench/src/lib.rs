//! # mp-bench — benchmark harness for the margin-pointers reproduction
//!
//! Reimplements the paper's evaluation methodology (§6): fixed-duration
//! runs in which every thread repeatedly invokes a random operation on a
//! uniformly random key, reporting aggregate throughput, wasted memory
//! (average retired-list length at operation start), and memory-fence
//! counts. One loop ([`driver`]) runs every point, one match
//! ([`driver::run_point`]) picks its concrete scheme and structure, and
//! one writer ([`report::Table::emit`]) records it. The `figures` bench
//! target regenerates every table — the paper's figures and Table 1, the
//! collision analysis, the takeaways and the oversubscribed soak — from
//! one sweep ([`figures`]) that measures each distinct point once.
//!
//! ## Scaling
//!
//! The paper ran 5-second, 10-repetition sweeps to 100 threads on an
//! 88-hardware-thread machine. One variable sizes the sweep:
//! `MP_BENCH_SCALE` is `smoke`, `ci` (the default) or `paper` ([`Scale`]).
//! `MP_BENCH_DIR` redirects the CSV output.

#![warn(missing_docs)]

use std::time::Duration;

pub mod churn;
pub mod driver;
pub mod figures;
pub mod linearize;
pub mod report;
pub mod workload;

pub use driver::{run_point, BenchParams, BenchResult, Point, Prefill, Structure};
pub use report::Table;
pub use workload::{KeyDist, Mix, READ_DOMINATED, READ_ONLY, WRITE_DOMINATED};

/// How large a figure sweep is: thread counts, run length, structure
/// size and repetitions, chosen together by `MP_BENCH_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Every table in seconds: threads {1, 2}, 40 ms points, structures of
    /// about 200 keys (`scripts/verify.sh`'s bench stage).
    Smoke,
    /// The default: threads {1, 2, 4}, 250 ms points, structures 1/25 of
    /// the paper's (500 K → 20 K, 5 K → 200).
    Ci,
    /// The paper's §6 parameters: threads 1..100, 5 s points, 10
    /// repetitions, full-size structures. Hours.
    Paper,
}

impl Scale {
    /// The scale `MP_BENCH_SCALE` names; [`Scale::Ci`] when it is unset.
    ///
    /// # Panics
    ///
    /// On a value that names no scale, listing the choices.
    pub fn from_env() -> Scale {
        match std::env::var("MP_BENCH_SCALE") {
            Ok(v) => v.parse().unwrap_or_else(|e| panic!("MP_BENCH_SCALE: {e}")),
            Err(_) => Scale::Ci,
        }
    }

    /// The thread counts to sweep.
    pub fn threads(self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![1, 2],
            Scale::Ci => vec![1, 2, 4],
            Scale::Paper => vec![1, 2, 4, 8, 16, 32, 48, 64, 80, 100],
        }
    }

    /// The largest swept thread count, where the single-thread-count
    /// figures (5, 7b, 7c, Table 1, the takeaways) run.
    pub fn max_threads(self) -> usize {
        *self.threads().last().expect("every scale sweeps a thread count")
    }

    /// Per-point run duration.
    pub fn duration(self) -> Duration {
        Duration::from_millis(match self {
            Scale::Smoke => 40,
            Scale::Ci => 250,
            Scale::Paper => 5_000,
        })
    }

    /// Structure prefill size `S` for an experiment the paper ran at
    /// `paper` keys; the key range is `2S` (§6).
    pub fn prefill(self, paper: usize) -> usize {
        match self {
            Scale::Smoke => (paper / 2_000).max(200),
            Scale::Ci => (paper / 25).max(200),
            Scale::Paper => paper,
        }
    }

    /// Repetitions per point (paper: 10).
    pub fn runs(self) -> usize {
        match self {
            Scale::Smoke | Scale::Ci => 1,
            Scale::Paper => 10,
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Scale, String> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "ci" => Ok(Scale::Ci),
            "paper" => Ok(Scale::Paper),
            _ => Err(format!("unknown scale {s:?} (expected one of: smoke, ci, paper)")),
        }
    }
}

/// The §6 comparison set, in the order every table lists it. DTA is
/// list-specific (without its freezer it degenerates to EBR) and joins
/// only the list's rows.
pub const COMPARISON_SET: [mp_smr::SchemeKind; 5] = {
    use mp_smr::SchemeKind::{Ebr, He, Hp, Ibr, Mp};
    [Mp, Ibr, He, Hp, Ebr]
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse_by_name_and_reject_anything_else() {
        for (name, scale) in [("smoke", Scale::Smoke), ("ci", Scale::Ci), ("paper", Scale::Paper)] {
            assert_eq!(name.parse::<Scale>(), Ok(scale));
        }
        let err = "full".parse::<Scale>().unwrap_err();
        assert!(err.contains("smoke, ci, paper"), "{err}");
    }
}
