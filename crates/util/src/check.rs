//! A minimal seeded, shrinking, property-based test runner — the in-tree
//! replacement for the `proptest` dependency.
//!
//! [`Checker::run`] draws `cases` random input vectors from a deterministic
//! PRNG (one sub-stream per case, all derived from one base seed), feeds
//! each to a property closure, and on the first panic *shrinks* the failing
//! vector with a delta-debugging pass (drop ever-smaller chunks, keeping
//! any candidate that still fails) before reporting. The report contains
//! the base seed and the minimal failing input, and the seed can be
//! replayed exactly with the `MP_CHECK_SEED` environment variable:
//!
//! ```sh
//! MP_CHECK_SEED=0xdeadbeef cargo test -q failing_test_name
//! ```
//!
//! `MP_CHECK_CASES` overrides the case count the same way. Generation is
//! pure integer arithmetic over [`SmallRng`], so a seed
//! reproduces the same inputs on every platform.

use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};

use crate::rng::{SeedableRng, SmallRng};

/// Default base seed (overridden by `MP_CHECK_SEED`).
pub const DEFAULT_SEED: u64 = 0x6d70_5f63_6865_636b; // "mp_check"

/// Default number of cases per property (overridden by `MP_CHECK_CASES`).
pub const DEFAULT_CASES: usize = 32;

/// Configuration for one property run.
#[derive(Debug, Clone)]
pub struct Checker {
    seed: u64,
    cases: usize,
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("{name} must be a u64 (decimal or 0x-hex): {raw:?}")))
}

impl Default for Checker {
    fn default() -> Self {
        Self::new()
    }
}

impl Checker {
    /// Creates a checker honoring the `MP_CHECK_SEED` / `MP_CHECK_CASES`
    /// environment overrides.
    pub fn new() -> Self {
        Checker {
            seed: env_u64("MP_CHECK_SEED").unwrap_or(DEFAULT_SEED),
            cases: env_u64("MP_CHECK_CASES").unwrap_or(DEFAULT_CASES as u64) as usize,
        }
    }

    /// Overrides the number of cases (unless `MP_CHECK_CASES` is set, which
    /// wins — it exists to crank up or pin down a run from the outside).
    pub fn cases(mut self, n: usize) -> Self {
        if env_u64("MP_CHECK_CASES").is_none() {
            self.cases = n;
        }
        self
    }

    /// Overrides the base seed (unless `MP_CHECK_SEED` is set, which wins —
    /// that is the replay mechanism).
    pub fn seed(mut self, seed: u64) -> Self {
        if env_u64("MP_CHECK_SEED").is_none() {
            self.seed = seed;
        }
        self
    }

    /// The base seed in effect (print it to make any failure replayable).
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    /// The generator for case `i`: a deterministic sub-stream of the base
    /// seed. Public so tests can regenerate a case's inputs exactly (the
    /// fixed-seed determinism test relies on this).
    pub fn case_rng(&self, case: usize) -> SmallRng {
        // Distinct odd multiplier keeps sub-streams well separated even for
        // adjacent case numbers.
        SmallRng::seed_from_u64(self.seed ^ (case as u64).wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Runs `property` against `cases` generated input vectors; on failure,
    /// shrinks to a minimal failing vector and panics with a replayable
    /// report. `name` labels the report (use the test function's name).
    pub fn run<T, G, P>(&self, name: &str, mut generate: G, property: P)
    where
        T: Clone + Debug,
        G: FnMut(&mut SmallRng) -> Vec<T>,
        P: Fn(&[T]),
    {
        for case in 0..self.cases {
            let input = generate(&mut self.case_rng(case));
            if let Err(msg) = run_case(&property, &input) {
                let minimal = shrink(input, &property);
                let n = minimal.len();
                panic!(
                    "property `{name}` failed (case {case}/{}, base seed {:#x}).\n\
                     original failure: {msg}\n\
                     minimal failing input ({n} element{}): {minimal:#?}\n\
                     replay with: MP_CHECK_SEED={:#x} cargo test -q {name}",
                    self.cases,
                    self.seed,
                    if n == 1 { "" } else { "s" },
                    self.seed,
                );
            }
        }
    }
}

/// Runs the property once, converting a panic into `Err(message)`.
fn run_case<T, P: Fn(&[T])>(property: &P, input: &[T]) -> Result<(), String> {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| property(input)));
    outcome.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        }
    })
}

/// Delta-debugging shrink: repeatedly try dropping chunks (halving the
/// chunk size down to single elements), keeping any candidate that still
/// fails. The panic hook is silenced for the duration so the dozens of
/// intermediate failures don't spam the test output.
fn shrink<T: Clone + Debug, P: Fn(&[T])>(mut current: Vec<T>, property: &P) -> Vec<T> {
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.drain(i..(i + chunk).min(candidate.len()));
            if run_case(property, &candidate).is_err() {
                current = candidate; // keep the smaller failing input
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    panic::set_hook(prev_hook);
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0;
        Checker::new().cases(10).run(
            "count",
            |rng| {
                use crate::rng::RngExt;
                (0..4).map(|_| rng.random_range(0u32..100)).collect()
            },
            |_ops: &[u32]| {},
        );
        // `generate` is FnMut, so we can count invocations via a second run.
        Checker::new().cases(10).run(
            "count2",
            |_rng| {
                seen += 1;
                vec![0u8]
            },
            |_| {},
        );
        assert_eq!(seen, 10);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        use crate::rng::RngExt;
        let gen = |c: &Checker, case: usize| -> Vec<u64> {
            let mut rng = c.case_rng(case);
            (0..32).map(|_| rng.random_range(0u64..1000)).collect()
        };
        let a = Checker::new().seed(123);
        let b = Checker::new().seed(123);
        let c = Checker::new().seed(124);
        assert_eq!(gen(&a, 0), gen(&b, 0));
        assert_eq!(gen(&a, 5), gen(&b, 5));
        assert_ne!(gen(&a, 0), gen(&a, 1), "cases draw distinct sub-streams");
        assert_ne!(gen(&a, 0), gen(&c, 0), "seeds produce distinct streams");
    }

    #[test]
    fn failing_property_shrinks_to_minimal_input() {
        // Property: "no vector contains a multiple of 7 greater than 20".
        // The minimal counterexample is a single offending element.
        let result = panic::catch_unwind(|| {
            Checker::new().seed(1).cases(50).run(
                "shrink_demo",
                |rng| {
                    use crate::rng::RngExt;
                    let len = rng.random_range(1usize..40);
                    (0..len).map(|_| rng.random_range(0u32..200)).collect()
                },
                |xs: &[u32]| {
                    for &x in xs {
                        assert!(!(x > 20 && x % 7 == 0), "bad element {x}");
                    }
                },
            );
        });
        let msg = match result {
            Ok(()) => panic!("property should have failed"),
            Err(p) => p.downcast_ref::<String>().expect("string payload").clone(),
        };
        assert!(msg.contains("minimal failing input (1 element)"), "not minimal: {msg}");
        assert!(msg.contains("MP_CHECK_SEED="), "missing replay line: {msg}");
        assert!(msg.contains("bad element"), "missing original failure: {msg}");
    }

    #[test]
    fn shrink_preserves_failure() {
        // A failure that needs two specific elements to co-occur: shrinking
        // must keep both.
        let failing = vec![1u32, 9, 2, 7, 9, 3, 7];
        let shrunk = shrink(failing, &|xs: &[u32]| {
            let nines = xs.iter().filter(|&&x| x == 9).count();
            let sevens = xs.iter().filter(|&&x| x == 7).count();
            assert!(!(nines >= 1 && sevens >= 1), "9 and 7 together");
        });
        assert_eq!(shrunk.len(), 2);
        assert!(shrunk.contains(&9) && shrunk.contains(&7), "{shrunk:?}");
    }
}
