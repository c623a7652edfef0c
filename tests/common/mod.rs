//! The root suites' property runner. It cannot sit in mp-bench beside
//! `mp_bench::churn`: `mp_smr::oracle` exists only in armed builds, and
//! mp-bench is also built unarmed.

use margin_pointers::smr::oracle;
use mp_util::{Checker, SmallRng};

/// Runs `property` on `cases` inputs drawn by `generate` under a `Checker`
/// named `name`, with oracle reports naming the seed `MP_CHECK_SEED` replays.
pub fn check<T: Clone + std::fmt::Debug>(
    name: &str,
    cases: usize,
    generate: impl FnMut(&mut SmallRng) -> Vec<T>,
    property: impl Fn(&[T]),
) {
    let checker = Checker::new().cases(cases);
    oracle::set_replay_seed(checker.base_seed());
    checker.run(name, generate, property);
}
