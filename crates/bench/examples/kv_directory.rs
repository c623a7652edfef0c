//! A realistic client scenario: a concurrent session directory.
//!
//! A service keeps an ordered index of active session ids (NM tree under
//! MP). Frontend threads look sessions up on every request; a login thread
//! registers new sessions; an expiry thread removes stale ones. The
//! directory must bound its memory overhead even if a frontend thread gets
//! descheduled mid-lookup — exactly the paper's "high-availability and
//! soft real-time" motivation for bounded wasted memory (§1).
//!
//! ```sh
//! cargo run --release -p mp-bench --example kv_directory
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mp_ds::{ConcurrentSet, NmTree};
use mp_smr::{schemes::Mp, Config, Smr, SmrHandle};

const INITIAL_SESSIONS: u64 = 50_000;

/// Session ids are sequential, but the NM tree is an *unbalanced* external
/// BST — inserting monotone keys would degenerate it into a list. Real
/// deployments index by a hashed key; we use Fibonacci hashing into the
/// 48-bit key space (invertible, so ids remain recoverable).
fn session_key(sid: u64) -> u64 {
    (sid.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 16
}

fn main() {
    let smr = Mp::new(Config { max_threads: 8, margin: 1 << 24, ..Config::default() });
    // The directory maps hashed session keys to user ids (the key/value
    // flavor of Definition 4.1's search data structure).
    let dir: Arc<NmTree<Mp, u64>> = Arc::new(NmTree::new(&smr));
    let stop = Arc::new(AtomicBool::new(false));
    let next_session = Arc::new(AtomicU64::new(INITIAL_SESSIONS));
    let oldest_live = Arc::new(AtomicU64::new(0));

    // Bootstrap the directory.
    {
        let mut h = smr.register();
        for sid in 0..INITIAL_SESSIONS {
            dir.insert_kv(&mut h, session_key(sid), sid); // value: the user id
        }
    }

    let hits = Arc::new(AtomicU64::new(0));
    let misses = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Two frontend lookup threads.
        for _ in 0..2 {
            let (smr, dir, stop) = (smr.clone(), dir.clone(), stop.clone());
            let (next, oldest) = (next_session.clone(), oldest_live.clone());
            let (hits, misses) = (hits.clone(), misses.clone());
            s.spawn(move || {
                let mut h = smr.register();
                let mut x = 0x1234_5678_u64;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let hi = next.load(Ordering::Relaxed);
                    let lo = oldest.load(Ordering::Relaxed);
                    let sid = lo + x % (hi - lo).max(1);
                    if let Some(user) = dir.get(&mut h, session_key(sid)) {
                        assert_eq!(user, sid, "value integrity under churn");
                        hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // Login thread: registers fresh sessions.
        {
            let (smr, dir, stop, next) =
                (smr.clone(), dir.clone(), stop.clone(), next_session.clone());
            s.spawn(move || {
                let mut h = smr.register();
                while !stop.load(Ordering::Relaxed) {
                    let sid = next.fetch_add(1, Ordering::Relaxed);
                    dir.insert_kv(&mut h, session_key(sid), sid);
                }
            });
        }
        // A descheduled frontend: enters an operation via the RAII guard
        // and then sleeps through the whole run — the paper's §1 scenario.
        // Under MP the open operation pins only a bounded neighborhood of
        // retired nodes, so the final wasted-memory figure stays small; the
        // guard guarantees the operation ends (protections released) when
        // the thread exits, even if it panicked mid-sleep.
        {
            let (smr, stop) = (smr.clone(), stop.clone());
            s.spawn(move || {
                let mut h = smr.register();
                let _op = h.pin(); // announced; now descheduled mid-lookup
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        // Expiry thread: evicts the oldest sessions, but never drains the
        // directory below a working set of 10 K live sessions.
        {
            let (smr, dir, stop) = (smr.clone(), dir.clone(), stop.clone());
            let (next, oldest) = (next_session.clone(), oldest_live.clone());
            s.spawn(move || {
                let mut h = smr.register();
                while !stop.load(Ordering::Relaxed) {
                    let hi = next.load(Ordering::Relaxed);
                    let lo = oldest.load(Ordering::Relaxed);
                    if hi.saturating_sub(lo) <= 10_000 {
                        std::thread::sleep(Duration::from_micros(50));
                        continue;
                    }
                    let sid = oldest.fetch_add(1, Ordering::Relaxed);
                    dir.remove(&mut h, session_key(sid));
                }
            });
        }

        std::thread::sleep(Duration::from_millis(800));
        stop.store(true, Ordering::Release);
    });

    let live = next_session.load(Ordering::Relaxed) - oldest_live.load(Ordering::Relaxed);
    println!(
        "lookups: {} hits / {} misses; ~{live} sessions live; \
         wasted memory right now: {} nodes (bounded by MP, even with a \
         frontend descheduled mid-operation the whole run)",
        hits.load(Ordering::Relaxed),
        misses.load(Ordering::Relaxed),
        smr.retired_pending(),
    );
}
