//! Every table of the paper's evaluation, the collision analysis, the
//! takeaways and the soak, from one sweep (`mp_bench::figures`).
//!
//! `cargo bench -p mp-bench --bench figures [-- <figure>…]` builds the
//! named figures (all of them by default) at the scale `MP_BENCH_SCALE`
//! names: `smoke`, `ci` (the default) or `paper`.

use mp_bench::{figures, Scale};

fn main() {
    // `cargo bench` passes `--bench`; every other argument names a figure.
    let only: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with('-')).collect();
    match figures::emit(Scale::from_env(), &only) {
        Ok(points) => eprintln!("[figures] {points} distinct points measured"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
