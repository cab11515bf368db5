//! Known-bad fixture: wall-clock reads (D02) with pinned line numbers.
//! Linted by `tests/rules.rs` under the label
//! `crates/sim/src/bad_determinism.rs`; never compiled, and the
//! workspace walk skips `fixtures` directories.

fn wall_clock() {
    let _t = Instant::now();
    let _s = SystemTime::now();
}
