//! Fixture: every violation carries a well-formed pragma, so the file
//! is clean (zero unsuppressed findings) but the suppressions are
//! visible in the report. See `tests/rules.rs`.

fn measured() {
    // lint:allow(D02) -- operator-facing stopwatch, not sim time
    let _t = Instant::now();
}
