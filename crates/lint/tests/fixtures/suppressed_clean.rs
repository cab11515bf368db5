//! Fixture: every violation carries a well-formed pragma, so the file
//! is clean (zero unsuppressed findings) but the suppressions are
//! visible in the report. See `tests/rules.rs`.
// lint:snapshot-state

use std::collections::HashMap;

struct Index {
    // lint:allow(S01) -- lookup-only, never iterated
    by_id: HashMap<u64, usize>,
}

impl Index {
    fn get(&self, id: u64) -> Option<usize> {
        self.by_id.get(&id).copied()
    }
}

fn measured() {
    // lint:allow(D02) -- operator-facing stopwatch, not sim time
    let _t = Instant::now();
}
