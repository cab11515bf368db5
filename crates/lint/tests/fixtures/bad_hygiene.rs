//! Known-bad fixture: malformed pragmas (A01) with pinned line numbers.
//! Never compiled; see `tests/rules.rs`.

// lint:allow(D02)
fn pragma_without_reason() {}

// lint:allow(Z99) -- suppressing a rule that does not exist
fn pragma_unknown_rule() {}

// lint:allow(D01) -- a retired rule, now clippy's disallowed-types
fn pragma_retired_rule() {}

// lint:allow(S02) -- a retired rule, now an exhaustive destructure
fn pragma_retired_snapshot_rule() {}
