//! Fixture: the suppression pragma protocol itself, on the hot-path panic
//! rule (the file is named `shard.rs` so that the rule applies).

fn pragmas(values: &[u32]) -> u32 {
    // nc-lint: allow(panic) — fixture: a justified pragma suppresses the
    // diagnostic on the next code line, even across a continuation comment.
    let carried = values.first().unwrap();

    // nc-lint: allow(panic)
    let reasonless = values.last().unwrap();

    // nc-lint: allow(det-map) — a retired rule is an unknown rule.
    carried + reasonless
}
