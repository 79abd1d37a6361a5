//! Fixture: `tests/` directories are exempt from the panic rule (this file
//! is even named `sim.rs` to prove the hot-path scope does not reach into
//! test targets).

#[test]
fn test_scaffolding_may_unwrap() {
    let values = vec![1_u32, 2, 3];
    let first = values.first().unwrap();
    let last = values[values.len() - 1];
    assert!(*first < last, "{}", "ordered".parse::<String>().expect("parses"));
}
