//! Fixture: in-file `#[cfg(test)]` modules get the same exemption as
//! `tests/` directories. The library half above the module stays covered
//! (the file is named `peers.rs` so that the hot-path panic rule applies).

fn library_half(values: &[u32]) -> u32 {
    *values.first().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit_tests_may_unwrap() {
        let values = [1, 2, 3];
        let first = values.first().unwrap();
        assert_eq!(super::library_half(&values), *first);
        assert_eq!(values[values.len() - 1], 3);
    }
}
