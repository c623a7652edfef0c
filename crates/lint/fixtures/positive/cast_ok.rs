//! Positive fixture — pass 4 (cast): an escaped pun and one in test code.
//! Linted under `crates/smr/src/cast_ok.rs`; must be clean.

pub fn entropy(seed_addr: *const u8) -> usize {
    // CAST-OK: the address seeds a hash; it is never decoded back.
    seed_addr as usize
}

#[cfg(test)]
mod tests {
    #[test]
    fn puns_are_fine_in_test_spans() {
        let node_ptr = &0u8 as *const u8;
        assert_ne!(node_ptr as usize, 0);
    }
}
