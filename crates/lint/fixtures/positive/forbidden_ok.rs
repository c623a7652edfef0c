//! Positive fixture — pass 4 (forbidden): escaped and exempt uses of the
//! denied APIs. Linted under `crates/smr/src/forbidden_ok.rs`; must be
//! clean.

use core::mem;

pub fn entropy(seed_addr: *const u8) -> usize {
    // CAST-OK: the address seeds a hash; it is never decoded back.
    seed_addr as usize
}

pub fn width(table: &Table) -> usize {
    // A method call on some other `header` is not a node header field.
    table.header.len() + table.header.iter().count()
}

pub fn index(node: &SmrNode<u64>) -> u32 {
    node.index()
}

pub fn hand_off(buf: IoBuf) {
    // FORBID-OK: ownership moved to the device; drop must not run.
    mem::forget(buf);
}

#[cfg(test)]
mod tests {
    #[test]
    fn stubs_are_fine_in_test_spans() {
        if false {
            todo!("unreached in tests")
        }
    }
}
