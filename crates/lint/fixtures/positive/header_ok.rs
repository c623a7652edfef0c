//! Positive fixture — pass 4 (forbidden): the one module that reads a node
//! header's fields. Linted under `crates/smr/src/node.rs`; must be clean.

impl<T> SmrNode<T> {
    pub fn index(&self) -> u32 {
        self.header.index
    }
}

pub fn shape(header: *const Header) -> u16 {
    // SAFETY: [INV-15] the header is live.
    unsafe { (*header).shape }
}
