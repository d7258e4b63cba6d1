//! Fixture documented unsafe in a sanctioned module.

pub fn poke(p: *mut u8) {
    // SAFETY: the caller guarantees `p` is valid and exclusively owned.
    unsafe { *p = 0 }
}
