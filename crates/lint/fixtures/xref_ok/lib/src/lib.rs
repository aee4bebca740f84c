pub mod grouped;
pub mod local;
pub mod pathed;

// detlint: allow(xref-item-used) -- Theorem 1, Eq. (7)
pub fn theorem() {}
