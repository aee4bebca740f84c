pub mod test_only;
pub mod unused;

/// Nothing calls this.
pub fn no_caller() {}

/// Called only from the `#[cfg(test)]` module below.
pub fn cfg_test_caller() {}

/// Called only from a file under `tests/`.
pub fn tests_dir_caller() {}

/// Named only in the bin's doc comment.
pub fn doc_caller() {}

/// Named only inside a string in the bin.
pub fn string_caller() {}

/// Named only in its own `impl` header.
pub struct ImplOnly;

impl ImplOnly {}

// detlint: allow(xref-item-used) -- Theorem 1, stale: the bin calls it
pub fn called() {}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_no_caller() {
        super::cfg_test_caller();
        crate::test_only::helper();
    }
}
