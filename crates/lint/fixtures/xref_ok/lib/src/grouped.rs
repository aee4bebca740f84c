pub fn go() {
    crate::local::helper();
}
