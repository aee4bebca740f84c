fn main() {
    // fixture_lib::unused::f() in a comment is not a use,
    let _ = "fixture_lib::unused::f"; // and neither is a string.
}
