/// Calls [`fixture_lib::doc_caller`] in this doc comment only.
fn main() {
    // fixture_lib::unused::f() in a comment is not a use,
    let _ = "fixture_lib::unused::f string_caller()"; // and neither is a string.
    fixture_lib::called();
}
