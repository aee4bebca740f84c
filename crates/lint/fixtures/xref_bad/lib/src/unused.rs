pub fn f() {
    // Naming itself does not count.
    fixture_lib::unused::g();
}

pub fn g() {}
