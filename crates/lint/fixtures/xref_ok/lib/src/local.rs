pub fn helper() {}
