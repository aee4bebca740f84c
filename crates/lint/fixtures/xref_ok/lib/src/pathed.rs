pub fn run() {}
