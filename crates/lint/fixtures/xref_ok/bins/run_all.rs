use umbrella::fixture_lib::{grouped};

fn main() {
    grouped::go();
}
