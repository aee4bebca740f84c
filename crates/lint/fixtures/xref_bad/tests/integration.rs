fn main() {
    fixture_lib::tests_dir_caller();
}
