#[test]
fn runs_demo_spec() {
    let _ = "specs/demo.toml";
    fixture_lib::pathed::run();
}
