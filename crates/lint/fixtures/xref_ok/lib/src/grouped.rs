use crate::pathed::run;

pub fn go() {
    crate::local::helper();
    run();
}
