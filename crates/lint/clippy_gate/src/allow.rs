#[allow(dead_code)]
fn unused() {}
