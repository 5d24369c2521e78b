//! Clean fixture: multi-line attributes attach to the following item
//! without confusing the item model or tripping any line rule.

#[derive(
    Clone,
    Debug,
    PartialEq,
    Eq
)]
pub struct Configured {
    pub retries: u8,
}

#[expect(
    dead_code,
    reason = "a multi-line attribute"
)]
fn helper(level: u8) -> u8 {
    level
}

#[doc = "attribute strings like HashMap::new() are literals, not code"]
pub fn documented() -> Configured {
    Configured { retries: 3 }
}
