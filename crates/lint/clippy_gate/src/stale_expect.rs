#[expect(clippy::disallowed_types, reason = "the shared table it shielded is gone")]
pub fn scaled(x: f64) -> f64 {
    x * 0.5
}
