pub fn base_value() -> u32 {
    7
}
