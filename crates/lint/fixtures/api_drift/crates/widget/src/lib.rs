pub fn alpha() -> u32 {
    1
}

pub fn beta() -> u32 {
    2
}
