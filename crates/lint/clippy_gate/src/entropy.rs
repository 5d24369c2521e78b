use std::hash::{BuildHasher, Hasher};

pub fn ambient_seed() -> u64 {
    std::hash::RandomState::new().hash_one(0u8)
}

pub fn default_hash(x: u64) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    h.write_u64(x);
    h.finish()
}
