use base::base_value;

pub fn upper_value() -> u32 {
    base_value() + 1
}
