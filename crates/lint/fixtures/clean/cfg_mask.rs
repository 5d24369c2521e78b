//! Clean fixture: `#[cfg(test)]` masking hides test-only hazards from
//! every rule.

pub fn shipped() -> u32 {
    21 * 2
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::time::Instant;

    use super::shipped;

    #[test]
    fn test_only_hazards_are_masked() {
        let table: Mutex<HashMap<u8, u8>> = Mutex::new(HashMap::new());
        let started = Instant::now();
        for (k, v) in table.lock().unwrap().iter() {
            println!("{k} {v} {:?}", started.elapsed());
        }
        assert!(1.0 == 1.0_f64);
        assert_eq!(shipped(), 42);
    }
}
