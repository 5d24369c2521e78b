//! Sanctioned sites and bait: nothing here may produce a finding.

#[expect(clippy::disallowed_methods, reason = "a sanctioned wall-clock read")]
pub fn elapsed_ns() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}

#[expect(clippy::disallowed_types, reason = "a sanctioned shared counter")]
pub static HITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[expect(clippy::print_stdout, reason = "a sanctioned terminal sink")]
pub fn say(msg: &str) {
    println!("{msg}");
}

// Bait: std::thread::spawn(|| ()), HashMap::new(), println!("x").
pub fn bait() -> &'static str {
    "Instant::now() HashMap Mutex thread_local! dbg!(x)"
}

pub fn ordered(xs: &[u8]) -> std::collections::BTreeMap<u8, usize> {
    let mut counts = std::collections::BTreeMap::new();
    for &x in xs {
        *counts.entry(x).or_insert(0) += 1;
    }
    counts
}
