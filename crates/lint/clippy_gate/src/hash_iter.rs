pub fn summarize(counts: &std::collections::HashMap<u8, u64>) -> u64 {
    let mut total = 0;
    for v in counts.values() {
        total += v;
    }
    total
}
