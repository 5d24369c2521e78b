use std::collections::HashMap;

pub fn tally(xs: &[u8]) -> HashMap<u8, usize> {
    let mut counts = HashMap::new();
    for &x in xs {
        *counts.entry(x).or_insert(0) += 1;
    }
    counts
}

pub fn distinct(xs: &[u8]) -> usize {
    xs.iter().collect::<std::collections::HashSet<_>>().len()
}
