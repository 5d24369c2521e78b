use std::thread;

pub fn fan_out(job: fn() -> u32) -> u32 {
    thread::spawn(job).join().unwrap_or(0)
}

pub fn named(job: fn() -> u32) -> u32 {
    let handle = thread::Builder::new().name("worker".into()).spawn(job);
    handle.ok().and_then(|h| h.join().ok()).unwrap_or(0)
}

pub fn scoped(job: fn() -> u32) -> u32 {
    thread::scope(|s| s.spawn(job).join().unwrap_or(0))
}
