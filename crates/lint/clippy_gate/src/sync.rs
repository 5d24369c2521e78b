pub static LOCK: std::sync::Mutex<u32> = std::sync::Mutex::new(0);
pub static TABLE: std::sync::RwLock<u32> = std::sync::RwLock::new(0);
pub static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

pub fn wake(ready: &std::sync::Condvar) {
    ready.notify_all();
}

thread_local! { pub static SLOT: u32 = const { 0 }; }

pub static mut RAW_COUNTER: u32 = 0;

pub fn bump() -> u32 {
    unsafe {
        RAW_COUNTER += 1;
        RAW_COUNTER
    }
}
