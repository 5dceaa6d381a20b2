//! Fixture: ad-hoc threads outside the runtime's worker pool and the rayon
//! shim (rule `thread-spawn`).
pub fn fire_and_forget() {
    std::thread::spawn(|| {});
}

pub fn scoped_fork() {
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
}
