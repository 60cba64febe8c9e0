//! Poison-recovering lock acquisition, shared by every crate in the
//! workspace.
//!
//! The analysis catches worker panics (analyzer bugs, fault injection)
//! at procedure boundaries and keeps going, so a panic raised while some
//! other code held a lock must not wedge every later acquisition. All
//! the protected structures in this workspace are append-only rings,
//! counters or name-keyed registries, so a poisoned guard is still
//! structurally sound and adopting the inner value is always safe.

use std::sync::{Mutex, MutexGuard};

/// Lock a mutex, recovering the guard if a previous holder panicked.
#[inline]
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn lock_recovers_from_poison() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.lock().is_err(), "mutex should be poisoned");
        assert_eq!(*lock(&m), 7);
    }
}
