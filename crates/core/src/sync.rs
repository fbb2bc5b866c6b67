//! Poison-free locks with the `parking_lot` calling convention.
//!
//! The workspace originally used `parking_lot` for its non-poisoning
//! `lock()` API. These are thin wrappers over `std::sync` that recover the
//! guard on poison instead of propagating a panic-of-a-panic: a worker
//! thread that dies while holding a lock is exactly the failure the
//! frameworks are built to tolerate, so the services must keep serving.

use std::sync::{self, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock whose `lock()` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A readers-writer lock whose `read()`/`write()` never fail.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn mutex_survives_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("die holding the lock");
        })
        .join();
        // A poisoned std mutex would panic here; ours recovers.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
