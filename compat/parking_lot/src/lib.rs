//! Offline shim for the `parking_lot` crate, backed by `std::sync`.
//!
//! Provides the subset of the parking_lot 0.12 API this workspace uses:
//! a poison-free [`Mutex`] whose `lock` returns the guard directly, and a
//! [`Condvar`] that waits on `&mut MutexGuard` (parking_lot style) rather
//! than consuming the guard (std style).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{self, PoisonError};
use std::time::{Duration, Instant};

/// A mutual-exclusion primitive (std-backed, poison-transparent).
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. Unlike `std`, poisoned
    /// locks are transparently recovered (parking_lot has no poisoning).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            guard: Some(guard),
            mutex: &self.inner,
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard {
                guard: Some(guard),
                mutex: &self.inner,
            }),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                guard: Some(p.into_inner()),
                mutex: &self.inner,
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard returned by [`Mutex::lock`].
///
/// The inner std guard lives in an `Option` so [`Condvar::wait`] can move
/// it out and back while the caller holds `&mut MutexGuard`.
pub struct MutexGuard<'a, T: ?Sized> {
    guard: Option<sync::MutexGuard<'a, T>>,
    mutex: &'a sync::Mutex<T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard
            .as_ref()
            .expect("guard present outside of condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .as_mut()
            .expect("guard present outside of condvar wait")
    }
}

/// Result of a timed condition-variable wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable with parking_lot's `&mut guard` wait API.
///
/// Like parking_lot's — and unlike `std`'s, whose `notify_*` is a futex
/// system call whether or not anyone waits — a notification with no
/// waiter returns in user space: the condvar counts its waiters, a waiter
/// announcing itself while it still holds the caller's mutex.
///
/// The early return loses no wake-up a plain condvar would deliver as
/// long as the notifier **holds the condvar's mutex at some point between
/// changing what the waiter tests and notifying** (every call site in
/// this workspace does: most change the predicate under the mutex, the
/// rest take it just to notify). The waiter tests and announces under
/// that mutex, so the notifier's critical section either precedes the
/// test, which then sees the change, or follows the release inside
/// `wait`, and then sees the count.
pub struct Condvar {
    inner: sync::Condvar,
    waiters: AtomicUsize,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Blocks until notified, releasing the guard's lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.guard.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.guard = Some(inner);
        let _ = guard.mutex; // keep the field used in all build configs
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.guard.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, result) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => p.into_inner(),
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.guard = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Blocks until notified or the deadline `until` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        until: Instant,
    ) -> WaitTimeoutResult {
        let timeout = until.saturating_duration_since(Instant::now());
        self.wait_for(guard, timeout)
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_one();
        }
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cvar) = &*p2;
            let mut started = lock.lock();
            *started = true;
            cvar.notify_one();
        });
        let (lock, cvar) = &*pair;
        let mut started = lock.lock();
        while !*started {
            cvar.wait(&mut started);
        }
        t.join().unwrap();
        assert!(*started);
    }

    /// A notification with nobody waiting is dropped in user space; one
    /// sent after the waiter announced itself is delivered.
    #[test]
    fn notify_reaches_a_waiter_and_skips_an_empty_queue() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        pair.1.notify_one();
        pair.1.notify_all();
        assert_eq!(pair.1.waiters.load(Ordering::SeqCst), 0);
        let p2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cvar) = &*p2;
            let mut turn = lock.lock();
            while *turn == 0 {
                cvar.wait(&mut turn);
            }
        });
        // A waiter counted while this thread holds the mutex has released
        // it, so it is inside `wait`.
        loop {
            let mut turn = pair.0.lock();
            if pair.1.waiters.load(Ordering::SeqCst) != 0 {
                *turn = 1;
                break;
            }
            drop(turn);
            std::thread::yield_now();
        }
        pair.1.notify_one();
        waiter.join().unwrap();
        assert_eq!(pair.1.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }
}
