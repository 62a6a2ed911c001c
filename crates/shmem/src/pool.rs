//! A per-rank pool of recyclable `f64` scratch buffers.
//!
//! miniAMR's block moves stage whole-block interiors through short-lived
//! buffers. Allocating those on every move puts the allocator on the
//! regrid path and — under the task-parallel variants — serializes
//! workers on the global heap lock.
//! A [`BufferPool`] keeps returned buffers in power-of-two size-classed
//! free lists; in steady state every `take` is a free-list pop and the
//! communication hot path performs no heap allocation at all.
//!
//! Buffers are handed out as [`PooledBuf`] RAII guards: `Deref`s to
//! `[f64]`, returns its storage to the pool on drop. The pool tracks
//! hits, misses, and bytes recycled so tests (and `RunStats`) can assert
//! steady-state reuse.

use parking_lot::Mutex;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One free list per power-of-two size class; class `c` holds buffers
/// with capacity ≥ 2^c. 48 classes cover every realistic buffer size.
const NUM_CLASSES: usize = 48;

/// Size-classed free lists of `Vec<f64>` buffers with reuse statistics.
pub struct BufferPool {
    classes: [Mutex<Vec<Vec<f64>>>; NUM_CLASSES],
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_recycled: AtomicU64,
}

/// Snapshot of a pool's reuse counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served from a free list (no allocation).
    pub hits: u64,
    /// `take` calls that had to allocate a fresh buffer.
    pub misses: u64,
    /// Total capacity (in bytes) returned to the pool over its lifetime.
    pub bytes_recycled: u64,
}

impl PoolStats {
    /// Fraction of `take` calls served without allocating.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Arc<BufferPool> {
        Arc::new(BufferPool {
            classes: std::array::from_fn(|_| Mutex::new(Vec::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_recycled: AtomicU64::new(0),
        })
    }

    /// Smallest class whose buffers can hold `len` elements.
    #[inline]
    fn class_for_len(len: usize) -> usize {
        (len.max(1).next_power_of_two().trailing_zeros() as usize).min(NUM_CLASSES - 1)
    }

    /// Largest class a buffer of `capacity` fully covers (floor log2), so
    /// a buffer stored in class `c` always has capacity ≥ 2^c.
    #[inline]
    fn class_for_capacity(capacity: usize) -> usize {
        ((usize::BITS - 1 - capacity.max(1).leading_zeros()) as usize).min(NUM_CLASSES - 1)
    }

    /// Takes a zeroed buffer of exactly `len` elements, reusing pooled
    /// storage when a buffer of the right class is free.
    pub fn take(self: &Arc<Self>, len: usize) -> PooledBuf {
        let class = Self::class_for_len(len);
        let recycled = self.classes[class].lock().pop();
        let mut vec = match recycled {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(1usize << class)
            }
        };
        vec.clear();
        // Within capacity for pooled buffers: no allocation.
        vec.resize(len, 0.0);
        PooledBuf {
            vec,
            pool: Arc::clone(self),
        }
    }

    /// Current reuse counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_recycled: self.bytes_recycled.load(Ordering::Relaxed),
        }
    }

    fn put_back(&self, vec: Vec<f64>) {
        let class = Self::class_for_capacity(vec.capacity());
        self.bytes_recycled.fetch_add(
            (vec.capacity() * std::mem::size_of::<f64>()) as u64,
            Ordering::Relaxed,
        );
        self.classes[class].lock().push(vec);
    }
}

/// RAII guard over a pooled buffer; returns the storage on drop.
pub struct PooledBuf {
    vec: Vec<f64>,
    pool: Arc<BufferPool>,
}

impl PooledBuf {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Returns true for a zero-length buffer.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }
}

impl Deref for PooledBuf {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.vec
    }
}

impl DerefMut for PooledBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.vec
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        self.pool.put_back(std::mem::take(&mut self.vec));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_exact_length() {
        let pool = BufferPool::new();
        let mut buf = pool.take(100);
        assert_eq!(buf.len(), 100);
        assert!(buf.iter().all(|&v| v == 0.0));
        buf[0] = 7.0;
        drop(buf);
        // The recycled buffer must come back zeroed.
        let buf = pool.take(100);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reuse_is_a_hit_and_keeps_storage() {
        let pool = BufferPool::new();
        let buf = pool.take(1000);
        let ptr = buf.as_ptr();
        drop(buf);
        let buf = pool.take(1000);
        assert_eq!(buf.as_ptr(), ptr, "expected the same storage back");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.bytes_recycled >= 1000 * 8);
    }

    #[test]
    fn distinct_classes_do_not_share() {
        let pool = BufferPool::new();
        drop(pool.take(8));
        let _big = pool.take(4096);
        let s = pool.stats();
        assert_eq!(s.misses, 2, "a small buffer must not serve a large request");
    }

    #[test]
    fn same_class_different_len_reuses() {
        let pool = BufferPool::new();
        drop(pool.take(1000));
        drop(pool.take(800)); // same class (1024): hit
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn hit_rate_reflects_steady_state() {
        let pool = BufferPool::new();
        for _ in 0..10 {
            drop(pool.take(256));
        }
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (9, 1));
        assert!(s.hit_rate() > 0.89);
    }

    #[test]
    fn concurrent_takes_are_safe() {
        let pool = BufferPool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for _ in 0..100 {
                        let mut b = pool.take(512);
                        b[0] = 1.0;
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 400);
        assert!(
            s.misses <= 4,
            "at most one allocation per concurrent holder"
        );
    }
}
