//! Offline shim for the `smallvec` crate: a growable vector that stores
//! up to `N` elements inline (no heap allocation) and spills to a `Vec`
//! beyond that. Only the subset the workspace uses is provided:
//! `SmallVec<[T; N]>` with `new`, `push`, `extend`, slice deref, owned
//! iteration, `From<Vec<T>>` and `into_vec`.
//!
//! `From<Vec<T>>` is deliberately zero-copy (the vector is adopted as
//! the heap representation even when it would fit inline): the hot
//! spawn path hands over already-built vectors and must not pay a move.

use std::fmt;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::{Deref, DerefMut};
use std::ptr;

/// Marker trait tying `SmallVec<[T; N]>` syntax to its inline capacity.
///
/// # Safety
///
/// Implementations must be plain arrays: `Item` is the element type and
/// `CAP` the array length, so that `MaybeUninit<Self>` is valid backing
/// storage for `CAP` elements.
pub unsafe trait Array {
    /// Element type.
    type Item;
    /// Inline capacity.
    const CAP: usize;
}

unsafe impl<T, const N: usize> Array for [T; N] {
    type Item = T;
    const CAP: usize = N;
}

enum Data<A: Array> {
    Inline { len: usize, buf: MaybeUninit<A> },
    Heap(Vec<A::Item>),
}

/// A `Vec`-like container with inline storage for small lengths.
pub struct SmallVec<A: Array> {
    data: Data<A>,
}

impl<A: Array> SmallVec<A> {
    /// Creates an empty vector (no allocation).
    #[inline]
    pub fn new() -> SmallVec<A> {
        SmallVec {
            data: Data::Inline {
                len: 0,
                buf: MaybeUninit::uninit(),
            },
        }
    }

    /// Creates an empty vector with room for `capacity` elements: inline
    /// when they fit, otherwise one heap allocation of that size.
    #[inline]
    pub fn with_capacity(capacity: usize) -> SmallVec<A> {
        if capacity <= A::CAP {
            SmallVec::new()
        } else {
            Vec::with_capacity(capacity).into()
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.data {
            Data::Inline { len, .. } => *len,
            Data::Heap(v) => v.len(),
        }
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the elements still live in the inline buffer.
    #[inline]
    pub fn spilled(&self) -> bool {
        matches!(self.data, Data::Heap(_))
    }

    /// Appends an element, spilling to the heap past the inline capacity.
    pub fn push(&mut self, value: A::Item) {
        match &mut self.data {
            Data::Inline { len, buf } => {
                if *len < A::CAP {
                    unsafe {
                        (buf.as_mut_ptr() as *mut A::Item).add(*len).write(value);
                    }
                    *len += 1;
                } else {
                    let mut vec = Vec::with_capacity((A::CAP * 2).max(4));
                    unsafe {
                        let src = buf.as_ptr() as *const A::Item;
                        for i in 0..*len {
                            vec.push(ptr::read(src.add(i)));
                        }
                        // The inline elements were moved out; forget them.
                        *len = 0;
                    }
                    vec.push(value);
                    self.data = Data::Heap(vec);
                }
            }
            Data::Heap(v) => v.push(value),
        }
    }

    /// View as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[A::Item] {
        match &self.data {
            Data::Inline { len, buf } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr() as *const A::Item, *len)
            },
            Data::Heap(v) => v.as_slice(),
        }
    }

    /// View as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [A::Item] {
        match &mut self.data {
            Data::Inline { len, buf } => unsafe {
                std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut A::Item, *len)
            },
            Data::Heap(v) => v.as_mut_slice(),
        }
    }

    /// Converts into a plain `Vec`.
    pub fn into_vec(self) -> Vec<A::Item> {
        match self.take_data() {
            Data::Inline { len, buf } => unsafe {
                let mut vec = Vec::with_capacity(len);
                let src = buf.as_ptr() as *const A::Item;
                for i in 0..len {
                    vec.push(ptr::read(src.add(i)));
                }
                vec
            },
            Data::Heap(v) => v,
        }
    }

    /// Moves the representation out without running `Drop`.
    #[inline]
    fn take_data(self) -> Data<A> {
        let this = ManuallyDrop::new(self);
        unsafe { ptr::read(&this.data) }
    }
}

impl<A: Array> Default for SmallVec<A> {
    #[inline]
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<A: Array> Drop for SmallVec<A> {
    fn drop(&mut self) {
        if let Data::Inline { len, buf } = &mut self.data {
            unsafe {
                ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                    buf.as_mut_ptr() as *mut A::Item,
                    *len,
                ));
            }
        }
    }
}

impl<A: Array> Deref for SmallVec<A> {
    type Target = [A::Item];
    #[inline]
    fn deref(&self) -> &[A::Item] {
        self.as_slice()
    }
}

impl<A: Array> DerefMut for SmallVec<A> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [A::Item] {
        self.as_mut_slice()
    }
}

impl<A: Array> From<Vec<A::Item>> for SmallVec<A> {
    #[inline]
    fn from(vec: Vec<A::Item>) -> Self {
        SmallVec {
            data: Data::Heap(vec),
        }
    }
}

impl<A: Array> Extend<A::Item> for SmallVec<A> {
    fn extend<I: IntoIterator<Item = A::Item>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<A: Array> FromIterator<A::Item> for SmallVec<A> {
    fn from_iter<I: IntoIterator<Item = A::Item>>(iter: I) -> Self {
        let mut sv = SmallVec::new();
        sv.extend(iter);
        sv
    }
}

impl<A: Array> Clone for SmallVec<A>
where
    A::Item: Clone,
{
    fn clone(&self) -> Self {
        self.iter().cloned().collect()
    }
}

impl<A: Array> fmt::Debug for SmallVec<A>
where
    A::Item: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<A: Array> PartialEq for SmallVec<A>
where
    A::Item: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Owned iterator over a [`SmallVec`].
pub enum IntoIter<A: Array> {
    #[doc(hidden)]
    Inline {
        buf: MaybeUninit<A>,
        len: usize,
        start: usize,
    },
    #[doc(hidden)]
    Heap(std::vec::IntoIter<A::Item>),
}

impl<A: Array> Iterator for IntoIter<A> {
    type Item = A::Item;

    fn next(&mut self) -> Option<A::Item> {
        match self {
            IntoIter::Inline { buf, len, start } => {
                if start < len {
                    let item = unsafe { ptr::read((buf.as_ptr() as *const A::Item).add(*start)) };
                    *start += 1;
                    Some(item)
                } else {
                    None
                }
            }
            IntoIter::Heap(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            IntoIter::Inline { len, start, .. } => *len - *start,
            IntoIter::Heap(it) => return it.size_hint(),
        };
        (n, Some(n))
    }
}

impl<A: Array> ExactSizeIterator for IntoIter<A> {}

impl<A: Array> Drop for IntoIter<A> {
    fn drop(&mut self) {
        if let IntoIter::Inline { buf, len, start } = self {
            unsafe {
                for i in *start..*len {
                    ptr::drop_in_place((buf.as_mut_ptr() as *mut A::Item).add(i));
                }
            }
        }
    }
}

impl<A: Array> IntoIterator for SmallVec<A> {
    type Item = A::Item;
    type IntoIter = IntoIter<A>;

    fn into_iter(self) -> IntoIter<A> {
        match self.take_data() {
            Data::Inline { len, buf } => IntoIter::Inline { buf, len, start: 0 },
            Data::Heap(v) => IntoIter::Heap(v.into_iter()),
        }
    }
}

impl<'a, A: Array> IntoIterator for &'a SmallVec<A> {
    type Item = &'a A::Item;
    type IntoIter = std::slice::Iter<'a, A::Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn inline_then_spill() {
        let mut sv: SmallVec<[u32; 4]> = SmallVec::new();
        assert!(sv.is_empty());
        for i in 0..4 {
            sv.push(i);
        }
        assert!(!sv.spilled());
        sv.push(4);
        assert!(sv.spilled());
        assert_eq!(&sv[..], &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn from_vec_is_heap() {
        let sv: SmallVec<[u32; 8]> = vec![1, 2].into();
        assert!(sv.spilled());
        assert_eq!(sv.into_vec(), vec![1, 2]);
    }

    #[test]
    fn owned_iteration_inline_and_heap() {
        let sv: SmallVec<[String; 4]> = ["a", "b"].into_iter().map(String::from).collect();
        assert!(!sv.spilled());
        assert_eq!(sv.into_iter().collect::<Vec<_>>(), vec!["a", "b"]);
        let sv: SmallVec<[String; 1]> = ["a", "b"].into_iter().map(String::from).collect();
        assert!(sv.spilled());
        assert_eq!(sv.into_iter().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn drops_run_exactly_once() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        // Dropped while inline.
        let mut sv: SmallVec<[Probe; 4]> = SmallVec::new();
        sv.push(Probe(Arc::clone(&drops)));
        sv.push(Probe(Arc::clone(&drops)));
        drop(sv);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        // Spilled, then a partially-consumed owned iterator.
        drops.store(0, Ordering::SeqCst);
        let mut sv: SmallVec<[Probe; 1]> = SmallVec::new();
        for _ in 0..3 {
            sv.push(Probe(Arc::clone(&drops)));
        }
        let mut it = sv.into_iter();
        drop(it.next());
        drop(it);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
        // Partially-consumed inline iterator drops the tail.
        drops.store(0, Ordering::SeqCst);
        let mut sv: SmallVec<[Probe; 4]> = SmallVec::new();
        for _ in 0..3 {
            sv.push(Probe(Arc::clone(&drops)));
        }
        let mut it = sv.into_iter();
        drop(it.next());
        drop(it);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn clone_copies_elements() {
        let mut sv: SmallVec<[u8; 2]> = SmallVec::new();
        sv.extend([1, 2, 3]);
        let dup = sv.clone();
        assert_eq!(sv, dup);
    }
}
