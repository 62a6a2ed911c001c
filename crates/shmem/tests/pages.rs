//! Freed block-sized buffers return their pages to the kernel.
//!
//! One test in its own file, so it runs in a process of its own and reads
//! that process's resident set. A freed 2 MiB `Vec` raises glibc's dynamic
//! mmap threshold past 2 MiB, as the first freed block of a split does;
//! buffers of that size from the global allocator would then come from an
//! arena that keeps their pages after the free.
#![cfg(target_os = "linux")]

use shmem::SharedBuffer;

const MB: f64 = 1024.0 * 1024.0;
const ELEMS: usize = (2 << 20) / std::mem::size_of::<f64>();

/// This process's resident set in MB, from `/proc/self/status`.
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS value");
    kb * 1024.0 / MB
}

#[test]
fn dropped_buffers_give_their_pages_back() {
    let start = rss_mb();
    drop(std::hint::black_box(vec![1.0f64; ELEMS]));

    let mut bufs: Vec<_> = (0..32).map(|_| SharedBuffer::<f64>::new(ELEMS)).collect();
    for buf in &bufs {
        buf.full().with_write(|w| w.fill(2.0));
    }
    let full = rss_mb();
    let kept = bufs.pop().expect("32 buffers");
    drop(bufs);
    let after = rss_mb();
    eprintln!("VmRSS: start {start:.1} MB, 32 buffers {full:.1} MB, one kept {after:.1} MB");

    assert!(
        full >= start + 48.0,
        "the 64 MB of buffers were not resident"
    );
    assert!(
        after <= start + 8.0,
        "31 dropped 2 MiB buffers kept {:.1} MB resident",
        after - start
    );
    assert_eq!(kept.slice(ELEMS - 1..ELEMS).to_vec(), vec![2.0]);
}
