//! What a data-flow timestep's tasks keep on the heap. A replay trace
//! holds one task object per task of a timestep, and every later timestep
//! of the mesh epoch re-arms them: their size, and whatever each one owns
//! alone, is what data-flow pays in memory over MPI-only. A counting
//! global allocator tracks live heap bytes, their peak, and which
//! allocation sizes they sit in at that peak.

use miniamr::{Config, Variant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use vmpi::{NetworkModel, World};

/// Size classes: 16-byte steps up to 1 KiB, then powers of two.
const CLASSES: usize = 64 + 55;

fn class(size: usize) -> usize {
    if size <= 1024 {
        size.div_ceil(16)
    } else {
        64 + size.ilog2() as usize - 9
    }
}

/// What the report calls a class.
fn class_name(class: usize) -> String {
    if class <= 64 {
        format!("{:>5} B", class * 16)
    } else {
        format!("2^{} B", class - 64 + 9)
    }
}

/// Live bytes, their peak, live bytes per size class and the same at the
/// latest peak (a snapshot taken without stopping the other threads: a
/// breakdown, not an exact ledger). Statistics only: the relaxed counters
/// publish no other data.
struct LiveBytes {
    live: AtomicUsize,
    peak: AtomicUsize,
    by_class: [AtomicUsize; CLASSES],
    at_peak: [AtomicUsize; CLASSES],
}

impl LiveBytes {
    fn add(&self, size: usize) {
        self.by_class[class(size)].fetch_add(size, Relaxed);
        let live = self.live.fetch_add(size, Relaxed) + size;
        if live > self.peak.fetch_max(live, Relaxed) {
            for (snap, now) in self.at_peak.iter().zip(&self.by_class) {
                snap.store(now.load(Relaxed), Relaxed);
            }
        }
    }

    fn sub(&self, size: usize) {
        self.by_class[class(size)].fetch_sub(size, Relaxed);
        self.live.fetch_sub(size, Relaxed);
    }

    /// Restarts the peak from what is live now.
    fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
        for (snap, now) in self.at_peak.iter().zip(&self.by_class) {
            snap.store(now.load(Relaxed), Relaxed);
        }
    }

    /// The peak and its breakdown by size class.
    fn peak(&self) -> (usize, Vec<usize>) {
        let classes = self.at_peak.iter().map(|c| c.load(Relaxed)).collect();
        (self.peak.load(Relaxed), classes)
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.add(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.add(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.sub(layout.size());
        self.add(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.sub(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static HEAP: LiveBytes = LiveBytes {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
    by_class: [const { AtomicUsize::new(0) }; CLASSES],
    at_peak: [const { AtomicUsize::new(0) }; CLASSES],
};

/// Four timesteps of `stages` stages on a mesh whose intra-rank items
/// are far below the task grain, one message a face (`--send_faces`):
/// thousands of tasks a timestep on two ranks, as on the benchmark's
/// `tasks_fine`.
fn fine_config(stages: usize) -> Config {
    let mut params = Config::smoke_test().params;
    (params.init_x, params.num_vars, params.num_refine) = (2, 4, 2);
    let mut cfg = Config::four_spheres(params, 4);
    cfg.variant = Variant::DataFlow;
    cfg.num_tsteps = 4;
    cfg.stages_per_ts = stages;
    cfg.checksum_freq = 4;
    cfg.refine_freq = 1000;
    cfg.send_faces = true;
    cfg.separate_buffers = true;
    cfg.workers = 1;
    cfg
}

/// One run's heap peak and its breakdown by size class, and the task
/// objects its trace keeps: one timestep's, on each of the two ranks.
fn peak_of(cfg: &Config) -> (usize, Vec<usize>, usize) {
    HEAP.reset_peak();
    let stats = World::new(2, NetworkModel::instant()).run(|comm| miniamr::run_rank(cfg, comm));
    let (peak, classes) = HEAP.peak();
    assert!(stats.iter().all(|s| s.checksums_failed == 0));
    let replayed: u64 = stats.iter().map(|s| s.tasks_replayed).sum();
    let hits: u64 = stats.iter().map(|s| s.trace_hits).sum();
    assert_eq!(hits, 2 * 4, "every timestep replays its compiled trace");
    (peak, classes, (replayed / hits * 2) as usize)
}

/// Live heap bytes per task of a replayed timestep: what the peak of a
/// run grows by when its timesteps take twice the stages, over the task
/// objects its trace keeps in addition. The set-up and the templates (one
/// per `(phase, vars)`, whatever the stage count) cancel; each task's
/// object, its trace slot and its predecessor entries remain. It reads
/// about 225 bytes: a task object is 120 bytes plus its reference counts
/// (the 144-byte class), and allocations of 8–64 KiB (the trace's own
/// vectors) add about 90 more. It read 330–400 while a task object held
/// its label, priority, accesses, body and gate, and about 1 150 while it
/// held its own accesses and body and each phase call its block list.
#[test]
fn a_replayed_task_keeps_little_more_than_its_task_object() {
    const BYTES_PER_TASK: usize = 500;
    let (short, short_classes, short_kept) = peak_of(&fine_config(4));
    let (long, long_classes, long_kept) = peak_of(&fine_config(8));
    let kept = long_kept - short_kept;
    assert!(kept > 1_000, "only {kept} more task objects kept");
    let per_task = long.saturating_sub(short) / kept;
    // The size classes that grew most between the two peaks: who holds
    // the difference.
    let mut owners: Vec<(usize, isize)> = (long_classes.iter().zip(&short_classes))
        .enumerate()
        .map(|(c, (&l, &s))| (c, l as isize - s as isize))
        .collect();
    owners.sort_by_key(|&(_, grew)| -grew);
    let owners: Vec<String> = (owners.iter().take(8))
        .map(|&(c, grew)| format!("  {}: {:+.1} kB", class_name(c), grew as f64 / 1e3))
        .collect();
    let report = format!(
        "{per_task} live heap bytes per task kept (bound {BYTES_PER_TASK}): peak {long} B \
         against {short} B at half the stages, {kept} task objects more; largest owners:\n{}",
        owners.join("\n")
    );
    println!("{report}");
    assert!(per_task <= BYTES_PER_TASK, "{report}");
}
