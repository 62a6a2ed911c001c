//! Stall detection: diagnostic callbacks plus a no-progress monitor.
//!
//! The seed repo's worst failure mode was a *silent* hang — a dead
//! delivery thread left every rank blocked with no output. The watchdog
//! turns that into a diagnosis: a monitor thread samples the event bus
//! sequence counter, and when it stops advancing for the configured
//! stall period *and* some layer still reports pending work, it prints
//! every registered diagnostic (blocked tasks with their regions, pending
//! requests, unmatched mailbox messages) plus the longest
//! currently-blocked causal chain reconstructed from the event rings
//! ([`crate::span::blocked_chain_report`] — the same machinery as the
//! perf analyzer), and hands that dump to the stall handler its owner
//! installed: `miniamr`'s prints it and exits, so a hang becomes a
//! diagnosis instead of a silent wait. The watchdog itself never ends
//! the process.
//!
//! Layers register dump callbacks in the [`DiagRegistry`] rather than
//! being called directly, so `obs` depends on nothing and every runtime
//! crate can contribute a view of its internal state.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type DiagFn = Box<dyn Fn() -> String + Send + Sync>;

struct DiagEntry {
    id: u64,
    name: String,
    f: DiagFn,
}

/// Registry of named diagnostic dump callbacks.
///
/// A callback returns a human-readable snapshot of its layer's pending
/// state, or an empty string when there is nothing outstanding (which is
/// how the watchdog distinguishes "stalled" from "idle").
#[derive(Default)]
pub struct DiagRegistry {
    entries: Mutex<Vec<DiagEntry>>,
    next_id: AtomicU64,
}

impl DiagRegistry {
    /// Registers a dump callback; dropping the returned guard
    /// unregisters it (callbacks usually capture `Weak` references and
    /// must not outlive their layer's shutdown).
    pub fn register(
        &'static self,
        name: impl Into<String>,
        f: impl Fn() -> String + Send + Sync + 'static,
    ) -> DiagGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.entries.lock().push(DiagEntry {
            id,
            name: name.into(),
            f: Box::new(f),
        });
        DiagGuard { registry: self, id }
    }

    /// Runs every callback and concatenates the non-empty reports under
    /// `=== <name> ===` headers. Empty when nothing is outstanding.
    pub fn dump(&self) -> String {
        let entries = self.entries.lock();
        let mut out = String::new();
        for e in entries.iter() {
            let report = (e.f)();
            if !report.is_empty() {
                out.push_str(&format!("=== {} ===\n", e.name));
                out.push_str(&report);
                if !report.ends_with('\n') {
                    out.push('\n');
                }
            }
        }
        out
    }

    fn unregister(&self, id: u64) {
        self.entries.lock().retain(|e| e.id != id);
    }
}

/// Unregisters its diagnostic callback on drop.
pub struct DiagGuard {
    registry: &'static DiagRegistry,
    id: u64,
}

impl Drop for DiagGuard {
    fn drop(&mut self) {
        self.registry.unregister(self.id);
    }
}

/// The process-global diagnostics registry.
pub fn diagnostics() -> &'static DiagRegistry {
    // Process-wide because a stall is: one watchdog watches every world
    // and runtime in the process (`--jobs N`, a resize's successor world).
    static REGISTRY: OnceLock<DiagRegistry> = OnceLock::new();
    REGISTRY.get_or_init(DiagRegistry::default)
}

struct Stop {
    flag: AtomicBool,
    lock: Mutex<()>,
    cond: Condvar,
}

/// A running stall monitor. Dropping it stops the monitor thread.
pub struct Watchdog {
    stop: Arc<Stop>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the monitor. Once the bus sequence sat still for `stall`
    /// while some layer reports pending work, `on_stall` receives the
    /// dump on the watchdog's thread; the watchdog then waits another
    /// `stall` before it reports again. Enables the event bus if it is
    /// not already enabled — without bus traffic there is no progress
    /// signal.
    pub fn start(stall: Duration, on_stall: impl Fn(String) + Send + 'static) -> Watchdog {
        let poll = (stall / 4).max(Duration::from_millis(10));
        let bus = crate::enable();
        let stop = Arc::new(Stop {
            flag: AtomicBool::new(false),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        });
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("obs-watchdog".into())
            .spawn(move || {
                let mut last_seq = bus.seq();
                let mut last_change = Instant::now();
                loop {
                    {
                        let mut guard = stop2.lock.lock();
                        if stop2.flag.load(Ordering::Acquire) {
                            return;
                        }
                        stop2.cond.wait_for(&mut guard, poll);
                        if stop2.flag.load(Ordering::Acquire) {
                            return;
                        }
                    }
                    let seq = bus.seq();
                    if seq != last_seq {
                        last_seq = seq;
                        last_change = Instant::now();
                        continue;
                    }
                    if last_change.elapsed() < stall {
                        continue;
                    }
                    let mut dump = diagnostics().dump();
                    if dump.is_empty() {
                        // No layer reports pending work: the process is
                        // idle (e.g. printing results), not stalled.
                        last_change = Instant::now();
                        continue;
                    }
                    // Causal diagnosis with the perf analyzer's graph:
                    // drain whatever the rings still hold and follow the
                    // blocked tasks' awaited receives rank to rank. The
                    // drain is destructive, but the watchdog only gets
                    // here once it has decided to act. (When an online
                    // collector is polling, the rings hold only events
                    // since its last pass, so the chain can be partial —
                    // the layer dumps above are complete either way.)
                    let chain = crate::span::blocked_chain_report(&bus.drain().events);
                    if !chain.is_empty() {
                        dump.push_str("=== blocked causal chain ===\n");
                        dump.push_str(&chain);
                    }
                    let header = format!(
                        "obs-watchdog: no event-bus progress for {:.1}s (seq stuck at {seq}); \
                         pending work detected — dumping diagnostics\n",
                        last_change.elapsed().as_secs_f64()
                    );
                    on_stall(format!("{header}{dump}"));
                    last_change = Instant::now();
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.flag.store(true, Ordering::Release);
        {
            let _guard = self.stop.lock.lock();
            self.stop.cond.notify_all();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn dump_concatenates_nonempty_reports() {
        let reg = DiagRegistry::default();
        // Use a leaked registry reference so guards can be 'static.
        let reg: &'static DiagRegistry = Box::leak(Box::new(reg));
        let _a = reg.register("layer-a", || "two pending things".to_string());
        let _b = reg.register("layer-b", String::new);
        let dump = reg.dump();
        assert!(dump.contains("=== layer-a ==="));
        assert!(dump.contains("two pending things"));
        assert!(!dump.contains("layer-b"), "empty reports are skipped");
        {
            let _c = reg.register("layer-c", || "x".into());
            assert!(reg.dump().contains("layer-c"));
        }
        assert!(!reg.dump().contains("layer-c"), "guard drop unregisters");
    }

    #[test]
    fn watchdog_fires_on_stall_and_not_on_progress() {
        let bus = crate::enable();
        let _guard = diagnostics().register("test-pending", || "1 blocked thing".to_string());
        let (tx, rx) = mpsc::channel::<String>();
        let wd = Watchdog::start(Duration::from_millis(80), move |dump| {
            let _ = tx.send(dump);
        });
        // Progress phase: keep the bus moving; the watchdog must stay
        // quiet.
        let deadline = Instant::now() + Duration::from_millis(160);
        while Instant::now() < deadline {
            bus.emit_full(0, 0, crate::EventData::TaskReady { id: 1 });
            std::thread::sleep(Duration::from_millis(10));
            assert!(rx.try_recv().is_err(), "watchdog fired despite progress");
        }
        // Stall phase: stop emitting; the dump must arrive.
        let dump = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("watchdog did not fire");
        assert!(dump.contains("no event-bus progress"));
        assert!(dump.contains("1 blocked thing"));
        drop(wd);
    }
}
