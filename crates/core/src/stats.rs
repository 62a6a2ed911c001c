//! Per-run statistics: phase timers, operation counts, checksum history.

use std::time::{Duration, Instant};

/// Wall time spent in each phase of the main loop, per rank.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimes {
    /// Ghost-face exchange (pack/send/recv/unpack/local copies).
    pub communicate: Duration,
    /// Stencil sweeps.
    pub stencil: Duration,
    /// Checksum computation and validation.
    pub checksum: Duration,
    /// Refinement: decision, split/merge copies, block exchange, load
    /// balancing.
    pub refine: Duration,
    /// Whole run.
    pub total: Duration,
}

impl PhaseTimes {
    /// Everything except refinement — the paper's "No Refine" column
    /// (Table I) and "NR" efficiency series (Figures 4–5).
    pub fn non_refine(&self) -> Duration {
        self.total.saturating_sub(self.refine)
    }
}

/// Results of one rank's run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Rank that produced these stats.
    pub rank: usize,
    /// Phase wall times.
    pub times: PhaseTimes,
    /// Floating-point operations executed in stencil sweeps (the
    /// mini-app's reported operation count, used for GFLOPS).
    pub flops: u64,
    /// Checksum history: one entry per validation point, per variable —
    /// identical across variants for the same configuration.
    pub checksums: Vec<Vec<f64>>,
    /// Validations that passed.
    pub checksums_passed: usize,
    /// Validations that failed (should be 0).
    pub checksums_failed: usize,
    /// Blocks owned at the end of the run.
    pub final_blocks: usize,
    /// Messages sent during communicate phases.
    pub msgs_sent: u64,
    /// Elements sent during communicate phases.
    pub elems_sent: u64,
    /// Blocks moved in/out during refinement + load balancing.
    pub blocks_moved: u64,
    /// Checkpoints published to the recovery store (`--ckpt_freq`).
    pub checkpoints_taken: usize,
    /// Tasks spawned (hybrid variants). Sub-floor work is spawned as
    /// batches (see `elaborate::GRAIN_ELEMS`), so this counts batches.
    pub tasks_spawned: u64,
    /// Work items those tasks ran — the members of every batch, what a
    /// one-task-per-item run would have spawned. `task_items /
    /// tasks_spawned` is the run's effective task grain.
    pub task_items: u64,
    /// Tasks whose dependency edges came from a replayed trace (DataFlow
    /// with `--replay on`).
    pub tasks_replayed: u64,
    /// Replayed tasks that reused the previous timestep's task object in
    /// place (all of them, unless tasks outlive their timestep).
    pub tasks_rearmed: u64,
    /// Trace-scope iterations replayed entirely from a frozen trace.
    pub trace_hits: u64,
    /// Trace-scope iterations that recorded.
    pub trace_records: u64,
    /// Compiled or recorded timesteps the cache closed (analyzed for
    /// replay) …
    pub trace_closes: u64,
    /// … and the closes that froze a trace instead of parking it.
    pub trace_freezes: u64,
    /// Traced timesteps that left the frozen trace (or saw an untraced
    /// spawn) and fell back to fresh analysis.
    pub trace_divergences: u64,
    /// Trace invalidations (regrid / repartition / restore).
    pub trace_invalidations: u64,
    /// Buffer-pool reuse counters at the end of the run: one take per
    /// block this rank sent away, plus the miss that seeded the pool.
    pub pool: shmem::PoolStats,
}

impl RunStats {
    /// Deterministic fingerprint of the full checksum history: an FNV-1a
    /// fold over the raw bit patterns of every recorded checksum value.
    /// Equal across ranks (checksums are broadcast) and — the chaos
    /// headline guarantee — bitwise-equal between a faulted run that
    /// stayed within the retry budget and the fault-free run.
    pub fn checksum_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for point in &self.checksums {
            for v in point {
                h ^= v.to_bits();
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// A finished run as its summary reads it: every rank's stats and the
/// wall time of the whole run.
pub struct Summary<'a> {
    /// One entry per rank, rank 0 first.
    pub ranks: &'a [RunStats],
    /// Wall time from the first job's start to the last job's end.
    pub wall: Duration,
}

/// The value of one summary line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A count, printed as an integer.
    Count(u64),
    /// Seconds or a rate, printed with four decimals.
    Fixed(f64),
    /// A digest, printed as 16 hex digits.
    Hex(u64),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Count(n) => write!(f, "{n}"),
            Value::Fixed(x) => write!(f, "{x:.4}"),
            Value::Hex(h) => write!(f, "{h:016x}"),
        }
    }
}

/// When a summary line is printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shown {
    /// Every run.
    Always,
    /// When its value is not zero.
    NonZero,
    /// When the run spawned tasks (fork-join and data-flow).
    Tasks,
    /// When the buffer pool was asked for a buffer.
    PoolTakes,
}

/// One line of the run summary `miniamr` prints: `key<TAB>value`.
pub struct SummaryKey {
    /// The key.
    pub key: &'static str,
    /// What the value means.
    pub meaning: &'static str,
    /// When the line is printed.
    pub shown: Shown,
    /// The value over all ranks.
    pub value: fn(&Summary) -> Value,
}

/// The run summary, one row per line in print order.
pub const SUMMARY: &[SummaryKey] = &[
    SummaryKey {
        key: "wall_time_s",
        meaning: "wall time from the start of the jobs to the end of the last one",
        shown: Shown::Always,
        value: |r| Value::Fixed(r.wall.as_secs_f64()),
    },
    SummaryKey {
        key: "gflops",
        meaning: "stencil floating-point operations of all ranks per wall second, in 10^9",
        shown: Shown::Always,
        value: |r| Value::Fixed(r.sum(|s| s.flops) as f64 / r.wall.as_secs_f64() / 1e9),
    },
    SummaryKey {
        key: "time_total_s",
        meaning: "the slowest rank's time from the initial load balance to the end of the \
                  timestep loop",
        shown: Shown::Always,
        value: |r| r.slowest(|t| t.total),
    },
    SummaryKey {
        key: "time_refine_s",
        meaning: "the slowest rank's refinement time: plan, split and merge, block exchange",
        shown: Shown::Always,
        value: |r| r.slowest(|t| t.refine),
    },
    SummaryKey {
        key: "time_no_refine_s",
        meaning: "the slowest rank's time outside refinement (the paper's \"No Refine\")",
        shown: Shown::Always,
        value: |r| r.slowest(PhaseTimes::non_refine),
    },
    SummaryKey {
        key: "time_comm_s",
        meaning: "the slowest rank's ghost-exchange time",
        shown: Shown::Always,
        value: |r| r.slowest(|t| t.communicate),
    },
    SummaryKey {
        key: "time_stencil_s",
        meaning: "the slowest rank's stencil time",
        shown: Shown::Always,
        value: |r| r.slowest(|t| t.stencil),
    },
    SummaryKey {
        key: "checksums_passed",
        meaning: "checksum validations that passed, summed over ranks",
        shown: Shown::Always,
        value: |r| Value::Count(r.sum(|s| s.checksums_passed as u64)),
    },
    SummaryKey {
        key: "checksums_failed",
        meaning: "checksum validations that failed (the process exits 1)",
        shown: Shown::Always,
        value: |r| Value::Count(r.sum(|s| s.checksums_failed as u64)),
    },
    SummaryKey {
        key: "checksum_digest",
        meaning: "FNV-1a fold of rank 0's checksum history: equal across variants, \
                  rank counts and survivable fault plans",
        shown: Shown::Always,
        value: |r| Value::Hex(r.ranks.first().map_or(0, RunStats::checksum_digest)),
    },
    SummaryKey {
        key: "checkpoints_taken",
        meaning: "rank checkpoints published (`--ckpt_freq`)",
        shown: Shown::NonZero,
        value: |r| Value::Count(r.sum(|s| s.checkpoints_taken as u64)),
    },
    SummaryKey {
        key: "final_blocks",
        meaning: "blocks at the end of the run",
        shown: Shown::Always,
        value: |r| Value::Count(r.sum(|s| s.final_blocks as u64)),
    },
    SummaryKey {
        key: "blocks_moved",
        meaning: "blocks sent to another rank by refinement and load balancing",
        shown: Shown::Always,
        value: |r| Value::Count(r.sum(|s| s.blocks_moved)),
    },
    SummaryKey {
        key: "msgs_sent",
        meaning: "ghost-exchange messages between ranks",
        shown: Shown::Always,
        value: |r| Value::Count(r.sum(|s| s.msgs_sent)),
    },
    SummaryKey {
        key: "tasks_spawned",
        meaning: "tasks the runtimes spawned: batches, per-message tasks, refinement and \
                  waiter tasks",
        shown: Shown::Tasks,
        value: |r| Value::Count(r.sum(|s| s.tasks_spawned)),
    },
    SummaryKey {
        key: "task_items",
        meaning: "work items those tasks ran: every member of every batch, two for a pack \
                  that sends and an unpack that receives; `task_items / tasks_spawned` is \
                  the effective grain",
        shown: Shown::Tasks,
        value: |r| Value::Count(r.sum(|s| s.task_items)),
    },
    SummaryKey {
        key: "tasks_replayed",
        meaning: "tasks whose edges came from the frozen trace (claim table bypassed)",
        shown: Shown::Tasks,
        value: |r| Value::Count(r.sum(|s| s.tasks_replayed)),
    },
    SummaryKey {
        key: "trace_hits",
        meaning: "timesteps replayed from their first task to their last",
        shown: Shown::Tasks,
        value: |r| Value::Count(r.sum(|s| s.trace_hits)),
    },
    SummaryKey {
        key: "trace_records",
        meaning: "timesteps that recorded (an epoch's first traced one when it could not be \
                  compiled, and the one after a divergence)",
        shown: Shown::Tasks,
        value: |r| Value::Count(r.sum(|s| s.trace_records)),
    },
    SummaryKey {
        key: "trace_closes",
        meaning: "compiled or recorded streams analysed for replay",
        shown: Shown::Tasks,
        value: |r| Value::Count(r.sum(|s| s.trace_closes)),
    },
    SummaryKey {
        key: "trace_freezes",
        meaning: "closes, of compiled or recorded streams, that froze a trace (the others \
                  park the stream until the next regrid)",
        shown: Shown::Tasks,
        value: |r| Value::Count(r.sum(|s| s.trace_freezes)),
    },
    SummaryKey {
        key: "trace_divergences",
        meaning: "traced timesteps that left the frozen trace and fell back to fresh \
                  analysis",
        shown: Shown::Tasks,
        value: |r| Value::Count(r.sum(|s| s.trace_divergences)),
    },
    SummaryKey {
        key: "tasks_rearmed",
        meaning: "replayed tasks that reused the previous timestep's task object in place; \
                  the rest found it still live (`--delayed_checksum`)",
        shown: Shown::Tasks,
        value: |r| Value::Count(r.sum(|s| s.tasks_rearmed)),
    },
    SummaryKey {
        key: "trace_invalidations",
        meaning: "regrids that dropped the trace cache",
        shown: Shown::Tasks,
        value: |r| Value::Count(r.sum(|s| s.trace_invalidations)),
    },
    SummaryKey {
        key: "pool_hits",
        meaning: "block-move buffers the pool had on hand",
        shown: Shown::Always,
        value: |r| Value::Count(r.sum(|s| s.pool.hits)),
    },
    SummaryKey {
        key: "pool_misses",
        meaning: "block-move buffers the pool had to allocate (one seed per rank)",
        shown: Shown::Always,
        value: |r| Value::Count(r.sum(|s| s.pool.misses)),
    },
    SummaryKey {
        key: "pool_hit_rate",
        meaning: "`pool_hits / (pool_hits + pool_misses)`",
        shown: Shown::PoolTakes,
        value: |r| {
            let (hits, misses) = (r.sum(|s| s.pool.hits), r.sum(|s| s.pool.misses));
            Value::Fixed(hits as f64 / (hits + misses) as f64)
        },
    },
];

impl Summary<'_> {
    fn sum(&self, f: impl Fn(&RunStats) -> u64) -> u64 {
        self.ranks.iter().map(f).sum()
    }

    fn slowest(&self, f: impl Fn(&PhaseTimes) -> Duration) -> Value {
        let max = self.ranks.iter().map(|s| f(&s.times)).max();
        Value::Fixed(max.unwrap_or_default().as_secs_f64())
    }

    fn shows(&self, row: &SummaryKey) -> bool {
        match row.shown {
            Shown::Always => true,
            Shown::NonZero => (row.value)(self) != Value::Count(0),
            Shown::Tasks => self.sum(|s| s.tasks_spawned) > 0,
            Shown::PoolTakes => self.sum(|s| s.pool.hits + s.pool.misses) > 0,
        }
    }

    /// The summary's lines, `key<TAB>value` each.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        (SUMMARY.iter())
            .filter(|row| self.shows(row))
            .map(|row| format!("{}\t{}", row.key, (row.value)(self)))
    }
}

/// README's table of the summary keys.
pub fn summary_reference() -> String {
    let mut table = String::from("| key | meaning | printed |\n|---|---|---|\n");
    for row in SUMMARY {
        let shown = match row.shown {
            Shown::Always => "always",
            Shown::NonZero => "when not 0",
            Shown::Tasks => "when tasks were spawned",
            Shown::PoolTakes => "when the pool was used",
        };
        table += &format!("| `{}` | {} | {shown} |\n", row.key, row.meaning);
    }
    table
}

/// Simple scoped stopwatch accumulating into a `Duration`.
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Stops and accumulates into `into`.
    pub fn stop(self, into: &mut Duration) {
        *into += self.start.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_refine_subtracts() {
        let t = PhaseTimes {
            total: Duration::from_secs(10),
            refine: Duration::from_secs(3),
            ..Default::default()
        };
        assert_eq!(t.non_refine(), Duration::from_secs(7));
    }

    /// Task and trace lines need a spawned task, `checkpoints_taken` a
    /// checkpoint and `pool_hit_rate` a pool take; the rest always print,
    /// in the table's order.
    #[test]
    fn summary_prints_conditional_rows_only_when_they_apply() {
        let keys = |ranks: &[RunStats]| -> Vec<String> {
            let summary = Summary {
                ranks,
                wall: Duration::from_secs(1),
            };
            let lines = summary.lines();
            lines
                .map(|l| l.split('\t').next().unwrap().to_string())
                .collect()
        };
        let idle = keys(&[RunStats::default()]);
        assert!(SUMMARY
            .iter()
            .all(|row| idle.contains(&row.key.to_string()) == (row.shown == Shown::Always)));
        let busy = RunStats {
            tasks_spawned: 1,
            checkpoints_taken: 1,
            pool: shmem::PoolStats {
                misses: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let all: Vec<String> = SUMMARY.iter().map(|row| row.key.to_string()).collect();
        assert_eq!(keys(&[busy]), all);
    }

    #[test]
    fn stopwatch_accumulates() {
        let mut acc = Duration::ZERO;
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(5));
        sw.stop(&mut acc);
        assert!(acc >= Duration::from_millis(4));
    }
}
