//! The miniAMR command-line driver.
//!
//! Mirrors the reference mini-app's option surface, plus the paper's new
//! options and a `--variant` selector. All ranks run inside this process
//! on the in-process message-passing substrate; `--ranks_per_node` and
//! the latency/bandwidth options configure the simulated interconnect.
//!
//! ```text
//! miniamr --variant dataflow --npx 2 --npy 2 --npz 1 --nx 12 --ny 12 --nz 12 \
//!         --num_vars 20 --num_tsteps 4 --stages_per_ts 10 --checksum_freq 5 \
//!         --refine_freq 2 --num_refine 2 --input four_spheres \
//!         --send_faces --separate_buffers --max_comm_tasks 8 --workers 4
//! ```

use miniamr::cli::{self, exit};
use miniamr::{RunError, RunStats};
use std::time::Duration;
use vmpi::NetworkModel;

/// The value of `r`, or prints its error and exits [`exit::USAGE`].
fn or_exit<V>(r: Result<V, String>) -> V {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(exit::USAGE)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sc, mut live) = or_exit(cli::parse_args(
        &args,
        cli::miniamr_usage,
        &cli::live_rows(),
    ));

    let mut cfg = or_exit(sc.config());
    let fabric_on = or_exit(live.fabric_on(cfg.coll));
    cfg.chaos = live.chaos.take();

    // Pre-flight static verification: symbolic elaboration plus the
    // matching / deadlock / coverage passes, before any worker thread or
    // delivery thread exists. A failed check prints the JSON report to
    // stdout and exits without running a single timestep.
    if live.staticcheck {
        let start = std::time::Instant::now();
        let report = miniamr::staticcheck::check(&cfg);
        eprint!("{}", report.render_human());
        eprintln!(
            "miniamr: staticcheck: {} in {:.1}ms",
            if report.clean() { "clean" } else { "FAILED" },
            start.elapsed().as_secs_f64() * 1e3
        );
        if !report.clean() {
            println!("{}", report.to_json());
            std::process::exit(exit::STATICCHECK);
        }
    }

    let mut fab = live.fabric.clone();
    // Topology and eager threshold parse as *scenario* flags (they shape
    // the coalesced message structure, so dfcheck must see them too); the
    // fabric mirrors the config so both layers describe one machine.
    fab.ranks_per_node = cfg.ranks_per_node;
    fab.eager_threshold = cfg.eager_bytes;
    if cfg.ranks_per_node == 0 {
        // No node grouping: every rank is its own node, so there is no
        // shared-memory path to discount.
        fab.intra_node_factor = 1.0;
    }
    // Reject meaningless machine descriptions at the CLI boundary instead
    // of panicking later inside `Duration::from_secs_f64`.
    or_exit(
        fab.validate()
            .map_err(|e| format!("invalid network parameters: {e}")),
    );
    let net = NetworkModel::from_fabric(&fab).with_coll(cfg.coll);
    let net = if fabric_on {
        net.with_fabric(fab.clone())
    } else {
        net
    };
    let n_ranks = cfg.params.num_ranks();
    eprintln!(
        "miniamr: variant={:?} ranks={n_ranks} workers={} input={} \
         tsteps={} stages/ts={}",
        cfg.variant, cfg.workers, sc.input, cfg.num_tsteps, cfg.stages_per_ts
    );
    eprintln!(
        "miniamr: fabric={} latency={:.2}us bandwidth={:.1}GB/s eager={}KiB \
         rtt={:.2}us nic={:.2}us ranks/node={} coll={} coalesce={}",
        cli::keyword(cli::ON_OFF, fabric_on),
        fab.latency * 1e6,
        fab.bandwidth / 1e9,
        fab.eager_threshold / 1024,
        fab.rendezvous_rtt * 1e6,
        fab.nic_msg_overhead * 1e6,
        fab.ranks_per_node,
        cli::keyword(cli::COLL, cfg.coll),
        cli::keyword(cli::ON_OFF, cfg.coalesce),
    );
    if let Some(c) = &cfg.chaos {
        eprintln!(
            "miniamr: chaos enabled: seed={} drop={} dup={} corrupt={} delay={}x{} \
             stall={}/{:?} crash={:?}+{} retry={} rto={:?} ckpt_freq={}",
            c.seed,
            c.drop_p,
            c.dup_p,
            c.corrupt_p,
            c.delay_p,
            c.delay_factor,
            c.stall_every,
            c.stall,
            c.crash_rank,
            c.crash_after,
            c.retry_budget,
            c.rto,
            cfg.ckpt_freq,
        );
    }
    // Enable the observability layer *before* the world is built so the
    // transport caches its live metric handles at construction.
    if live.collects() || live.metrics || live.watchdog_ms > 0 {
        obs::enable_with_capacity(live.obs_ring);
    }
    // Likewise the sanitizer: runtimes and buffers register with depsan at
    // construction time, so it must be on before any of them exist.
    if live.sanitize {
        depsan::enable(depsan::Mode::Exit);
        eprintln!(
            "miniamr: depsan enabled (exit code {} on first violation)",
            exit::SANITIZER
        );
    }
    let _watchdog = (live.watchdog_ms > 0).then(|| {
        obs::Watchdog::start(obs::WatchdogConfig::exiting(Duration::from_millis(
            live.watchdog_ms,
        )))
    });
    // The collector drains the bus online (so long runs never overflow
    // the rings) and hands back the merged stream for both the Chrome
    // export and the perf report — one drain, two consumers.
    let collector = obs::bus().filter(|_| live.collects()).map(|bus| {
        obs::report::Collector::start(
            bus,
            live.metrics_jsonl.as_ref().map(std::path::PathBuf::from),
            live.report_interval,
        )
    });
    let opts = &live.elastic;
    if !opts.plan.events.is_empty() {
        let mut events = opts.plan.events.clone();
        events.sort();
        eprintln!(
            "miniamr: elastic plan: {} (on_peer_lost={})",
            events
                .iter()
                .map(|(t, n)| format!("ts{t}->{n}r"))
                .collect::<Vec<_>>()
                .join(", "),
            cli::keyword(cli::PEER_LOST, opts.on_peer_lost),
        );
    }
    let start = std::time::Instant::now();
    // Each job (`--jobs 1`: the one job) runs the full scenario on its
    // own world in its own thread. The JobCtx names the job in messages
    // and offsets its obs ranks so the jobs get disjoint trace lanes;
    // checkpoints and boundary snapshots belong to each run anyway.
    let handles: Vec<_> = (0..live.jobs)
        .map(|j| {
            let mut jcfg = cfg.clone();
            jcfg.job = Some(miniamr::JobCtx::new(j as u64, (j * n_ranks) as u32));
            if let Some(c) = jcfg.chaos.as_mut() {
                // Distinct fault schedules per job; digests must
                // still agree (fault recovery is digest-neutral).
                c.seed = c.seed.wrapping_add(j as u64);
            }
            let (net, opts) = (net.clone(), opts.clone());
            std::thread::spawn(move || miniamr::elastic::run(&jcfg, n_ranks, net, &opts))
        })
        .collect();
    // Every job is joined and heard before anything exits: one job's
    // lost peer is its own.
    let mut finished = Vec::new();
    let mut first_failure: Option<RunError> = None;
    for (j, handle) in handles.into_iter().enumerate() {
        // A job's run returns every lost peer, poisoned world and bad
        // checkpoint as its `RunError`, and re-raises only a panic that
        // is none of these: a bug, reported as one (exit 101).
        match handle.join().expect("job thread panicked") {
            Ok(stats) => {
                if let (true, Some(s0)) = (live.jobs > 1, stats.first()) {
                    println!("job{j}_checksum_digest\t{:016x}", s0.checksum_digest());
                }
                finished.push(stats);
            }
            Err(e) => {
                // One write for the whole report: another job's rank
                // threads may still be printing their unwind, and stderr
                // is unbuffered, so piecewise writes would interleave.
                let head = match live.jobs {
                    1 => String::new(),
                    _ => format!("miniamr: job {j} stopped early:\n"),
                };
                let report = format!("{head}{e}\n");
                eprint!("{report}");
                first_failure.get_or_insert(e);
            }
        }
    }
    if let Some(e) = first_failure {
        let code = e.exit_code();
        if matches!(e, RunError::PeerLost { .. }) {
            eprintln!("chaos: unrecoverable peer — exiting with code {code}");
        }
        std::process::exit(code);
    }
    let stats = finished.swap_remove(0);
    let wall = start.elapsed();
    if live.sanitize {
        // Mode::Exit terminates on the first violation, so reaching this
        // point means the run was clean.
        eprintln!("miniamr: depsan: no violations detected");
    }

    let total_flops: u64 = stats.iter().map(|s| s.flops).sum();
    let failed: usize = stats.iter().map(|s| s.checksums_failed).sum();
    let passed: usize = stats.iter().map(|s| s.checksums_passed).sum();
    let moved: u64 = stats.iter().map(|s| s.blocks_moved).sum();
    let msgs: u64 = stats.iter().map(|s| s.msgs_sent).sum();
    let max = |f: fn(&RunStats) -> Duration| -> Duration {
        stats.iter().map(f).max().unwrap_or_default()
    };
    println!("wall_time_s\t{:.4}", wall.as_secs_f64());
    println!(
        "gflops\t{:.4}",
        total_flops as f64 / wall.as_secs_f64() / 1e9
    );
    println!("time_total_s\t{:.4}", max(|s| s.times.total).as_secs_f64());
    println!(
        "time_refine_s\t{:.4}",
        max(|s| s.times.refine).as_secs_f64()
    );
    println!(
        "time_no_refine_s\t{:.4}",
        max(|s| s.times.non_refine()).as_secs_f64()
    );
    println!(
        "time_comm_s\t{:.4}",
        max(|s| s.times.communicate).as_secs_f64()
    );
    println!(
        "time_stencil_s\t{:.4}",
        max(|s| s.times.stencil).as_secs_f64()
    );
    println!("checksums_passed\t{passed}");
    println!("checksums_failed\t{failed}");
    // All ranks record the same broadcast checksum history, so rank 0's
    // digest is the run's fingerprint (compared across chaos seeds and
    // against the fault-free baseline in CI).
    if let Some(s0) = stats.first() {
        println!("checksum_digest\t{:016x}", s0.checksum_digest());
    }
    let ckpts: usize = stats.iter().map(|s| s.checkpoints_taken).sum();
    if ckpts > 0 {
        println!("checkpoints_taken\t{ckpts}");
    }
    println!(
        "final_blocks\t{}",
        stats.iter().map(|s| s.final_blocks).sum::<usize>()
    );
    println!("blocks_moved\t{moved}");
    println!("msgs_sent\t{msgs}");
    let spawned: u64 = stats.iter().map(|s| s.tasks_spawned).sum();
    let replayed: u64 = stats.iter().map(|s| s.tasks_replayed).sum();
    if spawned > 0 {
        println!("tasks_spawned\t{spawned}");
        println!(
            "task_items\t{}",
            stats.iter().map(|s| s.task_items).sum::<u64>()
        );
        println!("tasks_replayed\t{replayed}");
        let sum = |f: fn(&RunStats) -> u64| stats.iter().map(f).sum::<u64>();
        println!("trace_hits\t{}", sum(|s| s.trace_hits));
        println!("trace_records\t{}", sum(|s| s.trace_records));
        println!("trace_closes\t{}", sum(|s| s.trace_closes));
        println!("trace_freezes\t{}", sum(|s| s.trace_freezes));
        println!("trace_divergences\t{}", sum(|s| s.trace_divergences));
        println!("tasks_rearmed\t{}", sum(|s| s.tasks_rearmed));
        println!("trace_invalidations\t{}", sum(|s| s.trace_invalidations));
    }
    let pool_hits: u64 = stats.iter().map(|s| s.pool.hits).sum();
    let pool_misses: u64 = stats.iter().map(|s| s.pool.misses).sum();
    println!("pool_hits\t{pool_hits}");
    println!("pool_misses\t{pool_misses}");
    if pool_hits + pool_misses > 0 {
        println!(
            "pool_hit_rate\t{:.4}",
            pool_hits as f64 / (pool_hits + pool_misses) as f64
        );
    }
    if live.metrics {
        // The registry is process-wide, and runtimes and chaos worlds add
        // their counts when they are dropped: now that every job's world
        // is gone, one snapshot is the full picture.
        for (name, value) in obs::metrics().snapshot() {
            println!("metric:{name}\t{value}");
        }
    }
    if let Some(collector) = collector {
        let (events, dropped) = collector.finish();
        if dropped > 0 {
            eprintln!(
                "miniamr: trace ring overflow dropped {dropped} events (raise obs ring capacity or shrink the run)"
            );
        }
        if let Some(path) = &live.trace_json {
            let json = obs::export_chrome(&events);
            match std::fs::write(path, &json) {
                Ok(()) => eprintln!("miniamr: wrote {} trace events to {path}", events.len()),
                Err(e) => {
                    eprintln!("miniamr: failed to write {path}: {e}");
                    std::process::exit(exit::FAILED);
                }
            }
        }
        if live.perf_report.is_some() || live.metrics_jsonl.is_some() {
            let report = obs::report::PerfReport::from_events(&events, dropped);
            eprint!("{}", report.human_summary());
            if let Some(path) = &live.perf_report {
                match std::fs::write(path, report.to_json()) {
                    Ok(()) => eprintln!("miniamr: wrote perf report to {path}"),
                    Err(e) => {
                        eprintln!("miniamr: failed to write {path}: {e}");
                        std::process::exit(exit::FAILED);
                    }
                }
            }
        }
    }
    if failed > 0 {
        std::process::exit(exit::FAILED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exit table names each code once, and every way a run can stop
    /// early maps to its one row.
    #[test]
    fn exit_table_names_each_code_once() {
        let table = [
            exit::FAILED,
            exit::USAGE,
            exit::STALL,
            exit::RUN_ERROR,
            exit::STATICCHECK,
            exit::SANITIZER,
        ];
        assert_eq!(table, [1, 2, 86, 88, 95, 97]);
        for e in [
            RunError::PeerLost {
                reports: Vec::new(),
                lines: Vec::new(),
            },
            RunError::CheckpointMismatch {
                job: 0,
                rank: 0,
                tstep: 0,
                stage: 0,
                expected: 1,
                got: 2,
            },
            RunError::NoBoundary { job: 0 },
        ] {
            assert_eq!(e.exit_code(), exit::RUN_ERROR, "{e:?}");
        }
        let over = RunError::OverCapacity {
            rank: 0,
            blocks: 2,
            max_blocks: 1,
        };
        assert_eq!(over.exit_code(), exit::USAGE, "a rejected scenario");
    }
}
