//! The miniAMR command-line driver.
//!
//! Mirrors the reference mini-app's option surface, plus the paper's new
//! options and a `--variant` selector. All ranks run inside this process
//! on the in-process message-passing substrate; `--ranks-per-node` and
//! the latency/bandwidth options configure the simulated interconnect.
//!
//! ```text
//! miniamr --variant dataflow --npx 2 --npy 2 --npz 1 --nx 12 --ny 12 --nz 12 \
//!         --num_vars 20 --num_tsteps 4 --stages_per_ts 10 --checksum_freq 5 \
//!         --refine_freq 2 --num_refine 2 --input four_spheres \
//!         --send_faces --separate_buffers --max_comm_tasks 8 --workers 4
//! ```

use miniamr::cli::ScenarioArgs;
use miniamr::{RunError, RunStats};
use std::time::Duration;
use vmpi::{FabricParams, NetworkModel};

/// The one exit table: every code this process can end with. `main`
/// decides all of them but the two monitors', which it arms explicitly:
/// a hung process cannot return an error to anybody.
mod exit {
    /// A checksum validation failed, or an output file was not written.
    pub const FAILED: i32 = 1;
    /// Bad flags, a rejected scenario, or a meaningless machine.
    pub const USAGE: i32 = 2;
    /// `--watchdog_ms`: the stall watchdog's thread saw no progress.
    pub const STALL: i32 = obs::STALL_EXIT_CODE;
    /// The run returned a [`miniamr::RunError`] (its `exit_code`; a
    /// scenario the run rejects, over `--max_blocks`, exits [`USAGE`]).
    pub const RUN_ERROR: i32 = vmpi::PEER_LOST_EXIT_CODE;
    /// `--staticcheck` found a defect before anything ran.
    pub const STATICCHECK: i32 = dfcheck::STATIC_EXIT_CODE;
    /// `--sanitize`: depsan stopped the process on the first violation.
    pub const SANITIZER: i32 = depsan::SAN_EXIT_CODE;
}

fn usage() -> ! {
    eprintln!(
        "usage: miniamr [options]
  --variant {{mpi|forkjoin|dataflow}}   parallelization variant (default mpi)
  --npx/--npy/--npz N                 rank grid (default 2/1/1)
  --init_x/--init_y/--init_z N        initial blocks per rank per dim (default 1/2/2)
  --nx/--ny/--nz N                    cells per block per dim (default 8)
  --num_vars N                        variables per cell (default 8)
  --num_refine N                      max refinement level (default 2)
  --block_change N                    max level change per refine stage (default 1)
  --num_tsteps N                      timesteps (default 8)
  --stages_per_ts N                   stages per timestep (default 10)
  --checksum_freq N                   stages between checksums (default 5)
  --refine_freq N                     timesteps between refinements (default 4)
  --comm_vars N                       vars per communication group (default: all)
  --max_blocks N                      per-rank block capacity (default unlimited)
  --input {{single_sphere|four_spheres}} input problem (default four_spheres)
  --send_faces                        one message per face
  --separate_buffers                  per-direction communication buffers
  --max_comm_tasks N                  cap comm tasks per neighbor+direction
  --delayed_checksum                  validate previous checkpoint (dataflow)
  --lb {{sfc|rcb|none}}                 load balancer (default sfc)
  --workers N                         worker threads per rank (default 2)
  --latency_us F                      network latency in µs (default 1.5)
  --bandwidth_gbps F                  network bandwidth in GB/s (default 12);
                                      must be positive
  --ranks_per_node N                  node grouping for the intra-node
                                      discount and the shared per-node NIC
  --fabric {{on|off}}                   contention-aware fabric: shared-link
                                      fair sharing, NIC serialization and the
                                      rendezvous handshake (default on)
  --fabric_rtt_us F                   rendezvous handshake round trip in µs
  --fabric_nic_us F                   per-message NIC injection overhead in µs
  --eager_kb N                        eager/rendezvous protocol threshold
                                      in KiB (default 16)
  --coll {{flat|hier}}                  collective algorithm: flat binomial
                                      trees over all ranks, or hierarchical
                                      intra-node combine + inter-node stage
                                      (digest-identical; default flat)
  --coalesce {{on|off}}                 merge an inter-node neighbor's
                                      per-face messages into one flow per
                                      direction above the eager threshold
                                      (default off)
  --replay {{on|off}}                   task-graph trace & replay cache: reuse
                                      dependency edges across identical
                                      timesteps (dataflow; default on)
  --stencil {{7|27}}                    stencil kind (default 7)
  --trace-json PATH                   write a merged Chrome trace_event JSON
                                      (all ranks; load in Perfetto/about:tracing)
  --metrics                           print the runtime metrics registry
  --watchdog_ms N                     stall watchdog: dump diagnostics and exit
                                      {} if no event-bus progress for N ms
  --perf_report PATH                  write the causal performance report
                                      (per-timestep critical paths, per-rank
                                      busy/idle/overlap, latency histograms)
                                      as schema-versioned JSON
  --metrics_jsonl PATH                stream interim perf reports to PATH as
                                      JSONL, one line per report interval
  --report_interval N                 timesteps between JSONL report lines
                                      (default 1)
  --obs_ring N                        per-stripe event-bus ring capacity
                                      (default {}; raise it if a traced run
                                      reports overflow drops)
  --legacy_group_offsets              reproduce the seed's buggy group-relative
                                      comm-buffer offsets (known deadlock)
  --staticcheck                       pre-flight static verification: elaborate
                                      the scenario symbolically and check for
                                      deadlocks, tag collisions and coverage
                                      violations before anything runs; exit {}
                                      with a JSON report on a failed check
  --sanitize                          dependency sanitizer: check declared
                                      regions against actual accesses, detect
                                      happens-before races and communication
                                      hazards; exit {} on the first violation
  --chaos_seed N                      enable deterministic fault injection with
                                      this seed (any --chaos_* flag enables it)
  --chaos_drop F                      per-frame drop probability (default 0)
  --chaos_dup F                       per-frame duplication probability
  --chaos_corrupt F                   per-frame single-bit corruption probability
  --chaos_delay F                     per-frame delay-spike probability
  --chaos_delay_factor F              delay-spike multiplier (default 8)
  --chaos_stall_every N               stall the sender every N frames (0 = off)
  --chaos_stall_ms N                  stall duration in ms (default 2)
  --chaos_crash_rank N                hard-crash rank N's NIC...
  --chaos_crash_after N               ...after it transmits N frames (default 0)
  --chaos_retry N                     retransmission budget per frame (default 8)
  --chaos_rto_us N                    base retransmit timeout in µs (default 5000)
  --ckpt_freq N                       checkpoint rank state every N stages
                                      (0 = off); an unrecoverable peer exits {}
                                      with a structured report after restoring
                                      and verifying the latest checkpoint
  --resize_at TS:N                    elastic: resize the world to N ranks
                                      before timestep TS (repeatable; grow or
                                      shrink; the final digest is bitwise
                                      identical to the fixed-rank run)
  --on_peer_lost {{abort|shrink}}       unrecoverable-peer policy: abort = the
                                      exit-{} report (default); shrink = drop
                                      the lost ranks, restore the latest
                                      coordinated boundary snapshot onto the
                                      survivors and resume
  --jobs N                            run N concurrent jobs of this scenario
                                      in one process (elastic soak harness);
                                      per-job checksum digests are printed",
        exit::STALL,
        obs::DEFAULT_RING_CAPACITY,
        exit::STATICCHECK,
        exit::SANITIZER,
        exit::RUN_ERROR,
        exit::RUN_ERROR
    );
    std::process::exit(exit::USAGE);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Scenario flags (mesh, variant, schedule, communication) parse
    // through the shared `cli` module, so `miniamr` and `dfcheck` accept
    // the same scenario surface; everything live-execution-only (network
    // model, observability, chaos) is handled below.
    let mut sc = ScenarioArgs::default();
    // Network defaults come from the one shared machine description; the
    // CLI flags below override individual fields of it.
    let mut fab = FabricParams::cluster();
    let mut latency_us = fab.latency * 1e6;
    let mut bandwidth_gbps = fab.bandwidth / 1e9;
    let mut fabric_on = true;
    let mut trace_json: Option<String> = None;
    let mut metrics = false;
    let mut watchdog_ms = 0u64;
    let mut perf_report: Option<String> = None;
    let mut metrics_jsonl: Option<String> = None;
    let mut report_interval = 1u32;
    let mut obs_ring = obs::DEFAULT_RING_CAPACITY;
    let mut staticcheck = false;
    let mut sanitize = false;
    let mut chaos: Option<vmpi::ChaosConfig> = None;
    let mut plan = miniamr::ResizePlan::default();
    let mut on_peer_lost = miniamr::PeerLostPolicy::Abort;
    let mut jobs = 1usize;

    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        let parse = |s: String| -> usize { s.parse().unwrap_or_else(|_| usage()) };
        match sc.consume(&args, &mut i) {
            Ok(true) => {
                i += 1;
                continue;
            }
            Ok(false) => {}
            Err(e) => {
                eprintln!("{e}");
                usage();
            }
        }
        match args[i].as_str() {
            "--latency_us" => latency_us = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--bandwidth_gbps" => bandwidth_gbps = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--fabric" => {
                fabric_on = match next(&mut i).as_str() {
                    "on" => true,
                    "off" => false,
                    _ => usage(),
                }
            }
            "--fabric_rtt_us" => {
                fab.rendezvous_rtt = next(&mut i).parse::<f64>().unwrap_or_else(|_| usage()) * 1e-6
            }
            "--fabric_nic_us" => {
                fab.nic_msg_overhead =
                    next(&mut i).parse::<f64>().unwrap_or_else(|_| usage()) * 1e-6
            }
            "--trace-json" => trace_json = Some(next(&mut i)),
            "--metrics" => metrics = true,
            "--watchdog_ms" => watchdog_ms = parse(next(&mut i)) as u64,
            "--perf_report" => perf_report = Some(next(&mut i)),
            "--metrics_jsonl" => metrics_jsonl = Some(next(&mut i)),
            "--report_interval" => report_interval = parse(next(&mut i)) as u32,
            "--obs_ring" => obs_ring = parse(next(&mut i)).max(1),
            "--staticcheck" => staticcheck = true,
            "--sanitize" => sanitize = true,
            "--chaos_seed" => {
                chaos.get_or_insert_with(Default::default).seed = parse(next(&mut i)) as u64
            }
            "--chaos_drop" => {
                chaos.get_or_insert_with(Default::default).drop_p =
                    next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--chaos_dup" => {
                chaos.get_or_insert_with(Default::default).dup_p =
                    next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--chaos_corrupt" => {
                chaos.get_or_insert_with(Default::default).corrupt_p =
                    next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--chaos_delay" => {
                chaos.get_or_insert_with(Default::default).delay_p =
                    next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--chaos_delay_factor" => {
                chaos.get_or_insert_with(Default::default).delay_factor =
                    next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--chaos_stall_every" => {
                chaos.get_or_insert_with(Default::default).stall_every = parse(next(&mut i)) as u64
            }
            "--chaos_stall_ms" => {
                chaos.get_or_insert_with(Default::default).stall =
                    Duration::from_millis(parse(next(&mut i)) as u64)
            }
            "--chaos_crash_rank" => {
                chaos.get_or_insert_with(Default::default).crash_rank = Some(parse(next(&mut i)))
            }
            "--chaos_crash_after" => {
                chaos.get_or_insert_with(Default::default).crash_after = parse(next(&mut i)) as u64
            }
            "--chaos_retry" => {
                chaos.get_or_insert_with(Default::default).retry_budget = parse(next(&mut i)) as u32
            }
            "--chaos_rto_us" => {
                chaos.get_or_insert_with(Default::default).rto =
                    Duration::from_micros(parse(next(&mut i)) as u64)
            }
            "--resize_at" => match miniamr::ResizePlan::parse_event(&next(&mut i)) {
                Ok((ts, n)) => plan.events.push((ts, n)),
                Err(e) => {
                    eprintln!("{e}");
                    usage();
                }
            },
            "--on_peer_lost" => {
                on_peer_lost = match next(&mut i).as_str() {
                    "abort" => miniamr::PeerLostPolicy::Abort,
                    "shrink" => miniamr::PeerLostPolicy::Shrink,
                    _ => usage(),
                }
            }
            "--jobs" => jobs = parse(next(&mut i)).max(1),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option: {other}");
                usage();
            }
        }
        i += 1;
    }

    let mut cfg = sc.config().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(exit::USAGE);
    });
    cfg.chaos = chaos;

    // Pre-flight static verification: symbolic elaboration plus the
    // matching / deadlock / coverage passes, before any worker thread or
    // delivery thread exists. A failed check prints the JSON report to
    // stdout and exits without running a single timestep.
    if staticcheck {
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

    fab.latency = latency_us * 1e-6;
    fab.bandwidth = bandwidth_gbps * 1e9;
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
    if let Err(e) = fab.validate() {
        eprintln!("invalid network parameters: {e}");
        std::process::exit(exit::USAGE);
    }
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
        if fabric_on { "on" } else { "off" },
        fab.latency * 1e6,
        fab.bandwidth / 1e9,
        fab.eager_threshold / 1024,
        fab.rendezvous_rtt * 1e6,
        fab.nic_msg_overhead * 1e6,
        fab.ranks_per_node,
        if cfg.coll == vmpi::CollAlgo::Hier {
            "hier"
        } else {
            "flat"
        },
        if cfg.coalesce { "on" } else { "off" },
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
    if trace_json.is_some()
        || metrics
        || watchdog_ms > 0
        || perf_report.is_some()
        || metrics_jsonl.is_some()
    {
        obs::enable_with_capacity(obs_ring);
    }
    // Likewise the sanitizer: runtimes and buffers register with depsan at
    // construction time, so it must be on before any of them exist.
    if sanitize {
        depsan::enable(depsan::Mode::Exit);
        eprintln!(
            "miniamr: depsan enabled (exit code {} on first violation)",
            exit::SANITIZER
        );
    }
    let _watchdog = (watchdog_ms > 0).then(|| {
        obs::Watchdog::start(obs::WatchdogConfig::exiting(Duration::from_millis(
            watchdog_ms,
        )))
    });
    // The collector drains the bus online (so long runs never overflow
    // the rings) and hands back the merged stream for both the Chrome
    // export and the perf report — one drain, two consumers.
    let collector = obs::bus()
        .filter(|_| trace_json.is_some() || perf_report.is_some() || metrics_jsonl.is_some())
        .map(|bus| {
            obs::report::Collector::start(
                bus,
                metrics_jsonl.as_ref().map(std::path::PathBuf::from),
                report_interval,
            )
        });
    if !plan.events.is_empty() {
        let mut events = plan.events.clone();
        events.sort();
        eprintln!(
            "miniamr: elastic plan: {} (on_peer_lost={})",
            events
                .iter()
                .map(|(t, n)| format!("ts{t}->{n}r"))
                .collect::<Vec<_>>()
                .join(", "),
            if on_peer_lost == miniamr::PeerLostPolicy::Shrink {
                "shrink"
            } else {
                "abort"
            },
        );
    }
    let opts = miniamr::ElasticOpts { plan, on_peer_lost };
    let start = std::time::Instant::now();
    // Each job (`--jobs 1`: the one job) runs the full scenario on its
    // own world in its own thread. The JobCtx names the job in messages
    // and offsets its obs ranks so the jobs get disjoint trace lanes;
    // checkpoints and boundary snapshots belong to each run anyway.
    let handles: Vec<_> = (0..jobs)
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
                if let (true, Some(s0)) = (jobs > 1, stats.first()) {
                    println!("job{j}_checksum_digest\t{:016x}", s0.checksum_digest());
                }
                finished.push(stats);
            }
            Err(e) => {
                if jobs > 1 {
                    eprintln!("miniamr: job {j} stopped early:");
                }
                eprintln!("{e}");
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
    if sanitize {
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
    if metrics {
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
        if let Some(path) = &trace_json {
            let json = obs::export_chrome(&events);
            match std::fs::write(path, &json) {
                Ok(()) => eprintln!("miniamr: wrote {} trace events to {path}", events.len()),
                Err(e) => {
                    eprintln!("miniamr: failed to write {path}: {e}");
                    std::process::exit(exit::FAILED);
                }
            }
        }
        if perf_report.is_some() || metrics_jsonl.is_some() {
            let report = obs::report::PerfReport::from_events(&events, dropped);
            eprint!("{}", report.human_summary());
            if let Some(path) = &perf_report {
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
