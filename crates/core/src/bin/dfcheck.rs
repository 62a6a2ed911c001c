//! Standalone static data-flow & communication-protocol verifier.
//!
//! Elaborates a miniAMR scenario symbolically — the same mesh evolution
//! and communication planning the live run would perform, with no field
//! data, worker threads or delivery thread — and checks the resulting
//! task/message model for deadlocks, tag collisions, size mismatches and
//! access-coverage violations. Accepts the same scenario flags as
//! `miniamr` (they parse through one shared module, so the two surfaces
//! cannot drift).
//!
//! ```text
//! dfcheck --variant dataflow --comm_vars 3 --send_faces \
//!         --npx 2 --nx 6 --ny 6 --nz 6 --num_vars 8 \
//!         --num_tsteps 3 --input single_sphere
//! ```
//!
//! The human-readable report goes to stderr, the JSON report to stdout.
//! Exit status: 0 when every checked scenario is clean, `{STATIC}` when
//! any check fails, 2 on a usage error.

use miniamr::cli;

fn main() {
    let (mut sc, all) = cli::parse_args(cli::dfcheck_usage, &cli::check_rows());

    let selected = sc.variant;
    let mut failed = false;
    let mut jsons = Vec::new();
    for &(_, variant) in cli::VARIANT.iter().filter(|(_, v)| all || *v == selected) {
        sc.variant = variant;
        let cfg = cli::or_exit(sc.config());
        let start = std::time::Instant::now();
        let report = miniamr::staticcheck::check(&cfg);
        eprint!("{}", report.render_human());
        eprintln!(
            "dfcheck: {:?}: {} in {:.1}ms",
            variant,
            if report.clean() { "clean" } else { "FAILED" },
            start.elapsed().as_secs_f64() * 1e3
        );
        failed |= !report.clean();
        jsons.push(report.to_json());
    }
    // One JSON document per checked variant, newline-delimited.
    for j in jsons {
        println!("{j}");
    }
    if failed {
        std::process::exit(dfcheck::STATIC_EXIT_CODE);
    }
}
