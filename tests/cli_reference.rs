//! The command-line surface of `miniamr` and `dfcheck`: the defaults a
//! bare invocation runs with, that every scenario flag reaches the run's
//! configuration, and README's flag reference.

use amr_mesh::stencil::StencilKind;
use miniamr::cli::{self, ScenarioArgs};
use miniamr::{BalanceKind, Variant};

/// What `miniamr` with no flags runs, field by field.
#[test]
fn default_scenario_config_is_pinned() {
    let cfg = ScenarioArgs::default()
        .config()
        .expect("defaults are valid");
    let p = &cfg.params;
    assert_eq!((p.npx, p.npy, p.npz), (2, 1, 1));
    assert_eq!((p.init_x, p.init_y, p.init_z), (1, 2, 2));
    assert_eq!((p.nx, p.ny, p.nz), (8, 8, 8));
    assert_eq!((p.num_vars, p.num_refine, p.block_change), (8, 2, 1));
    assert_eq!(
        (
            cfg.num_tsteps,
            cfg.stages_per_ts,
            cfg.checksum_freq,
            cfg.refine_freq
        ),
        (8, 10, 5, 4)
    );
    assert_eq!(cfg.variant, Variant::MpiOnly);
    assert_eq!((cfg.comm_vars, cfg.max_blocks), (usize::MAX, usize::MAX));
    assert!(!cfg.send_faces && !cfg.separate_buffers && !cfg.delayed_checksum);
    assert_eq!(cfg.max_comm_tasks, 0);
    assert_eq!(cfg.balance, BalanceKind::Sfc);
    assert_eq!(cfg.workers, 2);
    assert!(cfg.replay);
    assert!(cfg.immediate_successor);
    assert_eq!(cfg.stencil, StencilKind::SevenPoint);
    assert_eq!(cfg.ckpt_freq, 0);
    assert_eq!(cfg.coll, vmpi::CollAlgo::Flat);
    assert!(!cfg.coalesce);
    // Every rank its own node, unlike `Config::new`'s four per node.
    assert_eq!(cfg.ranks_per_node, 0);
    assert_eq!(cfg.eager_bytes, 16384);
    assert!(!cfg.legacy_group_offsets);
    assert!(cfg.chaos.is_none() && cfg.job.is_none());
    assert_eq!(cfg.objects, miniamr::config::four_spheres(8));
}

/// A valid value other than the default for every scenario flag (a
/// switch's value is not passed).
const SAMPLES: &[(&str, &str)] = &[
    ("--variant", "dataflow"),
    ("--npx", "1"),
    ("--npy", "2"),
    ("--npz", "2"),
    ("--init_x", "2"),
    ("--init_y", "1"),
    ("--init_z", "1"),
    ("--nx", "4"),
    ("--ny", "4"),
    ("--nz", "4"),
    ("--num_vars", "4"),
    ("--num_refine", "1"),
    ("--block_change", "2"),
    ("--num_tsteps", "3"),
    ("--stages_per_ts", "4"),
    ("--checksum_freq", "2"),
    ("--refine_freq", "2"),
    ("--comm_vars", "2"),
    ("--max_blocks", "1000"),
    ("--input", "single_sphere"),
    ("--send_faces", ""),
    ("--separate_buffers", ""),
    ("--max_comm_tasks", "2"),
    ("--delayed_checksum", ""),
    ("--lb", "rcb"),
    ("--workers", "3"),
    ("--replay", "off"),
    ("--stencil", "27"),
    ("--ckpt_freq", "2"),
    ("--coll", "hier"),
    ("--coalesce", "on"),
    ("--ranks_per_node", "2"),
    ("--eager_kb", "8"),
    ("--legacy_group_offsets", ""),
];

/// Each scenario row writes what it parses: a non-default value changes
/// the resulting configuration.
#[test]
fn every_scenario_flag_reaches_the_config() {
    let rows = cli::scenario_rows();
    assert_eq!(rows.len(), SAMPLES.len(), "one sample per row");
    let default = format!("{:?}", ScenarioArgs::default().config());
    for row in &rows {
        let (_, value) = SAMPLES
            .iter()
            .find(|(name, _)| *name == row.name)
            .unwrap_or_else(|| panic!("no sample value for {}", row.name));
        let mut args = vec![row.name.to_string()];
        if !row.value.is_empty() {
            args.push(value.to_string());
        }
        let mut sc = ScenarioArgs::default();
        let mut i = 0;
        assert_eq!(sc.consume(&args, &mut i), Ok(true), "{args:?}");
        assert_eq!(i, args.len() - 1, "{args:?} consumed its value");
        let cfg = sc.config().unwrap_or_else(|e| panic!("{args:?}: {e}"));
        assert_ne!(
            format!("{:?}", Ok::<_, String>(cfg)),
            default,
            "{args:?} left the config as it was"
        );
    }
}

/// README.md's "Flag reference" block is the rows' rendering, byte for
/// byte.
#[test]
fn readme_flag_reference_is_generated_from_the_rows() {
    let readme = include_str!("../README.md");
    let begin = "<!-- flag-reference:begin -->\n```text\n";
    let end = "```\n<!-- flag-reference:end -->";
    let start = readme.find(begin).expect("README has the begin marker") + begin.len();
    let stop = readme.find(end).expect("README has the end marker");
    let expected = cli::reference();
    assert!(
        readme[start..stop] == expected,
        "README.md's flag reference is stale; replace the block between the \
         markers with:\n{expected}"
    );
}
