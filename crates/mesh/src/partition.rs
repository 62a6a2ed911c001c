//! Load-balance partitioners.
//!
//! After refinement changes the block population, miniAMR redistributes
//! blocks so every rank owns (nearly) the same number (§II-A, §IV-B).
//! Two partitioners are provided:
//!
//! * [`sfc_partition`] — sort active blocks along the Morton
//!   space-filling curve and cut the list into `ranks` equal runs. This
//!   is the primary strategy: contiguous runs keep sibling octets mostly
//!   together, so a merge's gathering moves little data. No partition
//!   changes a checksum: their combination is ownership-independent
//!   (see `checksum`).
//! * [`rcb_partition`] — recursive coordinate bisection over block
//!   centers, the reference implementation's strategy, kept for the
//!   ablation benchmark comparing balancers.
//!
//! Both are pure functions of the directory, so every rank computes the
//! identical assignment without communication.

use crate::block_id::BlockId;
use crate::directory::MeshDirectory;
use std::collections::BTreeMap;

/// Assigns owners by equal cuts of the Morton-ordered block list.
/// Returns the new owner for every active block.
pub fn sfc_partition(dir: &MeshDirectory, ranks: usize) -> BTreeMap<BlockId, usize> {
    assert!(ranks > 0);
    let params = dir.params();
    let mut blocks: Vec<BlockId> = dir.iter().map(|(id, _)| *id).collect();
    blocks.sort_by_cached_key(|b| b.morton_key(params));
    let n = blocks.len();
    // Rank r owns positions [r*n/ranks, (r+1)*n/ranks).
    let owner = |i: usize| ((i * ranks) / n.max(1)).min(ranks - 1);
    (blocks.into_iter().enumerate())
        .map(|(i, id)| (id, owner(i)))
        .collect()
}

/// Assigns owners by recursive coordinate bisection of block centers.
/// `ranks` need not be a power of two: each split divides proportionally.
pub fn rcb_partition(dir: &MeshDirectory, ranks: usize) -> BTreeMap<BlockId, usize> {
    assert!(ranks > 0);
    let params = dir.params();
    let mut items: Vec<(BlockId, [f64; 3])> =
        dir.iter().map(|(id, _)| (*id, id.center(params))).collect();
    let mut out = BTreeMap::new();
    rcb_recurse(&mut items, 0, ranks, 0, &mut out);
    out
}

fn rcb_recurse(
    items: &mut [(BlockId, [f64; 3])],
    rank_base: usize,
    ranks: usize,
    depth: usize,
    out: &mut BTreeMap<BlockId, usize>,
) {
    if ranks == 1 || items.is_empty() {
        for (id, _) in items.iter() {
            out.insert(*id, rank_base);
        }
        return;
    }
    // Split along the widest extent (ties broken by axis order, with the
    // block id as a deterministic sort tiebreak).
    let mut axis = depth % 3;
    let mut best_span = f64::MIN;
    for d in 0..3 {
        let (lo, hi) = items.iter().fold((f64::MAX, f64::MIN), |(lo, hi), (_, c)| {
            (lo.min(c[d]), hi.max(c[d]))
        });
        let span = hi - lo;
        if span > best_span + 1e-12 {
            best_span = span;
            axis = d;
        }
    }
    items.sort_by(|a, b| {
        a.1[axis]
            .partial_cmp(&b.1[axis])
            .unwrap()
            .then_with(|| a.0.cmp(&b.0))
    });
    let left_ranks = ranks / 2;
    let split = items.len() * left_ranks / ranks;
    let (left, right) = items.split_at_mut(split);
    rcb_recurse(left, rank_base, left_ranks, depth + 1, out);
    rcb_recurse(
        right,
        rank_base + left_ranks,
        ranks - left_ranks,
        depth + 1,
        out,
    );
}

/// Measures imbalance of an assignment: `max_count / mean_count`.
pub fn imbalance(assignment: &BTreeMap<BlockId, usize>, ranks: usize) -> f64 {
    let mut counts = vec![0usize; ranks];
    for &r in assignment.values() {
        counts[r] += 1;
    }
    let max = *counts.iter().max().unwrap_or(&0) as f64;
    let mean = assignment.len() as f64 / ranks as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Object;
    use crate::params::MeshParams;

    fn refined_dir() -> MeshDirectory {
        let p = MeshParams {
            npx: 2,
            npy: 2,
            npz: 1,
            init_x: 2,
            init_y: 2,
            init_z: 4,
            ..MeshParams::test_small()
        };
        let mut d = MeshDirectory::initial(p);
        let sphere = Object::sphere([0.3, 0.3, 0.3], 0.2, [0.0; 3]);
        d.refine_to_fixpoint(&[sphere]);
        d
    }

    #[test]
    fn sfc_partition_is_balanced_permutation() {
        let d = refined_dir();
        for ranks in [1, 2, 3, 4, 7] {
            let part = sfc_partition(&d, ranks);
            assert_eq!(
                part.len(),
                d.len(),
                "partition must cover every block exactly once"
            );
            let imb = imbalance(&part, ranks);
            assert!(
                imb < 1.0 + ranks as f64 / d.len() as f64 + 1e-9,
                "imbalance {imb} too high for {ranks} ranks"
            );
        }
    }

    #[test]
    fn sfc_assigns_contiguous_morton_runs() {
        let d = refined_dir();
        let part = sfc_partition(&d, 4);
        let params = d.params();
        let mut ordered: Vec<(u128, usize)> = part
            .iter()
            .map(|(id, &r)| (id.morton_key(params), r))
            .collect();
        ordered.sort_unstable();
        // Owners must be non-decreasing along the curve.
        for w in ordered.windows(2) {
            assert!(w[0].1 <= w[1].1, "SFC runs are not contiguous");
        }
    }

    #[test]
    fn rcb_partition_covers_and_balances() {
        let d = refined_dir();
        for ranks in [2, 3, 4, 6] {
            let part = rcb_partition(&d, ranks);
            assert_eq!(part.len(), d.len());
            let imb = imbalance(&part, ranks);
            assert!(imb < 1.35, "RCB imbalance {imb} too high for {ranks} ranks");
        }
    }

    #[test]
    fn partitions_are_deterministic() {
        let d = refined_dir();
        assert_eq!(sfc_partition(&d, 4), sfc_partition(&d, 4));
        assert_eq!(rcb_partition(&d, 4), rcb_partition(&d, 4));
    }

    #[test]
    fn single_rank_owns_everything() {
        let d = refined_dir();
        let part = sfc_partition(&d, 1);
        assert!(part.values().all(|&r| r == 0));
    }
}
