//! Block cell data: storage layout, initialization, refinement data
//! operators (split prolongation, merge restriction) and (de)serialization
//! for block exchange.
//!
//! Following the layout change Rico et al. introduced (and the paper
//! keeps, §II-A), every block stores **all its variables in one
//! contiguous array**, variable-major:
//!
//! ```text
//! idx(v, z, y, x) = ((v*(nz+2) + z)*(ny+2) + y)*(nx+2) + x
//! ```
//!
//! with a one-cell ghost halo in each dimension (interior indices
//! `1..=n`). Variable-major order makes "a range of variables of this
//! block" — the dependency granularity of §IV-D — a contiguous element
//! range, so task dependencies and buffer regions line up exactly.

use crate::block_id::{BlockId, Dir, Side};
use crate::params::MeshParams;
use shmem::SharedBuffer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Index arithmetic for one block's data array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLayout {
    /// Interior cells in X.
    pub nx: usize,
    /// Interior cells in Y.
    pub ny: usize,
    /// Interior cells in Z.
    pub nz: usize,
    /// Variables per cell.
    pub num_vars: usize,
}

impl BlockLayout {
    /// Layout from mesh parameters.
    pub fn of(params: &MeshParams) -> BlockLayout {
        BlockLayout {
            nx: params.nx,
            ny: params.ny,
            nz: params.nz,
            num_vars: params.num_vars,
        }
    }

    /// Total elements (cells with ghosts × variables).
    #[inline]
    pub fn elems(&self) -> usize {
        (self.nx + 2) * (self.ny + 2) * (self.nz + 2) * self.num_vars
    }

    /// Elements per variable (one ghosted cell grid).
    #[inline]
    pub fn elems_per_var(&self) -> usize {
        (self.nx + 2) * (self.ny + 2) * (self.nz + 2)
    }

    /// Flat index of `(v, z, y, x)`; coordinates include ghosts (0 and
    /// `n+1` are ghost layers).
    #[inline]
    pub fn idx(&self, v: usize, z: usize, y: usize, x: usize) -> usize {
        debug_assert!(
            v < self.num_vars && z <= self.nz + 1 && y <= self.ny + 1 && x <= self.nx + 1
        );
        ((v * (self.nz + 2) + z) * (self.ny + 2) + y) * (self.nx + 2) + x
    }

    /// Element range covering variables `vars` (contiguous by layout).
    #[inline]
    pub fn var_elem_range(&self, vars: std::ops::Range<usize>) -> std::ops::Range<usize> {
        let per = self.elems_per_var();
        vars.start * per..vars.end * per
    }

    /// Interior cell count per variable.
    #[inline]
    pub fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Cell count of one X/Y/Z face plane (per variable).
    #[inline]
    pub fn face_cells(&self, dir: Dir) -> usize {
        match dir {
            Dir::X => self.ny * self.nz,
            Dir::Y => self.nx * self.nz,
            Dir::Z => self.nx * self.ny,
        }
    }
}

/// Block uids start at the high bit: they share the task runtime's
/// dependency-object id space with `taskrt::ObjId::fresh` ids (both end
/// up as claim-table keys and depsan object ids), but the two counters
/// are independent. Starting this one at `1 << 63` keeps the spaces
/// disjoint — an aliased id would invent dependency edges between
/// unrelated tasks and phantom races under the sanitizer. The counter is
/// process-wide because depsan's object table is (one sanitizer watches
/// every rank of every world in the process); nothing but identity reads
/// a uid, so no result depends on the order ranks draw them.
static NEXT_UID: AtomicU64 = AtomicU64::new((1 << 63) + 1);

/// One block's cell data. The buffer is shared (`Arc`) so tasks can hold
/// region handles; the `uid` identifies this allocation in the task
/// dependency space.
#[derive(Clone)]
pub struct BlockData {
    /// Structural identity (level + coordinates).
    pub id: BlockId,
    /// Unique id of this data allocation (dependency object id).
    pub uid: u64,
    /// The ghosted, variable-major cell array.
    pub buf: Arc<SharedBuffer<f64>>,
}

impl std::fmt::Debug for BlockData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlockData({:?}, uid {})", self.id, self.uid)
    }
}

/// The analytic initial condition: smooth, positive, variable-dependent,
/// deterministic — so any refinement/ownership history yields comparable
/// checksums.
pub fn initial_value(v: usize, pos: [f64; 3]) -> f64 {
    let phase = 1.3 * pos[0] + 2.1 * pos[1] + 0.7 * pos[2] + 0.37 * v as f64;
    2.0 + phase.sin()
}

impl BlockData {
    /// Allocates a zeroed block.
    pub fn empty(id: BlockId, params: &MeshParams) -> BlockData {
        let layout = BlockLayout::of(params);
        let uid = NEXT_UID.fetch_add(1, Ordering::Relaxed);
        let buf = SharedBuffer::new(layout.elems());
        // The uid is the dependency object id for this allocation; binding
        // it lets the sanitizer map buffer accesses back to declared task
        // regions.
        buf.bind_obj(uid);
        BlockData { id, uid, buf }
    }

    /// Allocates a block and fills the interior with the analytic initial
    /// condition evaluated at cell centers.
    pub fn initialized(id: BlockId, params: &MeshParams) -> BlockData {
        let block = BlockData::empty(id, params);
        let layout = BlockLayout::of(params);
        let (lo, hi) = id.bounds(params);
        let dx = (hi[0] - lo[0]) / layout.nx as f64;
        let dy = (hi[1] - lo[1]) / layout.ny as f64;
        let dz = (hi[2] - lo[2]) / layout.nz as f64;
        block.buf.full().with_write(|data| {
            for v in 0..layout.num_vars {
                for z in 1..=layout.nz {
                    let pz = lo[2] + (z as f64 - 0.5) * dz;
                    for y in 1..=layout.ny {
                        let py = lo[1] + (y as f64 - 0.5) * dy;
                        for x in 1..=layout.nx {
                            let px = lo[0] + (x as f64 - 0.5) * dx;
                            data[layout.idx(v, z, y, x)] = initial_value(v, [px, py, pz]);
                        }
                    }
                }
            }
        });
        block
    }

    /// Copies the interior cells of variables `vars` into a payload (the
    /// block-exchange wire format; ghosts are not transmitted).
    pub fn pack_interior(&self, layout: &BlockLayout, vars: std::ops::Range<usize>) -> Vec<f64> {
        let mut out = vec![0.0; vars.len() * layout.cells()];
        self.pack_interior_into(layout, vars, &mut out);
        out
    }

    /// [`BlockData::pack_interior`] writing into a caller-supplied buffer
    /// of exactly `vars.len() · cells` elements (e.g. a pooled buffer).
    pub fn pack_interior_into(
        &self,
        layout: &BlockLayout,
        vars: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        assert_eq!(
            out.len(),
            vars.len() * layout.cells(),
            "payload size mismatch"
        );
        let mut i = 0;
        self.for_each_interior_row(layout, vars, |row| {
            out[i..i + row.len()].copy_from_slice(row);
            i += row.len();
        });
    }

    /// Hands `f` the interior rows (`nx` cells each) of variables `vars`
    /// in [`BlockData::pack_interior`]'s order, under one read claim.
    pub fn for_each_interior_row(
        &self,
        layout: &BlockLayout,
        vars: std::ops::Range<usize>,
        mut f: impl FnMut(&[f64]),
    ) {
        let vstart = vars.start;
        let slab = self.buf.slice(layout.var_elem_range(vars.clone()));
        slab.with_read(|data| {
            for v in vars.map(|v| v - vstart) {
                for z in 1..=layout.nz {
                    for y in 1..=layout.ny {
                        let base = layout.idx(v, z, y, 1);
                        f(&data[base..base + layout.nx]);
                    }
                }
            }
        });
    }

    /// Writes a payload produced by [`BlockData::pack_interior`] back into
    /// the interior cells.
    pub fn unpack_interior(
        &self,
        layout: &BlockLayout,
        vars: std::ops::Range<usize>,
        payload: &[f64],
    ) {
        assert_eq!(
            payload.len(),
            vars.len() * layout.cells(),
            "payload size mismatch"
        );
        let mut i = 0;
        let vstart = vars.start;
        let slab = self.buf.slice(layout.var_elem_range(vars.clone()));
        slab.with_write(|data| {
            for v in vars.map(|v| v - vstart) {
                for z in 1..=layout.nz {
                    for y in 1..=layout.ny {
                        let base = layout.idx(v, z, y, 1);
                        data[base..base + layout.nx].copy_from_slice(&payload[i..i + layout.nx]);
                        i += layout.nx;
                    }
                }
            }
        });
    }

    /// Fills the ghost layer at a domain boundary with the zero-gradient
    /// condition (ghost = adjacent interior cell).
    pub fn fill_boundary_ghosts(
        &self,
        layout: &BlockLayout,
        dir: Dir,
        side: Side,
        vars: std::ops::Range<usize>,
    ) {
        let nvars = vars.len();
        let slab = self.buf.slice(layout.var_elem_range(vars));
        slab.with_write(|data| crate::face::copy_boundary_to_ghost(data, layout, dir, side, nvars));
    }
}

/// Splits a block into its eight children (prolongation: each child cell
/// takes the value of the parent cell covering it). The heavy data copy
/// the paper taskifies in the refinement phase (§IV-B).
pub fn split_block(parent: &BlockData, params: &MeshParams) -> Vec<BlockData> {
    let layout = BlockLayout::of(params);
    let children = parent.id.children();
    let hx = layout.nx / 2;
    let hy = layout.ny / 2;
    let hz = layout.nz / 2;
    parent.buf.full().with_read(|pdata| {
        children
            .iter()
            .map(|&cid| {
                let child = BlockData::empty(cid, params);
                let ox = (cid.x % 2) as usize * hx;
                let oy = (cid.y % 2) as usize * hy;
                let oz = (cid.z % 2) as usize * hz;
                child.buf.full().with_write(|cdata| {
                    for v in 0..layout.num_vars {
                        for z in 1..=layout.nz {
                            let pz = oz + (z - 1) / 2 + 1;
                            for y in 1..=layout.ny {
                                let py = oy + (y - 1) / 2 + 1;
                                for x in 1..=layout.nx {
                                    let px = ox + (x - 1) / 2 + 1;
                                    cdata[layout.idx(v, z, y, x)] =
                                        pdata[layout.idx(v, pz, py, px)];
                                }
                            }
                        }
                    }
                });
                child
            })
            .collect()
    })
}

/// Merges eight children into their parent (restriction: each parent cell
/// is the average of the eight child cells covering it). `children` must
/// be in [`BlockId::children`] octant order.
pub fn merge_children(children: &[BlockData], params: &MeshParams) -> BlockData {
    assert_eq!(children.len(), 8, "merge needs exactly eight children");
    let layout = BlockLayout::of(params);
    let parent_id = children[0]
        .id
        .parent()
        .expect("children are not at level 0");
    for (i, c) in children.iter().enumerate() {
        assert_eq!(c.id.parent(), Some(parent_id), "mixed octets in merge");
        assert_eq!(c.id.octant(), i, "children must be in octant order");
    }
    let parent = BlockData::empty(parent_id, params);
    let hx = layout.nx / 2;
    let hy = layout.ny / 2;
    let hz = layout.nz / 2;
    parent.buf.full().with_write(|pdata| {
        for (ci, child) in children.iter().enumerate() {
            let ox = (ci % 2) * hx;
            let oy = ((ci / 2) % 2) * hy;
            let oz = (ci / 4) * hz;
            child.buf.full().with_read(|cdata| {
                for v in 0..layout.num_vars {
                    for z in 0..hz {
                        for y in 0..hy {
                            for x in 0..hx {
                                let mut sum = 0.0;
                                for (ddz, ddy, ddx) in [
                                    (0, 0, 0),
                                    (0, 0, 1),
                                    (0, 1, 0),
                                    (0, 1, 1),
                                    (1, 0, 0),
                                    (1, 0, 1),
                                    (1, 1, 0),
                                    (1, 1, 1),
                                ] {
                                    sum += cdata[layout.idx(
                                        v,
                                        2 * z + 1 + ddz,
                                        2 * y + 1 + ddy,
                                        2 * x + 1 + ddx,
                                    )];
                                }
                                pdata[layout.idx(v, oz + z + 1, oy + y + 1, ox + x + 1)] =
                                    sum / 8.0;
                            }
                        }
                    }
                }
            });
        }
    });
    parent
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MeshParams {
        MeshParams::test_small()
    }

    #[test]
    fn layout_indexing_is_contiguous_per_var() {
        let l = BlockLayout {
            nx: 4,
            ny: 4,
            nz: 4,
            num_vars: 3,
        };
        assert_eq!(l.idx(0, 0, 0, 0), 0);
        assert_eq!(l.idx(0, 0, 0, 1), 1);
        assert_eq!(l.idx(1, 0, 0, 0), l.elems_per_var());
        assert_eq!(
            l.var_elem_range(1..3),
            l.elems_per_var()..3 * l.elems_per_var()
        );
        assert_eq!(l.elems(), 6 * 6 * 6 * 3);
    }

    #[test]
    fn initialized_block_interior_nonzero_ghosts_zero() {
        let p = params();
        let layout = BlockLayout::of(&p);
        let b = BlockData::initialized(BlockId::new(0, 0, 0, 0), &p);
        b.buf.full().with_read(|d| {
            assert!(d[layout.idx(0, 1, 1, 1)] > 0.5);
            assert_eq!(d[layout.idx(0, 0, 1, 1)], 0.0, "ghost should start zero");
        });
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let p = params();
        let layout = BlockLayout::of(&p);
        let a = BlockData::initialized(BlockId::new(0, 1, 0, 1), &p);
        let payload = a.pack_interior(&layout, 0..p.num_vars);
        assert_eq!(payload.len(), p.num_vars * layout.cells());
        let b = BlockData::empty(a.id, &p);
        b.unpack_interior(&layout, 0..p.num_vars, &payload);
        assert_eq!(b.pack_interior(&layout, 0..p.num_vars), payload);
    }

    #[test]
    fn split_preserves_cell_averages() {
        let p = params();
        let layout = BlockLayout::of(&p);
        let parent = BlockData::initialized(BlockId::new(0, 0, 0, 0), &p);
        let children = split_block(&parent, &p);
        assert_eq!(children.len(), 8);
        // Prolongation copies values: the mean over all children's cells
        // equals the mean over the parent's cells exactly.
        let pmean: f64 =
            parent.pack_interior(&layout, 0..1).iter().sum::<f64>() / layout.cells() as f64;
        let csum: f64 = children
            .iter()
            .map(|c| c.pack_interior(&layout, 0..1).iter().sum::<f64>())
            .sum();
        let cmean = csum / (8.0 * layout.cells() as f64);
        assert!((pmean - cmean).abs() < 1e-12);
    }

    #[test]
    fn split_then_merge_is_identity() {
        let p = params();
        let layout = BlockLayout::of(&p);
        let parent = BlockData::initialized(BlockId::new(0, 1, 1, 0), &p);
        let children = split_block(&parent, &p);
        let merged = merge_children(&children, &p);
        let orig = parent.pack_interior(&layout, 0..p.num_vars);
        let back = merged.pack_interior(&layout, 0..p.num_vars);
        for (a, b) in orig.iter().zip(back.iter()) {
            assert!(
                (a - b).abs() < 1e-12,
                "split→merge changed a cell: {a} vs {b}"
            );
        }
    }

    #[test]
    fn boundary_ghosts_are_zero_gradient() {
        let p = params();
        let layout = BlockLayout::of(&p);
        let b = BlockData::initialized(BlockId::new(0, 0, 0, 0), &p);
        b.fill_boundary_ghosts(&layout, Dir::X, Side::Lo, 0..p.num_vars);
        b.buf.full().with_read(|d| {
            for v in 0..p.num_vars {
                for z in 1..=layout.nz {
                    for y in 1..=layout.ny {
                        assert_eq!(d[layout.idx(v, z, y, 0)], d[layout.idx(v, z, y, 1)]);
                    }
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "octant order")]
    fn merge_rejects_misordered_children() {
        let p = params();
        let parent = BlockData::initialized(BlockId::new(0, 0, 0, 0), &p);
        let mut children = split_block(&parent, &p);
        children.swap(0, 1);
        let _ = merge_children(&children, &p);
    }

    #[test]
    fn uids_are_unique_per_allocation() {
        let p = params();
        let a = BlockData::empty(BlockId::new(0, 0, 0, 0), &p);
        let b = BlockData::empty(BlockId::new(0, 0, 0, 0), &p);
        assert_ne!(a.uid, b.uid);
    }
}
