//! Face transfer operators: the data plumbing of the `communicate` phase.
//!
//! Ghost exchange between neighboring blocks comes in three flavors,
//! matching miniAMR:
//!
//! * **same level** — copy the neighbor's boundary face plane into the
//!   ghost plane;
//! * **fine → coarse** — the fine block's full face is *restricted*
//!   (2×2 average) on the sender side and lands in one quarter of the
//!   coarse block's ghost plane;
//! * **coarse → fine** — the coarse block extracts the face *quarter*
//!   facing the fine neighbor; the receiver *prolongates* it (2×
//!   duplication) over its full ghost plane.
//!
//! Between ranks a face travels *packed*: variable-major, then by the
//! major transverse axis, then the minor one — the same canonical order
//! everywhere, so a packed face is exactly what `inject` expects. Between
//! two blocks of one rank it is never packed: one fused operator per
//! flavor ([`transfer_face_same`], [`transfer_face_restrict`],
//! [`transfer_face_prolong`]) moves it block to block, as miniAMR's
//! `on_proc_comm` does. Both routes run the same three kernels over
//! strided views (`Plane`), so they agree bit for bit.

use crate::block_id::{transverse, Dir, Side};
use crate::data::{BlockData, BlockLayout};
use std::ops::Range;

/// Transverse face dimensions `(n1, n2)` for a direction (minor, major).
pub fn face_dims(layout: &BlockLayout, dir: Dir) -> (usize, usize) {
    let n = [layout.nx, layout.ny, layout.nz];
    let (t1, t2) = transverse(dir);
    (n[t1.index()], n[t2.index()])
}

/// One rectangle of cells per variable inside a flat array: element
/// `(v, c1, c2)` (0-based) sits at `origin + v·sv + c1·s1 + c2·s2`. A
/// block's boundary plane, its ghost plane, a quarter of either and a
/// packed face are all such views, so every transfer kind is one kernel
/// over a source and a destination view, with the strides computed once
/// per call instead of three multiplies per element.
#[derive(Debug, Clone, Copy)]
struct Plane {
    origin: usize,
    sv: usize,
    s1: usize,
    s2: usize,
}

impl Plane {
    /// The plane `fixed` (ghost coordinates: 0 and `n+1` are the ghost
    /// layers) normal to `dir` of a variable slab, starting at the first
    /// interior cell of both transverse axes.
    fn of_block(layout: &BlockLayout, dir: Dir, fixed: usize) -> Plane {
        let sy = layout.nx + 2;
        let sz = sy * (layout.ny + 2);
        // (c1, c2, fixed) = (y, z, x) | (x, z, y) | (x, y, z)
        let (s1, s2, sf) = match dir {
            Dir::X => (sy, sz, 1),
            Dir::Y => (1, sz, sy),
            Dir::Z => (1, sy, sz),
        };
        Plane {
            origin: fixed * sf + s1 + s2,
            sv: layout.elems_per_var(),
            s1,
            s2,
        }
    }

    /// The interior plane adjacent to `side`: what a block sends.
    fn boundary(layout: &BlockLayout, dir: Dir, side: Side) -> Plane {
        let n = [layout.nx, layout.ny, layout.nz][dir.index()];
        Plane::of_block(
            layout,
            dir,
            match side {
                Side::Lo => 1,
                Side::Hi => n,
            },
        )
    }

    /// The ghost plane on `side`: what a block receives into.
    fn ghost(layout: &BlockLayout, dir: Dir, side: Side) -> Plane {
        let n = [layout.nx, layout.ny, layout.nz][dir.index()];
        Plane::of_block(
            layout,
            dir,
            match side {
                Side::Lo => 0,
                Side::Hi => n + 1,
            },
        )
    }

    /// Quarter `0..4` (minor axis first) of a plane whose quarters are
    /// `h1 × h2`.
    fn quarter(self, quarter: usize, h1: usize, h2: usize) -> Plane {
        Plane {
            origin: self.origin + (quarter % 2) * h1 * self.s1 + (quarter / 2) * h2 * self.s2,
            ..self
        }
    }

    /// A packed `n1 × n2` face: variable-major, then `c2`, then `c1`.
    fn packed(n1: usize, n2: usize) -> Plane {
        Plane {
            origin: 0,
            sv: n1 * n2,
            s1: 1,
            s2: n1,
        }
    }

    /// Start of row `c2` of variable `v`.
    #[inline]
    fn row(&self, v: usize, c2: usize) -> usize {
        self.origin + v * self.sv + c2 * self.s2
    }
}

/// Copies `n1 × n2` cells of `nvars` variables from one view to another:
/// the same-level kernel, and either half of a packed quarter transfer.
fn copy_plane(
    src: &[f64],
    sp: Plane,
    dst: &mut [f64],
    dp: Plane,
    nvars: usize,
    (n1, n2): (usize, usize),
) {
    for v in 0..nvars {
        for c2 in 0..n2 {
            let (s, d) = (sp.row(v, c2), dp.row(v, c2));
            if sp.s1 == 1 && dp.s1 == 1 {
                // Y and Z planes run along x, the contiguous axis: the
                // whole row is one memcpy.
                dst[d..d + n1].copy_from_slice(&src[s..s + n1]);
            } else {
                for c1 in 0..n1 {
                    dst[d + c1 * dp.s1] = src[s + c1 * sp.s1];
                }
            }
        }
    }
}

/// Averages the 2×2 cell groups of a `2·h1 × 2·h2` source view into an
/// `h1 × h2` destination view. Every group is summed in the fixed order
/// `i00 + i01 + i10 + i11` (minor axis first) and scaled by `0.25`, so
/// all restricting operators agree bit for bit.
fn restrict_plane(
    src: &[f64],
    sp: Plane,
    dst: &mut [f64],
    dp: Plane,
    nvars: usize,
    (h1, h2): (usize, usize),
) {
    for v in 0..nvars {
        for c2 in 0..h2 {
            let (lo, hi, d) = (sp.row(v, 2 * c2), sp.row(v, 2 * c2 + 1), dp.row(v, c2));
            for c1 in 0..h1 {
                let (a, b) = (2 * c1 * sp.s1, (2 * c1 + 1) * sp.s1);
                dst[d + c1 * dp.s1] =
                    (src[lo + a] + src[lo + b] + src[hi + a] + src[hi + b]) * 0.25;
            }
        }
    }
}

/// Duplicates an `n1/2 × n2/2` source view 2× along both axes into an
/// `n1 × n2` destination view.
fn prolong_plane(
    src: &[f64],
    sp: Plane,
    dst: &mut [f64],
    dp: Plane,
    nvars: usize,
    (n1, n2): (usize, usize),
) {
    for v in 0..nvars {
        for c2 in 0..n2 {
            let (s, d) = (sp.row(v, c2 / 2), dp.row(v, c2));
            for c1 in 0..n1 {
                dst[d + c1 * dp.s1] = src[s + (c1 / 2) * sp.s1];
            }
        }
    }
}

/// Zero-gradient fill inside one variable slab: the ghost plane on `side`
/// takes the adjacent interior plane ([`BlockData::fill_boundary_ghosts`]).
pub(crate) fn copy_boundary_to_ghost(
    data: &mut [f64],
    layout: &BlockLayout,
    dir: Dir,
    side: Side,
    nvars: usize,
) {
    let (sp, dp) = (
        Plane::boundary(layout, dir, side),
        Plane::ghost(layout, dir, side),
    );
    let (n1, n2) = face_dims(layout, dir);
    for v in 0..nvars {
        for c2 in 0..n2 {
            let (s, d) = (sp.row(v, c2), dp.row(v, c2));
            if sp.s1 == 1 {
                data.copy_within(s..s + n1, d);
            } else {
                for c1 in 0..n1 {
                    data[d + c1 * dp.s1] = data[s + c1 * sp.s1];
                }
            }
        }
    }
}

/// Runs `f` over the `vars` slabs of two blocks, holding the source's read
/// claim and the destination's write claim together — exactly the `in`
/// source / `inout` destination a local-copy task declares, claimed in
/// the order the staged path claimed them.
fn with_slabs<R>(
    src: &BlockData,
    dst: &BlockData,
    layout: &BlockLayout,
    vars: Range<usize>,
    f: impl FnOnce(&[f64], &mut [f64]) -> R,
) -> R {
    let slab = layout.var_elem_range(vars);
    let (src, dst) = (src.buf.slice(slab.clone()), dst.buf.slice(slab));
    src.with_read(|s| dst.with_write(|d| f(s, d)))
}

/// Same-level local transfer: `src`'s boundary plane on `src_side`
/// straight into `dst`'s ghost plane on `dst_side`. Bitwise-identical to
/// [`extract_face_into`] → [`inject_ghost_face`], with no packed face in
/// between.
pub fn transfer_face_same(
    layout: &BlockLayout,
    dir: Dir,
    src: &BlockData,
    src_side: Side,
    dst: &BlockData,
    dst_side: Side,
    vars: Range<usize>,
) {
    let (sp, dp) = (
        Plane::boundary(layout, dir, src_side),
        Plane::ghost(layout, dir, dst_side),
    );
    let nvars = vars.len();
    with_slabs(src, dst, layout, vars, |s, d| {
        copy_plane(s, sp, d, dp, nvars, face_dims(layout, dir))
    });
}

/// Fine→coarse local transfer: the 2×2 averages of the fine `src`'s
/// boundary plane written straight into `quarter` of the coarse `dst`'s
/// ghost plane. Bitwise-identical to [`restrict_from_block_into`] →
/// [`inject_ghost_quarter`].
#[allow(clippy::too_many_arguments)]
pub fn transfer_face_restrict(
    layout: &BlockLayout,
    dir: Dir,
    src: &BlockData,
    src_side: Side,
    dst: &BlockData,
    dst_side: Side,
    quarter: usize,
    vars: Range<usize>,
) {
    let (n1, n2) = face_dims(layout, dir);
    let half = (n1 / 2, n2 / 2);
    let sp = Plane::boundary(layout, dir, src_side);
    let dp = Plane::ghost(layout, dir, dst_side).quarter(quarter, half.0, half.1);
    let nvars = vars.len();
    with_slabs(src, dst, layout, vars, |s, d| {
        restrict_plane(s, sp, d, dp, nvars, half)
    });
}

/// Coarse→fine local transfer: `quarter` of the coarse `src`'s boundary
/// plane duplicated 2× straight into the fine `dst`'s ghost plane.
/// Bitwise-identical to [`extract_face_quarter_into`] →
/// [`inject_prolonged_face`].
#[allow(clippy::too_many_arguments)]
pub fn transfer_face_prolong(
    layout: &BlockLayout,
    dir: Dir,
    src: &BlockData,
    src_side: Side,
    quarter: usize,
    dst: &BlockData,
    dst_side: Side,
    vars: Range<usize>,
) {
    let (n1, n2) = face_dims(layout, dir);
    let sp = Plane::boundary(layout, dir, src_side).quarter(quarter, n1 / 2, n2 / 2);
    let dp = Plane::ghost(layout, dir, dst_side);
    let nvars = vars.len();
    with_slabs(src, dst, layout, vars, |s, d| {
        prolong_plane(s, sp, d, dp, nvars, (n1, n2))
    });
}

/// Extracts the interior boundary plane on `side` into a packed face.
pub fn extract_face(
    block: &BlockData,
    layout: &BlockLayout,
    dir: Dir,
    side: Side,
    vars: Range<usize>,
) -> Vec<f64> {
    let (n1, n2) = face_dims(layout, dir);
    let mut out = vec![0.0; vars.len() * n1 * n2];
    extract_face_into(block, layout, dir, side, vars, &mut out);
    out
}

/// [`extract_face`] writing into a caller-supplied buffer (e.g. a message
/// buffer section), avoiding the intermediate `Vec` + copy.
///
/// `out` must hold exactly `vars.len() · n1 · n2` elements.
pub fn extract_face_into(
    block: &BlockData,
    layout: &BlockLayout,
    dir: Dir,
    side: Side,
    vars: Range<usize>,
    out: &mut [f64],
) {
    let (n1, n2) = face_dims(layout, dir);
    assert_eq!(out.len(), vars.len() * n1 * n2, "face buffer size mismatch");
    let sp = Plane::boundary(layout, dir, side);
    let nvars = vars.len();
    let slab = block.buf.slice(layout.var_elem_range(vars));
    slab.with_read(|data| copy_plane(data, sp, out, Plane::packed(n1, n2), nvars, (n1, n2)));
}

/// Writes a packed face into the ghost plane on `side`.
pub fn inject_ghost_face(
    block: &BlockData,
    layout: &BlockLayout,
    dir: Dir,
    side: Side,
    vars: Range<usize>,
    face: &[f64],
) {
    let (n1, n2) = face_dims(layout, dir);
    assert_eq!(face.len(), vars.len() * n1 * n2, "face size mismatch");
    let dp = Plane::ghost(layout, dir, side);
    let nvars = vars.len();
    let slab = block.buf.slice(layout.var_elem_range(vars));
    slab.with_write(|data| copy_plane(face, Plane::packed(n1, n2), data, dp, nvars, (n1, n2)));
}

/// Restricts a packed fine face (`n1 × n2` per variable) to coarse
/// resolution (`n1/2 × n2/2`) by averaging 2×2 cell groups — the
/// sender-side operator of a fine→coarse exchange.
pub fn restrict_face(face: &[f64], n1: usize, n2: usize, nvars: usize) -> Vec<f64> {
    let mut out = vec![0.0; nvars * (n1 / 2) * (n2 / 2)];
    restrict_face_into(face, n1, n2, nvars, &mut out);
    out
}

/// [`restrict_face`] writing into a caller-supplied buffer.
///
/// `out` must hold exactly `nvars · (n1/2) · (n2/2)` elements. The 2×2
/// groups are summed in the fixed order `i00 + i01 + i10 + i11`, which
/// [`restrict_from_block_into`] reproduces cell-for-cell.
pub fn restrict_face_into(face: &[f64], n1: usize, n2: usize, nvars: usize, out: &mut [f64]) {
    assert_eq!(face.len(), nvars * n1 * n2);
    let half = (n1 / 2, n2 / 2);
    assert_eq!(
        out.len(),
        nvars * half.0 * half.1,
        "restricted face buffer size mismatch"
    );
    let (sp, dp) = (Plane::packed(n1, n2), Plane::packed(half.0, half.1));
    restrict_plane(face, sp, out, dp, nvars, half);
}

/// Fused extract + restrict: reads the fine block's boundary plane and
/// writes the coarse-resolution face straight into `out`, skipping the
/// intermediate full-resolution face entirely.
///
/// Bitwise-identical to `extract_face` → `restrict_face`: each 2×2 group
/// is read in the same `i00, i01, i10, i11` order and summed identically.
pub fn restrict_from_block_into(
    block: &BlockData,
    layout: &BlockLayout,
    dir: Dir,
    side: Side,
    vars: Range<usize>,
    out: &mut [f64],
) {
    let (n1, n2) = face_dims(layout, dir);
    let half = (n1 / 2, n2 / 2);
    assert_eq!(
        out.len(),
        vars.len() * half.0 * half.1,
        "restricted face buffer size mismatch"
    );
    let sp = Plane::boundary(layout, dir, side);
    let nvars = vars.len();
    let slab = block.buf.slice(layout.var_elem_range(vars));
    slab.with_read(|data| {
        restrict_plane(data, sp, out, Plane::packed(half.0, half.1), nvars, half)
    });
}

/// Prolongates a packed quarter face (`n1/2 × n2/2` per variable) to fine
/// resolution (`n1 × n2`) by 2× duplication — the receiver-side operator
/// of a coarse→fine exchange.
pub fn prolong_face(quarter: &[f64], n1: usize, n2: usize, nvars: usize) -> Vec<f64> {
    let mut out = vec![0.0; nvars * n1 * n2];
    prolong_face_into(quarter, n1, n2, nvars, &mut out);
    out
}

/// [`prolong_face`] writing into a caller-supplied buffer of
/// `nvars · n1 · n2` elements.
pub fn prolong_face_into(quarter: &[f64], n1: usize, n2: usize, nvars: usize, out: &mut [f64]) {
    assert_eq!(quarter.len(), nvars * (n1 / 2) * (n2 / 2));
    assert_eq!(
        out.len(),
        nvars * n1 * n2,
        "prolonged face buffer size mismatch"
    );
    let (sp, dp) = (Plane::packed(n1 / 2, n2 / 2), Plane::packed(n1, n2));
    prolong_plane(quarter, sp, out, dp, nvars, (n1, n2));
}

/// Fused prolong + inject: duplicates a packed quarter face (`n1/2 × n2/2`
/// per variable) 2× in both transverse axes directly into the ghost plane
/// on `side`, skipping the intermediate full-resolution face.
///
/// Bitwise-identical to `prolong_face` → `inject_ghost_face`: prolongation
/// is pure duplication, so only the write path changes.
pub fn inject_prolonged_face(
    block: &BlockData,
    layout: &BlockLayout,
    dir: Dir,
    side: Side,
    vars: Range<usize>,
    quarter: &[f64],
) {
    let (n1, n2) = face_dims(layout, dir);
    assert_eq!(
        quarter.len(),
        vars.len() * (n1 / 2) * (n2 / 2),
        "quarter face size mismatch"
    );
    let sp = Plane::packed(n1 / 2, n2 / 2);
    let dp = Plane::ghost(layout, dir, side);
    let nvars = vars.len();
    let slab = block.buf.slice(layout.var_elem_range(vars));
    slab.with_write(|data| prolong_plane(quarter, sp, data, dp, nvars, (n1, n2)));
}

/// Extracts one quarter (`0..4`, minor-axis-first order matching
/// [`crate::block_id::BlockId::quarter_of_coarse_face`]) of the interior
/// boundary plane — what a coarse block sends to one fine neighbor.
pub fn extract_face_quarter(
    block: &BlockData,
    layout: &BlockLayout,
    dir: Dir,
    side: Side,
    quarter: usize,
    vars: Range<usize>,
) -> Vec<f64> {
    let (n1, n2) = face_dims(layout, dir);
    let mut out = vec![0.0; vars.len() * (n1 / 2) * (n2 / 2)];
    extract_face_quarter_into(block, layout, dir, side, quarter, vars, &mut out);
    out
}

/// [`extract_face_quarter`] writing into a caller-supplied buffer of
/// `vars.len() · (n1/2) · (n2/2)` elements.
pub fn extract_face_quarter_into(
    block: &BlockData,
    layout: &BlockLayout,
    dir: Dir,
    side: Side,
    quarter: usize,
    vars: Range<usize>,
    out: &mut [f64],
) {
    let (n1, n2) = face_dims(layout, dir);
    let half = (n1 / 2, n2 / 2);
    assert_eq!(
        out.len(),
        vars.len() * half.0 * half.1,
        "quarter face buffer size mismatch"
    );
    let sp = Plane::boundary(layout, dir, side).quarter(quarter, half.0, half.1);
    let nvars = vars.len();
    let slab = block.buf.slice(layout.var_elem_range(vars));
    slab.with_read(|data| copy_plane(data, sp, out, Plane::packed(half.0, half.1), nvars, half));
}

/// Writes a coarse-resolution face (`n1/2 × n2/2` per variable) into one
/// quarter of the ghost plane — what a coarse block does with a restricted
/// face received from a fine neighbor.
pub fn inject_ghost_quarter(
    block: &BlockData,
    layout: &BlockLayout,
    dir: Dir,
    side: Side,
    quarter: usize,
    vars: Range<usize>,
    face: &[f64],
) {
    let (n1, n2) = face_dims(layout, dir);
    let half = (n1 / 2, n2 / 2);
    assert_eq!(
        face.len(),
        vars.len() * half.0 * half.1,
        "quarter face size mismatch"
    );
    let dp = Plane::ghost(layout, dir, side).quarter(quarter, half.0, half.1);
    let nvars = vars.len();
    let slab = block.buf.slice(layout.var_elem_range(vars));
    slab.with_write(|data| copy_plane(face, Plane::packed(half.0, half.1), data, dp, nvars, half));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_id::BlockId;
    use crate::params::MeshParams;

    /// `layout.idx` of plane coordinates (1-based, ghosts at 0 and `n+1`):
    /// the reference the stride arithmetic of [`Plane`] is checked against.
    fn cell_index(
        layout: &BlockLayout,
        dir: Dir,
        v: usize,
        fixed: usize,
        c1: usize,
        c2: usize,
    ) -> usize {
        match dir {
            // (c1, c2) = (y, z)
            Dir::X => layout.idx(v, c2, c1, fixed),
            // (c1, c2) = (x, z)
            Dir::Y => layout.idx(v, c2, fixed, c1),
            // (c1, c2) = (x, y)
            Dir::Z => layout.idx(v, fixed, c2, c1),
        }
    }

    #[test]
    fn plane_strides_agree_with_layout_idx() {
        let l = BlockLayout {
            nx: 4,
            ny: 6,
            nz: 8,
            num_vars: 3,
        };
        for dir in Dir::ALL {
            let (n1, n2) = face_dims(&l, dir);
            let n = [l.nx, l.ny, l.nz][dir.index()];
            for fixed in [0, 1, n, n + 1] {
                let whole = Plane::of_block(&l, dir, fixed);
                for q in 0..4 {
                    let (h1, h2) = (n1 / 2, n2 / 2);
                    let p = whole.quarter(q, h1, h2);
                    let (o1, o2) = ((q % 2) * h1, (q / 2) * h2);
                    for v in 0..l.num_vars {
                        for c2 in 0..h2 {
                            for c1 in 0..h1 {
                                assert_eq!(
                                    p.row(v, c2) + c1 * p.s1,
                                    cell_index(&l, dir, v, fixed, o1 + c1 + 1, o2 + c2 + 1),
                                    "{dir:?} plane {fixed} quarter {q} at ({v}, {c1}, {c2})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    fn setup() -> (MeshParams, BlockLayout) {
        let p = MeshParams::test_small();
        let l = BlockLayout::of(&p);
        (p, l)
    }

    #[test]
    fn same_level_exchange_fills_ghosts() {
        let (p, l) = setup();
        let a = BlockData::initialized(BlockId::new(0, 0, 0, 0), &p);
        let b = BlockData::initialized(BlockId::new(0, 1, 0, 0), &p);
        // a's Hi-X face goes into b's Lo-X ghosts.
        let face = extract_face(&a, &l, Dir::X, Side::Hi, 0..p.num_vars);
        inject_ghost_face(&b, &l, Dir::X, Side::Lo, 0..p.num_vars, &face);
        b.buf.full().with_read(|data| {
            a.buf.full().with_read(|adata| {
                for v in 0..p.num_vars {
                    for z in 1..=l.nz {
                        for y in 1..=l.ny {
                            assert_eq!(
                                data[l.idx(v, z, y, 0)],
                                adata[l.idx(v, z, y, l.nx)],
                                "ghost does not match neighbor face"
                            );
                        }
                    }
                }
            });
        });
    }

    #[test]
    fn all_directions_roundtrip() {
        let (p, l) = setup();
        for dir in Dir::ALL {
            let a = BlockData::initialized(BlockId::new(0, 0, 0, 0), &p);
            let b = BlockData::empty(BlockId::new(0, 0, 0, 0), &p);
            let face = extract_face(&a, &l, dir, Side::Hi, 0..1);
            let (n1, n2) = face_dims(&l, dir);
            assert_eq!(face.len(), n1 * n2);
            inject_ghost_face(&b, &l, dir, Side::Lo, 0..1, &face);
            // The injected ghost plane must reproduce the packed face.
            let mut got = Vec::new();
            b.buf.full().with_read(|data| {
                for c2 in 1..=n2 {
                    for c1 in 1..=n1 {
                        got.push(data[cell_index(&l, dir, 0, 0, c1, c2)]);
                    }
                }
            });
            assert_eq!(got, face, "direction {dir:?} roundtrip failed");
        }
    }

    #[test]
    fn restriction_averages_quads() {
        let face = vec![
            1.0, 2.0, 3.0, 4.0, //
            5.0, 6.0, 7.0, 8.0, //
            1.0, 1.0, 2.0, 2.0, //
            1.0, 1.0, 2.0, 2.0,
        ];
        let r = restrict_face(&face, 4, 4, 1);
        assert_eq!(
            r,
            vec![
                (1.0 + 2.0 + 5.0 + 6.0) / 4.0,
                (3.0 + 4.0 + 7.0 + 8.0) / 4.0,
                1.0,
                2.0
            ]
        );
    }

    #[test]
    fn prolongation_duplicates() {
        let quarter = vec![1.0, 2.0, 3.0, 4.0]; // 2×2
        let p = prolong_face(&quarter, 4, 4, 1);
        assert_eq!(
            p,
            vec![
                1.0, 1.0, 2.0, 2.0, //
                1.0, 1.0, 2.0, 2.0, //
                3.0, 3.0, 4.0, 4.0, //
                3.0, 3.0, 4.0, 4.0,
            ]
        );
    }

    #[test]
    fn restrict_then_prolong_preserves_mean() {
        let (_, l) = setup();
        let (n1, n2) = face_dims(&l, Dir::Y);
        let face: Vec<f64> = (0..n1 * n2)
            .map(|i| (i as f64 * 0.37).sin() + 2.0)
            .collect();
        let r = restrict_face(&face, n1, n2, 1);
        let back = prolong_face(&r, n1, n2, 1);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((mean(&face) - mean(&back)).abs() < 1e-12);
    }

    #[test]
    fn quarter_extract_covers_face_exactly() {
        let (p, l) = setup();
        let a = BlockData::initialized(BlockId::new(0, 0, 0, 0), &p);
        let full = extract_face(&a, &l, Dir::Z, Side::Hi, 0..1);
        let (n1, n2) = face_dims(&l, Dir::Z);
        let mut reassembled = vec![0.0; n1 * n2];
        for q in 0..4 {
            let quarter = extract_face_quarter(&a, &l, Dir::Z, Side::Hi, q, 0..1);
            let o1 = (q % 2) * n1 / 2;
            let o2 = (q / 2) * n2 / 2;
            for c2 in 0..n2 / 2 {
                for c1 in 0..n1 / 2 {
                    reassembled[(o2 + c2) * n1 + o1 + c1] = quarter[c2 * (n1 / 2) + c1];
                }
            }
        }
        assert_eq!(reassembled, full);
    }

    /// Deterministic irregular fill so bitwise comparisons are meaningful.
    fn scramble(b: &BlockData, seed: u64) {
        b.buf.full().with_write(|d| {
            let mut s = seed | 1;
            for v in d.iter_mut() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *v = ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 64.0;
            }
        });
    }

    /// The fused sender-side restrict must match extract → restrict
    /// bitwise, and the `_into` extract must match the allocating one.
    #[test]
    fn fused_restrict_matches_two_step_bitwise() {
        let (p, l) = setup();
        let a = BlockData::initialized(BlockId::new(0, 0, 0, 0), &p);
        scramble(&a, 0x51CA);
        for dir in Dir::ALL {
            for side in [Side::Lo, Side::Hi] {
                let full = extract_face(&a, &l, dir, side, 0..p.num_vars);
                let (n1, n2) = face_dims(&l, dir);
                let two_step = restrict_face(&full, n1, n2, p.num_vars);

                let mut into = vec![0.0; full.len()];
                extract_face_into(&a, &l, dir, side, 0..p.num_vars, &mut into);
                assert_eq!(into, full, "extract_face_into diverged ({dir:?} {side:?})");

                let mut fused = vec![0.0; two_step.len()];
                restrict_from_block_into(&a, &l, dir, side, 0..p.num_vars, &mut fused);
                for (i, (f, t)) in fused.iter().zip(&two_step).enumerate() {
                    assert_eq!(
                        f.to_bits(),
                        t.to_bits(),
                        "fused restrict mismatch at {i} ({dir:?} {side:?})"
                    );
                }
            }
        }
    }

    /// The fused receiver-side prolong-inject must leave the ghost plane
    /// exactly as prolong_face → inject_ghost_face would.
    #[test]
    fn fused_prolong_inject_matches_two_step() {
        let (p, l) = setup();
        for dir in Dir::ALL {
            for side in [Side::Lo, Side::Hi] {
                let (n1, n2) = face_dims(&l, dir);
                let quarter: Vec<f64> = (0..p.num_vars * (n1 / 2) * (n2 / 2))
                    .map(|i| (i as f64 * 0.73).sin() * 9.0)
                    .collect();

                let two_step = BlockData::empty(BlockId::new(0, 0, 0, 0), &p);
                let full = prolong_face(&quarter, n1, n2, p.num_vars);
                inject_ghost_face(&two_step, &l, dir, side, 0..p.num_vars, &full);

                let fused = BlockData::empty(BlockId::new(0, 0, 0, 0), &p);
                inject_prolonged_face(&fused, &l, dir, side, 0..p.num_vars, &quarter);

                let want = two_step.buf.full().to_vec();
                let got = fused.buf.full().to_vec();
                assert_eq!(
                    got, want,
                    "fused prolong-inject diverged ({dir:?} {side:?})"
                );
            }
        }
    }

    #[test]
    fn quarter_extract_into_matches_allocating() {
        let (p, l) = setup();
        let a = BlockData::initialized(BlockId::new(0, 0, 0, 0), &p);
        scramble(&a, 0x9A9A);
        for dir in Dir::ALL {
            for q in 0..4 {
                let alloc = extract_face_quarter(&a, &l, dir, Side::Hi, q, 0..p.num_vars);
                let mut into = vec![0.0; alloc.len()];
                extract_face_quarter_into(&a, &l, dir, Side::Hi, q, 0..p.num_vars, &mut into);
                assert_eq!(into, alloc, "quarter {q} ({dir:?})");
            }
        }
    }

    #[test]
    fn fine_to_coarse_quarter_injection() {
        let (p, l) = setup();
        let coarse = BlockData::empty(BlockId::new(0, 0, 0, 0), &p);
        let (n1, n2) = face_dims(&l, Dir::X);
        // Fine neighbor's restricted face: all sevens.
        let restricted = vec![7.0; (n1 / 2) * (n2 / 2)];
        inject_ghost_quarter(&coarse, &l, Dir::X, Side::Hi, 3, 0..1, &restricted);
        // Quarter 3 occupies the high halves of both transverse axes.
        coarse.buf.full().with_read(|data| {
            let mut sevens = 0;
            for z in 1..=l.nz {
                for y in 1..=l.ny {
                    let v = data[l.idx(0, z, y, l.nx + 1)];
                    if v == 7.0 {
                        sevens += 1;
                        assert!(
                            y > l.ny / 2 && z > l.nz / 2,
                            "value landed in wrong quarter"
                        );
                    }
                }
            }
            assert_eq!(sevens, (n1 / 2) * (n2 / 2));
        });
    }
}
