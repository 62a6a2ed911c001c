//! `mesh` and `shmem` rungs: the numerical kernels and the buffer pool.

use super::{time_batched, time_call, Shapes, Values};
use crate::span::Spans;
use amr_mesh::block_id::{Dir, Side};
use amr_mesh::data::{merge_children, split_block};
use amr_mesh::{checksum, face, partition};
use shmem::{BufferPool, SharedBuffer};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean over X/Y/Z of the cost per element of `f(dir)`, which moves one
/// face and returns its element count.
fn per_dir(spans: &mut Spans, name: &str, rung: Duration, mut f: impl FnMut(Dir) -> usize) -> f64 {
    let costs = Dir::ALL.map(|dir| {
        spans.record(name, |_| {
            let mut elems = 0;
            let (s, n) = time_call(rung / 3, || elems = f(dir));
            (s * 1e9 / elems as f64, n)
        })
    });
    costs.iter().sum::<f64>() / costs.len() as f64
}

pub(super) fn mesh_rungs(sh: &Shapes, spans: &mut Spans, rung: Duration, out: &mut Values) {
    let (l, nv) = (&sh.layout, sh.nv);
    let blocks = &sh.blocks;
    let params = &sh.sc.cfg.params;
    let cell_vars = (l.cells() * nv) as f64;
    let kind = sh.sc.cfg.stencil;

    let mut i = 0;
    let s = spans.record("mesh.stencil", |_| {
        time_call(rung, || {
            amr_mesh::stencil::apply_stencil(&blocks[i % blocks.len()], l, kind, 0..nv);
            i += 1;
        })
    });
    out.push(("mesh.stencil_ns_per_cell", s * 1e9 / cell_vars));
    // One read and one write of every cell·variable: computed bytes.
    out.push(("mesh.stencil_gbs", 16.0 * cell_vars / s / 1e9));

    let (a, b) = (&blocks[0], &blocks[blocks.len() - 1]);
    let largest_face = Dir::ALL
        .map(|d| l.face_cells(d))
        .into_iter()
        .max()
        .unwrap_or(0);
    let mut buf = vec![0.0; nv * largest_face];
    let copy = per_dir(spans, "mesh.face_copy", rung, |dir| {
        let n = nv * l.face_cells(dir);
        face::extract_face_into(a, l, dir, Side::Hi, 0..nv, &mut buf[..n]);
        face::inject_ghost_face(b, l, dir, Side::Lo, 0..nv, &buf[..n]);
        n
    });
    out.push(("mesh.face_copy_ns_per_elem", copy));
    let restrict = per_dir(spans, "mesh.face_restrict", rung, |dir| {
        let n = nv * l.face_cells(dir) / 4;
        face::restrict_from_block_into(a, l, dir, Side::Hi, 0..nv, &mut buf[..n]);
        face::inject_ghost_quarter(b, l, dir, Side::Lo, 0, 0..nv, &buf[..n]);
        n
    });
    out.push(("mesh.face_restrict_ns_per_elem", restrict));
    let prolong = per_dir(spans, "mesh.face_prolong", rung, |dir| {
        let n = nv * l.face_cells(dir) / 4;
        face::extract_face_quarter_into(a, l, dir, Side::Hi, 0, 0..nv, &mut buf[..n]);
        face::inject_prolonged_face(b, l, dir, Side::Lo, 0..nv, &buf[..n]);
        n
    });
    out.push(("mesh.face_prolong_ns_per_elem", prolong));

    let s = spans.record("mesh.split_block", |_| {
        time_call(rung, || {
            black_box(split_block(a, params));
        })
    });
    out.push(("mesh.split_us_per_block", s * 1e6));
    let children = split_block(a, params);
    let s = spans.record("mesh.merge_children", |_| {
        time_call(rung, || {
            black_box(merge_children(&children, params));
        })
    });
    out.push(("mesh.merge_us_per_block", s * 1e6));

    let dir = &sh.state.dir;
    let objects = &sh.state.objects;
    let s = spans.record("mesh.plan_refinement", |_| {
        time_call(rung, || {
            black_box(dir.plan_refinement(objects));
        })
    });
    out.push(("mesh.plan_refinement_us", s * 1e6));
    let s = spans.record("mesh.sfc_partition", |_| {
        time_call(rung, || {
            black_box(partition::sfc_partition(dir, sh.state.n_ranks));
        })
    });
    out.push(("mesh.partition_us", s * 1e6));

    let mut i = 0;
    let s = spans.record("mesh.block_sums", |_| {
        time_call(rung, || {
            black_box(checksum::block_sums(&blocks[i % blocks.len()], l, 0..nv));
            i += 1;
        })
    });
    out.push(("mesh.checksum_ns_per_cell", s * 1e9 / cell_vars));
}

pub(super) fn shmem_rungs(sh: &Shapes, spans: &mut Spans, rung: Duration, out: &mut Values) {
    let len = sh.msg_elems;
    let pool = BufferPool::new();
    drop(pool.take(len));
    let s = spans.record("shmem.pool_take_hit", |_| {
        time_call(rung, || {
            black_box(pool.take(len).len());
        })
    });
    out.push(("shmem.pool_take_hit_ns", s * 1e9));

    // A miss is a take from a pool whose size class is empty: hold every
    // buffer until the batch ends so none returns to the free list.
    let s = spans.record("shmem.pool_take_miss", |_| {
        time_batched(rung, |k| {
            let pool = BufferPool::new();
            let mut held = Vec::with_capacity(k as usize);
            let start = Instant::now();
            for _ in 0..k {
                held.push(pool.take(len));
            }
            start.elapsed()
        })
    });
    out.push(("shmem.pool_take_miss_ns", s * 1e9));

    let buf = SharedBuffer::<f64>::new(sh.layout.elems());
    let data = vec![1.0f64; sh.layout.elems()];
    let slice = buf.full();
    let s = spans.record("shmem.claimed_write", |_| {
        time_call(rung, || slice.write_from(&data))
    });
    out.push(("shmem.claimed_write_gbs", (data.len() * 8) as f64 / s / 1e9));
}
