//! Property-based tests of the mesh engine's invariants.

use amr_mesh::block_id::{BlockId, Dir, Side};
use amr_mesh::data::{merge_children, split_block, BlockData, BlockLayout};
use amr_mesh::face;
use amr_mesh::partition::{imbalance, rcb_partition, sfc_partition};
use amr_mesh::stencil::{apply_stencil, apply_stencil_reference, StencilKind};
use amr_mesh::{MeshDirectory, MeshParams, Object, Shape};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = MeshParams> {
    (
        1usize..=2,
        1usize..=2,
        1usize..=2,
        1usize..=2,
        1usize..=2,
        1usize..=2,
    )
        .prop_map(|(npx, npy, npz, ix, iy, iz)| MeshParams {
            npx,
            npy,
            npz,
            init_x: ix + 1,
            init_y: iy + 1,
            init_z: iz,
            nx: 4,
            ny: 4,
            nz: 4,
            num_vars: 2,
            num_refine: 2,
            block_change: 1,
        })
}

fn arb_object() -> impl Strategy<Value = Object> {
    (
        prop_oneof![
            Just(Shape::Rectangle),
            Just(Shape::Spheroid),
            Just(Shape::CylinderX),
            Just(Shape::CylinderY),
            Just(Shape::CylinderZ),
            Just(Shape::HemisphereXPlus),
            Just(Shape::HemisphereZMinus),
        ],
        any::<bool>(),
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        0.02f64..0.35,
        (-0.08f64..0.08, -0.08f64..0.08, -0.08f64..0.08),
        any::<bool>(),
    )
        .prop_map(
            |(shape, solid, (cx, cy, cz), r, (vx, vy, vz), bounce)| Object {
                shape,
                solid,
                center: [cx, cy, cz],
                size: [r, r * 0.8, r * 1.1],
                move_rate: [vx, vy, vz],
                growth: [0.0; 3],
                bounce,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any refinement history driven by any objects keeps the 2:1 face
    /// balance and only ever changes levels by one step per plan.
    #[test]
    fn refinement_preserves_two_to_one(
        params in arb_params(),
        objects in prop::collection::vec(arb_object(), 1..3),
        steps in 1usize..6,
    ) {
        let mut dir = MeshDirectory::initial(params);
        let mut objects = objects;
        dir.refine_to_fixpoint(&objects);
        prop_assert!(dir.check_balance().is_ok());
        for _ in 0..steps {
            for o in objects.iter_mut() {
                o.step();
            }
            let before: std::collections::BTreeMap<_, _> =
                dir.iter().map(|(b, _)| (*b, ())).collect();
            let plan = dir.plan_refinement(&objects);
            for parent in &plan.merges {
                for c in parent.children() {
                    prop_assert!(before.contains_key(&c), "merge of inactive child");
                }
            }
            dir.apply_plan(&plan);
            prop_assert!(dir.check_balance().is_ok(), "2:1 violated");
        }
    }

    /// Splits add exactly 7 net blocks, merges remove exactly 7.
    #[test]
    fn plan_block_accounting(
        params in arb_params(),
        objects in prop::collection::vec(arb_object(), 1..3),
    ) {
        let mut dir = MeshDirectory::initial(params);
        dir.refine_to_fixpoint(&objects);
        let mut objects = objects;
        for o in objects.iter_mut() {
            o.step();
        }
        let plan = dir.plan_refinement(&objects);
        let before = dir.len();
        dir.apply_plan(&plan);
        let expected = before + 7 * plan.splits.len() - 7 * plan.merges.len();
        prop_assert_eq!(dir.len(), expected);
    }

    /// Both partitioners cover every block exactly once and stay within
    /// reasonable imbalance.
    #[test]
    fn partitions_cover_and_balance(
        params in arb_params(),
        objects in prop::collection::vec(arb_object(), 1..3),
        ranks in 1usize..9,
    ) {
        let mut dir = MeshDirectory::initial(params);
        dir.refine_to_fixpoint(&objects);
        let sfc = sfc_partition(&dir, ranks);
        prop_assert_eq!(sfc.len(), dir.len());
        prop_assert!(sfc.values().all(|&r| r < ranks));
        prop_assert!(imbalance(&sfc, ranks) <= 1.0 + ranks as f64 / dir.len().max(1) as f64 + 1e-9);
        let rcb = rcb_partition(&dir, ranks);
        prop_assert_eq!(rcb.len(), dir.len());
        prop_assert!(rcb.values().all(|&r| r < ranks));
    }

    /// split → merge is the identity on arbitrary smooth block data.
    #[test]
    fn split_merge_identity(seed in any::<u64>()) {
        let p = MeshParams::test_small();
        let layout = BlockLayout::of(&p);
        let parent = BlockData::empty(BlockId::new(0, 0, 0, 0), &p);
        // Fill with a seeded deterministic pattern.
        parent.buf.full().with_write(|d| {
            let mut x = seed | 1;
            for v in d.iter_mut() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *v = (x >> 11) as f64 / (1u64 << 53) as f64;
            }
        });
        let children = split_block(&parent, &p);
        let merged = merge_children(&children, &p);
        let a = parent.pack_interior(&layout, 0..p.num_vars);
        let b = merged.pack_interior(&layout, 0..p.num_vars);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    /// Face extract → inject into the matching ghost plane is lossless,
    /// and restriction preserves the face mean, in every direction.
    #[test]
    fn face_roundtrip_and_restriction_mean(seed in any::<u64>(), d in 0usize..3, hi in any::<bool>()) {
        let p = MeshParams::test_small();
        let layout = BlockLayout::of(&p);
        let dir = [Dir::X, Dir::Y, Dir::Z][d];
        let side = if hi { Side::Hi } else { Side::Lo };
        let a = BlockData::empty(BlockId::new(0, 0, 0, 0), &p);
        a.buf.full().with_write(|data| {
            let mut x = seed | 1;
            for v in data.iter_mut() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
                *v = (x >> 40) as f64;
            }
        });
        let f = face::extract_face(&a, &layout, dir, side, 0..p.num_vars);
        let (n1, n2) = face::face_dims(&layout, dir);
        prop_assert_eq!(f.len(), n1 * n2 * p.num_vars);
        // Inject into the opposite ghost plane of a fresh block and
        // re-read.
        let b = BlockData::empty(BlockId::new(0, 0, 0, 0), &p);
        face::inject_ghost_face(&b, &layout, dir, side.opposite(), 0..p.num_vars, &f);
        // Restriction preserves the mean.
        let r = face::restrict_face(&f, n1, n2, p.num_vars);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        prop_assert!((mean(&f) - mean(&r)).abs() < 1e-9 * mean(&f).abs().max(1.0));
        // Prolongation of the restriction also preserves the mean.
        let pr = face::prolong_face(&r, n1, n2, p.num_vars);
        prop_assert!((mean(&pr) - mean(&r)).abs() < 1e-12 * mean(&r).abs().max(1.0));
    }

    /// The plane-sliding stencil kernel is **bitwise** identical to the
    /// original full-work-array kernel on arbitrary block shapes, data,
    /// and variable subranges — the property that keeps cross-variant
    /// checksums exact after the allocation-free rewrite.
    #[test]
    fn plane_sliding_stencil_matches_reference_bitwise(
        seed in any::<u64>(),
        nx in 2usize..6,
        ny in 2usize..6,
        nz in 2usize..6,
        use_27pt in any::<bool>(),
        vstart in 0usize..2,
    ) {
        let p = MeshParams {
            npx: 1, npy: 1, npz: 1,
            init_x: 1, init_y: 1, init_z: 1,
            nx, ny, nz,
            num_vars: 3,
            num_refine: 1,
            block_change: 1,
        };
        let layout = BlockLayout::of(&p);
        let kind = if use_27pt { StencilKind::TwentySevenPoint } else { StencilKind::SevenPoint };
        let a = BlockData::empty(BlockId::new(0, 0, 0, 0), &p);
        let b = BlockData::empty(BlockId::new(0, 0, 0, 0), &p);
        for blk in [&a, &b] {
            blk.buf.full().with_write(|d| {
                let mut x = seed | 1;
                for v in d.iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *v = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                }
            });
        }
        apply_stencil(&a, &layout, kind, vstart..3);
        apply_stencil_reference(&b, &layout, kind, vstart..3);
        let va = a.buf.full().to_vec();
        let vb = b.buf.full().to_vec();
        for (i, (x, y)) in va.iter().zip(vb.iter()).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "elem {} differs: {} vs {}", i, x, y);
        }
    }

    /// Every fused local-transfer operator leaves the *whole* destination
    /// array exactly — by `to_bits` — as the staged pair it replaces
    /// (pack into a payload, unpack from it) and as a per-element
    /// `layout.idx` reference do: on a non-cubic block, for every
    /// direction, side pair, kind, quarter and variable sub-range, and
    /// with nothing outside the target ghost plane or quarter touched.
    #[test]
    fn fused_face_transfers_match_staged_bitwise(seed in any::<u64>()) {
        let p = MeshParams {
            npx: 1, npy: 1, npz: 1,
            init_x: 1, init_y: 1, init_z: 1,
            nx: 4, ny: 6, nz: 8,
            num_vars: 3,
            num_refine: 1,
            block_change: 1,
        };
        let l = BlockLayout::of(&p);
        let random_block = |seed: u64| {
            let b = BlockData::empty(BlockId::new(0, 0, 0, 0), &p);
            // Full random mantissas over 16 binades and both signs: on such
            // data a sum of four rounds differently in a different order
            // (values on one fixed-point grid would add exactly).
            b.buf.full().with_write(|d| {
                let mut x = seed | 1;
                for v in d.iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let exponent = 1023 - 8 + ((x >> 52) & 15);
                    *v = f64::from_bits((x & 1 << 63) | exponent << 52 | (x & ((1 << 52) - 1)));
                }
            });
            b
        };
        let src = random_block(seed);
        let sdata = src.buf.full().to_vec();
        let before = random_block(seed.rotate_left(17) ^ 0xA5A5);
        let twin_of = |b: &BlockData| {
            let t = BlockData::empty(b.id, &p);
            t.buf.full().write_from(&b.buf.full().to_vec());
            t
        };
        let sides = [Side::Lo, Side::Hi];
        // (kind, quarter): same level, restrict into and prolong from each quarter.
        let kinds = [
            ("same", 0),
            ("restrict", 0), ("restrict", 1), ("restrict", 2), ("restrict", 3),
            ("prolong", 0), ("prolong", 1), ("prolong", 2), ("prolong", 3),
        ];
        for (dir, (kind, q)) in Dir::ALL.into_iter().flat_map(|d| kinds.map(move |k| (d, k))) {
            let (n1, n2) = face::face_dims(&l, dir);
            let (h1, h2) = (n1 / 2, n2 / 2);
            let (o1, o2) = ((q % 2) * h1, (q / 2) * h2);
            let n = [l.nx, l.ny, l.nz][dir.index()];
            // `layout.idx` of 1-based plane coordinates, as face.rs orders them.
            let at = |v: usize, fixed: usize, c1: usize, c2: usize| match dir {
                Dir::X => l.idx(v, c2, c1, fixed),
                Dir::Y => l.idx(v, c2, fixed, c1),
                Dir::Z => l.idx(v, fixed, c2, c1),
            };
            for (ss, ds) in sides.into_iter().flat_map(|a| sides.map(|b| (a, b))) {
                let (sf, df) = (if ss == Side::Lo { 1 } else { n }, if ds == Side::Lo { 0 } else { n + 1 });
                for vars in [0..3, 0..1, 1..3, 2..3] {
                    let (fused, staged) = (twin_of(&before), twin_of(&before));
                    let mut want = before.buf.full().to_vec();
                    match kind {
                        "same" => {
                            face::transfer_face_same(&l, dir, &src, ss, &fused, ds, vars.clone());
                            let mut payload = vec![0.0; vars.len() * n1 * n2];
                            face::extract_face_into(&src, &l, dir, ss, vars.clone(), &mut payload);
                            face::inject_ghost_face(&staged, &l, dir, ds, vars.clone(), &payload);
                            for v in vars.clone() {
                                for (c1, c2) in (1..=n2).flat_map(|c2| (1..=n1).map(move |c1| (c1, c2))) {
                                    want[at(v, df, c1, c2)] = sdata[at(v, sf, c1, c2)];
                                }
                            }
                        }
                        "restrict" => {
                            face::transfer_face_restrict(&l, dir, &src, ss, &fused, ds, q, vars.clone());
                            let mut payload = vec![0.0; vars.len() * h1 * h2];
                            face::restrict_from_block_into(&src, &l, dir, ss, vars.clone(), &mut payload);
                            face::inject_ghost_quarter(&staged, &l, dir, ds, q, vars.clone(), &payload);
                            for v in vars.clone() {
                                for (c1, c2) in (0..h2).flat_map(|c2| (0..h1).map(move |c1| (c1, c2))) {
                                    let s = |d1: usize, d2: usize| sdata[at(v, sf, 2 * c1 + d1, 2 * c2 + d2)];
                                    want[at(v, df, o1 + c1 + 1, o2 + c2 + 1)] =
                                        (s(1, 1) + s(2, 1) + s(1, 2) + s(2, 2)) * 0.25;
                                }
                            }
                        }
                        _ => {
                            face::transfer_face_prolong(&l, dir, &src, ss, q, &fused, ds, vars.clone());
                            let mut payload = vec![0.0; vars.len() * h1 * h2];
                            face::extract_face_quarter_into(&src, &l, dir, ss, q, vars.clone(), &mut payload);
                            face::inject_prolonged_face(&staged, &l, dir, ds, vars.clone(), &payload);
                            for v in vars.clone() {
                                for (c1, c2) in (0..n2).flat_map(|c2| (0..n1).map(move |c1| (c1, c2))) {
                                    want[at(v, df, c1 + 1, c2 + 1)] =
                                        sdata[at(v, sf, o1 + c1 / 2 + 1, o2 + c2 / 2 + 1)];
                                }
                            }
                        }
                    }
                    let (got, twin) = (fused.buf.full().to_vec(), staged.buf.full().to_vec());
                    for (i, ((g, t), w)) in got.iter().zip(&twin).zip(&want).enumerate() {
                        prop_assert!(
                            g.to_bits() == t.to_bits() && g.to_bits() == w.to_bits(),
                            "{:?} {:?}->{:?} kind {} quarter {} vars {:?}: elem {} is {} fused, {} staged, {} by reference",
                            dir, ss, ds, kind, q, vars, i, g, t, w
                        );
                    }
                }
            }
        }
    }

    /// Objects never report refinement for blocks far outside their
    /// bounding box, and always for blocks straddling their boundary.
    #[test]
    fn object_refinement_is_local(obj in arb_object()) {
        let p = MeshParams::test_small();
        // A block fully outside the object's AABB must not refine.
        let all_blocks = [
            BlockId::new(0, 0, 0, 0),
            BlockId::new(0, 1, 0, 0),
            BlockId::new(0, 0, 1, 0),
            BlockId::new(0, 1, 1, 1),
        ];
        for b in all_blocks {
            let (lo, hi) = b.bounds(&p);
            let outside = (0..3).any(|d| {
                lo[d] > obj.center[d] + obj.size[d] + 1e-12
                    || hi[d] < obj.center[d] - obj.size[d] - 1e-12
            });
            if outside {
                prop_assert!(!obj.drives_refinement(&b, &p), "refined a non-intersecting block");
            }
        }
    }

    /// Morton keys are unique over the active set and parents sort before
    /// spatially-later siblings' subtrees consistently.
    #[test]
    fn morton_keys_unique(
        params in arb_params(),
        objects in prop::collection::vec(arb_object(), 1..2),
    ) {
        let mut dir = MeshDirectory::initial(params.clone());
        dir.refine_to_fixpoint(&objects);
        let mut keys: Vec<u128> = dir.iter().map(|(b, _)| b.morton_key(&params)).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), n, "duplicate Morton keys");
    }
}
