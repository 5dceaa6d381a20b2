//! `brain_phantom` paints its ellipsoids skipping every plane and row that
//! lies outside them. That must paint exactly the voxels a full scan of the
//! volume paints: the phantoms are held here, bit for bit, to a copy of the
//! generator whose ellipsoid loop tests all `n³` voxels.

use mlr_lamino::brain_phantom;
use mlr_math::rng::seeded;
use mlr_math::{Array3, Shape3};
use rand::Rng;

/// The ellipsoid loop without the skip: every voxel tested.
fn paint_full_scan(vol: &mut Array3<f64>, c: [f64; 3], r: [f64; 3], value: f64, overwrite: bool) {
    let (n1, n0, n2) = vol.shape().dims();
    for i in 0..n1 {
        let dx = (i as f64 - c[0]) / r[0].max(1e-9);
        for j in 0..n0 {
            let dy = (j as f64 - c[1]) / r[1].max(1e-9);
            for k in 0..n2 {
                let dz = (k as f64 - c[2]) / r[2].max(1e-9);
                if dx * dx + dy * dy + dz * dz <= 1.0 {
                    if overwrite {
                        vol[(i, j, k)] = value;
                    } else {
                        vol[(i, j, k)] += value;
                    }
                }
            }
        }
    }
}

/// `brain_phantom` over [`paint_full_scan`].
fn brain_phantom_full_scan(n: usize, seed: u64) -> Array3<f64> {
    let mut vol = Array3::zeros(Shape3::cube(n));
    let mut rng = seeded(seed);
    let slab_half = (n as f64 * 0.4 / 2.0).max(1.0);
    let center = n as f64 / 2.0;
    let slab = [0.45 * n as f64, slab_half, 0.45 * n as f64];
    paint_full_scan(&mut vol, [center; 3], slab, 0.2, true);
    for _ in 0..(n / 4).max(3) {
        let cx = center + (rng.gen::<f64>() - 0.5) * 0.6 * n as f64;
        let cz = center + (rng.gen::<f64>() - 0.5) * 0.6 * n as f64;
        let cy = center + (rng.gen::<f64>() - 0.5) * slab_half * 1.2;
        let rx = (0.03 + 0.12 * rng.gen::<f64>()) * n as f64;
        let rz = (0.03 + 0.12 * rng.gen::<f64>()) * n as f64;
        let ry = (0.2 + 0.6 * rng.gen::<f64>()) * slab_half * 0.5;
        let value = 0.15 + 0.55 * rng.gen::<f64>();
        paint_full_scan(&mut vol, [cx, cy, cz], [rx, ry.max(0.6), rz], value, false);
    }
    vol.map_inplace(|v| *v = v.clamp(0.0, 1.0));
    vol
}

#[test]
fn skipping_planes_and_rows_paints_the_full_scan_bit_for_bit() {
    let bits = |a: &Array3<f64>| -> Vec<u64> { a.as_slice().iter().map(|v| v.to_bits()).collect() };
    for n in [12, 24, 48] {
        for seed in [7, 41, 42] {
            let (skipped, full) = (brain_phantom(n, seed), brain_phantom_full_scan(n, seed));
            assert!(
                full.as_slice().iter().any(|&v| v > 0.0),
                "n = {n}: empty phantom"
            );
            assert_eq!(bits(&skipped), bits(&full), "n = {n}, seed {seed}");
        }
    }
}
