//! Synthetic phantoms.
//!
//! The paper evaluates on a downsampled mouse-brain dataset and motivates the
//! system with integrated-circuit and printed-circuit-board inspection. Those
//! datasets are not redistributable, so the harnesses use synthetic phantoms
//! with the same gross characteristics:
//!
//! * [`brain_phantom`] — a flat slab of smooth, low-contrast ellipsoidal
//!   "tissue" features (laminography's classic biological use case),
//! * [`ic_phantom`] — a thin layered structure of high-contrast rectangular
//!   traces and vias (the IC/PCB use case from the introduction),
//! * [`smooth_random_phantom`] — band-limited random volumes used by property
//!   tests and micro-benchmarks.
//!
//! All phantoms are *flat*: the interesting structure is concentrated in a
//! thin horizontal slab, which is exactly the sample class laminography (as
//! opposed to tomography) is designed for.

use mlr_math::rng::{seeded, standard_normal};
use mlr_math::{Array3, Shape3};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which phantom family to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhantomKind {
    /// Smooth ellipsoidal soft-tissue-like features in a flat slab.
    Brain,
    /// Rectangular high-contrast traces and vias in thin layers.
    Ic,
    /// Band-limited random volume.
    SmoothRandom,
}

impl PhantomKind {
    /// Generates a phantom of this kind with cubic dimension `n`.
    pub fn generate(self, n: usize, seed: u64) -> Array3<f64> {
        match self {
            PhantomKind::Brain => brain_phantom(n, seed),
            PhantomKind::Ic => ic_phantom(n, seed),
            PhantomKind::SmoothRandom => smooth_random_phantom(n, seed),
        }
    }
}

/// Fraction of the vertical extent occupied by the flat sample slab.
const SLAB_FRACTION: f64 = 0.4;

/// Generates a flat "soft tissue" phantom: an elliptical slab containing
/// `~n/4` smooth ellipsoidal blobs of varying contrast. Values lie in
/// `[0, 1]`.
///
/// The volume layout matches the paper's convention `u[n1, n0, n2]` with the
/// vertical axis in the middle.
pub fn brain_phantom(n: usize, seed: u64) -> Array3<f64> {
    assert!(n >= 4, "phantom needs at least 4 voxels per side");
    let shape = Shape3::cube(n);
    let mut vol = Array3::zeros(shape);
    let mut rng = seeded(seed);

    let slab_half = (n as f64 * SLAB_FRACTION / 2.0).max(1.0);
    let center = n as f64 / 2.0;

    // Background slab: a wide flat ellipsoid with low uniform attenuation.
    fill_ellipsoid(
        &mut vol,
        [center, center, center],
        [0.45 * n as f64, slab_half, 0.45 * n as f64],
        0.2,
    );

    // Internal blobs.
    let blobs = (n / 4).max(3);
    for _ in 0..blobs {
        let cx = center + (rng.gen::<f64>() - 0.5) * 0.6 * n as f64;
        let cz = center + (rng.gen::<f64>() - 0.5) * 0.6 * n as f64;
        let cy = center + (rng.gen::<f64>() - 0.5) * slab_half * 1.2;
        let rx = (0.03 + 0.12 * rng.gen::<f64>()) * n as f64;
        let rz = (0.03 + 0.12 * rng.gen::<f64>()) * n as f64;
        let ry = (0.2 + 0.6 * rng.gen::<f64>()) * slab_half * 0.5;
        let value = 0.15 + 0.55 * rng.gen::<f64>();
        add_ellipsoid(&mut vol, [cx, cy, cz], [rx, ry.max(0.6), rz], value);
    }

    clamp01(&mut vol);
    vol
}

/// Generates an "integrated circuit" phantom: 2–4 thin horizontal layers,
/// each carrying axis-aligned high-contrast traces plus a few bright vias
/// connecting layers. Values lie in `[0, 1]`.
pub fn ic_phantom(n: usize, seed: u64) -> Array3<f64> {
    assert!(n >= 8, "IC phantom needs at least 8 voxels per side");
    let shape = Shape3::cube(n);
    let mut vol = Array3::zeros(shape);
    let mut rng = seeded(seed ^ 0xD1E5_EC7C);

    let slab_lo = (n as f64 * (0.5 - SLAB_FRACTION / 2.0)) as usize;
    let slab_hi = (n as f64 * (0.5 + SLAB_FRACTION / 2.0)) as usize;

    // Substrate: uniform low attenuation through the slab.
    for i in 0..n {
        for y in slab_lo..slab_hi {
            for k in 0..n {
                vol[(i, y, k)] = 0.1;
            }
        }
    }

    // Metal layers with traces.
    let n_layers = 2 + (seed as usize % 3);
    let layer_gap = (slab_hi - slab_lo).max(2) / (n_layers + 1);
    for layer in 0..n_layers {
        let y = slab_lo + (layer + 1) * layer_gap;
        let y_hi = (y + (layer_gap / 3).max(1)).min(slab_hi);
        let n_traces = (n / 6).max(2);
        for _ in 0..n_traces {
            let along_x = rng.gen::<bool>();
            let pos = rng.gen_range(0..n);
            let width = rng.gen_range(1..=(n / 16).max(1));
            let lo = pos.min(n - 1);
            let hi = (lo + width).min(n);
            for yy in y..y_hi {
                if along_x {
                    for i in 0..n {
                        for k in lo..hi {
                            vol[(i, yy, k)] = 0.9;
                        }
                    }
                } else {
                    for i in lo..hi {
                        for k in 0..n {
                            vol[(i, yy, k)] = 0.9;
                        }
                    }
                }
            }
        }
    }

    // Vias: small bright columns crossing the slab.
    let n_vias = (n / 8).max(2);
    for _ in 0..n_vias {
        let i = rng.gen_range(1..n - 1);
        let k = rng.gen_range(1..n - 1);
        for y in slab_lo..slab_hi {
            vol[(i, y, k)] = 1.0;
            if i + 1 < n {
                vol[(i + 1, y, k)] = 1.0;
            }
        }
    }

    vol
}

/// Generates a band-limited random phantom: white noise smoothed by a
/// separable box filter of width `n/8`, then normalised to `[0, 1]`.
pub fn smooth_random_phantom(n: usize, seed: u64) -> Array3<f64> {
    assert!(n >= 4, "phantom needs at least 4 voxels per side");
    let shape = Shape3::cube(n);
    let mut rng = seeded(seed ^ 0x5EED_0000);
    let mut data = vec![0.0f64; shape.len()];
    for v in &mut data {
        *v = standard_normal(&mut rng);
    }
    let mut vol = Array3::from_vec(shape, data);
    let radius = (n / 8).max(1);
    for axis in 0..3 {
        vol = box_blur_axis(&vol, axis, radius);
    }
    // Normalise to [0, 1].
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in vol.as_slice() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(1e-12);
    vol.map_inplace(|v| *v = (*v - lo) / span);
    vol
}

/// Adds `value` inside the ellipsoid centered at `c` with semi-axes `r`
/// (volume-index coordinates, axes ordered `(n1, n0, n2)`).
fn add_ellipsoid(vol: &mut Array3<f64>, c: [f64; 3], r: [f64; 3], value: f64) {
    paint_ellipsoid(vol, c, r, value, false);
}

/// Sets `value` inside the ellipsoid (overwrites instead of accumulating).
fn fill_ellipsoid(vol: &mut Array3<f64>, c: [f64; 3], r: [f64; 3], value: f64) {
    paint_ellipsoid(vol, c, r, value, true);
}

fn paint_ellipsoid(vol: &mut Array3<f64>, c: [f64; 3], r: [f64; 3], value: f64, overwrite: bool) {
    let (n1, n0, n2) = vol.shape().dims();
    // The squared offset along `axis` in semi-axes. A plane with `dx² > 1`
    // or a row with `dx² + dy² > 1` is skipped: adding non-negative squares
    // never lowers the sum, so the painted voxels are those of a full scan.
    let sq = |x: usize, axis: usize| {
        let d = (x as f64 - c[axis]) / r[axis].max(1e-9);
        d * d
    };
    for (i, x) in (0..n1).map(|i| (i, sq(i, 0))).filter(|&(_, x)| x <= 1.0) {
        for (j, xy) in (0..n0).map(|j| (j, x + sq(j, 1))).filter(|p| p.1 <= 1.0) {
            for k in (0..n2).filter(|&k| xy + sq(k, 2) <= 1.0) {
                let v = &mut vol[(i, j, k)];
                *v = if overwrite { value } else { *v + value };
            }
        }
    }
}

fn clamp01(vol: &mut Array3<f64>) {
    vol.map_inplace(|v| *v = v.clamp(0.0, 1.0));
}

/// Simple box blur along one axis (0, 1 or 2) with the given radius; used to
/// band-limit the random phantom.
fn box_blur_axis(vol: &Array3<f64>, axis: usize, radius: usize) -> Array3<f64> {
    let shape = vol.shape();
    let (n1, n0, n2) = shape.dims();
    let mut out = Array3::zeros(shape);
    let get = |i: isize, j: isize, k: isize| -> f64 {
        let ci = i.clamp(0, n1 as isize - 1) as usize;
        let cj = j.clamp(0, n0 as isize - 1) as usize;
        let ck = k.clamp(0, n2 as isize - 1) as usize;
        vol[(ci, cj, ck)]
    };
    let r = radius as isize;
    let norm = 1.0 / (2 * r + 1) as f64;
    for i in 0..n1 as isize {
        for j in 0..n0 as isize {
            for k in 0..n2 as isize {
                let mut acc = 0.0;
                for d in -r..=r {
                    acc += match axis {
                        0 => get(i + d, j, k),
                        1 => get(i, j + d, k),
                        _ => get(i, j, k + d),
                    };
                }
                out[(i as usize, j as usize, k as usize)] = acc * norm;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brain_phantom_is_flat_and_bounded() {
        let n = 32;
        let vol = brain_phantom(n, 7);
        assert_eq!(vol.shape(), Shape3::cube(n));
        assert!(vol.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Mass is concentrated in the central vertical slab.
        let mut slab_mass = 0.0;
        let mut outside_mass = 0.0;
        let lo = (n as f64 * 0.25) as usize;
        let hi = (n as f64 * 0.75) as usize;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let v = vol[(i, j, k)];
                    if (lo..hi).contains(&j) {
                        slab_mass += v;
                    } else {
                        outside_mass += v;
                    }
                }
            }
        }
        assert!(
            slab_mass > 10.0 * outside_mass.max(1e-9),
            "phantom is not flat"
        );
    }

    #[test]
    fn brain_phantom_deterministic_per_seed() {
        let a = brain_phantom(16, 42);
        let b = brain_phantom(16, 42);
        let c = brain_phantom(16, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ic_phantom_has_high_contrast_structure() {
        let vol = ic_phantom(32, 3);
        let max = vol.as_slice().iter().cloned().fold(0.0, f64::max);
        let nonzero = vol.as_slice().iter().filter(|&&v| v > 0.0).count();
        assert!(max >= 0.9);
        assert!(nonzero > 0);
        // Top and bottom of the volume are empty (flat sample).
        for i in 0..32 {
            for k in 0..32 {
                assert_eq!(vol[(i, 0, k)], 0.0);
                assert_eq!(vol[(i, 31, k)], 0.0);
            }
        }
    }

    #[test]
    fn smooth_random_phantom_normalised_and_smooth() {
        let n = 16;
        let vol = smooth_random_phantom(n, 5);
        let lo = vol.as_slice().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vol
            .as_slice()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(lo >= 0.0 && hi <= 1.0 + 1e-12);
        assert!(hi - lo > 0.5, "should use most of the dynamic range");
        // Smoothness: neighbouring voxels differ much less than the range.
        let mut max_step: f64 = 0.0;
        for i in 0..n - 1 {
            for j in 0..n {
                for k in 0..n {
                    max_step = max_step.max((vol[(i + 1, j, k)] - vol[(i, j, k)]).abs());
                }
            }
        }
        assert!(max_step < 0.5, "max neighbour step {max_step}");
    }

    #[test]
    fn phantom_kind_dispatch() {
        for kind in [
            PhantomKind::Brain,
            PhantomKind::Ic,
            PhantomKind::SmoothRandom,
        ] {
            let v = kind.generate(16, 9);
            assert_eq!(v.shape(), Shape3::cube(16));
        }
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn tiny_phantom_panics() {
        let _ = brain_phantom(2, 1);
    }
}
