//! The in-place forms of the USFFT stages (`_into`, and the half spectrum's
//! `fill` and `fold`) write every element of the buffer they are handed: a
//! solver reuses one buffer per intermediate across every step, so a
//! position a stage skipped would carry the previous step's value where the
//! allocating form has a zero. Each form, run on a buffer filled with NaN,
//! must match its allocating form (or itself on a zeroed buffer) bit for
//! bit — at even and odd detector sides, where the rows `F_u2D` evaluates
//! and the rows it fills by mirroring split differently.

use mlr_lamino::{DetectorSpec, DirectExecutor, LaminoGeometry, LaminoOperator};
use mlr_math::rng::seeded;
use mlr_math::{Array3, Complex64, Shape3};
use rand::Rng;

fn random(shape: Shape3, seed: u64) -> Array3<f64> {
    let mut rng = seeded(seed);
    let values = (0..shape.len()).map(|_| rng.gen::<f64>() - 0.5);
    Array3::from_vec(shape, values.collect())
}

fn bits(a: &Array3<Complex64>) -> Vec<(u64, u64)> {
    a.as_slice()
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

fn real_bits(a: &Array3<f64>) -> Vec<u64> {
    a.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// A buffer of `shape` that no stage output can equal.
fn poisoned(shape: Shape3) -> Array3<Complex64> {
    Array3::filled(shape, Complex64::new(f64::NAN, f64::NAN))
}

#[test]
fn into_forms_overwrite_every_element() {
    let base = LaminoGeometry::cube(12, 6, 35.0);
    for (h, w) in [(12, 12), (13, 13), (12, 11), (11, 12)] {
        let g = LaminoGeometry {
            detector: DetectorSpec::new(h, w),
            ..base.clone()
        };
        let op = LaminoOperator::new(g.clone(), 4);
        let exec = DirectExecutor;
        // A real volume, the only input the operator's compositions feed.
        let u = random(g.volume_shape(), 1);
        let u1 = op.fu1d(&u);
        let mut out = poisoned(g.u1_shape());
        op.fu1d_into(&u, &mut out);
        assert_eq!(bits(&out), bits(&u1), "{h}x{w}: fu1d_into");

        // The half spectrum has no allocating form: a zeroed buffer is the
        // yardstick for a poisoned one.
        let half_shape = g.half_spectrum_shape();
        let mut half = Array3::zeros(half_shape);
        op.fu2d_half_into(&u1, &exec, &mut half);
        let mut out = poisoned(half_shape);
        op.fu2d_half_into(&u1, &exec, &mut out);
        assert_eq!(bits(&out), bits(&half), "{h}x{w}: fu2d_half_into");
        let dhat = op.fu2d(&u1, &exec);
        let mut out = poisoned(g.data_shape());
        op.fill(&half, &mut out);
        assert_eq!(bits(&out), bits(&dhat), "{h}x{w}: fill");

        let mut folded = Array3::zeros(half_shape);
        op.fold(&dhat, &mut folded);
        let mut out = poisoned(half_shape);
        op.fold(&dhat, &mut out);
        assert_eq!(bits(&out), bits(&folded), "{h}x{w}: fold");
        let back = op.fu2d_adjoint(&dhat, &exec);
        let mut out = poisoned(g.u1_shape());
        op.fu2d_half_adjoint_into(&folded, &exec, &mut out);
        assert_eq!(bits(&out), bits(&back), "{h}x{w}: fu2d_half_adjoint_into");

        let vol = op.fu1d_adjoint(&back);
        let mut out = Array3::filled(g.volume_shape(), f64::NAN);
        op.fu1d_adjoint_into(&back, &mut out);
        assert_eq!(
            real_bits(&out),
            real_bits(&vol),
            "{h}x{w}: fu1d_adjoint_into"
        );
    }
}
