//! Pins what the operator's working memory scales with: the scratch an
//! operator parks after an application is a few buffers per kernel thread,
//! whatever the number of detector rows — the `h/2 + 1` per-row `Usfft2d`
//! plans lease from one shared fine-grid pool, their column passes need no
//! buffer of their own, and no stage stages its chunks in an arena.

use mlr_lamino::{DetectorSpec, LaminoGeometry, LaminoOperator};
use mlr_math::Array3;

/// Idle scratch buffers of an operator over `geometry` (chunk size 4) after
/// one forward and one adjoint application.
fn idle_after_forward_adjoint(geometry: LaminoGeometry) -> usize {
    let op = LaminoOperator::new(geometry, 4);
    let shape = op.geometry().volume_shape();
    let u = Array3::from_vec(shape, vec![1.0; shape.len()]);
    let d = op.forward(&u);
    let _ = op.adjoint(&d);
    op.scratch_idle_buffers()
}

#[test]
fn operator_scratch_is_bounded_by_threads_not_detector_rows() {
    let cube = LaminoGeometry::cube(16, 8, 30.0);
    let tall = LaminoGeometry {
        detector: DetectorSpec::new(2 * cube.detector.rows, cube.detector.cols),
        ..cube.clone()
    };
    // Per thread of the plane loop: one 2-D fine grid (or complex volume
    // plane) and one 1-D plane grid; nothing per operator, the memoizable
    // stages work in the caller's arrays. A bound, not an equality — how
    // many leases overlap depends on the schedule.
    let bound = 2 * rayon::current_num_threads();
    for geometry in [cube, tall] {
        let rows = geometry.detector.rows;
        let idle = idle_after_forward_adjoint(geometry);
        assert!(idle > 0, "vacuous: no scratch was parked at {rows} rows");
        assert!(
            idle <= bound,
            "{idle} scratch buffers parked at {rows} detector rows, at most {bound} expected: \
             some pool is per row again"
        );
    }
}
