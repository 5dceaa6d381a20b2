//! Pins the fork structure of an operator application: the plane loop of a
//! chunk compute is the only level of kernel parallelism — nothing below it
//! (no USFFT, no per-plane FFT) forks.
//!
//! `rayon::spawned_threads()` is process-global, so this file holds exactly
//! one test: a sibling forking concurrently would be counted here.

use mlr_lamino::{LaminoGeometry, LaminoOperator};
use mlr_math::{Array3, Shape3};

#[test]
fn only_the_plane_loop_of_a_chunk_compute_forks() {
    let before = rayon::spawned_threads();
    let op = LaminoOperator::new(LaminoGeometry::cube(16, 8, 30.0), 4);
    let u = Array3::from_vec(Shape3::new(16, 16, 16), vec![1.0; 16 * 16 * 16]);
    let d = op.forward(&u);
    let _ = op.adjoint(&d);
    let spawned = rayon::spawned_threads() - before;

    // Forward and adjoint each dispatch every chunk of the three stage grids
    // (`F_u2D` covers the 9 evaluated rows 0..=8).
    let chunk_computes = 2
        * (op.fu1d_grid().num_chunks() + op.fu2d_grid().num_chunks() + op.f2d_grid().num_chunks());
    assert_eq!(chunk_computes, 2 * (4 + 3 + 2));
    let plan_builds = 1;
    let bound = (rayon::current_num_threads() * (chunk_computes + plan_builds)) as u64;
    assert!(
        spawned <= bound,
        "{spawned} threads spawned, at most {bound} expected: something below the plane loop forks"
    );
    if rayon::current_num_threads() > 1 {
        assert!(spawned > 0, "vacuous: the plane loop did not fork at all");
    }
}
