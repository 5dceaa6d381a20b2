//! Pins the fork structure of an operator application: a job forks once per
//! `F_u1D`, `F*_u1D`, `F_2D` or `F*_2D` application (one plane loop over the
//! whole volume or every angle) and once per `F_u2D` / `F*_u2D` chunk
//! compute (the plane loop over the chunk's rows) — nothing below a plane
//! loop (no USFFT, no per-plane FFT) forks.
//!
//! `rayon::spawned_threads()` is process-global, so this file holds exactly
//! one test: a sibling forking concurrently would be counted here.

use mlr_lamino::{LaminoGeometry, LaminoOperator};
use mlr_math::{Array3, Shape3};

#[test]
fn a_job_forks_once_per_1d_or_uniform_application_and_per_2d_chunk() {
    let before = rayon::spawned_threads();
    let op = LaminoOperator::new(LaminoGeometry::cube(16, 8, 30.0), 4);
    let u = Array3::from_vec(Shape3::new(16, 16, 16), vec![1.0; 16 * 16 * 16]);
    let d = op.forward(&u);
    let _ = op.adjoint(&d);
    let spawned = rayon::spawned_threads() - before;

    // Forward and adjoint each run one `F_u1D`-kind and one `F_2D`-kind
    // plane loop, and dispatch every chunk of the `F_u2D` grid (the 9
    // evaluated rows 0..=8 in chunks of 4).
    let whole_applications = 1 + 1;
    let chunk_computes = op.fu2d_grid().num_chunks();
    let forks = 2 * (whole_applications + chunk_computes);
    assert_eq!(forks, 2 * (1 + 3 + 1));
    let plan_builds = 1;
    let bound = (rayon::current_num_threads() * (forks + plan_builds)) as u64;
    assert!(
        spawned <= bound,
        "{spawned} threads spawned, at most {bound} expected: a stage forks per chunk, or something below a plane loop forks"
    );
    if rayon::current_num_threads() > 1 {
        assert!(spawned > 0, "vacuous: the plane loops did not fork at all");
    }
}
