//! The memoizable stages copy nothing on the way to an executor: every
//! `F_u2D` chunk reads a window of the caller's `ũ1` and writes a window of
//! its half spectrum, and every `F*_u2D` chunk reads the half spectrum and
//! writes `ũ1` — at 24³, at an odd cube and on a tall (2h × w) detector.

use mlr_lamino::{ChunkRequest, DetectorSpec, DirectExecutor, FftExecutor, FftOpKind};
use mlr_lamino::{LaminoGeometry, LaminoOperator};
use mlr_math::{Array3, Complex64};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The addresses a slice spans.
fn span(values: &[Complex64]) -> Range<usize> {
    let r = values.as_ptr_range();
    r.start as usize..r.end as usize
}

fn inside(inner: &Range<usize>, outer: &Range<usize>) -> bool {
    outer.start <= inner.start && inner.end <= outer.end
}

/// Computes as [`DirectExecutor`] does, after checking that every chunk's
/// input and output slice lies inside the array its stage works in.
struct InPlace {
    u1: Range<usize>,
    half: Range<usize>,
    chunks: AtomicUsize,
}

impl FftExecutor for InPlace {
    fn execute(
        &self,
        kind: FftOpKind,
        loc: usize,
        input: &[Complex64],
        compute: &dyn Fn(&[Complex64]) -> Vec<Complex64>,
    ) -> Vec<Complex64> {
        DirectExecutor.execute(kind, loc, input, compute)
    }

    fn execute_batch_into(
        &self,
        kind: FftOpKind,
        batch: &[ChunkRequest<'_>],
        outputs: &mut [&mut [Complex64]],
    ) {
        let (from, to) = match kind {
            FftOpKind::Fu2D => (&self.u1, &self.half),
            FftOpKind::Fu2DAdj => (&self.half, &self.u1),
            other => panic!("{other:?} reached an executor"),
        };
        for (request, output) in batch.iter().zip(outputs.iter()) {
            let loc = request.loc;
            assert!(
                inside(&span(request.input), from),
                "{kind:?} {loc}: input copied"
            );
            assert!(inside(&span(output), to), "{kind:?} {loc}: output staged");
            self.chunks.fetch_add(1, Ordering::Relaxed);
        }
        DirectExecutor.execute_batch_into(kind, batch, outputs);
    }
}

#[test]
fn memoizable_stages_hand_out_windows_of_the_callers_arrays() {
    let cube = LaminoGeometry::cube(16, 8, 30.0);
    let tall = LaminoGeometry {
        detector: DetectorSpec::new(2 * cube.detector.rows, cube.detector.cols),
        ..cube
    };
    for geometry in [
        LaminoGeometry::cube(24, 12, 30.0),
        LaminoGeometry::cube(21, 10, 35.0),
        tall,
    ] {
        let op = LaminoOperator::new(geometry.clone(), 4);
        let u = Array3::filled(geometry.volume_shape(), 1.0);
        let mut u1 = op.fu1d(&u);
        let mut half = Array3::zeros(geometry.half_spectrum_shape());
        let exec = InPlace {
            u1: span(u1.as_slice()),
            half: span(half.as_slice()),
            chunks: AtomicUsize::new(0),
        };
        op.fu2d_half_into(&u1, &exec, &mut half);
        op.fu2d_half_adjoint_into(&half, &exec, &mut u1);
        let chunks = exec.chunks.load(Ordering::Relaxed);
        assert_eq!(
            chunks,
            2 * op.fu2d_grid().num_chunks(),
            "{:?}",
            geometry.detector
        );
    }
}
