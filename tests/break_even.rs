//! Which stages a reconstruction memoizes, end to end.
//!
//! Only the 2-D stages cross the seam: the operators run the 1-D USFFT
//! stages as whole plane loops, and every `F_u2D` / `F*_u2D` chunk past
//! warm-up takes the memo path. Two reconstructions pin what that means for
//! a whole job: at 576-element chunks and at 2048-element chunks the 1-D
//! rows stay empty while the 2-D stages keep reusing.

use mlr_core::{MlrConfig, MlrPipeline};
use mlr_lamino::FftOpKind;
use mlr_memo::OpStats;

const USFFT_1D: [FftOpKind; 2] = [FftOpKind::Fu1D, FftOpKind::Fu1DAdj];
const USFFT_2D: [FftOpKind; 2] = [FftOpKind::Fu2D, FftOpKind::Fu2DAdj];

/// 24³ in one-plane chunks: 576 elements for `F_u1D` / `F_u2D`, 312 for
/// `F*_u1D` (13 evaluated rows) and 300 for `F*_u2D` (12 angles · 25 points)
/// — the shape of the benchmark's `smallchunk-24`.
fn small_chunk_config() -> MlrConfig {
    let mut config = MlrConfig::quick(24, 12).with_iterations(6);
    config.chunk_size = 1;
    config.admm.initial_step = 0.02;
    config
}

/// `[computed, failed_memo, db_hits, cache_hits, prefiltered, keys_encoded]`:
/// every case count of an `OpStats`.
fn case_counts(s: OpStats) -> [u64; 6] {
    [
        s.computed,
        s.failed_memo,
        s.db_hits,
        s.cache_hits,
        s.prefiltered,
        s.keys_encoded,
    ]
}

#[test]
fn small_chunks_memoize_the_2d_stages_only() {
    let (_, executor) = MlrPipeline::new(small_chunk_config()).run_memoized();
    let stats = executor.stats();
    for op in USFFT_1D {
        assert_eq!(
            stats.op(op),
            OpStats::default(),
            "{op:?} reached the executor"
        );
    }
    let mut inserted = 0;
    for op in USFFT_2D {
        let s = stats.op(op);
        assert!(
            s.db_hits + s.cache_hits > 0,
            "{op:?} stopped hitting: {s:?}"
        );
        inserted += s.failed_memo as usize;
    }
    assert_eq!(
        executor.db_len(),
        inserted,
        "the store holds more than the 2-D entries"
    );
}

#[test]
fn chunks_above_break_even_count_what_they_counted_before_the_gate() {
    // 16³ in 8-plane chunks: 2048 elements (8 · 8 angles · 17 points = 1088
    // for `F*_u2D`; the second chunk holds the one evaluated row 8, 256 /
    // 136 elements). The 1-D stages never reach the executor, so the 2-D
    // stages see the exact 1-D output, and their counts are pinned on that.
    let pipeline = MlrPipeline::new(MlrConfig::quick(16, 8).with_iterations(8));
    let (_, executor) = pipeline.run_memoized();
    let stats = executor.stats();
    let counts = |op| case_counts(stats.op(op));
    for op in USFFT_1D {
        assert_eq!(stats.op(op), OpStats::default(), "{op:?}");
    }
    assert_eq!(counts(FftOpKind::Fu2D), [12, 12, 10, 7, 7, 22]);
    assert_eq!(counts(FftOpKind::Fu2DAdj), [12, 8, 9, 4, 15, 17]);
}
