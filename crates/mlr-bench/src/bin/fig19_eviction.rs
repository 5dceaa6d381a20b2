//! Figure 19 (beyond the paper): capacity-governed memoization — what a
//! byte budget costs in cross-job hit rate.
//!
//! The paper's evaluation is dominated by memory breakdowns because the
//! memoization database competes with the reconstruction working sets for
//! DRAM; a store that grows without bound is not deployable. This harness
//! measures what bounding it costs: the replicated-jobs beamline workload
//! (two sample families reconstructed repeatedly, interleaved A B A B … the
//! way replicated runs and parameter rechecks arrive) is replayed over one
//! shared store, unbounded and then under byte budgets at 25 / 50 / 75 % of
//! the unbounded footprint (`--smoke`: 50 %), and the cross-job hit rate
//! that survives each budget under the store's one replacement rule is
//! recorded. (The rule was swept against FIFO, LRU and a TTL here from PR 2
//! to PR 22 and won every time; README "Capacity governance" keeps the
//! numbers.)
//!
//! Invariants checked here (and gated in CI through `check_bench`):
//! * resident bytes stay ≤ budget after every insert (post-enforcement
//!   high-water mark never exceeds the cap);
//! * every budget binds: each bounded cell evicts (`eviction_exercised`),
//!   so the sweep cannot pass with a budget that never did anything;
//! * eviction is deterministic: the same budget + schedule reproduces the
//!   reconstructions bit-identically, and a bounded single job equals
//!   `run_memoized` with the same bounded configuration.
//!
//! The machine-readable record lands in `BENCH_eviction.json` (and, like
//! every harness, under `target/experiments/`).

use mlr_bench::{compare_row, header, pct, scale_from_args, smoke_from_args, write_record};
use mlr_core::{CancelToken, MlrConfig, MlrPipeline, Scale};
use mlr_memo::{CapacityBudget, MemoDb, MemoStore};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct SideRecord {
    hit_rate: f64,
    cross_job_hit_rate: f64,
    entries: usize,
    resident_bytes: u64,
}

#[derive(Serialize)]
struct CellRecord {
    budget_fraction: f64,
    budget_bytes: u64,
    hit_rate: f64,
    cross_job_hit_rate: f64,
    hit_rate_under_pressure: f64,
    evictions: u64,
    entries: usize,
    resident_bytes: u64,
    peak_resident_bytes: u64,
    /// Post-enforcement footprint never exceeded the cap.
    bounded: bool,
}

#[derive(Serialize)]
struct Record {
    smoke: bool,
    jobs: usize,
    iterations: usize,
    unbounded: SideRecord,
    cells: Vec<CellRecord>,
    /// Convenience extract for the CI regression gate: the 50 % cell.
    half_budget_cross_job_hit_rate: f64,
    all_cells_bounded: bool,
    /// Every bounded cell evicted at least once.
    eviction_exercised: bool,
    deterministic_replay: bool,
    single_job_bit_identical: bool,
}

/// Replays the job schedule sequentially over one shared store (job ids
/// 1..=len, so cross-job accounting applies) and returns every
/// reconstruction. Sequential replay pins the schedule, which is what makes
/// the determinism checks exact.
fn replay(schedule: &[&MlrPipeline], store: &Arc<MemoDb>) -> Vec<Vec<f64>> {
    schedule
        .iter()
        .enumerate()
        .map(|(i, pipeline)| {
            let shared: Arc<dyn MemoStore> = Arc::clone(store) as Arc<dyn MemoStore>;
            let executor = pipeline.memo_executor(shared, i as u64 + 1);
            let (result, _) = pipeline.run_with_executor(executor, &CancelToken::new());
            result.reconstruction.as_slice().to_vec()
        })
        .collect()
}

fn bits_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

fn main() {
    header(
        "Figure 19",
        "capacity-governed memo store: what a byte budget costs in cross-job hit rate",
    );
    let scale = scale_from_args();
    let smoke = smoke_from_args();
    let n = if smoke || scale == Scale::Tiny {
        12
    } else {
        16
    };
    // Replicated rechecks are short re-runs: 5 outer iterations per job.
    // (Longer jobs shift the balance toward intra-job drift, where pure
    // recency is already near-optimal and the policies converge.)
    let iterations = 5;
    let jobs = if smoke { 5 } else { 6 };

    // The replicated-jobs beamline workload: two sample families, each
    // reconstructed repeatedly, *interleaved* (A B A B …) the way replicated
    // runs and parameter rechecks arrive in practice. Every family's reuse
    // period therefore spans an intervening job — the pattern under which
    // recency rules evict family A's proven-reusable entries while family B
    // runs, and the store's provenance-aware rule does not.
    let config = MlrConfig::quick(n, n / 2).with_iterations(iterations);
    let mut config_b = config;
    config_b.problem.seed = 1303;
    let pipeline = MlrPipeline::new(config);
    let pipeline_b = MlrPipeline::new(config_b);
    let schedule: Vec<&MlrPipeline> = (0..jobs)
        .map(|i| if i % 2 == 0 { &pipeline } else { &pipeline_b })
        .collect();

    // ------------------------------------------------- unbounded baseline
    let unbounded_store = pipeline.build_shared_store_with(CapacityBudget::unbounded());
    let _ = replay(&schedule, &unbounded_store);
    let ustats = unbounded_store.stats();
    let footprint = ustats.resident_bytes;
    let unbounded = SideRecord {
        hit_rate: ustats.hit_rate(),
        cross_job_hit_rate: ustats.cross_job_hit_rate(),
        entries: ustats.entries,
        resident_bytes: footprint,
    };
    println!(
        "unbounded footprint: {} bytes, {} entries, hit rate {}, cross-job {}\n",
        footprint,
        ustats.entries,
        pct(unbounded.hit_rate),
        pct(unbounded.cross_job_hit_rate),
    );

    // ---------------------------------------------------------- the sweep
    let fractions: &[f64] = if smoke { &[0.5] } else { &[0.25, 0.5, 0.75] };
    println!(
        "{:>8} {:>12} {:>10} {:>12} {:>10} {:>10} {:>8} {:>12} {:>8}",
        "budget",
        "bytes",
        "hit rate",
        "cross-job",
        "pressure",
        "evicted",
        "entries",
        "peak",
        "bounded"
    );
    let cells: Vec<CellRecord> = fractions
        .iter()
        .map(|&fraction| {
            let budget_bytes = (fraction * footprint as f64) as u64;
            let store = pipeline.build_shared_store_with(CapacityBudget::bytes(budget_bytes));
            let _ = replay(&schedule, &store);
            let stats = store.stats();
            let bounded = stats.peak_resident_bytes <= budget_bytes;
            println!(
                "{:>7.0}% {:>12} {:>10} {:>12} {:>10} {:>10} {:>8} {:>12} {:>8}",
                100.0 * fraction,
                budget_bytes,
                pct(stats.hit_rate()),
                pct(stats.cross_job_hit_rate()),
                pct(stats.hit_rate_under_pressure()),
                stats.evictions,
                stats.entries,
                stats.peak_resident_bytes,
                bounded,
            );
            CellRecord {
                budget_fraction: fraction,
                budget_bytes,
                hit_rate: stats.hit_rate(),
                cross_job_hit_rate: stats.cross_job_hit_rate(),
                hit_rate_under_pressure: stats.hit_rate_under_pressure(),
                evictions: stats.evictions,
                entries: stats.entries,
                resident_bytes: stats.resident_bytes,
                peak_resident_bytes: stats.peak_resident_bytes,
                bounded,
            }
        })
        .collect();

    let half = cells
        .iter()
        .find(|c| (c.budget_fraction - 0.5).abs() < 1e-9)
        .expect("sweep covers the 50% budget")
        .cross_job_hit_rate;
    let all_bounded = cells.iter().all(|c| c.bounded);
    let eviction_exercised = cells.iter().all(|c| c.evictions > 0);

    // --------------------------------------------- determinism invariants
    // Same budget + same schedule ⇒ bit-identical reconstructions.
    let half_budget = CapacityBudget::bytes((0.5 * footprint as f64) as u64);
    let store_a = pipeline.build_shared_store_with(half_budget);
    let store_b = pipeline.build_shared_store_with(half_budget);
    let recon_a = replay(&schedule, &store_a);
    let recon_b = replay(&schedule, &store_b);
    let deterministic_replay = bits_equal(&recon_a, &recon_b);

    // One bounded job over a shared store == `run_memoized` with the same
    // bounded configuration (private database).
    let bounded_config = config.with_memo_budget(half_budget);
    let bounded_pipeline = MlrPipeline::new(bounded_config);
    let (private, _) = bounded_pipeline.run_memoized();
    let single_store = bounded_pipeline.build_shared_store();
    let single = replay(&[&bounded_pipeline], &single_store);
    let single_job_bit_identical =
        bits_equal(&[private.reconstruction.as_slice().to_vec()], &single[..1]);

    println!();
    compare_row(
        "resident ≤ budget after every insert",
        "always",
        if all_bounded { "holds" } else { "VIOLATED" },
    );
    compare_row(
        "every budget binds (each cell evicts)",
        "always",
        if eviction_exercised {
            "holds"
        } else {
            "VIOLATED"
        },
    );
    compare_row(
        "cross-job hit rate, unbounded -> 50% budget",
        "(informational)",
        &format!("{} -> {}", pct(unbounded.cross_job_hit_rate), pct(half)),
    );
    compare_row(
        "deterministic replay (same budget+schedule)",
        "bit-identical",
        if deterministic_replay {
            "holds"
        } else {
            "VIOLATED"
        },
    );
    compare_row(
        "bounded single job == run_memoized",
        "bit-identical",
        if single_job_bit_identical {
            "holds"
        } else {
            "VIOLATED"
        },
    );

    assert!(all_bounded, "the footprint exceeded a budget");
    assert!(eviction_exercised, "a budget of the sweep never evicted");
    assert!(deterministic_replay, "replay diverged under eviction");
    assert!(
        single_job_bit_identical,
        "bounded single job diverged from run_memoized"
    );

    let record = Record {
        smoke,
        jobs,
        iterations,
        unbounded,
        cells,
        half_budget_cross_job_hit_rate: half,
        all_cells_bounded: all_bounded,
        eviction_exercised,
        deterministic_replay,
        single_job_bit_identical,
    };
    match serde_json::to_string_pretty(&record) {
        Ok(json) => {
            if std::fs::write("BENCH_eviction.json", &json).is_ok() {
                println!("\n[record written to BENCH_eviction.json]");
            }
        }
        Err(e) => eprintln!("failed to serialise record: {e}"),
    }
    write_record("fig19_eviction", &record);
}
