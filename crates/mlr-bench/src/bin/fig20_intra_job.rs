//! Figure 20 (beyond the paper): deterministic intra-job chunk parallelism —
//! `intra_job_threads` × chunk size, speedup and hit-rate parity vs the
//! sequential schedule.
//!
//! The operator chunk loops used to run sequentially to preserve memo
//! determinism; the two-phase batch scheduler (parallel read-only
//! probe/compute, ordered commit) lifts that restriction without giving up
//! the bit-identical reconstruction contract. This harness sweeps the
//! chunk-thread count against chunk sizes and records, per cell:
//!
//! * **bit identity** — the reconstruction equals the sequential one, bit
//!   for bit (asserted, and gated in CI);
//! * **hit parity** — db/cache/failed-memo counts equal the sequential
//!   run's (asserted, and gated);
//! * **measured wall time / speedup** — `wall_speedup` (sequential wall
//!   over this cell's wall), as this machine actually ran it.
//!   Informational only: CI runners may have a single core, where it
//!   cannot exceed 1.
//!
//! It also records the **thread-spawn count of one reconstruction** at the
//! default configuration (sequential chunks, rayon shim unpinned), where
//! every fork goes through the shim: one per worker per chunk compute, so
//! O(operator applications) until ROADMAP item 3's pool makes it O(pool
//! size). Ungated. Counted in a child process, because this one pins the
//! shim to a single thread.
//!
//! The machine-readable record lands in `BENCH_intra_job.json` (and, like
//! every harness, under `target/experiments/`).

use mlr_bench::{compare_row, header, smoke_from_args, write_record};
use mlr_core::{MlrConfig, MlrPipeline};
use mlr_lamino::kernel_threads_spawned;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Cell {
    chunk_size: usize,
    threads: usize,
    wall_seconds: f64,
    /// Sequential wall time / this cell's wall time (machine-dependent).
    wall_speedup: f64,
    db_hits: u64,
    cache_hits: u64,
    failed_memo: u64,
    bit_identical: bool,
    hits_match: bool,
}

#[derive(Serialize)]
struct Record {
    smoke: bool,
    n: usize,
    iterations: usize,
    thread_counts: Vec<usize>,
    chunk_sizes: Vec<usize>,
    cells: Vec<Cell>,
    /// Every parallel cell reconstructed bit-identically to sequential.
    bit_identical: bool,
    /// Every parallel cell reproduced the sequential hit counts exactly.
    hit_parity: bool,
    /// Ungated; `None` when the census child could not be run.
    spawn_census: Option<SpawnCensus>,
}

/// OS threads spawned by one memoized reconstruction (first chunk size, one
/// chunk thread) with the rayon shim unpinned at `rayon_threads` workers.
#[derive(Serialize)]
struct SpawnCensus {
    rayon_threads: usize,
    threads_spawned_per_reconstruction: u64,
}

const SPAWN_CENSUS_FLAG: &str = "--spawn-census";

/// Re-runs this binary as the census child: same arguments plus the flag,
/// without the `RAYON_NUM_THREADS` pin this process sets on itself.
fn spawn_census() -> Option<SpawnCensus> {
    let output = std::process::Command::new(std::env::current_exe().ok()?)
        .args(std::env::args().skip(1))
        .arg(SPAWN_CENSUS_FLAG)
        .env_remove("RAYON_NUM_THREADS")
        .output()
        .ok()?;
    let stdout = String::from_utf8(output.stdout).ok()?;
    let mut fields = stdout.split_whitespace();
    Some(SpawnCensus {
        rayon_threads: fields.next()?.parse().ok()?,
        threads_spawned_per_reconstruction: fields.next()?.parse().ok()?,
    })
}

#[derive(Clone)]
struct RunOutcome {
    bits: Vec<u64>,
    hits: (u64, u64, u64),
    wall_seconds: f64,
}

fn run(config: MlrConfig, chunk_size: usize, threads: usize) -> RunOutcome {
    let mut config = config.with_intra_job_threads(threads);
    config.chunk_size = chunk_size;
    let pipeline = MlrPipeline::new(config);
    let start = Instant::now();
    let (result, executor) = pipeline.run_memoized();
    let wall_seconds = start.elapsed().as_secs_f64();
    let total = executor.stats().total();
    RunOutcome {
        bits: result
            .reconstruction
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        hits: (total.db_hits, total.cache_hits, total.failed_memo),
        wall_seconds,
    }
}

fn main() {
    let smoke = smoke_from_args();
    let (n, angles, iterations) = if smoke { (12, 8, 5) } else { (16, 12, 6) };
    let thread_counts: Vec<usize> = if smoke {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    };
    let chunk_sizes: Vec<usize> = if smoke { vec![2, 4] } else { vec![2, 4, 8] };
    let config = MlrConfig::quick(n, angles).with_iterations(iterations);
    if std::env::args().any(|a| a == SPAWN_CENSUS_FLAG) {
        let mut config = config;
        config.chunk_size = chunk_sizes[0];
        let pipeline = MlrPipeline::new(config);
        let before = kernel_threads_spawned();
        let _ = pipeline.run_memoized();
        let spawned = kernel_threads_spawned() - before;
        // Unpinned, the shim uses the machine's available parallelism.
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
        println!("{threads} {spawned}");
        return;
    }
    // Chunk-level threads are the parallelism under study: pin the rayon
    // shim's intra-kernel fan-out to one thread so the two grains do not
    // compete for cores (results are identical either way — this only
    // de-noises the timing columns).
    std::env::set_var("RAYON_NUM_THREADS", "1");
    header(
        "Figure 20",
        "intra-job chunk parallelism: threads × chunk size, speedup + hit parity vs sequential",
    );

    println!("problem: {n}³, {angles} angles, {iterations} ADMM iterations\n");
    println!(
        "{:>6} {:>8} {:>12} {:>9}  {:>14} {:>5} {:>5}",
        "chunk", "threads", "wall", "wall×", "db/cache/fail", "bits", "hits"
    );

    let mut cells = Vec::new();
    let mut all_identical = true;
    let mut all_parity = true;
    for &chunk_size in &chunk_sizes {
        let reference = run(config, chunk_size, 1);
        for &threads in &thread_counts {
            let outcome = if threads == 1 {
                // The reference run *is* the threads=1 cell.
                reference.clone()
            } else {
                run(config, chunk_size, threads)
            };
            let bit_identical = outcome.bits == reference.bits;
            let hits_match = outcome.hits == reference.hits;
            all_identical &= bit_identical;
            all_parity &= hits_match;
            let wall_speedup = if outcome.wall_seconds > 0.0 {
                reference.wall_seconds / outcome.wall_seconds
            } else {
                1.0
            };
            println!(
                "{:>6} {:>8} {:>11.3}s {:>8.2}x  {:>4}/{:<4}/{:<4} {:>5} {:>5}",
                chunk_size,
                threads,
                outcome.wall_seconds,
                wall_speedup,
                outcome.hits.0,
                outcome.hits.1,
                outcome.hits.2,
                if bit_identical { "==" } else { "DIFF" },
                if hits_match { "==" } else { "DIFF" },
            );
            cells.push(Cell {
                chunk_size,
                threads,
                wall_seconds: outcome.wall_seconds,
                wall_speedup,
                db_hits: outcome.hits.0,
                cache_hits: outcome.hits.1,
                failed_memo: outcome.hits.2,
                bit_identical,
                hits_match,
            });
        }
    }

    println!();
    compare_row(
        "bit-identical for every thread count",
        "required",
        if all_identical { "holds" } else { "VIOLATED" },
    );
    compare_row(
        "hit counts identical to sequential",
        "required",
        if all_parity { "holds" } else { "VIOLATED" },
    );
    let spawn_census = spawn_census();
    compare_row(
        "threads spawned by one reconstruction",
        "not reported",
        &spawn_census.as_ref().map_or("census failed".into(), |c| {
            format!(
                "{} ({} rayon threads, unpinned)",
                c.threads_spawned_per_reconstruction, c.rayon_threads
            )
        }),
    );

    assert!(all_identical, "a parallel schedule changed the bits");
    assert!(all_parity, "a parallel schedule changed the hit counts");

    let record = Record {
        smoke,
        n,
        iterations,
        thread_counts,
        chunk_sizes,
        cells,
        bit_identical: all_identical,
        hit_parity: all_parity,
        spawn_census,
    };
    match serde_json::to_string_pretty(&record) {
        Ok(json) => {
            if std::fs::write("BENCH_intra_job.json", &json).is_ok() {
                println!("\n[record written to BENCH_intra_job.json]");
            }
        }
        Err(e) => eprintln!("failed to serialise record: {e}"),
    }
    write_record("fig20_intra_job", &record);
}
