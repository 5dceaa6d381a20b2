//! Figure 2, measured: the bytes the ADMM solver holds, read from the
//! counting allocator on one thread (`RAYON_NUM_THREADS=1`), beside the
//! paper's published breakdown as a cited column. Exits 1 if the arrays
//! itemized from the geometry's shapes add up to more than the measured
//! peak of the exact solve.
use mlr_bench::alloc::{live_bytes, peak_bytes, reset_peak, CountingAllocator};
use mlr_bench::{header, pct, scale_from_args, write_record};
use mlr_core::{MlrConfig, MlrPipeline, Scale};
use serde::Serialize;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One size's measurement, in bytes.
#[derive(Serialize)]
struct Row {
    n: usize,
    dataset: i64,
    pipeline_above_dataset: i64,
    exact_peak: i64,
    /// The arrays the exact solve holds throughout (`u`, `a` and `G_prev`
    /// in `f32`), then what else was in flight at its peak.
    held: Vec<(&'static str, i64)>,
    memo_peak: i64,
    store_peak: i64,
    lsp_fraction: f64,
}

const MIB: f64 = (1u64 << 20) as f64;

/// The paper's Figure 2 by row label, cited: ψ, λ, g + g_prev shares, the
/// 1.5K total and the LSP's share of one iteration.
const CITED: [(&str, &str); 5] = [
    ("", "paper, cited (not modeled)"),
    ("dual a", "ψ 12 % + λ 12 %"),
    ("G", "g + g_prev 24 % (with G_prev)"),
    ("exact peak MiB", "~300 GB at 1.5K"),
    ("LSP share of time", "> 67 %"),
];

fn measure(n: usize) -> Row {
    let n_theta = n / 2;
    let mut config = MlrConfig::quick(n, n_theta).with_iterations(3);
    config.chunk_size = 8;
    config.admm.initial_step = 7.5 / (1.09 * (n * n_theta) as f64); // 7.5 / λ_max: ROADMAP 0(a)

    let start = live_bytes();
    let pipeline = MlrPipeline::new(config);
    let built = live_bytes() - start;
    let ds = pipeline.dataset();
    let dataset = (8 * (ds.ground_truth.len() + ds.projections.len())) as i64;

    let start = reset_peak();
    let lsp_fraction = pipeline.run_exact().history.lsp_fraction();
    let exact_peak = peak_bytes() - start;

    let start = reset_peak();
    let (_, executor) = pipeline.run_memoized();
    let memo_peak = peak_bytes() - start;
    let store_peak = executor.store().stats().peak_resident_bytes as i64;

    let g = pipeline.operator().geometry();
    let (single, complex) = (4 * g.volume_shape().len() as i64, |n: usize| 16 * n as i64);
    let half_data = complex(g.half_rows() * g.n_angles() * g.detector.cols);
    let mut held = vec![
        ("u", single),
        ("dual a", 3 * single),
        ("G", 2 * single),
        ("G_prev", single),
        ("ũ1", complex(g.u1_shape().len())),
        ("ŝ", complex(g.half_spectrum_shape().len())),
        ("H(d̂), rows ≤ h/2", half_data),
        ("residual plane", complex(g.detector.rows * g.detector.cols)),
    ];
    let itemized: i64 = held.iter().map(|&(_, b)| b).sum();
    held.push(("in flight", exact_peak - itemized));
    Row {
        n,
        dataset,
        pipeline_above_dataset: built - dataset,
        exact_peak,
        held,
        memo_peak,
        store_peak,
        lsp_fraction,
    }
}

fn main() {
    header(
        "Figure 2",
        "measured memory of one exact and one memoized solve (nθ = n/2, chunk 8, 3 iterations)",
    );
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let sizes: &[usize] = if scale_from_args() == Scale::Tiny {
        &[16, 24]
    } else {
        &[24, 32, 48, 64]
    };
    let rows: Vec<Row> = sizes.iter().map(|&n| measure(n)).collect();

    let line = |label: &str, cell: &dyn Fn(&Row) -> String| {
        let cited = CITED.iter().find(|c| c.0 == label).map_or("", |c| c.1);
        let cells: String = rows.iter().map(|r| format!("{:>18}", cell(r))).collect();
        println!("{label:<30}{cells}  {cited}");
    };
    let mib = |b: i64| format!("{:.2}", b as f64 / MIB);
    let vols = |r: &Row, b: i64| b as f64 / (8 * r.n.pow(3)) as f64; // `f64` volumes
    line("", &|r| format!("{}³", r.n));
    line("dataset MiB", &|r| mib(r.dataset));
    line("pipeline above dataset MiB", &|r| {
        mib(r.pipeline_above_dataset)
    });
    println!("exact solve, volumes (share of its peak):");
    for (i, &(name, _)) in rows[0].held.iter().enumerate() {
        line(name, &|r| {
            let b = r.held[i].1;
            format!(
                "{:.2} ({})",
                vols(r, b),
                pct(b as f64 / r.exact_peak as f64)
            )
        });
    }
    line("exact peak MiB", &|r| mib(r.exact_peak));
    line("exact peak f64 volumes", &|r| {
        format!("{:.2}", vols(r, r.exact_peak))
    });
    line("memoized peak MiB", &|r| mib(r.memo_peak));
    line("store peak MiB", &|r| mib(r.store_peak));
    let above = |r: &Row| r.memo_peak - r.exact_peak - r.store_peak;
    line("memoized − (exact + store) MiB", &|r| mib(above(r)));
    line("LSP share of time", &|r| pct(r.lsp_fraction));

    write_record("fig02_memory_breakdown", &rows);
    if let Some(r) = rows.iter().find(|r| r.held.last().is_some_and(|h| h.1 < 0)) {
        eprintln!("{}³: the itemized arrays exceed the exact peak", r.n);
        std::process::exit(1);
    }
}
