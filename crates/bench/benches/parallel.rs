//! Thread-scaling and kernel quick bench with its determinism gate.
//!
//! Times the two thread-scaling workloads (`ensemble_train_transfer`,
//! `batch_predict`) at 1 and N threads and the scalar-vs-tiled kernel
//! micro-bench, prints both tables, writes `BENCH_parallel.json` and
//! `BENCH_kernels.md` at the workspace root (override the paths with
//! `NASFLAT_BENCH_PARALLEL_OUT` / `NASFLAT_BENCH_KERNELS_OUT`), and **exits
//! non-zero if any comparison's outputs diverge bitwise**. The CI
//! `bench-quick` job additionally fails the build when `kernel_matmul`
//! drops below 2.0×, or the scaling entries below 2× on runners with ≥ 4
//! cores.

use nasflat_bench::parallel_harness::{kernel_table_markdown, run_parallel_bench};
use nasflat_bench::print_table;

fn main() {
    // Exercise the parallel code path even on single-core hosts: the
    // determinism gate needs real multi-threaded execution to be meaningful.
    let threads = nasflat_parallel::max_threads().max(2);
    let report = run_parallel_bench(threads);

    let rows: Vec<Vec<String>> = report
        .targets
        .iter()
        .map(|t| {
            vec![
                t.name.clone(),
                format!("{:.1}", t.wall_ms_single),
                format!("{:.1}", t.wall_ms_parallel),
                format!("{:.2}x", t.speedup()),
                if t.outputs_match { "yes" } else { "DIVERGED" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Thread scaling (1 vs {} threads; host parallelism {})",
            report.threads, report.host_parallelism
        ),
        &[
            "target",
            "1-thread ms",
            "N-thread ms",
            "speedup",
            "bit-identical",
        ],
        &rows,
    );

    let kernel_table: Vec<Vec<String>> = report
        .kernels
        .iter()
        .map(|r| {
            vec![
                r.op.to_string(),
                r.shape_label(),
                format!("{:.2}", r.scalar_ms),
                format!("{:.2}", r.kernel_ms),
                format!("{:.2}x", r.speedup()),
                if r.outputs_match { "yes" } else { "DIVERGED" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Kernel micro-bench (scalar reference vs vectorized kernels)",
        &[
            "op",
            "shape",
            "scalar ms",
            "kernel ms",
            "speedup",
            "bit-identical",
        ],
        &kernel_table,
    );

    let out_path = std::env::var("NASFLAT_BENCH_PARALLEL_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_parallel.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out_path, report.to_json()).expect("write BENCH_parallel.json");
    println!("\nwrote {out_path}");

    let kernels_path = std::env::var("NASFLAT_BENCH_KERNELS_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_kernels.md", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&kernels_path, kernel_table_markdown(&report.kernels))
        .expect("write BENCH_kernels.md");
    println!("wrote {kernels_path}");

    if !report.all_match() {
        eprintln!("FAIL: a parallel or kernel output diverged bitwise from its reference");
        std::process::exit(1);
    }
}
