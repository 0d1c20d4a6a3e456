//! Parallel execution layer + kernel/batching quick bench and determinism
//! gate.
//!
//! Runs the representative workloads — thread-scaling comparisons (ensemble
//! training, batch prediction, sampler pool evaluation, NAS population
//! scoring) and baseline-vs-optimized comparisons (`kernel_matmul`,
//! `batch_forward`, `mixed_device_tape`, `serve_throughput`) — prints the
//! table, writes `BENCH_parallel.json` and the kernel micro-bench table
//! `BENCH_kernels.md` at the workspace root (override the paths with
//! `NASFLAT_BENCH_PARALLEL_OUT` / `NASFLAT_BENCH_KERNELS_OUT`), and **exits
//! non-zero if any comparison's outputs diverge bitwise** — the contract the
//! CI `bench-quick` job enforces (which additionally fails the build when
//! `batch_forward` drops below 1.3×, `mixed_device_tape` or `serve_throughput`
//! below 1.2×, or the 4-thread scaling entries below 2× on multi-core
//! runners).

use nasflat_bench::parallel_harness::{
    kernel_microbench, kernel_table_markdown, run_parallel_bench,
};
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
                t.kind.label().to_string(),
                format!("{:.1}", t.wall_ms_single),
                format!("{:.1}", t.wall_ms_parallel),
                format!("{:.2}x", t.speedup()),
                if t.outputs_match { "yes" } else { "DIVERGED" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Parallel/kernel quick bench (threads: 1 vs {}; baseline kind: old vs new impl at {} \
             threads; host parallelism {})",
            report.threads, report.threads, report.host_parallelism
        ),
        &[
            "target",
            "kind",
            "base/1-thread ms",
            "opt/N-thread ms",
            "speedup",
            "bit-identical",
        ],
        &rows,
    );

    let kernel_rows = kernel_microbench();
    let kernel_table: Vec<Vec<String>> = kernel_rows
        .iter()
        .map(|r| {
            vec![
                r.op.to_string(),
                r.shape.clone(),
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
    std::fs::write(&kernels_path, kernel_table_markdown(&kernel_rows))
        .expect("write BENCH_kernels.md");
    println!("wrote {kernels_path}");

    let kernels_diverged = kernel_rows.iter().any(|r| !r.outputs_match);
    if !report.all_match() || kernels_diverged {
        eprintln!("FAIL: an optimized/parallel output diverged bitwise from its reference");
        std::process::exit(1);
    }
}
