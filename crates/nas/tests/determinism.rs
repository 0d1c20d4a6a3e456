//! Thread-count invariance of the constrained search: the seed population
//! is scored on `nasflat-parallel` workers while candidate generation stays
//! on one RNG stream, so the result is bitwise the same at 1, 2 and 8
//! threads.

use nasflat_nas::{constrained_search, AccuracyOracle, SearchConfig, SearchResult};
use nasflat_space::{Arch, Space};

/// Everything a search returns, as comparable bits.
fn digest(r: &SearchResult) -> (Vec<u8>, u32, u32, usize) {
    (
        r.arch.genotype().to_vec(),
        r.accuracy.to_bits(),
        r.predicted_latency_ms.to_bits(),
        r.predictor_queries,
    )
}

#[test]
fn constrained_search_is_bitwise_identical_at_any_thread_count() {
    let oracle = AccuracyOracle::new(Space::Nb201, 0);
    let mut cfg = SearchConfig::quick();
    cfg.cycles = 40;
    let latency = |a: &Arch| a.cost_profile().total_flops as f32 / 1e7 + 1.0;
    // A loose bound, and one tight enough to send candidates through the
    // infeasibility penalty.
    for constraint in [50.0, 5.0] {
        let runs: Vec<_> = [1, 2, 8]
            .iter()
            .map(|&t| {
                nasflat_parallel::with_threads(t, || {
                    digest(&constrained_search(
                        Space::Nb201,
                        &oracle,
                        latency,
                        constraint,
                        &cfg,
                    ))
                })
            })
            .collect();
        assert!(runs[0].3 > 0, "the search queried the estimator");
        assert_eq!(runs[1], runs[0], "2 threads diverged at {constraint} ms");
        assert_eq!(runs[2], runs[0], "8 threads diverged at {constraint} ms");
    }
}
