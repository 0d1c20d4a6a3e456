//! Thread-count invariance of the encoding samplers: cosine and k-means
//! selection over a suite's CAZ rows pick the same indices at 1, 2 and 8
//! threads. The pool scans run on `nasflat-parallel`; every reduction over
//! their results stays sequential, so the thread count must not show.

use nasflat_encode::{EncodingKind, EncodingSuite, SuiteConfig};
use nasflat_sample::{cosine_select, kmeans_select, SelectError};
use nasflat_space::Arch;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: [usize; 3] = [1, 2, 8];

fn caz_suite() -> EncodingSuite {
    let pool: Vec<Arch> = (0..120u64)
        .map(|i| Arch::nb201_from_index((i * 131 + 5) % 15_625))
        .collect();
    EncodingSuite::build(&pool, &SuiteConfig::quick().with_seed(0))
}

/// Runs `select` at every thread count and asserts one answer.
fn assert_thread_invariant(
    name: &str,
    select: impl Fn() -> Result<Vec<usize>, SelectError>,
) -> Result<Vec<usize>, SelectError> {
    let runs: Vec<_> = THREADS
        .iter()
        .map(|&t| nasflat_parallel::with_threads(t, &select))
        .collect();
    for (t, run) in THREADS.iter().zip(&runs).skip(1) {
        assert_eq!(
            run, &runs[0],
            "{name} at {t} threads diverged from 1 thread"
        );
    }
    runs.into_iter().next().expect("at least one thread count")
}

#[test]
fn encoding_samplers_pick_the_same_indices_at_any_thread_count() {
    let suite = caz_suite();
    let rows = suite.rows(EncodingKind::Caz);
    for (k, seed) in [(24, 11), (8, 13)] {
        let cos = assert_thread_invariant("cosine_select", || {
            cosine_select(rows, k, &mut StdRng::seed_from_u64(seed))
        })
        .expect("pool larger than k");
        assert_eq!(cos.len(), k);
        // A degenerate clustering is an answer too; it must agree as well.
        if let Ok(km) = assert_thread_invariant("kmeans_select", || {
            kmeans_select(rows, k, &mut StdRng::seed_from_u64(seed))
        }) {
            assert_eq!(km.len(), k);
        }
    }
}
