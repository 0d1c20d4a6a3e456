//! Latency-constrained neural architecture search (paper §6.8, Table 8).
//!
//! The paper plugs its latency predictor into the HELP/MetaD2A NAS system:
//! an accuracy-driven generator proposes architectures, and the latency
//! predictor filters them against a device constraint. MetaD2A itself is
//! substituted with oracle-guided regularized evolution (DESIGN.md §2):
//! Table 8 compares *latency estimators* while the accuracy search is held
//! fixed, which any fixed accuracy-driven searcher preserves.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use nasflat_space::{Arch, Space};

use crate::oracle::AccuracyOracle;

/// A latency estimator the search can query one architecture at a time or —
/// where the implementation can amortize work (shared autograd tapes,
/// batched forwards) — a whole population at once.
///
/// Plain `Fn(&Arch) -> f32 + Sync` closures implement this trait via the
/// blanket impl, so simple estimators keep working unchanged; estimators
/// with a cheaper batched path (e.g. NASFLAT scoring over `BatchSession`
/// tapes, which stacks populations into multi-query block-diagonal tape
/// passes) provide it through
/// [`BatchedLatency`] or a manual impl.
pub trait LatencyEstimator: Sync {
    /// Latency estimate (ms or calibrated score) of one architecture.
    fn latency_ms(&self, arch: &Arch) -> f32;

    /// Latency estimates for a population, in input order. The default maps
    /// [`LatencyEstimator::latency_ms`] in parallel; either path is
    /// bit-identical to a sequential loop at any thread count.
    fn latency_batch(&self, archs: &[Arch]) -> Vec<f32> {
        nasflat_parallel::par_map(archs, |a| self.latency_ms(a))
    }
}

impl<F> LatencyEstimator for F
where
    F: Fn(&Arch) -> f32 + Sync,
{
    fn latency_ms(&self, arch: &Arch) -> f32 {
        self(arch)
    }
}

/// Pairs a single-query closure with an explicit batched closure, turning
/// them into a [`LatencyEstimator`] (the glue `run_nas`-style harnesses use
/// to expose a predictor's batched forward path to the search).
pub struct BatchedLatency<F, B> {
    /// Single-architecture estimate.
    pub single: F,
    /// Population estimate, in input order.
    pub batch: B,
}

impl<F, B> LatencyEstimator for BatchedLatency<F, B>
where
    F: Fn(&Arch) -> f32 + Sync,
    B: Fn(&[Arch]) -> Vec<f32> + Sync,
{
    fn latency_ms(&self, arch: &Arch) -> f32 {
        (self.single)(arch)
    }

    fn latency_batch(&self, archs: &[Arch]) -> Vec<f32> {
        (self.batch)(archs)
    }
}

/// Evolutionary-search hyperparameters.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Population size.
    pub population: usize,
    /// Mutation/selection cycles after initialization.
    pub cycles: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            population: 40,
            cycles: 300,
            tournament: 8,
            seed: 0,
        }
    }
}

impl SearchConfig {
    /// Reduced-budget profile for CPU-only runs.
    pub fn quick() -> Self {
        SearchConfig {
            population: 20,
            cycles: 80,
            ..Self::default()
        }
    }
}

/// Result of one latency-constrained search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best feasible architecture found.
    pub arch: Arch,
    /// Oracle accuracy of that architecture (%).
    pub accuracy: f32,
    /// The latency estimate (ms) the *predictor* assigned to it.
    pub predicted_latency_ms: f32,
    /// Number of latency-predictor invocations during the search.
    pub predictor_queries: usize,
}

/// Runs regularized evolution maximizing oracle accuracy subject to
/// `latency_ms(arch) ≤ constraint_ms`, where `latency_ms` is the (calibrated)
/// latency predictor under test.
///
/// Infeasible candidates are admitted with a penalty proportional to their
/// constraint violation, so the search can traverse the boundary.
///
/// The latency predictor is any [`LatencyEstimator`] (plain `Fn + Sync`
/// closures qualify): the seed population is scored through its batched
/// path, which amortizes tape construction when the estimator supports it
/// and falls back to a parallel per-candidate map otherwise (bounded by
/// `NASFLAT_THREADS` either way). Candidate *generation* stays on a single
/// sequential RNG stream and scoring is elementwise, so the search
/// trajectory — and the returned result — is bit-identical at any thread
/// count.
pub fn constrained_search<E>(
    space: Space,
    oracle: &AccuracyOracle,
    latency_ms: E,
    constraint_ms: f32,
    cfg: &SearchConfig,
) -> SearchResult
where
    E: LatencyEstimator,
{
    assert!(constraint_ms > 0.0, "constraint must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut queries = 0usize;

    #[derive(Clone)]
    struct Member {
        arch: Arch,
        acc: f32,
        lat: f32,
    }
    let fitness = |m: &Member| -> f32 {
        if m.lat <= constraint_ms {
            m.acc
        } else {
            // graded penalty keeps near-feasible candidates competitive
            m.acc - 30.0 * (m.lat / constraint_ms - 1.0).min(2.0) - 5.0
        }
    };

    // Seed population: generate sequentially (one RNG stream), score through
    // the estimator's batched path — oracle and predictor queries dominate
    // the wall clock.
    let init: Vec<Arch> = (0..cfg.population)
        .map(|_| Arch::random(space, &mut rng))
        .collect();
    queries += init.len();
    let accs = nasflat_parallel::par_map(&init, |a| oracle.accuracy(a));
    let lats = latency_ms.latency_batch(&init);
    assert_eq!(lats.len(), init.len(), "estimator batch length mismatch");
    let mut population: Vec<Member> = init
        .into_iter()
        .zip(accs.into_iter().zip(lats))
        .map(|(arch, (acc, lat))| Member { arch, acc, lat })
        .collect();
    let mut best: Option<Member> = None;
    let consider = |m: &Member, best: &mut Option<Member>| {
        if m.lat <= constraint_ms && best.as_ref().is_none_or(|b| m.acc > b.acc) {
            *best = Some(m.clone());
        }
    };
    for m in &population {
        consider(m, &mut best);
    }

    for _ in 0..cfg.cycles {
        // Tournament parent selection.
        let parent = (0..cfg.tournament)
            .map(|_| rng.random_range(0..population.len()))
            .max_by(|&a, &b| {
                fitness(&population[a])
                    .partial_cmp(&fitness(&population[b]))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("tournament size > 0");
        // Single-gene mutation.
        let mut geno = population[parent].arch.genotype().to_vec();
        let slot = rng.random_range(0..geno.len());
        let mut new_op = rng.random_range(0..space.num_ops()) as u8;
        while new_op == geno[slot] && space.num_ops() > 1 {
            new_op = rng.random_range(0..space.num_ops()) as u8;
        }
        geno[slot] = new_op;
        let child_arch = Arch::new(space, geno);
        queries += 1;
        let child = Member {
            acc: oracle.accuracy(&child_arch),
            lat: latency_ms.latency_ms(&child_arch),
            arch: child_arch,
        };
        consider(&child, &mut best);
        // Regularized evolution: the oldest member dies.
        population.remove(0);
        population.push(child);
    }

    let best = best.unwrap_or_else(|| {
        // No feasible member was ever seen: return the least-violating one.
        population
            .into_iter()
            .min_by(|a, b| {
                a.lat
                    .partial_cmp(&b.lat)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("population is non-empty")
    });
    SearchResult {
        arch: best.arch,
        accuracy: best.acc,
        predicted_latency_ms: best.lat,
        predictor_queries: queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasflat_hw::{latency_ms, DeviceRegistry};

    #[test]
    fn search_respects_constraint_under_true_latency() {
        let oracle = AccuracyOracle::new(Space::Nb201, 0);
        let reg = DeviceRegistry::nb201();
        let dev = reg.get("pixel2").unwrap().clone();
        // "perfect predictor": the simulator itself
        let result = constrained_search(
            Space::Nb201,
            &oracle,
            |a: &Arch| latency_ms(&dev, a) as f32,
            20.0,
            &SearchConfig::quick(),
        );
        assert!(result.predicted_latency_ms <= 20.0, "constraint violated");
        assert!(result.accuracy > 55.0, "search should find a decent cell");
        assert!(result.predictor_queries > 0);
    }

    #[test]
    fn tighter_constraint_costs_accuracy() {
        let oracle = AccuracyOracle::new(Space::Nb201, 0);
        let reg = DeviceRegistry::nb201();
        let dev = reg.get("pixel2").unwrap().clone();
        let mut cfg = SearchConfig::quick();
        cfg.cycles = 150;
        let loose = constrained_search(
            Space::Nb201,
            &oracle,
            |a: &Arch| latency_ms(&dev, a) as f32,
            30.0,
            &cfg,
        );
        let tight = constrained_search(
            Space::Nb201,
            &oracle,
            |a: &Arch| latency_ms(&dev, a) as f32,
            8.0,
            &cfg,
        );
        assert!(
            loose.accuracy >= tight.accuracy,
            "loose {} should not lose to tight {}",
            loose.accuracy,
            tight.accuracy
        );
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let oracle = AccuracyOracle::new(Space::Nb201, 0);
        let f = |a: &Arch| a.cost_profile().total_flops as f32 / 1e7 + 1.0;
        let r1 = constrained_search(Space::Nb201, &oracle, f, 50.0, &SearchConfig::quick());
        let r2 = constrained_search(Space::Nb201, &oracle, f, 50.0, &SearchConfig::quick());
        assert_eq!(r1.arch, r2.arch);
    }
}
