//! Property-based tests: rank-correlation invariants that must hold for any
//! input the experiment harness can produce.

use proptest::prelude::*;

use nasflat_metrics::{
    geometric_mean, kendall_tau, mean, pearson, rank_average, spearman_rho, std_dev,
};

/// A vector with at least two distinct values (correlations defined).
fn varied_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, 2..max_len)
        .prop_filter("needs two distinct values", |v| {
            v.iter().any(|&x| x != v[0])
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spearman_is_bounded_and_symmetric(xs in varied_vec(40), ys in varied_vec(40)) {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        if let (Ok(a), Ok(b)) = (spearman_rho(xs, ys), spearman_rho(ys, xs)) {
            prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&a));
            prop_assert!((a - b).abs() < 1e-5, "asymmetric: {a} vs {b}");
        }
    }

    #[test]
    fn self_correlation_is_one(xs in varied_vec(40)) {
        // Every value of `tied` appears at least twice, so its pairs are
        // tied in both inputs.
        let tied = [xs.as_slice(), xs.as_slice()].concat();
        for v in [&xs, &tied] {
            let rho = spearman_rho(v, v).unwrap();
            prop_assert!((rho - 1.0).abs() < 1e-5);
            let tau = kendall_tau(v, v).unwrap();
            prop_assert!((tau - 1.0).abs() < 1e-5, "tau {} on {:?}", tau, v);
        }
    }

    #[test]
    fn spearman_invariant_under_monotone_transform(xs in varied_vec(30), ys in varied_vec(30)) {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        if let Ok(base) = spearman_rho(xs, ys) {
            // exp is strictly increasing; ranks are unchanged
            let ys_t: Vec<f32> = ys.iter().map(|&v| (v / 50.0).exp()).collect();
            if let Ok(t) = spearman_rho(xs, &ys_t) {
                prop_assert!((base - t).abs() < 1e-4, "{base} vs {t}");
            }
        }
    }

    #[test]
    fn negation_flips_the_sign(xs in varied_vec(30), ys in varied_vec(30)) {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        let neg: Vec<f32> = ys.iter().map(|&v| -v).collect();
        if let (Ok(a), Ok(b)) = (spearman_rho(xs, ys), spearman_rho(xs, &neg)) {
            prop_assert!((a + b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn kendall_and_spearman_agree_in_sign(xs in varied_vec(25), ys in varied_vec(25)) {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        if let (Ok(rho), Ok(tau)) = (spearman_rho(xs, ys), kendall_tau(xs, ys)) {
            // strong correlations must agree in sign
            if rho.abs() > 0.5 && tau.abs() > 0.1 {
                prop_assert_eq!(rho.signum(), tau.signum(), "rho {} tau {}", rho, tau);
            }
        }
    }

    #[test]
    fn ranks_are_a_valid_fractional_ranking(xs in proptest::collection::vec(-50.0f32..50.0, 1..40)) {
        let ranks = rank_average(&xs);
        prop_assert_eq!(ranks.len(), xs.len());
        let n = xs.len() as f64;
        let sum: f64 = ranks.iter().map(|&r| r as f64).sum();
        // fractional ranking preserves the total rank mass n(n+1)/2
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-3, "rank sum {sum}");
        for (i, &ri) in ranks.iter().enumerate() {
            prop_assert!((1.0..=n as f32).contains(&ri));
            for (j, &rj) in ranks.iter().enumerate() {
                if xs[i] < xs[j] {
                    prop_assert!(ri < rj, "order violated at {i},{j}");
                }
                if xs[i] == xs[j] {
                    prop_assert!((ri - rj).abs() < 1e-6, "ties must share ranks");
                }
            }
        }
    }

    #[test]
    fn pearson_bounds_and_perfect_linearity(xs in varied_vec(30)) {
        let ys: Vec<f32> = xs.iter().map(|&v| 3.0 * v - 7.0).collect();
        let r = pearson(&xs, &ys).unwrap();
        prop_assert!((r - 1.0).abs() < 1e-4, "perfect linear should give 1, got {r}");
    }

    #[test]
    fn summary_stats_invariants(xs in proptest::collection::vec(0.1f32..100.0, 1..50)) {
        let m = mean(&xs);
        let lo = xs.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(m >= lo - 1e-4 && m <= hi + 1e-4);
        prop_assert!(std_dev(&xs) >= 0.0);
        let gm = geometric_mean(&xs);
        prop_assert!(gm >= lo - 1e-3 && gm <= hi + 1e-3, "geomean {gm} outside [{lo},{hi}]");
        prop_assert!(gm <= m + 1e-3, "AM-GM violated: gm {gm} > mean {m}");
    }
}
