//! Rank transforms and correlation coefficients.

use crate::MetricError;

/// Assigns average ranks (1-based) to `xs`, giving tied values the mean of
/// the ranks they span — the standard "fractional ranking" used by Spearman.
///
/// # Examples
/// ```
/// let r = nasflat_metrics::rank_average(&[10.0, 20.0, 20.0, 30.0]);
/// assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
/// ```
pub fn rank_average(xs: &[f32]) -> Vec<f32> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .unwrap_or(core::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0f32; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Ranks i+1 ..= j+1 are tied; assign their mean.
        let avg = (i + 1 + j + 1) as f32 / 2.0;
        for k in i..=j {
            ranks[idx[k]] = avg;
        }
        i = j + 1;
    }
    ranks
}

fn validate(xs: &[f32], ys: &[f32]) -> Result<(), MetricError> {
    if xs.len() != ys.len() {
        return Err(MetricError::LengthMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(MetricError::TooShort);
    }
    let const_x = xs.windows(2).all(|w| w[0] == w[1]);
    let const_y = ys.windows(2).all(|w| w[0] == w[1]);
    if const_x || const_y {
        return Err(MetricError::ConstantInput);
    }
    Ok(())
}

/// Pearson linear correlation coefficient.
///
/// Returns an error when inputs mismatch in length, are shorter than two
/// elements, or either input is constant.
pub fn pearson(xs: &[f32], ys: &[f32]) -> Result<f32, MetricError> {
    validate(xs, ys)?;
    let n = xs.len() as f64;
    let mx = xs.iter().map(|&v| v as f64).sum::<f64>() / n;
    let my = ys.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut sxy = 0.0f64;
    let mut sxx = 0.0f64;
    let mut syy = 0.0f64;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x as f64 - mx;
        let dy = y as f64 - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(MetricError::ConstantInput);
    }
    Ok((sxy / (sxx.sqrt() * syy.sqrt())) as f32)
}

/// Spearman rank correlation: Pearson correlation of the average ranks.
///
/// This is the headline metric in the paper (Tables 2–7).
pub fn spearman_rho(xs: &[f32], ys: &[f32]) -> Result<f32, MetricError> {
    validate(xs, ys)?;
    let rx = rank_average(xs);
    let ry = rank_average(ys);
    pearson(&rx, &ry)
}

/// Kendall rank correlation (tau-b, tie-corrected), used by the appendix
/// predictor-design ablations (Tables 10–19, Figure 7).
pub fn kendall_tau(xs: &[f32], ys: &[f32]) -> Result<f32, MetricError> {
    validate(xs, ys)?;
    let n = xs.len();
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    // Tau-b's n1 and n2: every pair tied in x, and every pair tied in y,
    // including the pairs tied in both.
    let mut ties_x = 0i64;
    let mut ties_y = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = xs[i] - xs[j];
            let dy = ys[i] - ys[j];
            if dx == 0.0 {
                ties_x += 1;
            }
            if dy == 0.0 {
                ties_y += 1;
            }
            if dx == 0.0 || dy == 0.0 {
                continue;
            }
            if (dx > 0.0) == (dy > 0.0) {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as f64;
    let denom = ((n0 - ties_x as f64) * (n0 - ties_y as f64)).sqrt();
    if denom == 0.0 {
        return Err(MetricError::ConstantInput);
    }
    Ok(((concordant - discordant) as f64 / denom) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_simple() {
        assert_eq!(rank_average(&[3.0, 1.0, 2.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn ranks_with_ties() {
        assert_eq!(rank_average(&[1.0, 1.0, 1.0]), vec![2.0, 2.0, 2.0]);
        assert_eq!(
            rank_average(&[5.0, 5.0, 1.0, 7.0]),
            vec![2.5, 2.5, 1.0, 4.0]
        );
    }

    #[test]
    fn spearman_perfect_monotone() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.0, 4.0, 9.0, 16.0, 100.0]; // monotone, nonlinear
        let rho = spearman_rho(&xs, &ys).unwrap();
        assert!((rho - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spearman_perfect_reversed() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [9.0, 7.0, 5.0, 3.0];
        let rho = spearman_rho(&xs, &ys).unwrap();
        assert!((rho + 1.0).abs() < 1e-6);
    }

    #[test]
    fn spearman_known_value() {
        // Hand-computed example: ranks x = [1,2,3,4,5], ranks y = [2,1,4,3,5]
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [20.0, 10.0, 40.0, 30.0, 50.0];
        let rho = spearman_rho(&xs, &ys).unwrap();
        // rho = 1 - 6*sum(d^2)/(n(n^2-1)) = 1 - 6*4/120 = 0.8
        assert!((rho - 0.8).abs() < 1e-5);
    }

    #[test]
    fn kendall_known_value() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, 3.0, 2.0, 4.0];
        // 5 concordant, 1 discordant out of 6 pairs -> tau = 4/6
        let tau = kendall_tau(&xs, &ys).unwrap();
        assert!((tau - 4.0 / 6.0).abs() < 1e-5);
    }

    #[test]
    fn kendall_counts_joint_ties_in_both_corrections() {
        // Pair (0, 1) is tied in both inputs; the other two pairs are
        // concordant. Tau-b = 2 / sqrt((3 - 1) * (3 - 1)) = 1.
        for ys in [[1.0, 1.0, 2.0], [1.0, 1.0, 3.0]] {
            let tau = kendall_tau(&[1.0, 1.0, 2.0], &ys).unwrap();
            assert_eq!(tau, 1.0, "{ys:?}");
        }
        // Ties in x only: n1 = 1, n2 = 0, C = 4, D = 1 over six pairs,
        // tau-b = 3 / sqrt(5 * 6).
        let tau = kendall_tau(&[1.0, 1.0, 2.0, 3.0], &[1.0, 2.0, 4.0, 3.0]).unwrap();
        assert!((tau as f64 - 3.0 / 30f64.sqrt()).abs() < 1e-6, "{tau}");
    }

    #[test]
    fn kendall_handles_ties() {
        let xs = [1.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 2.0, 3.0, 4.0];
        let tau = kendall_tau(&xs, &ys).unwrap();
        assert!(tau > 0.0 && tau <= 1.0);
    }

    #[test]
    fn errors_on_mismatch_and_short() {
        assert!(matches!(
            spearman_rho(&[1.0], &[1.0, 2.0]),
            Err(MetricError::LengthMismatch { .. })
        ));
        assert!(matches!(
            spearman_rho(&[1.0], &[1.0]),
            Err(MetricError::TooShort)
        ));
        assert!(matches!(
            spearman_rho(&[1.0, 1.0], &[1.0, 2.0]),
            Err(MetricError::ConstantInput)
        ));
    }

    #[test]
    fn pearson_linear_is_one() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 5.0, 7.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-6);
    }
}
