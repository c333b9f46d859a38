//! Ordinary least squares with `R²` goodness-of-fit.
//!
//! Supports a single predictor (closed form) and multiple predictors
//! (normal equations solved by Gaussian elimination with a ridge fallback
//! for collinear inputs). The paper fits linear ARPs over one or more
//! predictor attributes `V` and measures fit with the R-squared statistic.

use crate::error::{RegressError, Result};
use crate::matrix::{solve_ridge_fallback, Matrix};
use crate::model::{Fitted, Model};
use crate::stats::{mean, total_sum_of_squares};

/// Fit `y = β₀ + Σ βᵢ xᵢ` by OLS. `xs[i]` is the predictor vector of
/// sample `i`; all rows must share one dimension `d ≥ 1`.
pub fn fit_linear(xs: &[Vec<f64>], ys: &[f64]) -> Result<Fitted> {
    if xs.is_empty() || ys.is_empty() {
        return Err(RegressError::EmptyTrainingSet);
    }
    if xs.len() != ys.len() {
        return Err(RegressError::LengthMismatch { xs: xs.len(), ys: ys.len() });
    }
    let d = xs[0].len();
    if d == 0 {
        return Err(RegressError::DimensionMismatch { expected: 1, actual: 0 });
    }
    for row in xs {
        if row.len() != d {
            return Err(RegressError::DimensionMismatch { expected: d, actual: row.len() });
        }
        if row.iter().any(|x| !x.is_finite()) {
            return Err(RegressError::NonFiniteInput);
        }
    }
    if ys.iter().any(|y| !y.is_finite()) {
        return Err(RegressError::NonFiniteInput);
    }

    let model = if d == 1 { fit_simple(xs, ys) } else { fit_multiple(xs, ys, d)? };

    let gof = r_squared(&model, xs, ys);
    Ok(Fitted { model, gof, n: ys.len() })
}

/// Closed-form simple linear regression.
fn fit_simple(xs: &[Vec<f64>], ys: &[f64]) -> Model {
    let n = xs.len() as f64;
    let mx = xs.iter().map(|r| r[0]).sum::<f64>() / n;
    let my = mean(ys).expect("non-empty");
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (row, y) in xs.iter().zip(ys) {
        let dx = row[0] - mx;
        sxy += dx * (y - my);
        sxx += dx * dx;
    }
    // All x identical: degenerate to the constant at the mean (slope 0).
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    Model::Linear { intercept: my - slope * mx, coefs: vec![slope] }
}

/// Normal-equations OLS for `d ≥ 2` predictors:
/// solve `(XᵀX) β = Xᵀy` with the design matrix `X = [1 | x₁ … x_d]`.
fn fit_multiple(xs: &[Vec<f64>], ys: &[f64], d: usize) -> Result<Model> {
    let k = d + 1; // intercept column
    let mut xtx = Matrix::zeros(k, k);
    let mut xty = vec![0.0; k];
    for (row, &y) in xs.iter().zip(ys) {
        // Augmented row: (1, x_1, ..., x_d).
        let aug = |j: usize| if j == 0 { 1.0 } else { row[j - 1] };
        for i in 0..k {
            xty[i] += aug(i) * y;
            for j in i..k {
                let v = aug(i) * aug(j);
                xtx[(i, j)] += v;
            }
        }
    }
    // Mirror the upper triangle.
    for i in 0..k {
        for j in 0..i {
            xtx[(i, j)] = xtx[(j, i)];
        }
    }
    let beta = solve_ridge_fallback(xtx, xty)?;
    Ok(Model::Linear { intercept: beta[0], coefs: beta[1..].to_vec() })
}

/// `R² = 1 − SS_res / SS_tot`, clamped to `[0, 1]`.
///
/// When the targets are constant (every `y` equals the first) the fit is
/// perfect iff the residuals are zero, which OLS guarantees here, so we
/// return 1. Constancy is read from the targets, not from `SS_tot = 0`:
/// the computed mean of equal floats need not equal them, and then
/// `SS_tot` and `SS_res` are the same rounding residue, so `1 − SS_res /
/// SS_tot` reads 0 for some lengths and values and 1 for others.
/// (`SS_tot` can still underflow to 0 for tiny distinct targets; that
/// also returns 1.)
pub fn r_squared(model: &Model, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
    let ss_tot = total_sum_of_squares(ys);
    if ys.iter().all(|&y| y == ys[0]) || ss_tot == 0.0 {
        return 1.0;
    }
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - model.predict(x);
            e * e
        })
        .sum();
    (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(xs: &[f64]) -> Vec<Vec<f64>> {
        xs.iter().map(|&x| vec![x]).collect()
    }

    #[test]
    fn exact_line_recovered() {
        let xs = col(&[1.0, 2.0, 3.0, 4.0]);
        let ys: Vec<f64> = xs.iter().map(|r| 2.0 * r[0] + 1.0).collect();
        let f = fit_linear(&xs, &ys).unwrap();
        match &f.model {
            Model::Linear { intercept, coefs } => {
                assert!((intercept - 1.0).abs() < 1e-10);
                assert!((coefs[0] - 2.0).abs() < 1e-10);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.gof, 1.0);
    }

    #[test]
    fn noisy_line_has_high_but_imperfect_r2() {
        let xs = col(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let ys = [3.1, 4.9, 7.2, 8.8, 11.1, 12.9];
        let f = fit_linear(&xs, &ys).unwrap();
        assert!(f.gof > 0.98 && f.gof < 1.0, "gof = {}", f.gof);
    }

    #[test]
    fn anti_correlated_noise_has_low_r2() {
        let xs = col(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let ys = [5.0, 1.0, 9.0, 2.0, 8.0, 1.0, 9.0, 3.0];
        let f = fit_linear(&xs, &ys).unwrap();
        assert!(f.gof < 0.3, "gof = {}", f.gof);
    }

    #[test]
    fn constant_targets_are_perfect() {
        let xs = col(&[1.0, 2.0, 3.0]);
        let f = fit_linear(&xs, &[4.0, 4.0, 4.0]).unwrap();
        assert_eq!(f.gof, 1.0);
        assert!((f.model.predict(&[10.0]) - 4.0).abs() < 1e-10);
    }

    #[test]
    fn identical_predictors_degenerate_to_mean() {
        let xs = col(&[5.0, 5.0, 5.0]);
        let f = fit_linear(&xs, &[1.0, 2.0, 3.0]).unwrap();
        assert!((f.model.predict(&[5.0]) - 2.0).abs() < 1e-10);
    }

    #[test]
    fn two_predictors() {
        // y = 1 + 2 x1 − 3 x2, exact.
        let xs: Vec<Vec<f64>> =
            vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![2.0, 1.0], vec![1.0, 2.0]];
        let ys: Vec<f64> = xs.iter().map(|r| 1.0 + 2.0 * r[0] - 3.0 * r[1]).collect();
        let f = fit_linear(&xs, &ys).unwrap();
        assert!(f.gof > 0.999999);
        assert!((f.model.predict(&[3.0, 1.0]) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn collinear_predictors_survive_via_ridge() {
        // x2 = 2·x1 exactly — XᵀX is singular.
        let xs: Vec<Vec<f64>> =
            vec![vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0], vec![4.0, 8.0]];
        let ys: Vec<f64> = xs.iter().map(|r| 5.0 * r[0]).collect();
        let f = fit_linear(&xs, &ys).unwrap();
        assert!(f.gof > 0.999, "gof = {}", f.gof);
    }

    #[test]
    fn input_validation() {
        assert!(fit_linear(&[], &[]).is_err());
        assert!(fit_linear(&col(&[1.0]), &[1.0, 2.0]).is_err());
        assert!(fit_linear(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0]).is_err());
        assert!(fit_linear(&[vec![]], &[1.0]).is_err());
        assert!(fit_linear(&[vec![f64::INFINITY]], &[1.0]).is_err());
        assert!(fit_linear(&[vec![1.0]], &[f64::NAN]).is_err());
    }
}
