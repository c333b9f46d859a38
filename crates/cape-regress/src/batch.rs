//! Batched fit kernels over raw `f64` slices.
//!
//! The row-oriented kernels ([`fit_constant`](crate::fit_constant),
//! [`fit_linear`](crate::fit_linear)) consume one observation at a time
//! and, for linear fits, a `Vec<f64>` per sample. When the caller already
//! holds dense column slabs — the columnar mining path gathers fragments
//! into flat buffers — that shape wastes both allocation and instruction-
//! level parallelism: every add is serialized through one accumulator.
//!
//! The kernels here run *chunked* loops instead: each pass splits the
//! slice into [`LANES`]-wide blocks and folds them into `LANES`
//! independent partial accumulators, reduced once at the end. The
//! compiler vectorizes the inner loop (no cross-iteration dependence),
//! and the tree-shaped reduction is at least as accurate as the
//! sequential left fold. Results agree with the exact kernels to well
//! under `1e-9`; callers that gate a decision on a threshold within that
//! band should refit with the exact kernel (the mining path does, over
//! the points in a canonical order — see `cape_core::mining::fit`).
//!
//! All statistics are computed *centered* (two or three passes over the
//! cached slice) rather than via raw-moment algebra, so there is no
//! catastrophic cancellation for large means — the same trade the exact
//! kernels make.

use crate::constant::chi_square_gof_from_stat;
use crate::error::{RegressError, Result};
use crate::model::{Fitted, Model};

/// Width of the chunked accumulation: the number of independent partial
/// sums each pass folds into. Eight `f64` lanes fill one AVX-512 register
/// or two AVX2 registers — wide enough to hide add latency everywhere.
pub const LANES: usize = 8;

/// Chunked sum of a slice: `LANES` independent partial sums, reduced once.
#[inline]
pub fn sum_chunked(v: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let chunks = v.chunks_exact(LANES);
    let rem = chunks.remainder();
    for c in chunks {
        for (a, &x) in acc.iter_mut().zip(c) {
            *a += x;
        }
    }
    let mut tail = 0.0;
    for &x in rem {
        tail += x;
    }
    acc.iter().sum::<f64>() + tail
}

/// Chunked `Σ (vᵢ − c)²`.
#[inline]
pub fn centered_sumsq_chunked(v: &[f64], c: f64) -> f64 {
    let mut acc = [0.0f64; LANES];
    let chunks = v.chunks_exact(LANES);
    let rem = chunks.remainder();
    for ch in chunks {
        for (a, &x) in acc.iter_mut().zip(ch) {
            let d = x - c;
            *a += d * d;
        }
    }
    let mut tail = 0.0;
    for &x in rem {
        let d = x - c;
        tail += d * d;
    }
    acc.iter().sum::<f64>() + tail
}

/// True when every element is finite, checked in chunked blocks.
#[inline]
fn all_finite(v: &[f64]) -> bool {
    v.chunks(LANES).all(|c| c.iter().all(|x| x.is_finite()))
}

/// Batched [`fit_constant`](crate::fit_constant): one chunked pass for
/// the mean, one for the centered chi-square statistic.
pub fn fit_constant_batch(ys: &[f64]) -> Result<Fitted> {
    cape_obs::counter_add("regress.fits_attempted.const", 1);
    if ys.is_empty() {
        return Err(RegressError::EmptyTrainingSet);
    }
    if !all_finite(ys) {
        return Err(RegressError::NonFiniteInput);
    }
    cape_obs::counter_add("regress.fits_accepted.const", 1);
    let n = ys.len();
    let beta = sum_chunked(ys) / n as f64;
    let gof = if n <= 1 {
        1.0
    } else {
        // Same guarded statistic as `chi_square_gof`, accumulated chunked:
        // χ² = Σ (yᵢ − β)² / max(|β|, floor).
        let ss = centered_sumsq_chunked(ys, beta);
        chi_square_gof_from_stat(ss, beta, n)
    };
    Ok(Fitted { model: Model::Constant { beta }, gof, n })
}

/// Batched single-predictor OLS over two flat slices: chunked passes for
/// the means, the centered cross-moments, and the residual `R²` scan —
/// no per-sample `Vec<f64>` is ever built. Mirrors
/// [`fit_linear`](crate::fit_linear)'s simple-regression branch exactly:
/// identical predictors degenerate to the mean (slope 0), constant
/// targets give `R² = 1`, and `R²` is clamped to `[0, 1]`.
pub fn fit_linear1_batch(xs: &[f64], ys: &[f64]) -> Result<Fitted> {
    cape_obs::counter_add("regress.fits_attempted.lin", 1);
    if xs.is_empty() || ys.is_empty() {
        return Err(RegressError::EmptyTrainingSet);
    }
    if xs.len() != ys.len() {
        return Err(RegressError::LengthMismatch { xs: xs.len(), ys: ys.len() });
    }
    if !all_finite(xs) || !all_finite(ys) {
        return Err(RegressError::NonFiniteInput);
    }
    cape_obs::counter_add("regress.fits_accepted.lin", 1);
    let n = xs.len() as f64;
    let mx = sum_chunked(xs) / n;
    let my = sum_chunked(ys) / n;

    // Pass 2: centered S_xx and S_xy, chunked.
    let mut sxx_acc = [0.0f64; LANES];
    let mut sxy_acc = [0.0f64; LANES];
    let xc = xs.chunks_exact(LANES);
    let xr = xc.remainder();
    let yr = &ys[xs.len() - xr.len()..];
    for (cx, cy) in xc.zip(ys.chunks_exact(LANES)) {
        for i in 0..LANES {
            let dx = cx[i] - mx;
            sxx_acc[i] += dx * dx;
            sxy_acc[i] += dx * (cy[i] - my);
        }
    }
    let mut sxx = sxx_acc.iter().sum::<f64>();
    let mut sxy = sxy_acc.iter().sum::<f64>();
    for (&x, &y) in xr.iter().zip(yr) {
        let dx = x - mx;
        sxx += dx * dx;
        sxy += dx * (y - my);
    }
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let intercept = my - slope * mx;

    // Pass 3: residual R², chunked over predictions (not the algebraic
    // shortcut `S_yy − slope·S_xy`, which cancels catastrophically for
    // near-perfect fits). Constant targets are decided from the targets,
    // as `r_squared` does.
    let ss_tot = centered_sumsq_chunked(ys, my);
    let gof = if ys.iter().all(|&y| y == ys[0]) || ss_tot == 0.0 {
        1.0
    } else {
        let mut res_acc = [0.0f64; LANES];
        for (cx, cy) in xs.chunks_exact(LANES).zip(ys.chunks_exact(LANES)) {
            for i in 0..LANES {
                let e = cy[i] - (intercept + slope * cx[i]);
                res_acc[i] += e * e;
            }
        }
        let mut ss_res = res_acc.iter().sum::<f64>();
        for (&x, &y) in xr.iter().zip(yr) {
            let e = y - (intercept + slope * x);
            ss_res += e * e;
        }
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    };
    Ok(Fitted { model: Model::Linear { intercept, coefs: vec![slope] }, gof, n: xs.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fit_constant, fit_linear};

    fn col(xs: &[f64]) -> Vec<Vec<f64>> {
        xs.iter().map(|&x| vec![x]).collect()
    }

    /// Deterministic pseudo-random stream (splitmix64 → uniform [0, 1)).
    fn stream(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) as f64 / u64::MAX as f64
            })
            .collect()
    }

    #[test]
    fn constant_matches_exact_kernel() {
        // Every length around the LANES boundary, plus a large slab.
        for n in (1..=2 * LANES + 1).chain([1000, 4097]) {
            let ys: Vec<f64> = stream(7, n).iter().map(|u| 40.0 + 10.0 * u).collect();
            let batch = fit_constant_batch(&ys).unwrap();
            let exact = fit_constant(&ys).unwrap();
            let (Model::Constant { beta: bb }, Model::Constant { beta: eb }) =
                (&batch.model, &exact.model)
            else {
                panic!("constant models expected")
            };
            assert!((bb - eb).abs() < 1e-12, "n={n}: beta {bb} vs {eb}");
            assert!(
                (batch.gof - exact.gof).abs() < 1e-9,
                "n={n}: gof {} vs {}",
                batch.gof,
                exact.gof
            );
            assert_eq!(batch.n, exact.n);
        }
    }

    #[test]
    fn linear_matches_exact_kernel() {
        for n in (2..=2 * LANES + 1).chain([1000, 4097]) {
            let xs: Vec<f64> = stream(11, n).iter().map(|u| u * 100.0).collect();
            let ys: Vec<f64> = xs
                .iter()
                .zip(stream(13, n))
                .map(|(&x, u)| 3.0 + 0.5 * x + (u - 0.5) * 2.0)
                .collect();
            let batch = fit_linear1_batch(&xs, &ys).unwrap();
            let exact = fit_linear(&col(&xs), &ys).unwrap();
            assert!((batch.gof - exact.gof).abs() < 1e-9, "n={n}");
            let bx = batch.model.predict(&[50.0]);
            let ex = exact.model.predict(&[50.0]);
            assert!((bx - ex).abs() < 1e-9 * ex.abs().max(1.0), "n={n}: {bx} vs {ex}");
        }
    }

    #[test]
    fn perfect_fits_are_exact_ones() {
        let f = fit_constant_batch(&[3.0; 37]).unwrap();
        assert_eq!(f.gof, 1.0);
        let xs: Vec<f64> = (0..37).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let f = fit_linear1_batch(&xs, &ys).unwrap();
        assert_eq!(f.gof, 1.0);
        assert!((f.model.predict(&[10.0]) - 21.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_cases_match_exact_kernel() {
        // Identical predictors: slope 0, intercept at the mean.
        let f =
            fit_linear1_batch(&[5.0; 9], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        assert!((f.model.predict(&[5.0]) - 5.0).abs() < 1e-12);
        // Constant targets: perfect.
        let xs: Vec<f64> = (0..9).map(|i| i as f64).collect();
        assert_eq!(fit_linear1_batch(&xs, &[4.0; 9]).unwrap().gof, 1.0);
        // Single observation fits perfectly.
        assert_eq!(fit_constant_batch(&[7.0]).unwrap().gof, 1.0);
        // Large-mean data: centered accumulation keeps the statistic sane.
        let ys: Vec<f64> = (0..100).map(|i| 1e12 + (i % 2) as f64).collect();
        let batch = fit_constant_batch(&ys).unwrap();
        let exact = fit_constant(&ys).unwrap();
        assert!((batch.gof - exact.gof).abs() < 1e-9);
    }

    /// Equal float targets whose computed mean is not exactly their value
    /// (three 0.1s, six 0.7s, seven 1.1s) and ones whose mean is (five
    /// 0.1s, nine 0.3s): both kernels read R² = 1 for every one, over
    /// x = 2000, 2001, … in every rotation, forward and reversed.
    #[test]
    fn constant_float_targets_fit_perfectly() {
        for (y, n) in [(0.1, 3), (0.7, 6), (1.1, 7), (0.1, 5), (0.3, 9)] {
            let ys = vec![y; n];
            let base: Vec<f64> = (0..n).map(|i| 2000.0 + i as f64).collect();
            for r in 0..n {
                let mut xs = base.clone();
                xs.rotate_left(r);
                for xs in [xs.clone(), xs.into_iter().rev().collect()] {
                    let ctx = format!("{n} × {y} over {xs:?}");
                    assert_eq!(fit_linear1_batch(&xs, &ys).unwrap().gof, 1.0, "batch: {ctx}");
                    assert_eq!(fit_linear(&col(&xs), &ys).unwrap().gof, 1.0, "exact: {ctx}");
                }
            }
        }
    }

    #[test]
    fn input_validation_matches_exact_kernel() {
        assert_eq!(fit_constant_batch(&[]), Err(RegressError::EmptyTrainingSet));
        assert_eq!(fit_constant_batch(&[1.0, f64::NAN]), Err(RegressError::NonFiniteInput));
        assert_eq!(fit_linear1_batch(&[], &[]), Err(RegressError::EmptyTrainingSet));
        assert_eq!(
            fit_linear1_batch(&[1.0], &[1.0, 2.0]),
            Err(RegressError::LengthMismatch { xs: 1, ys: 2 })
        );
        assert_eq!(
            fit_linear1_batch(&[f64::INFINITY, 1.0], &[1.0, 2.0]),
            Err(RegressError::NonFiniteInput)
        );
    }

    #[test]
    fn chunked_sum_handles_remainders() {
        for n in 0..3 * LANES {
            let v: Vec<f64> = (0..n).map(|i| i as f64 + 0.25).collect();
            let expect: f64 = v.iter().sum();
            assert!((sum_chunked(&v) - expect).abs() < 1e-9, "n={n}");
        }
    }
}
