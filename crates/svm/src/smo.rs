//! Sequential Minimal Optimization for C-SVC on precomputed kernels.
//!
//! Solves the SVM dual
//!
//! ```text
//! max_alpha  sum_i alpha_i - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij
//! s.t.       0 <= alpha_i <= C,   sum_i alpha_i y_i = 0
//! ```
//!
//! with Platt's SMO: pick a KKT-violating pair, solve the 2-variable
//! subproblem analytically, clip to the box, repeat. The second index is
//! chosen by the max-|E_i - E_j| heuristic with a seeded random fallback,
//! and an error cache keeps each update O(n).

use crate::kernel::KernelSource;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SmoParams {
    /// Box constraint (regularization). The paper sweeps `C in [0.01, 4]`.
    pub c: f64,
    /// KKT violation tolerance; the paper uses `1e-3`.
    pub tol: f64,
    /// Maximum full passes over the data without progress before stopping.
    pub max_passes: usize,
    /// Hard cap on total passes (safety valve for degenerate kernels).
    pub max_total_passes: usize,
    /// Seed for the random second-choice heuristic.
    pub seed: u64,
}

impl Default for SmoParams {
    fn default() -> Self {
        SmoParams {
            c: 1.0,
            tol: 1e-3,
            max_passes: 5,
            max_total_passes: 2_000,
            seed: 0xD1CE,
        }
    }
}

impl SmoParams {
    /// Default parameters at a given `C`.
    pub fn with_c(c: f64) -> Self {
        SmoParams {
            c,
            ..Self::default()
        }
    }
}

/// A trained support-vector classifier over a precomputed kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedSvm {
    /// Dual coefficients, one per training point.
    pub alphas: Vec<f64>,
    /// Bias term `b` in `f(x) = sum_i alpha_i y_i k(x_i, x) + b`.
    pub bias: f64,
    /// Training labels (`+1`/`-1`), retained for the decision function.
    pub labels: Vec<f64>,
    /// Number of optimization passes performed.
    pub passes: usize,
}

impl TrainedSvm {
    /// Indices with non-zero dual coefficient.
    pub fn support_indices(&self) -> Vec<usize> {
        self.alphas
            .iter()
            .enumerate()
            .filter(|(_, a)| **a > 1e-12)
            .map(|(i, _)| i)
            .collect()
    }

    /// Decision value for a point given its kernel row against the full
    /// training set (`row[j] = k(x, x_j)`).
    pub fn decision_value(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.alphas.len());
        let mut acc = self.bias;
        for ((a, y), k) in self.alphas.iter().zip(&self.labels).zip(row) {
            if *a > 1e-12 {
                acc += a * y * k;
            }
        }
        acc
    }

    /// Decision values for many kernel rows.
    pub fn decision_values<'a>(&self, rows: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
        rows.map(|r| self.decision_value(r)).collect()
    }

    /// Decision values over a precomputed test-against-train block,
    /// borrowing each kernel row in place — the batched-inference path:
    /// the serving layer evaluates a whole micro-batch against one block
    /// without copying rows out.
    pub fn decision_values_block(&self, block: &crate::kernel::KernelBlock) -> Vec<f64> {
        (0..block.rows())
            .map(|i| self.decision_value(block.row(i)))
            .collect()
    }

    /// Class prediction (`+1` / `-1`).
    pub fn predict(&self, row: &[f64]) -> f64 {
        if self.decision_value(row) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// Trains a C-SVC on a precomputed kernel.
///
/// Generic over [`KernelSource`], so a dense [`crate::KernelMatrix`] and
/// an externally assembled view (e.g. `qk-gram`'s `TiledKernel`) train
/// identically — no dense copy is made of non-`KernelMatrix` sources.
///
/// # Panics
/// Panics if labels are not `+1`/`-1`, sizes mismatch, both classes are
/// not present, or the hyperparameters are degenerate (`c` not positive
/// and finite, `tol` not finite).
pub fn train_svc<K: KernelSource + ?Sized>(
    kernel: &K,
    labels: &[f64],
    params: &SmoParams,
) -> TrainedSvm {
    let n = kernel.order();
    validate_inputs(n, labels, params);
    let mut st = SmoState::fresh(labels, params.seed);
    while st.should_continue(params) {
        let changed = match pass_over(labels, params.c, params.tol, &mut st, |i, j| {
            Ok::<_, std::convert::Infallible>((kernel.row(i), kernel.row(j)))
        }) {
            Ok(changed) => changed,
            Err(never) => match never {},
        };
        st.record_pass(changed);
    }
    st.into_model(labels)
}

/// Validates the training problem up front with clear panic messages.
///
/// Shared by [`train_svc`] and the crash-safe `trainer` module so both
/// entry points reject the same degenerate inputs. Non-finite
/// hyperparameters are rejected explicitly: a NaN `tol` makes every KKT
/// comparison false, so the solver would silently spin to
/// `max_total_passes` doing nothing.
pub(crate) fn validate_inputs(n: usize, labels: &[f64], params: &SmoParams) {
    assert_eq!(labels.len(), n, "label count must match kernel order");
    assert!(n >= 2, "need at least two training points");
    assert!(
        labels.iter().all(|y| *y == 1.0 || *y == -1.0),
        "labels must be +1 or -1"
    );
    assert!(
        labels.iter().any(|y| *y > 0.0) && labels.iter().any(|y| *y < 0.0),
        "both classes must be present"
    );
    assert!(
        params.c > 0.0 && params.c.is_finite(),
        "C must be positive and finite, got {}",
        params.c
    );
    assert!(
        params.tol.is_finite(),
        "tol must be finite, got {} (a NaN tol makes the KKT check vacuously pass)",
        params.tol
    );
}

/// Resumable SMO solver state: everything the pass loop mutates.
///
/// [`train_svc`] drives one of these from `fresh` to convergence in a
/// single call; the crash-safe `trainer` module persists and restores it
/// across process deaths. Bitwise reproducibility hinges on this being
/// the *complete* loop state — alphas, bias, the error cache, both pass
/// counters, and the second-choice rng.
#[derive(Debug, Clone)]
pub(crate) struct SmoState {
    pub alphas: Vec<f64>,
    pub bias: f64,
    /// Error cache: `E_i = f(x_i) - y_i`.
    pub errors: Vec<f64>,
    pub passes_without_progress: usize,
    pub total_passes: usize,
    pub rng: ChaCha8Rng,
}

impl SmoState {
    /// Cold-start state: all alphas zero, so `f = 0` and `E_i = -y_i`.
    pub(crate) fn fresh(labels: &[f64], seed: u64) -> SmoState {
        SmoState {
            alphas: vec![0.0f64; labels.len()],
            bias: 0.0,
            errors: labels.iter().map(|y| -y).collect(),
            passes_without_progress: 0,
            total_passes: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Whether another pass should run under the configured caps.
    pub(crate) fn should_continue(&self, params: &SmoParams) -> bool {
        self.passes_without_progress < params.max_passes
            && self.total_passes < params.max_total_passes
    }

    /// Advances the pass counters after a completed pass.
    pub(crate) fn record_pass(&mut self, changed: usize) {
        self.total_passes += 1;
        if changed == 0 {
            self.passes_without_progress += 1;
        } else {
            self.passes_without_progress = 0;
        }
    }

    /// Finishes training, consuming the state into a model.
    pub(crate) fn into_model(self, labels: &[f64]) -> TrainedSvm {
        TrainedSvm {
            alphas: self.alphas,
            bias: self.bias,
            labels: labels.to_vec(),
            passes: self.total_passes,
        }
    }
}

/// Runs one full SMO pass over the data, fetching kernel rows through
/// `rows(i, j)`.
///
/// This is *the* pass loop — [`train_svc`] closes over direct
/// [`KernelSource::row`] reads (infallible), while the crash-safe
/// trainer closes over its budgeted row cache (fallible loads, chaos
/// gates). Both paths execute identical float operations and identical
/// rng draws, which is what makes a resumed training run bitwise equal
/// to an uninterrupted one.
///
/// Returns the number of successful alpha updates, or the first row
/// fetch error. Note `rows` is only consulted after the KKT check and
/// pair selection, so the rng stream never depends on the fetch path.
pub(crate) fn pass_over<R, E>(
    labels: &[f64],
    c: f64,
    tol: f64,
    st: &mut SmoState,
    mut rows: impl FnMut(usize, usize) -> Result<(R, R), E>,
) -> Result<usize, E>
where
    R: std::ops::Deref<Target = [f64]>,
{
    let n = labels.len();
    let mut changed = 0usize;
    for i in 0..n {
        let ei = st.errors[i];
        let yi = labels[i];
        let r = ei * yi;
        // KKT check: violated if (r < -tol and alpha < C) or
        // (r > tol and alpha > 0).
        if !((r < -tol && st.alphas[i] < c) || (r > tol && st.alphas[i] > 0.0)) {
            continue;
        }
        // Second-choice heuristic: maximize |E_i - E_j| over non-bound
        // points; fall back to a random other index.
        let j = select_second(i, &st.errors, &st.alphas, c, &mut st.rng);
        if i == j {
            // Degenerate fallback (n < 2 never reaches here in
            // practice); take_step would reject the pair anyway.
            continue;
        }
        let (ki, kj) = rows(i, j)?;
        if take_step_rows(
            labels,
            &mut st.alphas,
            &mut st.bias,
            &mut st.errors,
            i,
            j,
            c,
            &ki,
            &kj,
        ) {
            changed += 1;
        }
    }
    Ok(changed)
}

/// Chooses the second working-set index.
fn select_second(i: usize, errors: &[f64], alphas: &[f64], c: f64, rng: &mut ChaCha8Rng) -> usize {
    let n = errors.len();
    let ei = errors[i];
    let mut best = None;
    let mut best_gap = 0.0f64;
    for j in 0..n {
        if j == i {
            continue;
        }
        // Prefer non-bound points: their errors are kept exact.
        if alphas[j] <= 1e-12 || alphas[j] >= c - 1e-12 {
            continue;
        }
        let gap = (ei - errors[j]).abs();
        if gap > best_gap {
            best_gap = gap;
            best = Some(j);
        }
    }
    best.unwrap_or_else(|| random_other_index(i, n, rng))
}

/// Uniform draw of `j != i` from `0..n`.
///
/// Draws from the `n - 1` admissible values and shifts the draws at or
/// above `i` up by one: `[0, n-1)` maps bijectively onto `[0, n) \ {i}`,
/// so every `j != i` has probability exactly `1/(n-1)` (no
/// rejection-resampling and no modulo bias; see the distribution test
/// below). Degenerate problems with `n < 2` have no admissible second
/// index, so `i` itself is returned and the caller's `take_step`
/// rejects the `i == j` pair as unproductive.
fn random_other_index(i: usize, n: usize, rng: &mut ChaCha8Rng) -> usize {
    if n < 2 {
        return i;
    }
    let j = rng.gen_range(0..n - 1);
    if j >= i {
        j + 1
    } else {
        j
    }
}

/// Attempts the analytic two-variable update; returns `true` on progress.
///
/// Works on prefetched kernel rows: `ki[k] = K[i][k]`, `kj[k] = K[j][k]`.
/// Since a row slice and an `entry` call read the same backing values,
/// this is bit-for-bit the classic entrywise formulation — but it lets
/// the crash-safe trainer serve both the 2x2 subproblem and the O(n)
/// error-cache refresh from a single pair of cached rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn take_step_rows(
    labels: &[f64],
    alphas: &mut [f64],
    bias: &mut f64,
    errors: &mut [f64],
    i: usize,
    j: usize,
    c: f64,
    ki: &[f64],
    kj: &[f64],
) -> bool {
    if i == j {
        return false;
    }
    let (yi, yj) = (labels[i], labels[j]);
    let (ai_old, aj_old) = (alphas[i], alphas[j]);
    let (ei, ej) = (errors[i], errors[j]);

    // Feasible segment for alpha_j.
    let (lo, hi) = if yi != yj {
        ((aj_old - ai_old).max(0.0), (c + aj_old - ai_old).min(c))
    } else {
        ((ai_old + aj_old - c).max(0.0), (ai_old + aj_old).min(c))
    };
    if hi - lo < 1e-12 {
        return false;
    }

    let kii = ki[i];
    let kjj = kj[j];
    let kij = ki[j];
    let eta = kii + kjj - 2.0 * kij;
    if eta <= 1e-12 {
        // Non-positive curvature (can happen with degenerate kernels):
        // skip rather than evaluating the objective at the segment ends.
        return false;
    }

    let mut aj_new = aj_old + yj * (ei - ej) / eta;
    aj_new = aj_new.clamp(lo, hi);
    if (aj_new - aj_old).abs() < 1e-7 * (aj_new + aj_old + 1e-7) {
        return false;
    }
    // Clamp to the box; exact in real arithmetic, guards float drift.
    let ai_new = (ai_old + yi * yj * (aj_old - aj_new)).clamp(0.0, c);

    // Bias update (Platt's rules).
    let b1 = *bias - ei - yi * (ai_new - ai_old) * kii - yj * (aj_new - aj_old) * kij;
    let b2 = *bias - ej - yi * (ai_new - ai_old) * kij - yj * (aj_new - aj_old) * kjj;
    let new_bias = if ai_new > 1e-12 && ai_new < c - 1e-12 {
        b1
    } else if aj_new > 1e-12 && aj_new < c - 1e-12 {
        b2
    } else {
        (b1 + b2) / 2.0
    };

    // Error cache refresh: O(n) incremental update.
    let di = yi * (ai_new - ai_old);
    let dj = yj * (aj_new - aj_old);
    let db = new_bias - *bias;
    for ((e, kik), kjk) in errors.iter_mut().zip(ki).zip(kj) {
        *e += di * kik + dj * kjk + db;
    }

    alphas[i] = ai_new;
    alphas[j] = aj_new;
    *bias = new_bias;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelMatrix;

    #[test]
    fn decision_values_block_matches_per_row() {
        let svm = TrainedSvm {
            alphas: vec![0.5, 0.0, 1.2],
            bias: -0.3,
            labels: vec![1.0, -1.0, -1.0],
            passes: 1,
        };
        let block = crate::kernel::KernelBlock::from_fn(4, 3, |i, j| {
            1.0 / (1.0 + (i as f64 - j as f64).abs())
        });
        let batched = svm.decision_values_block(&block);
        assert_eq!(batched.len(), 4);
        for (i, &d) in batched.iter().enumerate() {
            assert_eq!(d, svm.decision_value(block.row(i)), "row {i}");
        }
    }

    /// The fallback draw hits every `j != i` with frequency `1/(n-1)`.
    ///
    /// Pins the distribution over small `n` with a fixed seed: for each
    /// `i`, 20 000 draws must put every admissible index within 5% of
    /// the uniform share absolutely, and must never produce `j == i`.
    #[test]
    fn second_index_fallback_is_uniform() {
        const DRAWS: usize = 20_000;
        for n in 2..=6usize {
            for i in 0..n {
                let mut rng = ChaCha8Rng::seed_from_u64(42 + (n * 10 + i) as u64);
                let mut counts = vec![0usize; n];
                for _ in 0..DRAWS {
                    let j = random_other_index(i, n, &mut rng);
                    assert_ne!(j, i, "fallback must avoid the first index (n={n}, i={i})");
                    counts[j] += 1;
                }
                assert_eq!(counts[i], 0);
                let expected = DRAWS as f64 / (n - 1) as f64;
                for (j, &c) in counts.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    let dev = (c as f64 - expected).abs() / expected;
                    assert!(
                        dev < 0.05,
                        "n={n} i={i} j={j}: count {c} deviates {:.1}% from uniform {expected}",
                        dev * 100.0
                    );
                }
            }
        }
    }

    /// Degenerate single-point problems must not panic: with no
    /// admissible second index the draw returns `i` and `take_step`
    /// rejects the pair.
    #[test]
    fn second_index_fallback_degenerate_n1() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(random_other_index(0, 1, &mut rng), 0);
        assert_eq!(random_other_index(0, 0, &mut rng), 0);
    }

    /// Linear kernel on explicit points: k(x, y) = <x, y>.
    fn linear_kernel(points: &[Vec<f64>]) -> KernelMatrix {
        KernelMatrix::from_fn(points.len(), |i, j| {
            points[i].iter().zip(&points[j]).map(|(a, b)| a * b).sum()
        })
    }

    #[test]
    fn separates_trivial_1d() {
        let pts: Vec<Vec<f64>> = vec![vec![-2.0], vec![-1.5], vec![1.5], vec![2.0]];
        let y = vec![-1.0, -1.0, 1.0, 1.0];
        let k = linear_kernel(&pts);
        let model = train_svc(&k, &y, &SmoParams::with_c(1.0));
        for (i, &yi) in y.iter().enumerate() {
            assert_eq!(model.predict(k.row(i)), yi, "point {i}");
        }
    }

    #[test]
    fn separates_2d_margin() {
        let pts: Vec<Vec<f64>> = vec![
            vec![1.0, 1.0],
            vec![2.0, 1.5],
            vec![1.5, 2.0],
            vec![-1.0, -1.0],
            vec![-2.0, -1.5],
            vec![-1.5, -0.5],
        ];
        let y = vec![1.0, 1.0, 1.0, -1.0, -1.0, -1.0];
        let k = linear_kernel(&pts);
        let model = train_svc(&k, &y, &SmoParams::with_c(10.0));
        for (i, &yi) in y.iter().enumerate() {
            assert_eq!(model.predict(k.row(i)), yi, "point {i}");
        }
        // Support vectors exist and duals respect the box.
        assert!(!model.support_indices().is_empty());
        assert!(model
            .alphas
            .iter()
            .all(|&a| (0.0..=10.0 + 1e-9).contains(&a)));
    }

    #[test]
    fn dual_constraint_holds() {
        let pts: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![(i as f64) - 4.5, ((i * 7) % 10) as f64 / 3.0])
            .collect();
        let y: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let k = linear_kernel(&pts);
        let model = train_svc(&k, &y, &SmoParams::with_c(2.0));
        let balance: f64 = model.alphas.iter().zip(&y).map(|(a, yi)| a * yi).sum();
        assert!(balance.abs() < 1e-8, "sum alpha_i y_i = {balance}");
    }

    #[test]
    fn xor_needs_nonlinear_kernel() {
        // XOR points: linear kernel fails, RBF-style kernel succeeds.
        let pts: Vec<Vec<f64>> = vec![
            vec![1.0, 1.0],
            vec![-1.0, -1.0],
            vec![1.0, -1.0],
            vec![-1.0, 1.0],
        ];
        let y = vec![1.0, 1.0, -1.0, -1.0];
        let rbf = KernelMatrix::from_fn(4, |i, j| {
            let d2: f64 = pts[i]
                .iter()
                .zip(&pts[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            (-0.5 * d2).exp()
        });
        let model = train_svc(&rbf, &y, &SmoParams::with_c(10.0));
        for (i, &yi) in y.iter().enumerate() {
            assert_eq!(model.predict(rbf.row(i)), yi, "xor point {i}");
        }
    }

    #[test]
    fn small_c_bounds_alphas() {
        let pts: Vec<Vec<f64>> = vec![vec![-1.0], vec![-0.5], vec![0.5], vec![1.0]];
        let y = vec![-1.0, -1.0, 1.0, 1.0];
        let k = linear_kernel(&pts);
        let c = 0.01;
        let model = train_svc(&k, &y, &SmoParams::with_c(c));
        assert!(model.alphas.iter().all(|&a| a <= c + 1e-12));
    }

    #[test]
    fn noisy_data_terminates() {
        // Overlapping classes: SMO must terminate via the pass caps.
        let pts: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![((i * 37) % 13) as f64 / 6.0 - 1.0])
            .collect();
        let y: Vec<f64> = (0..30)
            .map(|i| if (i * 17) % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let k = linear_kernel(&pts);
        let model = train_svc(&k, &y, &SmoParams::with_c(1.0));
        assert!(model.passes <= SmoParams::default().max_total_passes);
        assert!(model.alphas.iter().all(|a| a.is_finite()));
        assert!(model.bias.is_finite());
    }

    #[test]
    fn decision_values_batch() {
        let pts: Vec<Vec<f64>> = vec![vec![-1.0], vec![1.0]];
        let y = vec![-1.0, 1.0];
        let k = linear_kernel(&pts);
        let model = train_svc(&k, &y, &SmoParams::with_c(5.0));
        let rows: Vec<&[f64]> = (0..2).map(|i| k.row(i)).collect();
        let dv = model.decision_values(rows.into_iter());
        assert!(dv[0] < 0.0 && dv[1] > 0.0);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_panics() {
        let k = KernelMatrix::from_fn(2, |i, j| if i == j { 1.0 } else { 0.0 });
        train_svc(&k, &[1.0, 1.0], &SmoParams::default());
    }

    #[test]
    #[should_panic(expected = "labels must be")]
    fn bad_labels_panic() {
        let k = KernelMatrix::from_fn(2, |i, j| if i == j { 1.0 } else { 0.0 });
        train_svc(&k, &[1.0, 0.0], &SmoParams::default());
    }

    /// A NaN `tol` makes every KKT comparison false, so without the
    /// up-front validation the solver silently spins to
    /// `max_total_passes` while updating nothing. It must panic instead.
    #[test]
    #[should_panic(expected = "tol must be finite")]
    fn nan_tol_panics() {
        let k = linear_kernel(&[vec![-1.0], vec![1.0]]);
        let params = SmoParams {
            tol: f64::NAN,
            ..SmoParams::default()
        };
        train_svc(&k, &[-1.0, 1.0], &params);
    }

    #[test]
    #[should_panic(expected = "tol must be finite")]
    fn infinite_tol_panics() {
        let k = linear_kernel(&[vec![-1.0], vec![1.0]]);
        let params = SmoParams {
            tol: f64::INFINITY,
            ..SmoParams::default()
        };
        train_svc(&k, &[-1.0, 1.0], &params);
    }

    #[test]
    #[should_panic(expected = "C must be positive and finite")]
    fn nan_c_panics() {
        let k = linear_kernel(&[vec![-1.0], vec![1.0]]);
        train_svc(&k, &[-1.0, 1.0], &SmoParams::with_c(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "C must be positive and finite")]
    fn infinite_c_panics() {
        let k = linear_kernel(&[vec![-1.0], vec![1.0]]);
        train_svc(&k, &[-1.0, 1.0], &SmoParams::with_c(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "C must be positive and finite")]
    fn nonpositive_c_panics() {
        let k = linear_kernel(&[vec![-1.0], vec![1.0]]);
        train_svc(&k, &[-1.0, 1.0], &SmoParams::with_c(0.0));
    }
}
