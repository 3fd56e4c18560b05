//! Projected quantum kernel (the alternative method the paper's
//! introduction cites: Huang et al., Nat. Commun. 12, 2631).
//!
//! Instead of fidelity overlaps, each data point is mapped to the vector
//! of single-qubit Pauli expectations of its feature-map state (`3m` real
//! numbers), and the kernel is a Gaussian RBF over those projected
//! features:
//!
//! ```text
//! K_pq = exp( -alpha * sum_{q,P} ( <P_q>_p - <P_q>_q' )^2 )
//! ```
//!
//! Only `N` MPS simulations are needed (no pairwise state contraction),
//! which trades kernel expressivity for an inner-product phase that is
//! linear instead of quadratic in `N`.

use crate::states::simulate_states;
use qk_circuit::AnsatzConfig;
use qk_mps::TruncationConfig;
use qk_svm::{KernelBlock, KernelMatrix};
use qk_tensor::backend::ExecutionBackend;
use qk_tensor::executor;

/// Projected features (`3m` Pauli expectations per row) for a batch.
pub fn projected_feature_batch(
    rows: &[Vec<f64>],
    ansatz: &AnsatzConfig,
    backend: &dyn ExecutionBackend,
    truncation: &TruncationConfig,
) -> Vec<Vec<f64>> {
    let batch = simulate_states(rows, ansatz, backend, truncation);
    executor::map(batch.states, |mut s| s.projected_features())
}

/// Bandwidth heuristic for the projected kernel: `1 / (dim * var)` over
/// the projected features, mirroring the paper's Gaussian convention.
pub fn projected_bandwidth(features: &[Vec<f64>]) -> f64 {
    qk_svm::scale_bandwidth(features)
}

/// Symmetric projected-kernel Gram matrix.
pub fn projected_gram(features: &[Vec<f64>], alpha: f64) -> KernelMatrix {
    KernelMatrix::from_fn(features.len(), |i, j| {
        rbf(&features[i], &features[j], alpha)
    })
}

/// Rectangular projected-kernel block (rows = test, cols = train).
pub fn projected_block(test: &[Vec<f64>], train: &[Vec<f64>], alpha: f64) -> KernelBlock {
    KernelBlock::from_fn(test.len(), train.len(), |i, j| {
        rbf(&test[i], &train[j], alpha)
    })
}

fn rbf(a: &[f64], b: &[f64], alpha: f64) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (-alpha * d2).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qk_bench_test_shim::*;

    // Local shim: small deterministic rows in the (0,2) domain.
    mod qk_bench_test_shim {
        pub fn rows(n: usize, m: usize) -> Vec<Vec<f64>> {
            (0..n)
                .map(|i| (0..m).map(|j| ((i * m + j) % 9) as f64 * 0.22).collect())
                .collect()
        }
    }

    use qk_tensor::backend::CpuBackend;

    #[test]
    fn feature_batch_shape() {
        let be = CpuBackend::new();
        let feats = projected_feature_batch(
            &rows(5, 4),
            &AnsatzConfig::new(2, 1, 0.7),
            &be,
            &TruncationConfig::default(),
        );
        assert_eq!(feats.len(), 5);
        assert!(feats.iter().all(|f| f.len() == 12));
        assert!(feats.iter().flatten().all(|v| v.abs() <= 1.0 + 1e-9));
    }

    #[test]
    fn projected_gram_is_valid_kernel() {
        let be = CpuBackend::new();
        let feats = projected_feature_batch(
            &rows(6, 4),
            &AnsatzConfig::new(2, 1, 0.7),
            &be,
            &TruncationConfig::default(),
        );
        let alpha = projected_bandwidth(&feats);
        let k = projected_gram(&feats, alpha);
        for i in 0..6 {
            assert!((k.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..6 {
                assert!((0.0..=1.0).contains(&k.get(i, j)));
            }
        }
        assert_eq!(k.max_asymmetry(), 0.0);
    }

    #[test]
    fn identical_rows_give_unit_kernel_entry() {
        let be = CpuBackend::new();
        let mut data = rows(2, 4);
        data[1] = data[0].clone();
        let feats = projected_feature_batch(
            &data,
            &AnsatzConfig::new(2, 1, 0.7),
            &be,
            &TruncationConfig::default(),
        );
        let k = projected_gram(&feats, 1.0);
        assert!((k.get(0, 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn block_matches_gram_on_same_rows() {
        let be = CpuBackend::new();
        let feats = projected_feature_batch(
            &rows(4, 4),
            &AnsatzConfig::new(2, 1, 0.7),
            &be,
            &TruncationConfig::default(),
        );
        let k = projected_gram(&feats, 0.8);
        let b = projected_block(&feats, &feats, 0.8);
        for i in 0..4 {
            for j in 0..4 {
                assert!((k.get(i, j) - b.row(i)[j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn projected_kernel_trains_an_svm() {
        use qk_data::{generate, prepare_experiment, SyntheticConfig};
        use qk_svm::{default_c_grid, sweep_c};
        // A large enough split that test AUC is stable (tiny test sets
        // make AUC a coin flip regardless of the kernel).
        let data = generate(&SyntheticConfig {
            noise: 1.0,
            num_features: 12,
            num_illicit: 150,
            num_licit: 350,
            ..SyntheticConfig::small(77)
        });
        let split = prepare_experiment(&data, 240, 10, 77);
        let be = CpuBackend::new();
        let ansatz = AnsatzConfig::new(2, 1, 0.3);
        let tc = TruncationConfig::default();
        let train_f = projected_feature_batch(&split.train.features, &ansatz, &be, &tc);
        let test_f = projected_feature_batch(&split.test.features, &ansatz, &be, &tc);
        let alpha = projected_bandwidth(&train_f);
        let k = projected_gram(&train_f, alpha);
        let b = projected_block(&test_f, &train_f, alpha);
        let sweep = sweep_c(
            &k,
            &split.train.label_signs(),
            &b,
            &split.test.label_signs(),
            &default_c_grid(),
            1e-3,
        );
        let auc = sweep.best_by_test_auc().test.auc;
        assert!((0.0..=1.0).contains(&auc));
        assert!(auc > 0.5, "projected kernel should beat chance, got {auc}");
    }
}
