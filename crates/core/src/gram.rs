//! Gram-matrix assembly from simulated states (eq. 1).
//!
//! The symmetric training Gram matrix needs `N(N-1)/2` inner products
//! (diagonal entries are exactly 1 for normalized states); the inference
//! block needs `N_test * N_train`.
//!
//! Small problems run a single-pass loop that writes straight into
//! per-row chunks of the dense buffer — no `O(N²)` list of index/value
//! tuples is ever materialized next to the matrix (at the paper's
//! N = 64,000 that list alone would be ~32 GiB of temporaries). At and
//! above [`TILED_THRESHOLD`] the computation delegates to `qk-gram`'s
//! tiled engine, which adds a worker pool, checkpoint/resume and a
//! memory budget; both paths are pinned bitwise identical by tests.

use qk_gram::{GramConfig, GramEngine};
use qk_mps::{Mps, ZipperWorkspace};
use qk_svm::{KernelBlock, KernelMatrix};
use qk_tensor::backend::ExecutionBackend;
use qk_tensor::executor;
use std::time::{Duration, Instant};

/// Problem size (states for [`gram_matrix`], total entries for
/// [`kernel_block`]) at which computation delegates to the tiled
/// `qk-gram` engine instead of the single-pass loop.
pub const TILED_THRESHOLD: usize = 64;

/// Tile edge for the delegated in-memory path. Tile interiors are
/// serial, so the edge shrinks with the problem until the plan yields
/// several tiles per available worker (keeping moderate-N problems as
/// parallel as the old per-pair loop), and is floored to amortize
/// scheduling and capped to bound per-tile memory.
fn delegated_tile(extent: usize) -> usize {
    let workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1);
    extent.div_ceil(2 * workers).clamp(16, 128)
}

/// A Gram matrix plus the wall time spent computing it.
pub struct TimedKernel {
    /// The kernel matrix.
    pub kernel: KernelMatrix,
    /// Wall-clock time of the inner-product phase.
    pub wall_time: Duration,
    /// Number of inner products evaluated. Computed once from the
    /// problem shape (and surfaced from the engine's tile-plan manifest
    /// on the delegated path), never recounted per entry.
    pub inner_products: usize,
}

/// Computes the symmetric training kernel `K_ij = |<psi_i|psi_j>|^2`.
///
/// Exploits symmetry: only the strict upper triangle is contracted.
pub fn gram_matrix(states: &[Mps], backend: &dyn ExecutionBackend) -> TimedKernel {
    let n = states.len();
    let start = Instant::now();
    if n >= TILED_THRESHOLD {
        let engine = GramEngine::new(GramConfig::in_memory(delegated_tile(n)));
        let out = engine
            .compute_gram(states, backend)
            .expect("in-memory tiled gram cannot fail: no checkpoint, no spill, no budget");
        return TimedKernel {
            kernel: out.kernel.into_kernel_matrix(),
            wall_time: start.elapsed(),
            inner_products: out.report.inner_products,
        };
    }
    // Small-N fast path: each row of the dense buffer is an independent
    // executor item; row i computes its strict upper triangle in place,
    // then a cheap serial pass mirrors the triangle. Peak memory is the
    // matrix itself. One zipper workspace per row amortizes the kernel's
    // environment buffers across the whole row of inner products.
    let total = n * n.saturating_sub(1) / 2;
    let mut data = vec![0.0f64; n * n];
    executor::for_each(data.chunks_mut(n.max(1)).enumerate(), |(i, row)| {
        let mut ws = ZipperWorkspace::new();
        row[i] = 1.0;
        for (j, slot) in row.iter_mut().enumerate().skip(i + 1) {
            *slot = states[i]
                .inner_into(&mut ws, backend, &states[j])
                .norm_sqr();
        }
    });
    for i in 0..n {
        for j in (i + 1)..n {
            data[j * n + i] = data[i * n + j];
        }
    }
    TimedKernel {
        kernel: KernelMatrix::from_dense(n, data),
        wall_time: start.elapsed(),
        inner_products: total,
    }
}

/// Maps a flat upper-triangle index to its `(i, j)` pair (`i < j`).
///
/// Pairs are ordered row-major — `(0,1), (0,2), …, (0,n-1), (1,2), …` —
/// so row `i` starts at flat offset `C(i) = i (2n - i - 1) / 2`. The row
/// is recovered with the quadratic formula; the adjustment loops absorb
/// any floating-point drift in the square root (at most one step).
/// Inverse of [`flat_from_pair`]; exercised by property tests up to the
/// paper's scale, where the `f64` recovery is the delicate part.
pub fn pair_from_flat(k: usize, n: usize) -> (usize, usize) {
    debug_assert!(k < n * (n - 1) / 2);
    let row_start = |i: usize| i * (2 * n - i - 1) / 2;
    let m = (2 * n - 1) as f64;
    let mut i = ((m - (m * m - 8.0 * k as f64).sqrt()) / 2.0).floor() as usize;
    i = i.min(n - 2);
    while i + 1 < n - 1 && row_start(i + 1) <= k {
        i += 1;
    }
    while i > 0 && row_start(i) > k {
        i -= 1;
    }
    (i, i + 1 + (k - row_start(i)))
}

/// Maps an upper-triangle pair (`i < j < n`) to its flat row-major
/// index: the inverse of [`pair_from_flat`].
pub fn flat_from_pair(i: usize, j: usize, n: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// A rectangular kernel block plus timing.
pub struct TimedBlock {
    /// Rows = test states, columns = train states.
    pub block: KernelBlock,
    /// Wall-clock time of the inner-product phase.
    pub wall_time: Duration,
    /// Number of inner products evaluated.
    pub inner_products: usize,
}

/// Computes the inference kernel block `K[t][s] = |<psi_test_t|psi_train_s>|^2`.
pub fn kernel_block(
    test_states: &[Mps],
    train_states: &[Mps],
    backend: &dyn ExecutionBackend,
) -> TimedBlock {
    let start = Instant::now();
    let cols = train_states.len();
    let entries = test_states.len() * cols;
    if entries >= TILED_THRESHOLD * TILED_THRESHOLD {
        let tile = delegated_tile(test_states.len().max(cols));
        let engine = GramEngine::new(GramConfig::in_memory(tile));
        let out = engine
            .compute_block(test_states, train_states, backend)
            .expect("in-memory tiled block cannot fail: no checkpoint, no spill, no budget");
        return TimedBlock {
            block: out.block,
            wall_time: start.elapsed(),
            inner_products: out.report.inner_products,
        };
    }
    // One executor item and one workspace per test row, reused across
    // its whole train sweep.
    let mut data = vec![0.0f64; entries];
    executor::for_each(data.chunks_mut(cols.max(1)).zip(test_states), |(row, t)| {
        let mut ws = ZipperWorkspace::new();
        for (slot, s) in row.iter_mut().zip(train_states) {
            *slot = t.inner_into(&mut ws, backend, s).norm_sqr();
        }
    });
    TimedBlock {
        block: KernelBlock::from_dense(test_states.len(), cols, data),
        wall_time: start.elapsed(),
        inner_products: entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::states::simulate_states;
    use qk_circuit::AnsatzConfig;
    use qk_mps::TruncationConfig;
    use qk_tensor::backend::CpuBackend;

    fn states(n: usize, m: usize) -> Vec<Mps> {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..m).map(|j| ((i * m + j) % 9) as f64 * 0.22).collect())
            .collect();
        let be = CpuBackend::new();
        simulate_states(
            &rows,
            &AnsatzConfig::new(2, 1, 0.7),
            &be,
            &TruncationConfig::default(),
        )
        .states
    }

    #[test]
    fn gram_is_symmetric_with_unit_diagonal() {
        let st = states(5, 4);
        let be = CpuBackend::new();
        let timed = gram_matrix(&st, &be);
        let k = &timed.kernel;
        assert_eq!(k.len(), 5);
        assert_eq!(timed.inner_products, 10);
        for i in 0..5 {
            assert!((k.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..5 {
                assert!((0.0..=1.0 + 1e-9).contains(&k.get(i, j)));
                assert_eq!(k.get(i, j), k.get(j, i));
            }
        }
    }

    #[test]
    fn gram_matches_pairwise_inner() {
        let st = states(4, 3);
        let be = CpuBackend::new();
        let k = gram_matrix(&st, &be).kernel;
        for i in 0..4 {
            for j in 0..4 {
                let direct = st[i].overlap_sqr(&st[j]);
                assert!((k.get(i, j) - direct).abs() < 1e-10, "[{i}][{j}]");
            }
        }
    }

    #[test]
    fn single_state_gram_is_trivial() {
        let st = states(1, 4);
        let be = CpuBackend::new();
        let timed = gram_matrix(&st, &be);
        assert_eq!(timed.kernel.len(), 1);
        assert_eq!(timed.inner_products, 0);
        assert!((timed.kernel.get(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_gram_is_empty() {
        let be = CpuBackend::new();
        let timed = gram_matrix(&[], &be);
        assert_eq!(timed.kernel.len(), 0);
        assert_eq!(timed.inner_products, 0);
    }

    #[test]
    fn identical_rows_give_unit_entries() {
        // Two copies of the same data point must overlap to exactly 1.
        let row = vec![0.3, 1.1, 0.6, 1.7];
        let be = CpuBackend::new();
        let batch = simulate_states(
            &[row.clone(), row],
            &AnsatzConfig::new(2, 2, 0.9),
            &be,
            &TruncationConfig::default(),
        );
        let k = gram_matrix(&batch.states, &be).kernel;
        assert!((k.get(0, 1) - 1.0).abs() < 1e-9, "K01 = {}", k.get(0, 1));
    }

    #[test]
    fn gram_agrees_with_backends() {
        // The accelerator backend runs the same algorithm; entries must
        // match the CPU backend to floating-point accuracy.
        use qk_tensor::backend::{AcceleratorBackend, DeviceModel};
        let st = states(4, 4);
        let cpu = CpuBackend::new();
        let acc = AcceleratorBackend::new(DeviceModel::ideal());
        let k_cpu = gram_matrix(&st, &cpu).kernel;
        let k_acc = gram_matrix(&st, &acc).kernel;
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (k_cpu.get(i, j) - k_acc.get(i, j)).abs() < 1e-12,
                    "[{i}][{j}]"
                );
            }
        }
    }

    #[test]
    fn flat_index_enumerates_upper_triangle() {
        // pair_from_flat must be a bijection onto {(i, j) : i < j} in
        // row-major order, for a spread of sizes including tiny ones.
        for n in [2usize, 3, 4, 5, 7, 16, 33, 100] {
            let expected: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .collect();
            let got: Vec<(usize, usize)> =
                (0..n * (n - 1) / 2).map(|k| pair_from_flat(k, n)).collect();
            assert_eq!(got, expected, "n = {n}");
        }
    }

    #[test]
    fn flat_round_trip_exhaustive_small_n() {
        for n in 2usize..=40 {
            for k in 0..n * (n - 1) / 2 {
                let (i, j) = pair_from_flat(k, n);
                assert!(i < j && j < n, "n={n} k={k} -> ({i},{j})");
                assert_eq!(flat_from_pair(i, j, n), k, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn small_n_gram_matches_materialized_pair_list() {
        // Pin the fast path against the original implementation, which
        // materialized the full pair list before the loop: entries must
        // be bitwise identical.
        let st = states(7, 4);
        let be = CpuBackend::new();
        let n = st.len();
        let k_new = gram_matrix(&st, &be).kernel;
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect();
        let mut data = vec![0.0f64; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        for &(i, j) in &pairs {
            let v = st[i].inner_with(&be, &st[j]).norm_sqr();
            data[i * n + j] = v;
            data[j * n + i] = v;
        }
        assert_eq!(k_new.data(), data.as_slice(), "fast path diverged");
    }

    #[test]
    fn delegated_tile_yields_parallel_work() {
        // The delegated path must never collapse a moderate problem
        // into one serial tile on a multi-core host: with more than one
        // worker available, every delegated size plans several tiles.
        let workers = std::thread::available_parallelism()
            .map(|w| w.get())
            .unwrap_or(1);
        for n in [TILED_THRESHOLD, 100, 240, 1_000, 64_000] {
            let tile = delegated_tile(n);
            assert!((16..=128).contains(&tile), "n={n} tile={tile}");
            let bands = n.div_ceil(tile);
            if workers > 1 {
                assert!(bands >= 2, "n={n} tile={tile} is one serial tile");
            }
        }
    }

    #[test]
    fn delegated_gram_matches_fast_path_bitwise() {
        // At TILED_THRESHOLD the engine takes over; its output must be
        // bitwise identical to the single-pass loop on the same states.
        let st = states(TILED_THRESHOLD, 3);
        let be = CpuBackend::new();
        let n = st.len();
        let timed = gram_matrix(&st, &be);
        assert_eq!(timed.inner_products, n * (n - 1) / 2);
        let mut reference = vec![0.0f64; n * n];
        for i in 0..n {
            reference[i * n + i] = 1.0;
            for j in (i + 1)..n {
                let v = st[i].inner_with(&be, &st[j]).norm_sqr();
                reference[i * n + j] = v;
                reference[j * n + i] = v;
            }
        }
        assert_eq!(timed.kernel.data(), reference.as_slice());
    }

    #[test]
    fn empty_test_block_is_empty() {
        let train = states(3, 3);
        let be = CpuBackend::new();
        let timed = kernel_block(&[], &train, &be);
        assert_eq!(timed.block.rows(), 0);
        assert_eq!(timed.inner_products, 0);
    }

    #[test]
    fn block_matches_direct() {
        let train = states(4, 3);
        let test = states(2, 3);
        let be = CpuBackend::new();
        let timed = kernel_block(&test, &train, &be);
        assert_eq!(timed.block.rows(), 2);
        assert_eq!(timed.block.cols(), 4);
        assert_eq!(timed.inner_products, 8);
        for (t, test_state) in test.iter().enumerate() {
            for (s, train_state) in train.iter().enumerate() {
                let direct = test_state.overlap_sqr(train_state);
                assert!((timed.block.row(t)[s] - direct).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn delegated_block_matches_fast_path_bitwise() {
        // 64 * 64 entries trip the delegation threshold.
        let train = states(TILED_THRESHOLD, 3);
        let test = states(TILED_THRESHOLD, 3);
        let be = CpuBackend::new();
        let timed = kernel_block(&test, &train, &be);
        assert_eq!(timed.inner_products, TILED_THRESHOLD * TILED_THRESHOLD);
        for (t, test_state) in test.iter().enumerate() {
            for (s, train_state) in train.iter().enumerate() {
                let direct = test_state.inner_with(&be, train_state).norm_sqr();
                assert_eq!(
                    timed.block.row(t)[s].to_bits(),
                    direct.to_bits(),
                    "[{t}][{s}]"
                );
            }
        }
    }
}
