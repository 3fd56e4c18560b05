//! Output checks. Each returns a description of what is wrong; the
//! caller counts every failure and exits nonzero.

use crate::pipeline::{Predicted, Trained};
use qk_circuit::{feature_map_circuit, AnsatzConfig};
use qk_gram::TiledKernel;
use qk_mps::ZipperWorkspace;
use qk_statevector::StateVector;
use qk_tensor::CpuBackend;

/// Largest register the exact state-vector check simulates (16 MiB of
/// amplitudes per state).
pub const STATEVECTOR_MAX_QUBITS: usize = 20;
/// Test sets smaller than this give an AUC too coarse to guard quality.
pub const AUC_MIN_TEST_ROWS: usize = 200;
/// Sampled kernel entries per check.
const SAMPLED_PAIRS: usize = 4;

/// Finite, within `[0, 1 + 1e-9]`, symmetric and unit-diagonal.
pub fn gram_valid(k: &TiledKernel) -> Result<(), String> {
    let n = k.len();
    for i in 0..n {
        if k.get(i, i) != 1.0 {
            return Err(format!("K[{i}][{i}] = {} is not 1", k.get(i, i)));
        }
        for j in 0..n {
            let v = k.get(i, j);
            if !v.is_finite() || !(0.0..=1.0 + 1e-9).contains(&v) {
                return Err(format!("K[{i}][{j}] = {v} outside [0, 1]"));
            }
            if v.to_bits() != k.get(j, i).to_bits() {
                return Err(format!("K[{i}][{j}] != K[{j}][{i}]"));
            }
        }
    }
    Ok(())
}

/// Pairs `i < j` spread over the matrix.
fn sample_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..SAMPLED_PAIRS)
        .map(|s| (s * (n - 1) / SAMPLED_PAIRS, n - 1 - s))
        .filter(|(i, j)| i < j)
        .collect()
}

/// Sampled entries bitwise-equal to a single-pair zipper recomputation
/// in the engine's pinned `i < j` operand order.
pub fn entries_match_single_pair(t: &Trained) -> Result<(), String> {
    let be = CpuBackend::new();
    let mut ws = ZipperWorkspace::new();
    for (i, j) in sample_pairs(t.states.len()) {
        let v = t.states[i]
            .inner_into(&mut ws, &be, &t.states[j])
            .norm_sqr();
        if v.to_bits() != t.gram.kernel.get(i, j).to_bits() {
            return Err(format!(
                "K[{i}][{j}] = {} but single-pair zipper gives {v}",
                t.gram.kernel.get(i, j)
            ));
        }
    }
    Ok(())
}

/// Entries among the first three states within 1e-9 of exact
/// state-vector overlaps.
pub fn entries_match_statevector(
    t: &Trained,
    rows: &[Vec<f64>],
    ansatz: &AnsatzConfig,
) -> Result<(), String> {
    let vectors: Vec<StateVector> = rows[..3]
        .iter()
        .map(|r| StateVector::simulate(&feature_map_circuit(r, ansatz)))
        .collect();
    for (i, j) in [(0, 1), (0, 2), (1, 2)] {
        let exact = vectors[i].overlap_sqr(&vectors[j]);
        let got = t.gram.kernel.get(i, j);
        if (got - exact).abs() > 1e-9 {
            return Err(format!(
                "K[{i}][{j}] = {got} but state vector gives {exact}"
            ));
        }
    }
    Ok(())
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Two pipeline runs over the same inputs produced the same bits.
pub fn same_outputs(a: (&Trained, &Predicted), b: (&Trained, &Predicted)) -> Result<(), String> {
    let (ma, mb) = (&a.0.svm.model, &b.0.svm.model);
    if !same_bits(a.0.gram.kernel.data(), b.0.gram.kernel.data()) {
        return Err("Gram matrices differ between runs".into());
    }
    if !same_bits(&ma.alphas, &mb.alphas) || ma.bias.to_bits() != mb.bias.to_bits() {
        return Err("trained models differ between runs".into());
    }
    if !same_bits(&a.1.decisions, &b.1.decisions) {
        return Err("decision values differ between runs".into());
    }
    Ok(())
}
