//! Batched quantum-state preparation: one MPS simulation per data point.
//!
//! This is the linear-in-N half of the paper's decomposition (Section I):
//! `N` MPS simulations, embarrassingly parallel, followed by `O(N^2)`
//! cheap inner products. States are simulated on every core through
//! `qk_tensor::executor`, with the chosen execution backend.

use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_mps::{Mps, MpsSimulator, SimRecord, TruncationConfig};
use qk_tensor::backend::ExecutionBackend;
use qk_tensor::executor;
use std::time::{Duration, Instant};

/// Output of a batched state-preparation run.
pub struct StateBatch {
    /// One MPS per input row, in input order.
    pub states: Vec<Mps>,
    /// Per-state simulation records.
    pub records: Vec<SimRecord>,
    /// Wall-clock time for the whole batch.
    pub wall_time: Duration,
}

impl StateBatch {
    /// Mean of the largest bond dimension over the batch — Table I's
    /// "average largest chi".
    pub fn mean_max_bond(&self) -> f64 {
        if self.states.is_empty() {
            return 0.0;
        }
        self.states.iter().map(|s| s.max_bond() as f64).sum::<f64>() / self.states.len() as f64
    }

    /// Mean MPS memory footprint in bytes — Table I's "memory per MPS".
    pub fn mean_memory_bytes(&self) -> f64 {
        if self.states.is_empty() {
            return 0.0;
        }
        self.states
            .iter()
            .map(|s| s.memory_bytes() as f64)
            .sum::<f64>()
            / self.states.len() as f64
    }

    /// Sum of per-state simulation durations (CPU time, not wall time).
    pub fn total_simulation_time(&self) -> Duration {
        self.records.iter().map(|r| r.duration).sum()
    }
}

/// Simulates the feature-map circuit for every row, in parallel on the
/// [`executor`]. States come back in input order and are bitwise equal
/// to a serial loop's.
pub fn simulate_states(
    rows: &[Vec<f64>],
    ansatz: &AnsatzConfig,
    backend: &dyn ExecutionBackend,
    truncation: &TruncationConfig,
) -> StateBatch {
    let start = Instant::now();
    let mut done: Vec<Option<(Mps, SimRecord)>> = (0..rows.len()).map(|_| None).collect();
    executor::stream(
        rows,
        |x| simulate_one(x, ansatz, backend, truncation),
        // A state built on a helper thread lives in that thread's malloc
        // arena. Copying it here, on arrival, puts every kept state in
        // the caller's arena and leaves the helpers' arenas free for
        // reuse, instead of pinning a share of the batch in each.
        |i, (state, record)| done[i] = Some((state.clone(), record)),
    );
    let (states, records) = done
        .into_iter()
        .map(|r| r.expect("the executor yields one state per row"))
        .unzip();
    StateBatch {
        states,
        records,
        wall_time: start.elapsed(),
    }
}

fn simulate_one(
    x: &[f64],
    ansatz: &AnsatzConfig,
    backend: &dyn ExecutionBackend,
    truncation: &TruncationConfig,
) -> (Mps, SimRecord) {
    let circuit = feature_map_circuit(x, ansatz);
    MpsSimulator::new(backend)
        .with_truncation(*truncation)
        .simulate(&circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qk_tensor::backend::CpuBackend;

    fn rows() -> Vec<Vec<f64>> {
        (0..6)
            .map(|i| (0..4).map(|j| ((i * 4 + j) % 7) as f64 * 0.28).collect())
            .collect()
    }

    #[test]
    fn batch_matches_row_count() {
        let be = CpuBackend::new();
        let batch = simulate_states(
            &rows(),
            &AnsatzConfig::new(2, 1, 0.5),
            &be,
            &TruncationConfig::default(),
        );
        assert_eq!(batch.states.len(), 6);
        assert_eq!(batch.records.len(), 6);
        for s in &batch.states {
            assert_eq!(s.num_qubits(), 4);
            assert!((s.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        // Byte-equal to a serial map at 0 rows, 1 row and more rows than
        // workers. Row widths vary from 2 to 8 qubits, so per-row cost is
        // uneven and helpers finish out of input order.
        let be = CpuBackend::new();
        let cfg = AnsatzConfig::new(2, 2, 0.8);
        let tc = TruncationConfig::default();
        let many: Vec<Vec<f64>> = (0..3 * executor::workers() + 2)
            .map(|i| {
                (0..2 + (i * 5) % 7)
                    .map(|j| ((i * 3 + j) % 7) as f64 * 0.28)
                    .collect()
            })
            .collect();
        for rows in [&many[..0], &many[..1], &many[..]] {
            let par = simulate_states(rows, &cfg, &be, &tc);
            let ser: Vec<Vec<u8>> = rows
                .iter()
                .map(|x| simulate_one(x, &cfg, &be, &tc).0.to_bytes())
                .collect();
            let par: Vec<Vec<u8>> = par.states.iter().map(Mps::to_bytes).collect();
            assert_eq!(par, ser, "{} rows", rows.len());
        }
    }

    #[test]
    fn batch_statistics() {
        let be = CpuBackend::new();
        let batch = simulate_states(
            &rows(),
            &AnsatzConfig::new(2, 2, 1.0),
            &be,
            &TruncationConfig::default(),
        );
        assert!(batch.mean_max_bond() >= 1.0);
        assert!(batch.mean_memory_bytes() > 0.0);
        assert!(batch.total_simulation_time() > Duration::ZERO);
    }
}
