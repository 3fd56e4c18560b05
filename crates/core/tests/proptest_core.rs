//! Property-based tests of the quantum-kernel framework: Gram-matrix
//! structure on arbitrary data, distribution-strategy equivalence over
//! arbitrary process counts, and cost-model laws over arbitrary scales.

use proptest::prelude::*;
use qk_circuit::AnsatzConfig;
use qk_core::extrapolate::{forecast_training, PrimitiveCosts};
use qk_core::gram::{flat_from_pair, gram_matrix, pair_from_flat};
use qk_core::states::simulate_states;
use qk_gram::{
    rank_distributed_gram, GramConfig, GramEngine, RankConfig, Strategy as DistStrategy,
};
use qk_mps::TruncationConfig;
use qk_tensor::backend::CpuBackend;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Feature rows in the rescaled (0, 2) domain the ansatz expects.
fn rows_strategy(max_rows: usize, features: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..2.0, features), 2..=max_rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The training Gram matrix is symmetric with unit diagonal and
    /// entries in [0, 1] for any data whatsoever.
    #[test]
    fn gram_entries_are_valid_overlaps(rows in rows_strategy(6, 4), d in 1usize..3) {
        let be = CpuBackend::new();
        let batch = simulate_states(
            &rows,
            &AnsatzConfig::new(2, d, 0.7),
            &be,
            &TruncationConfig::default(),
        );
        let k = gram_matrix(&batch.states, &be).kernel;
        let n = rows.len();
        for i in 0..n {
            prop_assert!((k.get(i, i) - 1.0).abs() < 1e-9);
            for j in 0..n {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&k.get(i, j)), "K[{i}][{j}] = {}", k.get(i, j));
                prop_assert_eq!(k.get(i, j), k.get(j, i));
            }
        }
    }

    /// Round-robin and no-messaging produce the engine's kernel bit for
    /// bit, for any rank count and tile edge.
    #[test]
    fn distribution_strategies_agree(rows in rows_strategy(8, 3), k in 1usize..6, tile in 1usize..5) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let be = CpuBackend::new();
        let ansatz = AnsatzConfig::new(2, 1, 0.5);
        let trunc = TruncationConfig::default();
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let reference = {
            let batch = simulate_states(&rows, &ansatz, &be, &trunc);
            let engine = GramEngine::new(GramConfig::in_memory(3));
            bits(engine.compute_gram(&batch.states, &be).unwrap().kernel.data())
        };
        for strategy in [DistStrategy::RoundRobin, DistStrategy::NoMessaging] {
            let root = std::env::temp_dir().join(format!(
                "qk-proptest-distributed-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let cfg = RankConfig { strategy, ..RankConfig::new(k, tile, &root) };
            let out = rank_distributed_gram(&rows, &ansatz, &be, &trunc, &cfg).kernel;
            let _ = std::fs::remove_dir_all(&root);
            prop_assert_eq!(bits(out.data()).as_slice(), reference.as_slice(), "{:?} k={} tile={}", strategy, k, tile);
        }
    }

    /// Cost-model laws hold at any scale: the round-robin total is
    /// non-increasing in the process count, and the inner-product phase
    /// scales exactly as 1/k.
    #[test]
    fn forecast_total_nonincreasing_in_processes(
        n in 10usize..5_000,
        k in 1usize..64,
        sim_us in 1u64..100_000,
        ip_us in 1u64..10_000,
    ) {
        let costs = PrimitiveCosts {
            simulation: Duration::from_micros(sim_us),
            inner_product: Duration::from_micros(ip_us),
            communication_per_state: Duration::from_nanos(100),
        };
        let a = forecast_training(&costs, n, k, DistStrategy::RoundRobin);
        let b = forecast_training(&costs, n, k + 1, DistStrategy::RoundRobin);
        // Inner products: exact 1/k scaling.
        let expect_ratio = (k + 1) as f64 / k as f64;
        let actual_ratio =
            a.inner_products.as_secs_f64() / b.inner_products.as_secs_f64().max(1e-300);
        prop_assert!((actual_ratio - expect_ratio).abs() < 1e-6, "{actual_ratio} vs {expect_ratio}");
        // Simulation phase never grows with more processes.
        prop_assert!(b.simulation <= a.simulation);
    }

    /// No-messaging never communicates and always simulates at least as
    /// much as round-robin.
    #[test]
    fn no_messaging_redundancy_dominates(
        n in 10usize..2_000,
        k in 2usize..64,
    ) {
        let costs = PrimitiveCosts::paper_qml_ansatz();
        let nm = forecast_training(&costs, n, k, DistStrategy::NoMessaging);
        let rr = forecast_training(&costs, n, k, DistStrategy::RoundRobin);
        prop_assert_eq!(nm.communication, Duration::ZERO);
        prop_assert!(nm.simulation >= rr.simulation);
        prop_assert_eq!(nm.inner_products, rr.inner_products);
    }

    /// `flat -> (i, j) -> flat` round-trips exhaustively for small `n`.
    #[test]
    fn pair_from_flat_round_trips_small_n(n in 2usize..64) {
        for k in 0..n * (n - 1) / 2 {
            let (i, j) = pair_from_flat(k, n);
            prop_assert!(i < j && j < n, "n={n} k={k} -> ({i},{j})");
            prop_assert_eq!(flat_from_pair(i, j, n), k, "n={} k={}", n, k);
        }
    }

    /// The `f64` quadratic-formula row recovery survives paper scale:
    /// sampled flat indices round-trip for `n` up to 100,000, where the
    /// flat index reaches ~5e9 and the square-root argument ~4e10.
    #[test]
    fn pair_from_flat_round_trips_at_scale(
        n in 1_000usize..=100_000,
        samples in prop::collection::vec(0.0f64..1.0, 32),
    ) {
        let total = n * (n - 1) / 2;
        // Deterministic boundary probes plus the sampled interior: row
        // starts and row ends are where the sqrt recovery can drift.
        let mut probes = vec![0, 1, total - 1, total / 2];
        for frac in [0.25f64, 0.75, 0.999] {
            let i = ((n as f64) * frac) as usize;
            if i + 1 < n {
                probes.push(flat_from_pair(i, i + 1, n)); // row start
                probes.push(flat_from_pair(i, n - 1, n)); // row end
            }
        }
        probes.extend(samples.iter().map(|f| ((total - 1) as f64 * f) as usize));
        for k in probes {
            let (i, j) = pair_from_flat(k, n);
            prop_assert!(i < j && j < n, "n={n} k={k} -> ({i},{j})");
            prop_assert_eq!(flat_from_pair(i, j, n), k, "n={} k={}", n, k);
        }
    }
}
