//! Cross-crate integration: the multi-rank Gram driver's two strategies
//! against the single-process engine, bit for bit, end to end through
//! the SVM.

use qk_circuit::AnsatzConfig;
use qk_core::states::simulate_states;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_gram::{rank_distributed_gram, GramConfig, GramEngine, RankConfig, RankOutcome, Strategy};
use qk_mps::TruncationConfig;
use qk_svm::{roc_auc, train_svc, SmoParams};
use qk_tensor::backend::CpuBackend;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn prepared_rows(n: usize, k: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let data = generate(&SyntheticConfig::small(seed));
    let split = prepare_experiment(&data, n, k, seed);
    (split.train.features.clone(), split.train.label_signs())
}

fn run(rows: &[Vec<f64>], k: usize, tile: usize, strategy: Strategy) -> RankOutcome {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let root = std::env::temp_dir().join(format!(
        "qk-integration-distribution-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let cfg = RankConfig {
        strategy,
        // No deaths are injected, and a falsely dead rank would skew
        // the simulation counts: never time a busy host out.
        hb_timeout: Duration::from_secs(60),
        ..RankConfig::new(k, tile, &root)
    };
    let be = CpuBackend::new();
    let out = rank_distributed_gram(
        rows,
        &AnsatzConfig::qml_default(),
        &be,
        &TruncationConfig::default(),
        &cfg,
    );
    let _ = std::fs::remove_dir_all(&root);
    out
}

fn bits(kernel: &[f64]) -> Vec<u64> {
    kernel.iter().map(|v| v.to_bits()).collect()
}

/// The single-process reference: the engine over `simulate_states`.
fn reference_bits(rows: &[Vec<f64>]) -> Vec<u64> {
    let be = CpuBackend::new();
    let tc = TruncationConfig::default();
    let states = simulate_states(rows, &AnsatzConfig::qml_default(), &be, &tc).states;
    let engine = GramEngine::new(GramConfig::in_memory(8));
    bits(engine.compute_gram(&states, &be).unwrap().kernel.data())
}

#[test]
fn strategies_agree_with_reference_and_each_other() {
    let (rows, _) = prepared_rows(30, 6, 31);
    let n = rows.len() as u64;
    let reference = reference_bits(&rows);
    // Tile 4: 8 bands, ragged last one. Tile 7: 5 bands, fewer than
    // k = 7. Tile 16: 2 bands, fewer than every k >= 3.
    for tile in [4usize, 7, 16] {
        for k in [1usize, 2, 3, 4, 5, 7] {
            for strategy in [Strategy::NoMessaging, Strategy::RoundRobin] {
                let out = run(&rows, k, tile, strategy);
                let ctx = format!("{strategy:?} k={k} tile={tile}");
                assert_eq!(bits(out.kernel.data()), reference, "{ctx}");
                let sims: u64 = out.report.per_rank.iter().map(|s| s.simulations).sum();
                let bytes: u64 = out.report.per_rank.iter().map(|s| s.bytes_sent).sum();
                match strategy {
                    Strategy::RoundRobin => {
                        assert_eq!(sims, n, "{ctx}");
                        assert_eq!(bytes > 0, k > 1, "{ctx}");
                    }
                    Strategy::NoMessaging => {
                        assert_eq!(bytes, 0, "{ctx}");
                        if k >= 3 {
                            assert!(sims > n, "{ctx}: {sims} simulations");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn distributed_kernel_trains_identical_svm() {
    let (rows, labels) = prepared_rows(24, 5, 32);
    let be = CpuBackend::new();
    let ansatz = AnsatzConfig::qml_default();
    let tc = TruncationConfig::default();

    let states = simulate_states(&rows, &ansatz, &be, &tc).states;
    let engine = GramEngine::new(GramConfig::in_memory(8));
    let reference = engine.compute_gram(&states, &be).unwrap().kernel;
    let reference = reference.into_kernel_matrix();
    let distributed = run(&rows, 4, 5, Strategy::RoundRobin)
        .kernel
        .into_kernel_matrix();

    let params = SmoParams::with_c(1.0);
    let model_a = train_svc(&reference, &labels, &params);
    let model_b = train_svc(&distributed, &labels, &params);
    let scores_a: Vec<f64> = (0..reference.len())
        .map(|i| model_a.decision_value(reference.row(i)))
        .collect();
    let scores_b: Vec<f64> = (0..distributed.len())
        .map(|i| model_b.decision_value(distributed.row(i)))
        .collect();
    assert_eq!(bits(&scores_a), bits(&scores_b));
    assert_eq!(
        roc_auc(&scores_a, &labels).to_bits(),
        roc_auc(&scores_b, &labels).to_bits()
    );
}

#[test]
fn round_robin_communicates_less_simulation_than_no_messaging() {
    // The paper's motivation for round-robin: no redundant simulation.
    let (rows, _) = prepared_rows(24, 5, 33);
    let k = 6;
    let rr = run(&rows, k, 4, Strategy::RoundRobin).report;
    let nm = run(&rows, k, 4, Strategy::NoMessaging).report;
    let sims = |r: &qk_gram::RankReport| r.per_rank.iter().map(|s| s.simulations).sum::<u64>();
    let bytes = |r: &qk_gram::RankReport| r.per_rank.iter().map(|s| s.bytes_sent).sum::<u64>();
    assert_eq!(sims(&rr), rows.len() as u64);
    assert!(sims(&nm) > rows.len() as u64);
    assert!(bytes(&rr) > 0);
    assert_eq!(bytes(&nm), 0);
}

#[test]
fn scaling_processes_preserves_results() {
    // The same kernel regardless of the number of simulated processes.
    let (rows, _) = prepared_rows(20, 4, 34);
    let k2 = run(&rows, 2, 4, Strategy::RoundRobin).kernel;
    let k8 = run(&rows, 8, 4, Strategy::RoundRobin).kernel;
    assert_eq!(bits(k2.data()), bits(k8.data()));
}
