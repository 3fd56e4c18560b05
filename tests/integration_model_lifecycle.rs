//! Cross-crate lifecycle test: train a deployable model, forecast its
//! production cost, stress it under truncation noise, and check every
//! piece against an independent reference (the exact statevector
//! simulator or the batch pipeline).

use qk_circuit::AnsatzConfig;
use qk_core::extrapolate::{forecast_training, PrimitiveCosts};
use qk_core::inference::QuantumKernelModel;
use qk_core::pipeline::{run_quantum_on_split, ExperimentConfig};
use qk_core::truncation_study::{run_truncation_study, TruncationStudyConfig};
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_gram::Strategy;
use qk_mps::TruncationConfig;
use qk_svm::SmoParams;
use qk_tensor::backend::CpuBackend;

fn easy_split(seed: u64) -> qk_data::Split {
    let data = generate(&SyntheticConfig {
        noise: 1.0,
        num_features: 12,
        num_illicit: 120,
        num_licit: 280,
        ..SyntheticConfig::small(seed)
    });
    prepare_experiment(&data, 120, 8, seed)
}

#[test]
fn deployed_model_agrees_with_batch_pipeline_metrics() {
    // The deployable single-point path and the batch experiment path
    // must classify identically: same ansatz, same C, same data.
    let split = easy_split(61);
    let ansatz = AnsatzConfig::new(2, 1, 0.5);
    let be = CpuBackend::new();

    let config = ExperimentConfig {
        ansatz,
        c_grid: vec![1.0],
        ..ExperimentConfig::qml(120, 8, 61)
    };
    let batch = run_quantum_on_split(&split, &config, &be);

    let model = QuantumKernelModel::fit(
        &split.train.features,
        &split.train.label_signs(),
        &ansatz,
        &TruncationConfig::default(),
        &SmoParams::with_c(1.0),
        &be,
    );
    let predictions = model.predict_batch(&split.test.features, &be);
    let labels = split.test.label_signs();
    let accuracy = predictions
        .iter()
        .zip(&labels)
        .filter(|(p, &y)| p.label == y)
        .count() as f64
        / labels.len() as f64;

    let batch_accuracy = batch.sweep.points[0].test.accuracy;
    assert!(
        (accuracy - batch_accuracy).abs() < 1e-9,
        "inference path accuracy {accuracy} != pipeline accuracy {batch_accuracy}"
    );
}

#[test]
fn serialized_model_survives_production_roundtrip() {
    let split = easy_split(67);
    let be = CpuBackend::new();
    let model = QuantumKernelModel::fit(
        &split.train.features,
        &split.train.label_signs(),
        &AnsatzConfig::new(2, 2, 0.5),
        &TruncationConfig::default(),
        &SmoParams::with_c(1.0),
        &be,
    );
    let restored = QuantumKernelModel::from_bytes(&model.to_bytes());
    for x in split.test.features.iter().take(8) {
        let a = model.predict_one(x, &be);
        let b = restored.predict_one(x, &be);
        assert!(
            (a.decision_value - b.decision_value).abs() < 1e-9,
            "decision drifted through serialization"
        );
    }
}

#[test]
fn forecast_scales_from_measured_small_run() {
    // Calibrate the cost model on a small measured sample, then check
    // the forecast's structural laws at a scale we can still verify
    // directly: quadrupling N quadruples (about) the inner-product
    // forecast, and doubling processes halves it.
    let split = easy_split(71);
    let be = CpuBackend::new();
    let costs = PrimitiveCosts::measure(
        &split.train.features[..8],
        &AnsatzConfig::new(2, 1, 0.5),
        &TruncationConfig::default(),
        &be,
    );
    let f1 = forecast_training(&costs, 100, 2, Strategy::RoundRobin);
    let f4 = forecast_training(&costs, 400, 2, Strategy::RoundRobin);
    let ratio = f4.inner_products.as_secs_f64() / f1.inner_products.as_secs_f64();
    assert!((14.0..=18.5).contains(&ratio), "N² law violated: {ratio}");

    let f4k = forecast_training(&costs, 400, 4, Strategy::RoundRobin);
    let half = f4.inner_products.as_secs_f64() / f4k.inner_products.as_secs_f64();
    assert!(
        (1.9..=2.1).contains(&half),
        "process scaling violated: {half}"
    );
}

#[test]
fn truncation_noise_stays_below_decision_margins_at_mild_cutoffs() {
    // End-to-end: a 1e-12 cutoff must not change a single test
    // prediction relative to the paper-default 1e-16 model.
    let split = easy_split(73);
    let ansatz = AnsatzConfig::new(2, 3, 0.5);
    let be = CpuBackend::new();
    let study = run_truncation_study(
        &split,
        &TruncationStudyConfig {
            ansatz,
            cutoffs: vec![1e-12],
            c_grid: vec![1.0],
            tol: 1e-3,
        },
        &be,
    );
    assert!(
        (study.points[0].test_auc - study.reference.test_auc).abs() < 1e-9,
        "mild truncation changed AUC: {} vs {}",
        study.points[0].test_auc,
        study.reference.test_auc
    );
    assert!(study.points[0].max_kernel_error < 1e-4);
}
