//! The measured pipeline, called through the crates' public API:
//! rows → `simulate_states` → checkpointed `GramEngine` → checkpointed
//! `Trainer` (training), then held-out rows → `simulate_states` →
//! `compute_block` → `decision_values_block` (prediction).

use crate::spans::{SpanId, Spans};
use crate::workload::Workload;
use qk_core::simulate_states;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_gram::{encoding_fingerprint, GramConfig, GramEngine, GramOutcome};
use qk_mps::{Mps, SimRecord, TruncationConfig};
use qk_obs::Tracer;
use qk_svm::{roc_auc, SmoParams, TrainOutcome, Trainer, TrainerConfig};
use qk_tensor::ExecutionBackend;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;

/// Tile edge of every Gram job.
pub const TILE: usize = 64;
/// Gram workers and serve clients: one per core of the reference host.
pub const WORKERS: usize = 2;
/// Soft-margin penalty of the SVM.
pub const C: f64 = 1.0;

/// Everything a run derives from `--seed`.
pub struct Inputs {
    pub train_rows: Vec<Vec<f64>>,
    pub train_labels: Vec<f64>,
    pub test_rows: Vec<Vec<f64>>,
    pub test_labels: Vec<f64>,
    /// Serve requests that repeat, so the encoding cache holds them.
    pub hot_pool: Vec<Vec<f64>>,
    pub seed: u64,
}

/// Generator seed of the dataset. Like the paper's Elliptic dataset it
/// is one fixed corpus; the run's seed draws the rows from it.
const DATASET_SEED: u64 = 7;
/// Rows the split is drawn from at least. The scaler is fit on the
/// train side, so a larger draw keeps the scaled feature range, and
/// with it the bond dimensions at d > 1, from swinging with the seed.
const MIN_SPLIT_ROWS: usize = 1000;

/// Generates the paper-shaped synthetic dataset (165 features, ~46.5k
/// rows), draws a seeded balanced subsample with a stratified 80/20
/// split, keeps the first `w.train` and `w.test` rows of each side, and
/// draws the serve phase's hot pool in the scaled feature domain.
pub fn make_inputs(w: &Workload, seed: u64) -> Inputs {
    let data = generate(&SyntheticConfig::elliptic_like(DATASET_SEED));
    let rows = (w.train * 5 / 4)
        .max(w.test * 5)
        .max(MIN_SPLIT_ROWS)
        .next_multiple_of(2);
    let split = prepare_experiment(&data, rows, w.features, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_F00D);
    let hot_pool = (0..w.hot_pool)
        .map(|_| feature_row(&mut rng, w.features))
        .collect();
    let take = |v: Vec<Vec<f64>>, n: usize| v.into_iter().take(n).collect::<Vec<_>>();
    let mut train_labels = split.train.label_signs();
    let mut test_labels = split.test.label_signs();
    train_labels.truncate(w.train);
    test_labels.truncate(w.test);
    Inputs {
        train_rows: take(split.train.features, w.train),
        train_labels,
        test_rows: take(split.test.features, w.test),
        test_labels,
        hot_pool,
        seed,
    }
}

/// A row in the scaler's `(0, 2)` output domain.
pub fn feature_row(rng: &mut ChaCha8Rng, features: usize) -> Vec<f64> {
    (0..features).map(|_| rng.gen_range(0.0..2.0)).collect()
}

pub struct Trained {
    pub states: Vec<Mps>,
    pub records: Vec<SimRecord>,
    pub gram: GramOutcome,
    pub svm: TrainOutcome,
    /// The `train` span; its children are `simulate`, `gram` and `smo`.
    pub span: SpanId,
}

pub struct Predicted {
    pub decisions: Vec<f64>,
    pub auc: f64,
    pub records: Vec<SimRecord>,
    /// The `predict` span; its children are `simulate`, `block` and
    /// `decide`.
    pub span: SpanId,
}

pub fn gram_config(w: &Workload, dir: &Path, trace: Option<Tracer>) -> GramConfig {
    let encoding = encoding_fingerprint(&w.ansatz, &TruncationConfig::default());
    GramConfig {
        workers: WORKERS,
        trace,
        ..GramConfig::checkpointed(dir.join("gram"), TILE, encoding)
    }
}

/// Rows → trained SVM. `dir` must not hold a previous job's checkpoint.
pub fn train(
    w: &Workload,
    inputs: &Inputs,
    be: &dyn ExecutionBackend,
    dir: &Path,
    trace: Option<Tracer>,
    spans: &mut Spans,
) -> Result<Trained, String> {
    let trunc = TruncationConfig::default();
    let cfg = gram_config(w, dir, trace);
    let kernel_fingerprint = cfg.encoding;
    let root = spans.open("train", None);
    let batch = spans.time("simulate", Some(root), || {
        simulate_states(&inputs.train_rows, &w.ansatz, be, &trunc)
    });
    let gram = spans
        .time("gram", Some(root), || {
            GramEngine::new(cfg).compute_gram(&batch.states, be)
        })
        .map_err(|e| format!("gram: {e}"))?;
    let trainer = Trainer::new(TrainerConfig {
        ckpt_dir: Some(dir.join("svm")),
        kernel_fingerprint,
        ..TrainerConfig::default()
    });
    let svm = spans
        .time("smo", Some(root), || {
            trainer.train(&gram.kernel, &inputs.train_labels, &SmoParams::with_c(C))
        })
        .map_err(|e| format!("smo: {e}"))?;
    spans.close(root);
    Ok(Trained {
        states: batch.states,
        records: batch.records,
        gram,
        svm,
        span: root,
    })
}

/// Held-out rows → decision values and AUC.
pub fn predict(
    w: &Workload,
    inputs: &Inputs,
    trained: &Trained,
    be: &dyn ExecutionBackend,
    spans: &mut Spans,
) -> Result<Predicted, String> {
    let trunc = TruncationConfig::default();
    let engine = GramEngine::new(GramConfig {
        workers: WORKERS,
        ..GramConfig::in_memory(TILE)
    });
    let root = spans.open("predict", None);
    let batch = spans.time("simulate", Some(root), || {
        simulate_states(&inputs.test_rows, &w.ansatz, be, &trunc)
    });
    let block = spans
        .time("block", Some(root), || {
            engine.compute_block(&batch.states, &trained.states, be)
        })
        .map_err(|e| format!("block: {e}"))?;
    let decisions = spans.time("decide", Some(root), || {
        trained.svm.model.decision_values_block(&block.block)
    });
    spans.close(root);
    Ok(Predicted {
        auc: roc_auc(&decisions, &inputs.test_labels),
        decisions,
        records: batch.records,
        span: root,
    })
}

/// Serializes a trained pipeline in `QuantumKernelModel::to_bytes`
/// layout, so the served model holds exactly the states and dual
/// coefficients the pipeline produced.
pub fn model_bytes(w: &Workload, trained: &Trained) -> Vec<u8> {
    let trunc = TruncationConfig::default();
    let svm = &trained.svm.model;
    let mut out = Vec::new();
    let u64s = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
    let f64s = |out: &mut Vec<u8>, v: f64| out.extend_from_slice(&v.to_le_bytes());
    u64s(&mut out, w.ansatz.layers as u64);
    u64s(&mut out, w.ansatz.interaction_distance as u64);
    f64s(&mut out, w.ansatz.gamma);
    f64s(&mut out, trunc.cutoff);
    u64s(&mut out, trunc.max_bond.map_or(0, |b| b as u64));
    f64s(&mut out, svm.bias);
    u64s(&mut out, svm.alphas.len() as u64);
    for (&a, &y) in svm.alphas.iter().zip(&svm.labels) {
        f64s(&mut out, a);
        f64s(&mut out, y);
    }
    out.push(0); // no Platt calibration
    u64s(&mut out, trained.states.len() as u64);
    for s in &trained.states {
        let bytes = s.to_bytes();
        u64s(&mut out, bytes.len() as u64);
        out.extend_from_slice(&bytes);
    }
    out
}
