//! # qk-core
//!
//! The quantum kernel framework of the paper, assembled over the MPS
//! simulator, circuit ansatz, data pipeline and SVM substrates:
//!
//! * [`states`] — one MPS simulation per data point, fanned out in
//!   parallel (the linear-in-N half of the method).
//! * [`gram`] — Gram-matrix assembly from pairwise inner products (the
//!   quadratic-but-cheap half).
//! * [`extrapolate`] — the paper's linear cost model for sizing a
//!   cluster, calibrated from a measured run of the multi-rank driver
//!   (`qk_gram::rank_distributed_gram`, which runs the paper's two
//!   distribution strategies).
//! * [`pipeline`] — end-to-end classification experiments, quantum and
//!   Gaussian-baseline, with the `C in [0.01, 4]` sweep protocol.
//!
//! ## Quickstart
//!
//! ```
//! use qk_core::pipeline::{run_quantum_experiment, ExperimentConfig};
//! use qk_data::{generate, SyntheticConfig};
//! use qk_tensor::backend::CpuBackend;
//!
//! let data = generate(&SyntheticConfig::small(1));
//! let config = ExperimentConfig::qml(40, 5, 1);
//! let backend = CpuBackend::new();
//! let result = run_quantum_experiment(&data, &config, &backend);
//! assert!(result.best_test_auc() <= 1.0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extrapolate;
pub mod gram;
pub mod inference;
pub mod pipeline;
pub mod projected;
pub mod states;
pub mod truncation_study;

pub use extrapolate::{
    forecast_inference, forecast_training, processes_for_deadline, InferenceForecast,
    PrimitiveCosts, TrainingForecast,
};
pub use gram::{
    flat_from_pair, gram_matrix, kernel_block, pair_from_flat, TimedBlock, TimedKernel,
    TILED_THRESHOLD,
};
pub use inference::{InferenceTiming, ModelDecodeError, Prediction, QuantumKernelModel};
pub use pipeline::{
    run_gaussian_experiment, run_gaussian_on_split, run_quantum_experiment, run_quantum_on_split,
    ExperimentConfig, ExperimentResult, PipelineTimings,
};
pub use projected::{projected_block, projected_feature_batch, projected_gram};
pub use states::{simulate_states, StateBatch};
pub use truncation_study::{
    run_truncation_study, TruncationPoint, TruncationStudy, TruncationStudyConfig,
};
