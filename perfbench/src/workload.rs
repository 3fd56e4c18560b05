//! The three workloads. Each runs the whole pipeline — train, predict,
//! serve — so every end-to-end metric is measured on every workload;
//! they differ in which layer carries the time.

use qk_circuit::AnsatzConfig;

pub struct Workload {
    pub name: &'static str,
    /// Features per row, one qubit each.
    pub features: usize,
    pub ansatz: AnsatzConfig,
    /// Training rows.
    pub train: usize,
    /// Held-out rows the prediction phase classifies.
    pub test: usize,
    /// Request rate of the open-loop serve phase: an eighth of the
    /// workload's closed-loop capacity at the commit that introduced the
    /// benchmark (see the README). The open loop's batches are small,
    /// so it saturates well below that capacity; at a quarter, a slower
    /// spell of the shared host tripled p50.
    pub serve_rps: f64,
    /// Distinct points the hot share of serve requests cycles through;
    /// they are encoded once before the serve phase is timed.
    pub hot_pool: usize,
    /// Share of serve requests drawn from the hot pool (cache hits).
    /// Kept away from one half: hit and miss latencies form two modes,
    /// and a median that sits between them jumps from run to run.
    pub hot_share: f64,
    /// Share of `--seconds` spent serving; the rest trains and predicts.
    pub serve_share: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    // The paper's QML regime (Figs. 8-10): d = 1 keeps every SVD at
    // 4x4, so N² zipper inner products and checkpoint writes carry
    // training and prediction.
    Workload {
        name: "train_gram_bound",
        features: 48,
        ansatz: AnsatzConfig {
            layers: 2,
            interaction_distance: 1,
            gamma: 0.1,
        },
        train: 800,
        test: 200,
        serve_rps: 35.0,
        hot_pool: 64,
        hot_share: 0.25,
        serve_share: 0.25,
    },
    // The paper's interaction-distance study (Fig. 5): at d = 5 most
    // two-qubit gates are routing SWAPs and Jacobi SVD dominates
    // simulation, which dominates everything else. A state's simulation
    // time varies about 30% with its data, so the phases need tens of
    // states to be steady; m = 12 keeps 64 of them to a few seconds,
    // and an exact state-vector check cheap. Serving draws every request
    // from the hot pool: a miss costs one simulation of that same
    // data-dependent time, which train_s already measures, while hits
    // time the d = 5 kernel row.
    Workload {
        name: "train_sim_bound",
        features: 12,
        ansatz: AnsatzConfig {
            layers: 2,
            interaction_distance: 5,
            gamma: 0.1,
        },
        train: 32,
        test: 32,
        serve_rps: 160.0,
        hot_pool: 32,
        hot_share: 1.0,
        serve_share: 0.25,
    },
    // Independent users of a deployed model: a quarter of the requests
    // repeat (encoding-cache hits), the rest are fresh points that
    // simulate.
    Workload {
        name: "serve_mixed",
        features: 32,
        ansatz: AnsatzConfig {
            layers: 2,
            interaction_distance: 1,
            gamma: 0.1,
        },
        train: 300,
        test: 75,
        serve_rps: 100.0,
        hot_pool: 64,
        hot_share: 0.25,
        serve_share: 0.75,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
