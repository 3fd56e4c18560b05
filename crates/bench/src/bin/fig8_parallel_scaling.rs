//! Figure 8: time breakdown of the Gram-matrix computation as the
//! data set size and the number of (simulated) processes double together.
//!
//! Expected shape: simulation time stays flat (linear work / linear
//! processes), inner-product time doubles per step (quadratic work /
//! linear processes); communication is small compared to simulation.
//!
//! Each bar is one round-robin run of `qk_gram::rank_distributed_gram`
//! with one band of `N / procs` rows per rank; the phase times are each
//! rank's thread CPU time, maximised over ranks (the critical path the
//! paper's stacked bars show). The binary exits nonzero unless every
//! bar simulated each of its N circuits exactly once and shipped states
//! around the ring.
//!
//! Usage:
//!   cargo run --release -p qk-bench --bin fig8_parallel_scaling -- \
//!     [--scale ci|default|paper] [--features M] [--base-n N] [--steps S]

use qk_bench::{sample_rows, write_results, Args, Scale};
use qk_circuit::AnsatzConfig;
use qk_gram::{rank_distributed_gram, RankConfig, Strategy};
use qk_mps::TruncationConfig;
use qk_tensor::backend::CpuBackend;
use serde::Serialize;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Bar {
    data_points: usize,
    processes: usize,
    simulation: Duration,
    inner_products: Duration,
    communication: Duration,
    wall: Duration,
    bytes_communicated: u64,
    simulations: u64,
}

fn main() {
    let args = Args::from_env();
    // Paper: m = 165, r = 2, d = 1, gamma = 0.1; N in {400..6400} with
    // GPUs in {2..32}.
    let (features, base_n, base_procs, steps) = match args.scale() {
        Scale::Ci => (12, 16, 2, 2),
        Scale::Default => (48, 48, 2, 4),
        Scale::Paper => (165, 400, 2, 5),
    };
    let features = args.get_or("features", features);
    let base_n = args.get_or("base-n", base_n);
    let base_procs = args.get_or("base-procs", base_procs);
    let steps = args.get_or("steps", steps);

    let ansatz = AnsatzConfig::qml_default();
    let trunc = TruncationConfig::default();
    let backend = CpuBackend::new();

    println!(
        "Fig. 8: Gram time breakdown (max per-rank CPU time), round-robin strategy (m = {features}, r = 2, d = 1, gamma = 0.1)"
    );
    println!("paper shape: simulation flat as N and processes double together;");
    println!("inner products roughly double per bar\n");
    println!(
        "{:>8} {:>7} | {:>12} {:>14} {:>14} {:>12}",
        "N", "procs", "simulation", "inner prods", "communication", "wall"
    );

    let mut bars = Vec::new();
    for step in 0..steps {
        let n = base_n << step;
        let procs = base_procs << step;
        let rows = sample_rows(n, features, 37);
        let root = std::env::temp_dir().join(format!("qk-fig8-{}-{step}", std::process::id()));
        let cfg = RankConfig {
            strategy: Strategy::RoundRobin,
            // Up to 2^steps ranks share the host's cores, so a tile's
            // wall time can far exceed its CPU time; no rank may be
            // declared dead for that.
            hb_timeout: Duration::from_secs(600),
            ..RankConfig::new(procs, n.div_ceil(procs), &root)
        };
        let start = Instant::now();
        let report = rank_distributed_gram(&rows, &ansatz, &backend, &trunc, &cfg).report;
        let wall = start.elapsed();
        let _ = std::fs::remove_dir_all(&root);
        let ranks = &report.per_rank;
        let max = |f: fn(&qk_gram::RankSummary) -> Duration| ranks.iter().map(f).max().unwrap();
        let bar = Bar {
            data_points: n,
            processes: procs,
            simulation: max(|r| r.simulation_time),
            inner_products: max(|r| r.inner_product_time),
            communication: max(|r| r.communication_time),
            wall,
            bytes_communicated: ranks.iter().map(|r| r.bytes_sent).sum(),
            simulations: ranks.iter().map(|r| r.simulations).sum(),
        };
        println!(
            "{:>8} {:>7} | {:>12.3?} {:>14.3?} {:>14.3?} {:>12.3?}",
            n, procs, bar.simulation, bar.inner_products, bar.communication, bar.wall
        );
        bars.push(bar);
    }

    if bars.len() >= 2 {
        let first = &bars[0];
        let last = &bars[bars.len() - 1];
        println!(
            "\nsimulation ratio last/first: {:.2} (paper: ~1.0, flat)",
            last.simulation.as_secs_f64() / first.simulation.as_secs_f64().max(1e-9)
        );
        let per_step = (last.inner_products.as_secs_f64()
            / first.inner_products.as_secs_f64().max(1e-9))
        .powf(1.0 / (bars.len() - 1) as f64);
        println!("inner-product growth per doubling: x{per_step:.2} (paper: ~x2)");
    }
    for bar in &bars {
        if bar.simulations != bar.data_points as u64 || bar.bytes_communicated == 0 {
            eprintln!(
                "fig8: N = {} on {} ranks ran {} simulations and sent {} bytes; \
                 round-robin must simulate each circuit once and use the ring",
                bar.data_points, bar.processes, bar.simulations, bar.bytes_communicated
            );
            std::process::exit(1);
        }
    }
    write_results("fig8_parallel_scaling", &bars);
}
