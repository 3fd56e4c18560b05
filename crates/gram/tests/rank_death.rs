//! Rank-death drills: injected worker-rank deaths must be detected via
//! heartbeats, their tiles adopted by survivors through the dead rank's
//! checkpoint directory, and the assembled kernel must stay bitwise
//! identical to a single-process run.

use qk_chaos::FaultPlan;
use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_gram::{rank_distributed_gram, GramConfig, GramEngine, RankConfig, RankOutcome, Strategy};
use qk_mps::{Mps, MpsSimulator, TruncationConfig};
use qk_tensor::backend::CpuBackend;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "qk-gram-rank-test-{}-{tag}-{id}",
        std::process::id()
    ))
}

fn ansatz() -> AnsatzConfig {
    AnsatzConfig::new(2, 1, 0.7)
}

fn rows(n: usize, features: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..features)
                .map(|j| ((i * features + j) % 9) as f64 * 0.22)
                .collect()
        })
        .collect()
}

fn clean_kernel_with(rows: &[Vec<f64>], ansatz: &AnsatzConfig) -> Vec<f64> {
    let be = CpuBackend::new();
    let st: Vec<Mps> = rows
        .iter()
        .map(|row| {
            MpsSimulator::new(&be)
                .with_truncation(TruncationConfig::default())
                .simulate(&feature_map_circuit(row, ansatz))
                .0
        })
        .collect();
    let engine = GramEngine::new(GramConfig::in_memory(3));
    let out = engine.compute_gram(&st, &be).unwrap();
    out.kernel.data().to_vec()
}

fn clean_kernel(rows: &[Vec<f64>]) -> Vec<f64> {
    clean_kernel_with(rows, &ansatz())
}

fn run(rows: &[Vec<f64>], cfg: &RankConfig) -> RankOutcome {
    let be = CpuBackend::new();
    rank_distributed_gram(rows, &ansatz(), &be, &TruncationConfig::default(), cfg)
}

fn drill_config(ranks: usize, dir: &PathBuf) -> RankConfig {
    RankConfig {
        // The drill tiles are sub-millisecond; a short timeout keeps
        // the death-detection wait out of the test budget while still
        // being ~100x a tile.
        hb_timeout: Duration::from_millis(150),
        // The tile-ownership counts below are no-messaging's group-pair
        // deal: off-diagonal pairs first, then the diagonal ones.
        strategy: Strategy::NoMessaging,
        ..RankConfig::new(ranks, 3, dir)
    }
}

#[test]
fn clean_run_matches_single_process_bitwise() {
    let data = rows(10, 3);
    let clean = clean_kernel(&data);
    let dir = scratch("clean");
    let out = run(&data, &drill_config(3, &dir));
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.dead_ranks, Vec::<usize>::new());
    assert_eq!(out.report.tiles_adopted, 0);
    assert_eq!(out.report.tiles_recomputed, 0);
    assert!(out.report.per_rank.iter().all(|s| !s.died));
    let total: u64 = out.report.per_rank.iter().map(|s| s.tiles_completed).sum();
    assert_eq!(total, 10, "4 bands over 10 states -> 10 upper tiles");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_rank_tiles_are_adopted_bitwise() {
    let data = rows(10, 3);
    let clean = clean_kernel(&data);
    let dir = scratch("one-death");
    let cfg = RankConfig {
        chaos: FaultPlan::new(11).kill_rank(1, 1).arm(),
        ..drill_config(3, &dir)
    };
    let out = run(&data, &cfg);
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.dead_ranks, vec![1]);
    assert!(out.report.per_rank[1].died);
    assert_eq!(out.report.per_rank[1].tiles_completed, 1);
    // Rank 1 owned 3 of the 10 tiles; the one it persisted before dying
    // is adopted from its checkpoint directory, the rest recomputed.
    assert_eq!(out.report.tiles_adopted, 1);
    assert_eq!(out.report.tiles_recomputed, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn immediate_death_recomputes_everything_orphaned() {
    let data = rows(10, 3);
    let clean = clean_kernel(&data);
    let dir = scratch("early-death");
    let cfg = RankConfig {
        chaos: FaultPlan::new(12).kill_rank(2, 0).arm(),
        ..drill_config(3, &dir)
    };
    let out = run(&data, &cfg);
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.dead_ranks, vec![2]);
    assert_eq!(out.report.per_rank[2].tiles_completed, 0);
    // Nothing persisted before death: every orphan is recomputed.
    assert_eq!(out.report.tiles_adopted, 0);
    assert_eq!(out.report.tiles_recomputed, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multiple_deaths_still_complete() {
    let data = rows(9, 3);
    let clean = clean_kernel(&data);
    let dir = scratch("two-deaths");
    let cfg = RankConfig {
        chaos: FaultPlan::new(13).kill_rank(1, 1).kill_rank(3, 0).arm(),
        ..drill_config(4, &dir)
    };
    let out = run(&data, &cfg);
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.dead_ranks, vec![1, 3]);
    assert!(out.report.per_rank[1].died && out.report.per_rank[3].died);
    let orphaned = out.report.tiles_adopted + out.report.tiles_recomputed;
    // 3 bands over 9 states -> 6 tiles; ranks 1 and 3 owned 2 + 1.
    assert_eq!(orphaned, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killing_rank_zero_is_refused_by_the_plan() {
    let data = rows(6, 3);
    let clean = clean_kernel(&data);
    let dir = scratch("kill-zero");
    // kill_rank(0, _) is a refused no-op: the coordinator cannot be
    // chaos-killed, so the run completes with no deaths.
    let cfg = RankConfig {
        chaos: FaultPlan::new(14).kill_rank(0, 0).arm(),
        ..drill_config(2, &dir)
    };
    let out = run(&data, &cfg);
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.dead_ranks, Vec::<usize>::new());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_rank_world_needs_no_protocol() {
    let data = rows(7, 3);
    let clean = clean_kernel(&data);
    let dir = scratch("solo");
    let out = run(&data, &drill_config(1, &dir));
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.per_rank.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_run_restores_from_rank_checkpoints() {
    let data = rows(9, 3);
    let clean = clean_kernel(&data);
    let dir = scratch("warm");
    let cfg = drill_config(3, &dir);
    run(&data, &cfg);
    // Same root, same spec: every rank restores its tiles instead of
    // recomputing, and the kernel is unchanged.
    let again = run(&data, &cfg);
    assert_eq!(again.kernel.data(), clean.as_slice());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jobs_with_different_ansatze_do_not_share_checkpoints() {
    let data = rows(9, 3);
    let dir = scratch("foreign");
    let cfg = drill_config(3, &dir);
    run(&data, &cfg);
    // Same root, rows, n and tile, different encoding: the second job
    // must not restore the first one's tiles.
    let other = AnsatzConfig::new(2, 1, 0.3);
    let be = CpuBackend::new();
    let out = rank_distributed_gram(&data, &other, &be, &TruncationConfig::default(), &cfg);
    let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(out.kernel.data()),
        bits(&clean_kernel_with(&data, &other))
    );
    let _ = std::fs::remove_dir_all(&dir);
}
