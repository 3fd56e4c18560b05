//! The repository benchmark: one workload of the encode → simulate →
//! Gram → SMO → predict → serve pipeline per run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_gram_bound|train_sim_bound|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics in rounds of train,
//! predict and serve, with a plain `CpuBackend` and no tracer.
//! `--trace 1` alternates untraced and
//! traced pipeline runs, checks that their outputs are bitwise equal,
//! and splits the traced run into per-layer metrics. Every run checks
//! its outputs; the last line of standard output is one JSON object,
//! and the exit code is nonzero if any operation or check failed.

mod backend;
mod checks;
mod pipeline;
mod serve;
mod spans;
mod stats;
mod workload;

use backend::{TensorCounts, TimingBackend};
use pipeline::{Inputs, Predicted, Trained};
use qk_circuit::{feature_map_circuit, route_with_report};
use qk_gram::GramEngine;
use qk_obs::{TraceEvent, TracePhase, Tracer};
use qk_tensor::{CpuBackend, ExecutionBackend};
use serve::{ServeOutcome, Session};
use spans::Spans;
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of serving spent in the open loop; the closed loop gets the
/// rest.
const OPEN_SHARE: f64 = 0.6;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let flag = format!("--{key}");
        let at = argv
            .iter()
            .position(|a| *a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("workload")?;
    let workload = workload::find(name).ok_or(format!("unknown workload {name}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Failures of operations and checks, against operations attempted.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Scratch space inside the build directory, which the checkout's
/// ignore rules already exclude.
fn build_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("locating the benchmark executable");
    exe.parent()
        .and_then(Path::parent)
        .expect("executable lives in <target>/<profile>/")
        .to_path_buf()
}

/// Peak (`VmHWM`) and current (`VmRSS`) resident memory, in MiB.
fn rss_mib() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(f64::NAN, |kib| kib / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

extern "C" {
    /// glibc's: hands the allocator's free pages back to the system.
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Returns freed memory to the system, then lowers the peak resident
/// memory to the current one, so that a later `VmHWM` covers only the
/// work done after the call. Without the trim, pages the allocator kept
/// from earlier work would absorb later allocations unseen.
fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` takes no pointers and only releases pages
    // that hold no live allocation.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| e.to_string())?;
    let (peak, now) = rss_mib();
    if peak <= now + 1.0 {
        Ok(())
    } else {
        Err(format!(
            "peak {peak:.1} MiB still above current {now:.1} MiB"
        ))
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Whether one more round, at the mean pace of the `done` so far, ends
/// before `deadline`.
fn room_for_another(started: Instant, done: usize, deadline: Instant) -> bool {
    let now = Instant::now();
    now + (now - started) / done.max(1) as u32 <= deadline
}

/// One pipeline iteration: a fresh checkpoint directory, train, predict.
fn iterate(
    w: &Workload,
    inputs: &Inputs,
    be: &dyn ExecutionBackend,
    dir: &Path,
    trace: Option<Tracer>,
    spans: &mut Spans,
) -> Result<(Trained, Predicted), String> {
    let _ = std::fs::remove_dir_all(dir);
    spans.next_run();
    let trained = pipeline::train(w, inputs, be, dir, trace, spans)?;
    let predicted = pipeline::predict(w, inputs, &trained, be, spans)?;
    Ok((trained, predicted))
}

/// The checks every run makes on its first pipeline output.
fn check_outputs(w: &Workload, inputs: &Inputs, out: &(Trained, Predicted), tally: &mut Tally) {
    let (trained, predicted) = out;
    tally.check("gram validity", checks::gram_valid(&trained.gram.kernel));
    tally.check(
        "gram vs single-pair zipper",
        checks::entries_match_single_pair(trained),
    );
    if w.features <= checks::STATEVECTOR_MAX_QUBITS {
        tally.check(
            "gram vs state vector",
            checks::entries_match_statevector(trained, &inputs.train_rows, &w.ansatz),
        );
    }
    if inputs.test_rows.len() >= checks::AUC_MIN_TEST_ROWS {
        let auc = predicted.auc;
        tally.check(
            "test AUC above 0.5",
            if auc > 0.5 {
                Ok(())
            } else {
                Err(format!("AUC {auc}"))
            },
        );
    }
}

/// Counts a serve phase's requests and failures into the tally.
fn tally_serve(out: &ServeOutcome, tally: &mut Tally) {
    tally.attempted += out.attempted + out.checked;
    tally
        .failures
        .extend((0..out.failed).map(|_| "serve request refused or failed".to_string()));
    tally.failures.extend(out.mismatches.iter().cloned());
}

/// The run is a sequence of rounds, each one pipeline iteration and then
/// a serve segment (open loop, then closed loop) whose length is the
/// workload's serve share of the round. Every metric thus samples the
/// whole run, not one stretch of it.
fn end_to_end(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        inputs = Some(pipeline::make_inputs(w, args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    // Set-up generates the whole corpus, more memory than the rest of
    // the run; `peak_rss_mb` is to cover training, prediction and
    // serving only.
    let (setup_peak, _) = rss_mib();
    tally.check("reset peak memory after set-up", reset_peak_rss());
    let (_, after_setup) = rss_mib();
    let dir = build_dir().join(format!("perfbench-work-{}", std::process::id()));
    let be = CpuBackend::new();
    let mut spans = Spans::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);

    tally.attempted += 1;
    let first = match iterate(w, &inputs, &be, &dir, None, &mut spans) {
        Ok(out) => out,
        Err(e) => {
            tally.failures.push(e);
            return Vec::new();
        }
    };
    check_outputs(w, &inputs, &first, tally);
    let mut train_s = vec![spans.secs(first.0.span)];
    let mut predict_s = vec![spans.secs(first.1.span)];
    let serve_round = Duration::from_secs_f64(
        (train_s[0] + predict_s[0]) * w.serve_share / (1.0 - w.serve_share),
    );
    let model = pipeline::model_bytes(w, &first.0);
    let mut session = Session::start(w, &inputs, &model, None);
    loop {
        session.open_loop(serve_round.mul_f64(OPEN_SHARE));
        session.closed_loop(serve_round.mul_f64(1.0 - OPEN_SHARE));
        if !room_for_another(started, train_s.len(), deadline) {
            break;
        }
        tally.attempted += 1;
        match iterate(w, &inputs, &be, &dir, None, &mut spans) {
            Ok(out) => {
                train_s.push(spans.secs(out.0.span));
                predict_s.push(spans.secs(out.1.span));
                tally.check(
                    "repeat run bitwise equal",
                    checks::same_outputs((&first.0, &first.1), (&out.0, &out.1)),
                );
            }
            Err(e) => tally.failures.push(e),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let served = session.finish();
    tally_serve(&served, tally);

    let p50 = percentile(&served.latency_ms, 0.5);
    let p99 = percentile(&served.latency_ms, 0.99);
    println!(
        "{}: {} train/{} test rows, {} rounds; test AUC {:.4}",
        w.name,
        inputs.train_rows.len(),
        inputs.test_rows.len(),
        train_s.len(),
        first.1.auc
    );
    println!(
        "serve open loop at {} req/s: {} replies, p50 with {} beyond, p99 {} ms with {} beyond",
        w.serve_rps, p50.samples, p50.beyond, p99.value, p99.beyond
    );
    println!("memory: set-up peak {setup_peak:.1} MiB, {after_setup:.1} MiB resident after set-up");
    vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("train_s", median(&train_s), "s"),
        metric("predict_s", median(&predict_s), "s"),
        metric("serve_p50_ms", p50.value, "ms"),
        metric("serve_capacity_rps", served.capacity_rps, "req/s"),
        metric("peak_rss_mb", rss_mib().0, "MiB"),
    ]
}

fn sum_us(events: &[TraceEvent], phase: TracePhase) -> f64 {
    events
        .iter()
        .filter(|e| e.phase == phase)
        .map(|e| e.dur_us as f64)
        .sum()
}

fn stage_us(events: &[TraceEvent], phase: TracePhase, p: f64) -> f64 {
    let durs: Vec<f64> = events
        .iter()
        .filter(|e| e.phase == phase)
        .map(|e| e.dur_us as f64)
        .collect();
    if durs.is_empty() {
        0.0
    } else {
        percentile(&durs, p).value
    }
}

fn per_layer(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let w = args.workload;
    let inputs = pipeline::make_inputs(w, args.seed);
    let work = build_dir().join(format!("perfbench-work-{}", std::process::id()));
    let plain = CpuBackend::new();
    let timed = TimingBackend::default();
    let mut spans = Spans::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds * (1.0 - w.serve_share));
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut reference: Option<(Trained, Predicted)> = None;
    let mut last = None;
    while last.is_none() || room_for_another(started, traced_s.len(), deadline) {
        tally.attempted += 2;
        let untraced = iterate(w, &inputs, &plain, &work, None, &mut spans);
        let tracer = Tracer::new();
        let before = timed.counts();
        let traced = iterate(w, &inputs, &timed, &work, Some(tracer.clone()), &mut spans);
        let counts = timed.counts() - before;
        let (untraced, traced) = match (untraced, traced) {
            (Ok(u), Ok(t)) => (u, t),
            (u, t) => {
                tally.failures.extend(u.err().into_iter().chain(t.err()));
                break;
            }
        };
        untraced_s.push(spans.secs(untraced.0.span));
        traced_s.push(spans.secs(traced.0.span));
        if reference.is_none() {
            check_outputs(w, &inputs, &untraced, tally);
        }
        let reference = reference.get_or_insert(untraced);
        tally.check(
            "traced run bitwise equal to untraced",
            checks::same_outputs((&reference.0, &reference.1), (&traced.0, &traced.1)),
        );
        last = Some((traced, counts, tracer.events()));
    }
    let Some(((trained, predicted), tensor, gram_events)) = last else {
        return Vec::new();
    };

    // Reopen the finished checkpoint: every tile restores from disk.
    let gram_dir = work.join("gram");
    let checkpoint_bytes = dir_bytes(&gram_dir);
    let restore_t0 = Instant::now();
    let restored = GramEngine::new(pipeline::gram_config(w, &work, None))
        .compute_gram(&trained.states, &plain);
    let restore_s = restore_t0.elapsed().as_secs_f64();
    tally.check(
        "checkpoint restores bitwise",
        match restored {
            Ok(r)
                if r.report.tiles_restored == r.report.tiles_total
                    && checks::same_bits(r.kernel.data(), trained.gram.kernel.data()) =>
            {
                Ok(())
            }
            Ok(r) => Err(format!(
                "{} of {} tiles restored",
                r.report.tiles_restored, r.report.tiles_total
            )),
            Err(e) => Err(e.to_string()),
        },
    );
    let _ = std::fs::remove_dir_all(&work);

    let model = pipeline::model_bytes(w, &trained);
    let serve_s = args.seconds * w.serve_share;
    let mut session = Session::start(w, &inputs, &model, Some(Tracer::new()));
    session.open_loop(Duration::from_secs_f64(serve_s * OPEN_SHARE));
    session.closed_loop(Duration::from_secs_f64(serve_s * (1.0 - OPEN_SHARE)));
    let served = session.finish();
    tally_serve(&served, tally);

    let spans_dir = build_dir().join("perfbench-spans");
    let spans_path = spans_dir.join(format!("{}-seed{}.jsonl", w.name, args.seed));
    if let Err(e) = std::fs::create_dir_all(&spans_dir).and_then(|_| spans.write_jsonl(&spans_path))
    {
        eprintln!("spans not written to {}: {e}", spans_path.display());
    }

    layer_metrics(
        w,
        &inputs,
        &spans,
        (&trained, &predicted),
        tensor,
        &gram_events,
        (checkpoint_bytes, restore_s),
        &served,
        (median(&untraced_s), median(&traced_s)),
    )
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: &Workload,
    inputs: &Inputs,
    spans: &Spans,
    (trained, predicted): (&Trained, &Predicted),
    tensor: TensorCounts,
    gram_events: &[TraceEvent],
    (checkpoint_bytes, restore_s): (u64, f64),
    served: &ServeOutcome,
    (untraced_train_s, traced_train_s): (f64, f64),
) -> Vec<Metric> {
    let records: Vec<_> = trained.records.iter().chain(&predicted.records).collect();
    let states = records.len() as f64;
    let gate2: f64 = records.iter().map(|r| r.two_qubit_gates as f64).sum();
    let sim_cpu_s: f64 = records.iter().map(|r| r.duration.as_secs_f64()).sum();
    let sim_wall_s = spans.secs(spans.child(trained.span, "simulate"))
        + spans.secs(spans.child(predicted.span, "simulate"));
    let swaps: usize = inputs
        .train_rows
        .iter()
        .map(|r| {
            route_with_report(&feature_map_circuit(r, &w.ansatz))
                .1
                .swaps_inserted
        })
        .sum();

    let gram_s = spans.secs(spans.child(trained.span, "gram"));
    let report = &trained.gram.report;
    let compute_us = sum_us(gram_events, TracePhase::Compute);
    let mut lane_busy_us = std::collections::BTreeMap::<u32, f64>::new();
    for e in gram_events.iter().filter(|e| {
        matches!(
            e.phase,
            TracePhase::Compute | TracePhase::CheckpointWrite | TracePhase::BandLoad
        )
    }) {
        *lane_busy_us.entry(e.lane).or_default() += e.dur_us as f64;
    }
    let busiest_lane_s = lane_busy_us.values().fold(0.0f64, |a, &b| a.max(b)) / 1e6;

    let smo_s = spans.secs(spans.child(trained.span, "smo"));
    let passes = trained.svm.model.passes as f64;
    let stats = &trained.svm.stats;
    let lookups = (stats.cache_hits + stats.cache_misses).max(1) as f64;

    let ev = &served.events;
    let snap = &served.snapshot;
    let train_s = spans.secs(trained.span);
    vec![
        metric(
            "circuit.swaps_per_state",
            swaps as f64 / inputs.train_rows.len() as f64,
            "count",
        ),
        metric("mps.gate2_per_state", gate2 / states, "count"),
        metric("mps.us_per_gate2", sim_cpu_s * 1e6 / gate2, "us"),
        metric(
            "mps.peak_bond_mean",
            records.iter().map(|r| r.peak_bond as f64).sum::<f64>() / states,
            "count",
        ),
        metric(
            "mps.discarded_weight_max",
            records
                .iter()
                .map(|r| r.truncation.max_discarded_weight)
                .fold(0.0, f64::max),
            "1",
        ),
        metric("tensor.svd_calls", tensor.svd_calls as f64, "count"),
        metric("tensor.svd_busy_s", tensor.svd_ns as f64 / 1e9, "s"),
        metric(
            "tensor.svd_share",
            tensor.svd_ns as f64 / 1e9 / sim_cpu_s,
            "1",
        ),
        metric("tensor.gemm_calls", tensor.gemm_calls as f64, "count"),
        metric("tensor.gemm_busy_s", tensor.gemm_ns as f64 / 1e9, "s"),
        metric("tensor.gemm_gflop", tensor.gemm_flop as f64 / 1e9, "Gflop"),
        metric(
            "tensor.gemm_gflops",
            tensor.gemm_flop as f64 / tensor.gemm_ns as f64,
            "Gflop/s",
        ),
        metric("tensor.gemm_gbytes", tensor.gemm_bytes as f64 / 1e9, "GB"),
        metric("core.simulate_s", sim_wall_s, "s"),
        metric("core.simulate_cpu_s", sim_cpu_s, "s"),
        metric("core.simulate_parallelism", sim_cpu_s / sim_wall_s, "1"),
        metric("gram.compute_s", gram_s, "s"),
        metric("gram.inner_products", report.inner_products as f64, "count"),
        metric(
            "gram.ns_per_inner_product",
            compute_us * 1e3 / report.inner_products as f64,
            "ns",
        ),
        metric(
            "gram.parallel_efficiency",
            compute_us / 1e6 / (pipeline::WORKERS as f64 * report.wall_time.as_secs_f64()),
            "1",
        ),
        metric(
            "gram.checkpoint_write_s",
            sum_us(gram_events, TracePhase::CheckpointWrite) / 1e6,
            "s",
        ),
        metric("gram.checkpoint_bytes", checkpoint_bytes as f64, "B"),
        metric(
            "gram.assemble_s",
            report.wall_time.as_secs_f64() - busiest_lane_s,
            "s",
        ),
        metric(
            "gram.block_s",
            spans.secs(spans.child(predicted.span, "block")),
            "s",
        ),
        metric("gram.restore_s", restore_s, "s"),
        metric("svm.train_s", smo_s, "s"),
        metric("svm.passes", passes, "count"),
        metric("svm.us_per_pass", smo_s * 1e6 / passes, "us"),
        metric(
            "svm.row_cache_hit_rate",
            stats.cache_hits as f64 / lookups,
            "1",
        ),
        metric("svm.test_auc", predicted.auc, "1"),
        metric(
            "serve.stage.queue_p50_us",
            stage_us(ev, TracePhase::Queue, 0.5),
            "us",
        ),
        metric(
            "serve.stage.queue_p99_us",
            stage_us(ev, TracePhase::Queue, 0.99),
            "us",
        ),
        metric(
            "serve.stage.coalesce_p50_us",
            stage_us(ev, TracePhase::Coalesce, 0.5),
            "us",
        ),
        metric(
            "serve.stage.coalesce_p99_us",
            stage_us(ev, TracePhase::Coalesce, 0.99),
            "us",
        ),
        metric(
            "serve.stage.encode_p50_us",
            stage_us(ev, TracePhase::Encode, 0.5),
            "us",
        ),
        metric(
            "serve.stage.encode_p99_us",
            stage_us(ev, TracePhase::Encode, 0.99),
            "us",
        ),
        metric(
            "serve.stage.kernel_p50_us",
            stage_us(ev, TracePhase::Kernel, 0.5),
            "us",
        ),
        metric(
            "serve.stage.kernel_p99_us",
            stage_us(ev, TracePhase::Kernel, 0.99),
            "us",
        ),
        metric(
            "serve.stage.reply_p50_us",
            stage_us(ev, TracePhase::Reply, 0.5),
            "us",
        ),
        metric(
            "serve.stage.reply_p99_us",
            stage_us(ev, TracePhase::Reply, 0.99),
            "us",
        ),
        metric(
            "serve.p99_ms",
            percentile(&served.latency_ms, 0.99).value,
            "ms",
        ),
        metric("serve.cache_hit_rate", snap.cache_hit_rate, "1"),
        metric("serve.mean_batch_size", snap.mean_batch_size, "count"),
        metric("serve.simulations", snap.simulations as f64, "count"),
        metric("serve.shed", snap.requests_shed as f64, "count"),
        metric(
            "serve.generator_lag_ms",
            percentile(&served.lag_ms, 0.99).value,
            "ms",
        ),
        metric(
            "bench.train_simulate_share",
            spans.secs(spans.child(trained.span, "simulate")) / train_s,
            "1",
        ),
        metric("bench.train_gram_share", gram_s / train_s, "1"),
        metric(
            "bench.unaccounted_frac",
            spans.self_secs(trained.span) / train_s,
            "1",
        ),
        metric(
            "bench.trace_overhead_frac",
            traced_train_s / untraced_train_s - 1.0,
            "1",
        ),
    ]
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".into(), |v| {
            v.trim_start_matches([' ', '\t', ':']).to_string()
        })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        println!(
            "host: {} CPUs available, {}",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model()
        );
        per_layer(&args, &mut tally)
    } else {
        end_to_end(&args, &mut tally)
    };
    for m in &metrics {
        println!("{:<32} {:>14.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            tally
                .failures
                .push(format!("metric {} is not finite", m.name));
        }
    }
    for f in &tally.failures {
        println!("FAILED {f}");
    }
    let failed = tally.failures.len();
    let attempted = tally.attempted.max(1);
    println!(
        "error_frac {:.6} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
