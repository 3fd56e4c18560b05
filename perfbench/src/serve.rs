//! The serve phase: the trained model is deployed on a `KernelServer`
//! and driven by open-loop segments at the workload's fixed rate (one
//! generator thread, one collector) and closed-loop segments of
//! `CLIENTS` clients for capacity. A request's latency runs from when
//! it was due to when its reply was sent: the generator's own lag
//! (submit instant less due instant) plus the reply's exact
//! enqueue-to-reply `Duration`, so no reply waits behind another.

use crate::pipeline::{feature_row, Inputs, WORKERS};
use crate::stats::median;
use crate::workload::Workload;
use qk_core::QuantumKernelModel;
use qk_obs::{TraceEvent, Tracer};
use qk_serve::{KernelServer, MetricsSnapshot, PendingPrediction, ServeConfig, ServeHandle};
use qk_tensor::CpuBackend;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Requests coalesced per worker wake.
const MAX_BATCH: usize = 8;
/// Every this-many-th reply is sampled for the `predict_one` check...
const CHECK_EVERY: usize = 16;
/// ...and at most this many samples, spread over the run, are checked:
/// each check simulates its point again.
const MAX_CHECKS: usize = 16;
/// Closed-loop clients: twice what fills every worker's batch, so a full
/// batch is already queued when a worker frees up and the closed loop
/// measures compute rather than coalescing waits. With exactly enough
/// to fill the batches, one client descheduled on the shared host held
/// a batch back, and capacity spread 0.24 across seeds instead of 0.06.
const CLIENTS: u64 = (2 * WORKERS * MAX_BATCH) as u64;
/// Closed-loop request ids start here, so they never repeat an
/// open-loop fresh point...
const CLOSED_BASE: u64 = 1 << 32;
/// ...and each client's ids start this far apart: a prime, so clients
/// reach the hot pool at different steps and different points instead
/// of in lock-step, which would let the server share one encoding
/// across a whole batch.
const CLIENT_STRIDE: u64 = 1_000_003;

/// Features and served decision value of a reply kept for checking.
type Sampled = Vec<(Vec<f64>, f64)>;

/// What one closed-loop client saw.
struct ClientRun {
    replies: Vec<Instant>,
    failed: usize,
    sampled: Sampled,
}

pub struct ServeOutcome {
    /// Open loop: due time to reply, per answered request.
    pub latency_ms: Vec<f64>,
    /// Open loop: how late the generator submitted each request.
    pub lag_ms: Vec<f64>,
    /// Median over closed-loop segments of replies per second.
    pub capacity_rps: f64,
    pub attempted: usize,
    /// Requests refused or answered with an error.
    pub failed: usize,
    /// Sampled replies whose decision value differs from `predict_one`.
    pub mismatches: Vec<String>,
    pub checked: usize,
    pub snapshot: MetricsSnapshot,
    /// Batch-stage events, when the server was traced.
    pub events: Vec<TraceEvent>,
}

fn is_hot(k: u64, share: f64) -> bool {
    ((k + 1) as f64 * share).floor() > (k as f64 * share).floor()
}

/// Request `k`: a hot-pool point or a fresh point, both from the seed.
fn request(w: &Workload, inputs: &Inputs, k: u64) -> Vec<f64> {
    if is_hot(k, w.hot_share) {
        let i = (k as f64 * w.hot_share) as usize % inputs.hot_pool.len();
        inputs.hot_pool[i].clone()
    } else {
        let mut rng = ChaCha8Rng::seed_from_u64(inputs.seed.rotate_left(17) ^ k);
        feature_row(&mut rng, w.features)
    }
}

/// A deployed model under load. Segments of either loop can alternate
/// with other work; [`Session::finish`] shuts the server down and checks
/// the sampled replies.
pub struct Session<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    model_bytes: &'a [u8],
    server: KernelServer,
    handle: ServeHandle,
    trace: Option<Tracer>,
    /// Next open-loop request id, and next id of each closed-loop client.
    next_open: u64,
    next_closed: u64,
    segment_rps: Vec<f64>,
    sampled: Sampled,
    out: ServeOutcome,
}

impl<'a> Session<'a> {
    /// Starts the server and encodes the hot pool (not measured).
    pub fn start(
        w: &'a Workload,
        inputs: &'a Inputs,
        model_bytes: &'a [u8],
        trace: Option<Tracer>,
    ) -> Session<'a> {
        let cfg = ServeConfig {
            workers: WORKERS,
            max_batch: MAX_BATCH,
            trace: trace.clone(),
            ..ServeConfig::default()
        };
        let server = KernelServer::start(QuantumKernelModel::from_bytes(model_bytes), &cfg);
        let handle = server.handle();
        let mut out = ServeOutcome {
            latency_ms: Vec::new(),
            lag_ms: Vec::new(),
            capacity_rps: f64::NAN,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            checked: 0,
            snapshot: server.snapshot(),
            events: Vec::new(),
        };
        for x in &inputs.hot_pool {
            out.attempted += 1;
            if handle
                .submit(x.clone())
                .and_then(PendingPrediction::wait)
                .is_err()
            {
                out.failed += 1;
            }
        }
        Session {
            w,
            inputs,
            model_bytes,
            server,
            handle,
            trace,
            next_open: 0,
            next_closed: 0,
            segment_rps: Vec::new(),
            sampled: Vec::new(),
            out,
        }
    }

    /// Submits requests at the workload's rate for `length`.
    pub fn open_loop(&mut self, length: Duration) {
        let (w, inputs) = (self.w, self.inputs);
        let count = (length.as_secs_f64() * w.serve_rps).ceil().max(1.0) as u64;
        let first = self.next_open;
        self.next_open += count;
        let requests: Vec<Vec<f64>> = (first..first + count)
            .map(|k| request(w, inputs, k))
            .collect();
        let (tx, rx) = mpsc::channel::<(Duration, Option<PendingPrediction>)>();
        let generator_handle = self.handle.clone();
        let out = &mut self.out;
        let sampled = &mut self.sampled;
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let requests = &requests;
            let lag_ms = s.spawn(move || {
                let mut lag_ms = Vec::with_capacity(requests.len());
                for (i, x) in requests.iter().enumerate() {
                    let due = t0 + Duration::from_secs_f64(i as f64 / w.serve_rps);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let lag = Instant::now().saturating_duration_since(due);
                    lag_ms.push(lag.as_secs_f64() * 1e3);
                    let pending = generator_handle.submit(x.clone()).ok();
                    tx.send((lag, pending))
                        .expect("collector outlives generator");
                }
                lag_ms
            });
            for (i, (lag, pending)) in rx.iter().enumerate() {
                out.attempted += 1;
                match pending.map(PendingPrediction::wait) {
                    Some(Ok(served)) => {
                        out.latency_ms
                            .push((lag + served.latency).as_secs_f64() * 1e3);
                        if (first + i as u64).is_multiple_of(CHECK_EVERY as u64) {
                            sampled.push((requests[i].clone(), served.prediction.decision_value));
                        }
                    }
                    _ => out.failed += 1,
                }
            }
            out.lag_ms
                .extend(lag_ms.join().expect("generator thread panicked"));
        });
    }

    /// Runs `CLIENTS` clients, each sending its next request when the
    /// previous reply arrives, for `length`.
    pub fn closed_loop(&mut self, length: Duration) {
        let (w, inputs) = (self.w, self.inputs);
        let first = self.next_closed;
        let t0 = Instant::now();
        let clients: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let handle = self.handle.clone();
                    s.spawn(move || {
                        let mut run = ClientRun {
                            replies: Vec::new(),
                            failed: 0,
                            sampled: Vec::new(),
                        };
                        let mut k = CLOSED_BASE + c * CLIENT_STRIDE + first;
                        while t0.elapsed() < length {
                            let x = request(w, inputs, k);
                            match handle.submit(x.clone()).and_then(PendingPrediction::wait) {
                                Ok(served) => {
                                    run.replies.push(Instant::now());
                                    if run.replies.len().is_multiple_of(CHECK_EVERY) {
                                        run.sampled.push((x, served.prediction.decision_value));
                                    }
                                }
                                Err(_) => run.failed += 1,
                            }
                            k += 1;
                        }
                        run
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut replies: Vec<Instant> = Vec::new();
        let mut most = 0;
        for mut run in clients {
            self.out.attempted += run.replies.len() + run.failed;
            self.out.failed += run.failed;
            most = most.max(run.replies.len() + run.failed);
            replies.append(&mut run.replies);
            self.sampled.append(&mut run.sampled);
        }
        self.next_closed += most as u64;
        // Replies per second between the first and the last reply: the
        // clients' start-up and the partial batches at the end are left
        // out.
        replies.sort_unstable();
        if let (Some(first), Some(last)) = (replies.first(), replies.last()) {
            self.segment_rps
                .push((replies.len() - 1) as f64 / (*last - *first).as_secs_f64());
        }
    }

    /// Shuts the server down and checks that every sampled reply is
    /// bitwise `predict_one`'s decision value.
    pub fn finish(self) -> ServeOutcome {
        let mut out = self.out;
        out.snapshot = self.server.shutdown();
        if let Some(tracer) = self.trace {
            out.events = tracer.events();
        }
        if !self.segment_rps.is_empty() {
            out.capacity_rps = median(&self.segment_rps);
        }
        let reference = QuantumKernelModel::from_bytes(self.model_bytes);
        let be = CpuBackend::new();
        let stride = self.sampled.len().div_ceil(MAX_CHECKS).max(1);
        for (x, got) in self.sampled.iter().step_by(stride) {
            let want = reference.predict_one(x, &be).decision_value;
            out.checked += 1;
            if want.to_bits() != got.to_bits() {
                out.mismatches.push(format!(
                    "served decision {got} but predict_one gives {want}"
                ));
            }
        }
        out
    }
}
