//! The `qk-tensor` layer probe: an [`ExecutionBackend`] that delegates
//! every primitive to [`CpuBackend`] and counts calls, busy time and the
//! computed work of each. Results are those of the wrapped backend, bit
//! for bit; only the clock reads are added.

use qk_tensor::{Complex64, CpuBackend, ExecutionBackend, Svd};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bytes of one complex double.
const C64_BYTES: u64 = 16;
/// One GEMM in this many, picked at random per thread, is timed; the
/// busy-time estimate scales those by the same factor. The zipper issues
/// GEMMs of a few hundred flops each, so reading the clock around every
/// one would double the time it measures.
const GEMM_SAMPLE: u64 = 16;

/// Counter totals at one instant; subtract two to get a phase's share.
#[derive(Debug, Clone, Copy, Default)]
pub struct TensorCounts {
    pub gemm_calls: u64,
    /// Estimated from the sampled calls.
    pub gemm_ns: u64,
    /// Computed as 8·m·k·n real flops per complex GEMM.
    pub gemm_flop: u64,
    /// Computed as the operand and result bytes each GEMM touches.
    pub gemm_bytes: u64,
    pub svd_calls: u64,
    pub svd_ns: u64,
}

impl std::ops::Sub for TensorCounts {
    type Output = TensorCounts;
    fn sub(self, o: TensorCounts) -> TensorCounts {
        TensorCounts {
            gemm_calls: self.gemm_calls - o.gemm_calls,
            gemm_ns: self.gemm_ns - o.gemm_ns,
            gemm_flop: self.gemm_flop - o.gemm_flop,
            gemm_bytes: self.gemm_bytes - o.gemm_bytes,
            svd_calls: self.svd_calls - o.svd_calls,
            svd_ns: self.svd_ns - o.svd_ns,
        }
    }
}

/// One thread's running totals. Only the owning thread writes them, so
/// an update is a plain load and store, not a locked add; the atomics
/// let other threads read them without tearing. A write is visible to
/// a reader once the writer's work is joined, so nothing depends on
/// when the writing thread exits.
#[derive(Default)]
struct Tally {
    gemm_calls: AtomicU64,
    gemm_ns: AtomicU64,
    gemm_flop: AtomicU64,
    gemm_bytes: AtomicU64,
    svd_calls: AtomicU64,
    svd_ns: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// Every thread's tally, registered on its first call and kept after
/// the thread exits. The benchmark holds one `TimingBackend`, so these
/// are its totals.
static TALLIES: Mutex<Vec<Arc<Tally>>> = Mutex::new(Vec::new());

struct Local {
    tally: Arc<Tally>,
    rng: Cell<u64>,
}

impl Local {
    fn register() -> Local {
        let tally = Arc::new(Tally::default());
        // A poisoned lock still holds a valid list: every update is one
        // push.
        TALLIES
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&tally));
        Local {
            tally,
            rng: Cell::new(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// xorshift64: true for one call in [`GEMM_SAMPLE`] on average.
    fn sample(&self) -> bool {
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x.is_multiple_of(GEMM_SAMPLE)
    }
}

thread_local! {
    static LOCAL: Local = Local::register();
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub struct TimingBackend {
    inner: CpuBackend,
    /// Cost of the clock reads around an empty interval, taken off each
    /// timed GEMM.
    clock_ns: u64,
}

impl Default for TimingBackend {
    fn default() -> Self {
        let mut reads: Vec<u64> = (0..10_001).map(|_| elapsed_ns(Instant::now())).collect();
        reads.sort_unstable();
        TimingBackend {
            inner: CpuBackend::new(),
            clock_ns: reads[reads.len() / 2],
        }
    }
}

impl TimingBackend {
    /// Totals over every thread that has called the backend. A thread
    /// still running may be counted part way.
    pub fn counts(&self) -> TensorCounts {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut sum = TensorCounts::default();
        for t in TALLIES.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            sum.gemm_calls += load(&t.gemm_calls);
            sum.gemm_ns += load(&t.gemm_ns);
            sum.gemm_flop += load(&t.gemm_flop);
            sum.gemm_bytes += load(&t.gemm_bytes);
            sum.svd_calls += load(&t.svd_calls);
            sum.svd_ns += load(&t.svd_ns);
        }
        sum
    }

    fn gemm_with(&self, m: usize, k: usize, n: usize, f: impl FnOnce(&CpuBackend)) {
        LOCAL.with(|local| {
            let gemm_ns = if local.sample() {
                let t0 = Instant::now();
                f(&self.inner);
                elapsed_ns(t0).saturating_sub(self.clock_ns) * GEMM_SAMPLE
            } else {
                f(&self.inner);
                0
            };
            let (m, k, n) = (m as u64, k as u64, n as u64);
            let t = &local.tally;
            bump(&t.gemm_calls, 1);
            bump(&t.gemm_ns, gemm_ns);
            bump(&t.gemm_flop, 8 * m * k * n);
            bump(&t.gemm_bytes, C64_BYTES * (m * k + k * n + m * n));
        });
    }
}

impl ExecutionBackend for TimingBackend {
    fn name(&self) -> &'static str {
        "cpu-serial+timing"
    }

    fn gemm(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[Complex64],
        b: &[Complex64],
        c: &mut [Complex64],
    ) {
        self.gemm_with(m, k, n, |be| be.gemm(m, k, n, a, b, c));
    }

    fn gemm_conj_a(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[Complex64],
        b: &[Complex64],
        c: &mut [Complex64],
    ) {
        self.gemm_with(m, k, n, |be| be.gemm_conj_a(m, k, n, a, b, c));
    }

    fn svd(&self, m: usize, n: usize, a: &[Complex64]) -> Svd {
        let t0 = Instant::now();
        let out = self.inner.svd(m, n, a);
        let svd_ns = elapsed_ns(t0);
        LOCAL.with(|local| {
            bump(&local.tally.svd_calls, 1);
            bump(&local.tally.svd_ns, svd_ns);
        });
        out
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }
}
