//! The multi-rank Gram driver: the paper's distribution strategies over
//! simulated MPI ranks, surviving rank death.
//!
//! Each rank first gets its states under the job's [`Strategy`]
//! ([`crate::distributed`]): it simulates its own bands and, under
//! round-robin, receives the rest it needs over the ring. Then the
//! strategy's tile owners compute their tiles; every rank persists its
//! finished tiles into its own checkpoint directory and heartbeats the
//! coordinator (rank 0) after each one. When a rank goes silent past
//! the heartbeat timeout without announcing completion, the coordinator
//! declares it dead ([`qk_mpi::HeartbeatMonitor`]) and partitions the
//! dead rank's tiles over the survivors, who *adopt* them — each
//! orphan is recovered from the dead rank's checkpoint directory when a
//! verified tile file exists there, and recomputed (then persisted by
//! its adopter) otherwise. Assembly at rank 0 reads every tile back
//! from whichever directory holds it, falling back to a local
//! recompute, so the job completes — bitwise identical to a
//! single-process run — as long as rank 0 survives.
//!
//! ## Protocol
//!
//! ```text
//! worker r:  states  READY  [tile, store, HB]*  DONE  ·  recv ASSIGN  adopt*  ADONE  ·  recv FIN  FINACK
//! dead r:    states  READY  [tile, store, HB]*  (death)  drain until FIN  FINACK
//! rank 0:    states  own tiles  ·  recv READY (all)  ·  poll HB/DONE + sweep  ·  ASSIGN→all
//!            adopt own share  ·  recv ADONE (live)  ·  assemble  ·  FIN→all  drain until k-1 FINACKs
//! ```
//!
//! The liveness clock starts only once every rank has sent `READY`, so
//! a rank that is still simulating or exchanging ring messages is never
//! declared dead; the heartbeat timeout only has to cover one tile.
//!
//! Liveness of the exit: every rank's `FINACK` is the last message it
//! deposits, and rank 0 drains its mailbox in FIFO order until it has
//! counted one per peer — so a clean mailbox at exit is guaranteed even
//! when a slow-but-alive rank was conservatively declared dead (it
//! still receives an empty `ASSIGN` and `FIN`, and its stray messages
//! are drained with everything else).
//!
//! Rank 0 is the coordinator and must not be killed;
//! [`qk_chaos::FaultPlan::kill_rank`] refuses rank 0 for exactly this
//! reason. Real deployments would re-elect a coordinator; the drill
//! pins the recovery mechanics, not leader election.

use crate::checkpoint::CheckpointStore;
use crate::distributed::{Encoder, Layout, Resident, Strategy};
use crate::engine::{compute_tile, write_tile};
use crate::fingerprint::{encoding_fingerprint, JobKind, JobSpec};
use crate::tiles::{Tile, TilePlan};
use crate::view::TiledKernel;
use qk_chaos::{Chaos, RetryPolicy};
use qk_circuit::AnsatzConfig;
use qk_mpi::{run_world, HeartbeatMonitor, Process, Source, ANY_TAG};
use qk_mps::{TruncationConfig, ZipperWorkspace};
use qk_obs::{Journal, TraceLane, TracePhase, Tracer};
use qk_tensor::backend::ExecutionBackend;
use std::path::{Path, PathBuf};
use std::time::Duration;

const TAG_HB: u32 = 101;
const TAG_DONE: u32 = 102;
const TAG_ASSIGN: u32 = 103;
const TAG_ADONE: u32 = 104;
const TAG_FIN: u32 = 105;
const TAG_FINACK: u32 = 106;
const TAG_READY: u32 = 107;

/// Configuration for a rank-distributed, death-tolerant Gram job.
#[derive(Debug, Clone)]
pub struct RankConfig {
    /// Simulated MPI ranks (threads), min 1. Rank 0 coordinates.
    pub ranks: usize,
    /// Tile edge length, as in [`crate::GramConfig`].
    pub tile: usize,
    /// How each rank gets its states, which also decides tile ownership.
    pub strategy: Strategy,
    /// Root directory; rank `r` checkpoints under `<root>/rank_<r>`.
    pub checkpoint_root: PathBuf,
    /// Armed fault plan; `rank_death` entries kill workers at tile
    /// boundaries. Disarmed by default.
    pub chaos: Chaos,
    /// Backoff for checkpoint stores (loads fall back to recompute).
    pub retry: RetryPolicy,
    /// Silence budget before the coordinator declares a rank dead.
    /// Must comfortably exceed the cost of one tile.
    pub hb_timeout: Duration,
    /// When set, rank 0 appends `rank_dead` / `rank_job_done` events to
    /// `rank_journal.jsonl` in this directory.
    pub obs_dir: Option<PathBuf>,
    /// Shared trace collector: each rank records onto lane `(rank, 0)`
    /// (state encoding, compute, checkpoint-write, rebalance/adoption,
    /// the coordinator's liveness wait and assembly). Ranks are threads
    /// here, so one tracer epoch yields comparable cross-rank stamps;
    /// the driver writes one shard per rank at job end. `None` = no
    /// tracing.
    pub trace: Option<Tracer>,
}

impl RankConfig {
    /// A default-tolerance round-robin configuration over the given
    /// checkpoint root.
    pub fn new(ranks: usize, tile: usize, checkpoint_root: impl Into<PathBuf>) -> Self {
        RankConfig {
            ranks: ranks.max(1),
            tile: tile.max(1),
            strategy: Strategy::RoundRobin,
            checkpoint_root: checkpoint_root.into(),
            chaos: Chaos::disarmed(),
            retry: RetryPolicy::default(),
            hb_timeout: Duration::from_millis(500),
            obs_dir: None,
            trace: None,
        }
    }
}

/// What one rank did before returning. Times are the rank thread's CPU
/// time ([`crate::timing::PhaseClock`]), so they measure the rank's own
/// work even when ranks outnumber cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankSummary {
    /// Owned tiles this rank completed (and attempted to persist).
    pub tiles_completed: u64,
    /// Orphaned tiles recovered from a dead rank's checkpoint.
    pub tiles_adopted: u64,
    /// Orphaned tiles recomputed (dead rank left no usable file).
    pub tiles_recomputed: u64,
    /// Whether this rank died mid-job (injected death).
    pub died: bool,
    /// Circuits this rank simulated.
    pub simulations: u64,
    /// MPS state bytes this rank sent around the ring (0 under
    /// no-messaging).
    pub bytes_sent: u64,
    /// Time simulating states.
    pub simulation_time: Duration,
    /// Time contracting inner products.
    pub inner_product_time: Duration,
    /// Time packing, exchanging and decoding ring messages.
    pub communication_time: Duration,
}

/// Accounting for a completed rank-distributed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankReport {
    /// Ranks the coordinator declared dead, ascending.
    pub dead_ranks: Vec<usize>,
    /// Orphans recovered from dead ranks' checkpoints, all ranks.
    pub tiles_adopted: u64,
    /// Orphans recomputed by their adopters, all ranks.
    pub tiles_recomputed: u64,
    /// Per-rank outcomes, indexed by rank.
    pub per_rank: Vec<RankSummary>,
}

/// A completed rank-distributed Gram job.
#[derive(Debug)]
pub struct RankOutcome {
    /// The assembled kernel, bitwise identical to a single-process run.
    pub kernel: TiledKernel,
    /// Recovery accounting.
    pub report: RankReport,
}

/// One rank's thread-body result, merged by the driver.
enum RankRun {
    Coordinator {
        kernel: TiledKernel,
        dead: Vec<usize>,
        summary: RankSummary,
    },
    Worker(RankSummary),
}

/// What every rank shares: inputs, plan, checkpoint spec and layout.
struct Job<'a> {
    enc: Encoder<'a>,
    cfg: &'a RankConfig,
    plan: TilePlan,
    spec: JobSpec,
    layout: Layout,
}

/// Computes the symmetric Gram matrix of `rows`' feature-map states
/// over simulated MPI ranks, distributing the states by
/// `cfg.strategy` and tolerating (injected) worker-rank deaths via
/// heartbeat detection and checkpoint adoption.
///
/// # Panics
/// Panics if `rows` is empty or rank 0's checkpoint root is entirely
/// unusable *and* a protocol message is lost — in the spirit of
/// [`qk_mpi::run_world`], unrecoverable protocol errors abort the job.
pub fn rank_distributed_gram(
    rows: &[Vec<f64>],
    ansatz: &AnsatzConfig,
    backend: &dyn ExecutionBackend,
    truncation: &TruncationConfig,
    cfg: &RankConfig,
) -> RankOutcome {
    assert!(!rows.is_empty(), "need at least one data point");
    let n = rows.len();
    let plan = TilePlan::symmetric(n, cfg.tile);
    let job = Job {
        enc: Encoder {
            rows,
            ansatz,
            truncation,
            backend,
            tile: cfg.tile,
        },
        cfg,
        spec: JobSpec {
            encoding: encoding_fingerprint(ansatz, truncation),
            kind: JobKind::Train,
            rows: n,
            cols: n,
            tile: cfg.tile,
        },
        layout: Layout::new(cfg.strategy, &plan, cfg.ranks),
        plan,
    };

    let runs: Vec<RankRun> = run_world(cfg.ranks, |p| {
        let mut rank = RankCtx::new(&job, p.rank());
        rank.res.acquire(p, &job.layout, rank.lane.as_ref());
        if p.rank() == 0 {
            coordinator(p, rank)
        } else {
            p.send(0, TAG_READY, &[]);
            worker(p, rank)
        }
    });

    let mut per_rank = Vec::with_capacity(cfg.ranks);
    let mut kernel = None;
    let mut dead_ranks = Vec::new();
    for run in runs {
        match run {
            RankRun::Coordinator {
                kernel: k,
                dead,
                summary,
            } => {
                kernel = Some(k);
                dead_ranks = dead;
                per_rank.push(summary);
            }
            RankRun::Worker(summary) => per_rank.push(summary),
        }
    }
    let tiles_adopted = per_rank.iter().map(|s| s.tiles_adopted).sum();
    let tiles_recomputed = per_rank.iter().map(|s| s.tiles_recomputed).sum();
    RankOutcome {
        kernel: kernel.expect("rank 0 assembled the kernel"),
        report: RankReport {
            dead_ranks,
            tiles_adopted,
            tiles_recomputed,
            per_rank,
        },
    }
}

/// `<root>/rank_<r>`.
fn rank_dir(root: &Path, rank: usize) -> PathBuf {
    root.join(format!("rank_{rank}"))
}

/// One rank's working set: its resident states, checkpoint store,
/// zipper workspace, trace lane and running counters.
struct RankCtx<'a> {
    job: &'a Job<'a>,
    rank: usize,
    res: Resident<'a>,
    store: Option<CheckpointStore>,
    ws: ZipperWorkspace,
    lane: Option<TraceLane>,
    summary: RankSummary,
}

impl<'a> RankCtx<'a> {
    fn new(job: &'a Job<'a>, rank: usize) -> Self {
        RankCtx {
            job,
            rank,
            res: Resident::new(job.enc),
            store: CheckpointStore::open(&rank_dir(&job.cfg.checkpoint_root, rank), &job.spec).ok(),
            ws: ZipperWorkspace::new(),
            lane: job.cfg.trace.as_ref().map(|t| t.lane(rank as u32, 0)),
            summary: RankSummary {
                tiles_completed: 0,
                tiles_adopted: 0,
                tiles_recomputed: 0,
                died: false,
                simulations: 0,
                bytes_sent: 0,
                simulation_time: Duration::ZERO,
                inner_product_time: Duration::ZERO,
                communication_time: Duration::ZERO,
            },
        }
    }

    /// Tile indices this rank owns under the job's layout.
    fn owned(&self) -> Vec<usize> {
        let owners = &self.job.layout.owners;
        (0..owners.len())
            .filter(|&i| owners[i] == self.rank)
            .collect()
    }

    /// Computes one tile from the resident states, simulating any band
    /// this rank does not hold.
    fn compute(&mut self, tile: &Tile) -> Vec<f64> {
        self.res.ensure(tile.bi, self.lane.as_ref());
        self.res.ensure(tile.bj, self.lane.as_ref());
        let t0 = self.res.clock.now();
        let mut payload = vec![0.0; tile.len()];
        compute_tile(
            tile,
            JobKind::Train,
            self.res.band(tile.bi),
            self.res.band(tile.bj),
            self.job.enc.backend,
            &mut self.ws,
            &mut payload,
        );
        self.summary.inner_product_time += self.res.clock.since(t0);
        payload
    }

    /// Best-effort persist under the retry policy (a rank that cannot
    /// persist still makes progress; assembly recomputes what it cannot
    /// read back).
    fn persist(&self, tile: &Tile, payload: &[f64]) {
        if let Some(store) = &self.store {
            let _ = self.job.cfg.retry.run(|| store.store(tile, payload)).result;
        }
    }

    /// Restore-else-compute for an owned tile.
    fn materialize(&mut self, tile: &Tile) {
        if let Some(store) = &self.store {
            if let Ok(Some(_)) = store.load(tile) {
                return;
            }
        }
        let payload = {
            let _t = self
                .lane
                .as_ref()
                .map(|l| l.span_args(TracePhase::Compute, tile.bi as i64, tile.bj as i64));
            self.compute(tile)
        };
        let _t = self
            .lane
            .as_ref()
            .map(|l| l.span_args(TracePhase::CheckpointWrite, tile.bi as i64, tile.bj as i64));
        self.persist(tile, &payload);
    }

    /// Adopts the orphaned tiles in `assigned`: recover each from the
    /// dead owner's checkpoint, else recompute and persist it into this
    /// rank's own directory.
    fn adopt(&mut self, assigned: &[u64]) {
        for &idx in assigned {
            let tile = self.job.plan.tiles[idx as usize];
            let _t = self
                .lane
                .as_ref()
                .map(|l| l.span_args(TracePhase::Rebalance, tile.bi as i64, tile.bj as i64));
            let dead_rank = self.job.layout.owners[idx as usize];
            let dead_dir = rank_dir(&self.job.cfg.checkpoint_root, dead_rank);
            if load_from_dir(&dead_dir, &self.job.spec, &tile).is_some() {
                self.summary.tiles_adopted += 1;
            } else {
                let payload = self.compute(&tile);
                self.persist(&tile, &payload);
                self.summary.tiles_recomputed += 1;
            }
        }
    }

    /// The final summary, with the state phase's costs folded in.
    fn finish(self, died: bool) -> RankSummary {
        RankSummary {
            died,
            simulations: self.res.simulations,
            bytes_sent: self.res.bytes_sent,
            simulation_time: self.res.simulation_time,
            communication_time: self.res.communication_time,
            ..self.summary
        }
    }
}

/// A verified read of `tile` from some rank's checkpoint directory:
/// `None` unless the directory holds a matching manifest *and* a tile
/// file that passes checksum and geometry checks.
fn load_from_dir(dir: &Path, spec: &JobSpec, tile: &Tile) -> Option<Vec<f64>> {
    CheckpointStore::open(dir, spec)
        .ok()
        .and_then(|store| store.load(tile).ok().flatten())
}

fn encode_indices(indices: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(indices.len() * 8);
    for idx in indices {
        out.extend_from_slice(&idx.to_le_bytes());
    }
    out
}

fn decode_indices(bytes: &[u8]) -> Vec<u64> {
    assert!(bytes.len().is_multiple_of(8), "corrupt assignment payload");
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// The worker-rank body (`rank > 0`). See the module docs for the
/// message sequence; death is simulated by abandoning the compute loop
/// and draining messages until `FIN` (a dead process answers nothing,
/// but the drill must leave the simulated mailboxes clean).
fn worker(p: &mut Process, mut rank: RankCtx) -> RankRun {
    let job = rank.job;
    let death_at = job.cfg.chaos.rank_death(rank.rank);
    for idx in rank.owned() {
        if death_at == Some(rank.summary.tiles_completed) {
            return limbo(p, rank);
        }
        rank.materialize(&job.plan.tiles[idx]);
        rank.summary.tiles_completed += 1;
        p.send(0, TAG_HB, &rank.summary.tiles_completed.to_le_bytes());
    }
    if death_at == Some(rank.summary.tiles_completed) {
        return limbo(p, rank);
    }
    p.send(0, TAG_DONE, &[]);

    // Waiting for the coordinator's (re)assignment is this rank's
    // queue-wait: it ends the moment orphan rebalancing is decided.
    let wait_start = rank.lane.as_ref().map(|l| l.stamp());
    let assigned = decode_indices(&p.recv(Source::Rank(0), TAG_ASSIGN).payload);
    if let (Some(l), Some(t0)) = (&rank.lane, wait_start) {
        l.record_since(t0, TracePhase::QueueWait, assigned.len() as i64, -1);
    }
    rank.adopt(&assigned);
    let counts = [rank.summary.tiles_adopted, rank.summary.tiles_recomputed];
    p.send(0, TAG_ADONE, &encode_indices(&counts));

    let fin = p.recv(Source::Rank(0), TAG_FIN);
    debug_assert_eq!(fin.tag, TAG_FIN);
    p.send(0, TAG_FINACK, &[]);
    RankRun::Worker(rank.finish(false))
}

/// A dead rank's afterlife: consume every coordinator message so the
/// world exits with clean mailboxes, acknowledging only the final FIN.
fn limbo(p: &mut Process, rank: RankCtx) -> RankRun {
    loop {
        let m = p.recv(Source::Rank(0), ANY_TAG);
        if m.tag == TAG_FIN {
            p.send(0, TAG_FINACK, &[]);
            return RankRun::Worker(rank.finish(true));
        }
    }
}

/// The coordinator body (rank 0): own share, readiness and liveness
/// polls, orphan re-planning, adoption share, assembly, and the
/// FIN/FINACK epilogue.
fn coordinator(p: &mut Process, mut rank: RankCtx) -> RankRun {
    let job = rank.job;
    let cfg = job.cfg;
    let n = job.plan.rows;
    let journal = cfg.obs_dir.as_ref().and_then(|dir| {
        std::fs::create_dir_all(dir).ok()?;
        Journal::open(&dir.join("rank_journal.jsonl")).ok()
    });
    for idx in rank.owned() {
        rank.materialize(&job.plan.tiles[idx]);
        rank.summary.tiles_completed += 1;
    }

    // Liveness poll: beats and completions arrive while we sweep for
    // overdue ranks. The monitor's clock starts only after every READY,
    // so no rank is judged while it is still getting its states. Only
    // HB/DONE can be in flight toward rank 0 afterwards — nobody sends
    // ADONE or FINACK before receiving ASSIGN / FIN. The whole poll is
    // the coordinator's queue-wait: it ends when every rank has settled
    // (done or declared dead).
    let poll_start = rank.lane.as_ref().map(|l| l.stamp());
    for r in 1..cfg.ranks {
        p.recv(Source::Rank(r), TAG_READY);
    }
    let mut monitor = HeartbeatMonitor::new(cfg.ranks, cfg.hb_timeout);
    monitor.mark_done(0);
    while !monitor.all_settled() {
        while let Some(m) = p.try_recv(Source::Any, ANY_TAG) {
            match m.tag {
                TAG_HB => monitor.beat(m.src),
                TAG_DONE => monitor.mark_done(m.src),
                other => unreachable!("unexpected tag {other} during liveness poll"),
            }
        }
        for dead in monitor.sweep() {
            eprintln!("qk-gram: rank {dead} declared dead (heartbeat timeout)");
            if let Some(j) = &journal {
                j.event("rank_dead").field_u64("rank", dead as u64).log();
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let dead = monitor.dead();
    let live = monitor.live();
    if let (Some(l), Some(t0)) = (&rank.lane, poll_start) {
        l.record_since(t0, TracePhase::QueueWait, dead.len() as i64, -1);
    }

    // Re-plan: orphaned tiles round-robin over the survivors (rank 0
    // included). Every non-zero rank gets an ASSIGN — believed-dead
    // ranks drain theirs in limbo, and a slow-but-alive rank that was
    // conservatively swept still gets an (empty) assignment so it can
    // run its epilogue instead of blocking forever.
    let orphans: Vec<u64> = (0..job.plan.tiles.len())
        .filter(|&i| dead.contains(&job.layout.owners[i]))
        .map(|i| i as u64)
        .collect();
    let mut share: Vec<Vec<u64>> = vec![Vec::new(); cfg.ranks];
    for (k, &idx) in orphans.iter().enumerate() {
        share[live[k % live.len()]].push(idx);
    }
    for (r, assigned) in share.iter().enumerate().skip(1) {
        p.send(r, TAG_ASSIGN, &encode_indices(assigned));
    }
    rank.adopt(&share[0]);
    // Workers' ADONE counts gate assembly (their adopted tiles are on
    // disk once acknowledged); the totals are re-derived from the
    // per-rank summaries by the driver, so only rank 0's own share
    // lands in its summary.
    let mut peer_adoptions = 0u64;
    for &r in live.iter().filter(|&&r| r != 0) {
        let counts = decode_indices(&p.recv(Source::Rank(r), TAG_ADONE).payload);
        peer_adoptions += counts[0] + counts[1];
    }
    debug_assert_eq!(
        rank.summary.tiles_adopted + rank.summary.tiles_recomputed + peer_adoptions,
        orphans.len() as u64,
        "every orphan is accounted for"
    );

    // Assembly: read every tile back from whichever rank directory
    // holds a verified copy (owner first — adopters recompute into
    // their own directories), recomputing locally as the last resort so
    // the job always completes.
    let mut data = vec![0.0; n * n];
    let stores: Vec<Option<CheckpointStore>> = (0..cfg.ranks)
        .map(|r| CheckpointStore::open(&rank_dir(&cfg.checkpoint_root, r), &job.spec).ok())
        .collect();
    for (idx, tile) in job.plan.tiles.iter().enumerate() {
        let _t = rank
            .lane
            .as_ref()
            .map(|l| l.span_args(TracePhase::Assemble, tile.bi as i64, tile.bj as i64));
        let first = job.layout.owners[idx];
        let payload = (0..cfg.ranks)
            .map(|k| (first + k) % cfg.ranks)
            .find_map(|r| stores[r].as_ref().and_then(|s| s.load(tile).ok().flatten()))
            .unwrap_or_else(|| rank.compute(tile));
        write_tile(&mut data, n, JobKind::Train, tile, &payload);
    }

    // Epilogue: FIN everyone, then drain until every peer's FINACK has
    // arrived. FINACK is the last message any rank sends, so counting
    // k-1 of them proves the mailbox holds nothing else.
    for r in 1..cfg.ranks {
        p.send(r, TAG_FIN, &[]);
    }
    let mut acks = 0usize;
    while acks < cfg.ranks - 1 {
        if p.recv(Source::Any, ANY_TAG).tag == TAG_FINACK {
            acks += 1;
        }
    }
    if let Some(j) = &journal {
        // The coordinator's comm profile (bytes moved, time blocked in
        // recv) rides along so a trace investigation can tell a
        // communication-bound run from a compute-bound one.
        let comm = p.stats();
        j.event("rank_job_done")
            .field_u64("dead_ranks", dead.len() as u64)
            .field_u64("tiles_orphaned", orphans.len() as u64)
            .field_u64("comm_bytes", comm.bytes_total() as u64)
            .field_u64("comm_messages", comm.messages_total() as u64)
            .field_u64("comm_blocked_us", comm.blocked_us())
            .log();
        let _ = j.flush();
    }

    RankRun::Coordinator {
        kernel: TiledKernel::from_parts(n, data),
        dead,
        summary: rank.finish(false),
    }
}
