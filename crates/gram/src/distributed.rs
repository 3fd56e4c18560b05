//! The paper's two Gram distribution strategies (Section II-D, Fig. 4),
//! as the state phase of [`crate::rank_distributed_gram`].
//!
//! Before its tiles, every rank needs the MPS states of the row and
//! column bands they touch. The strategies differ in how a rank gets
//! them and, with that, in which tiles it owns:
//!
//! * **No-messaging** (Fig. 4a): the plan's bands form `g` contiguous
//!   groups, the smallest `g` with `g(g+1)/2 >= k`. Group pairs are
//!   dealt round-robin to the ranks — off-diagonal pairs first, then
//!   the diagonal ones — and each rank simulates its own groups' bands.
//!   No messages, but a band is simulated on every rank whose pairs
//!   touch its group.
//! * **Round-robin** (Fig. 4b): each rank simulates a contiguous band
//!   share exactly once. Shares travel left around the ring for
//!   `⌊k/2⌋` `send_recv` steps, so after step `s` rank `r` holds share
//!   `r + s`. The tiles between shares `a < b` belong to `a` when
//!   `b - a <= k/2` and to `b` otherwise: whichever meets the other's
//!   share first, with the even ring's last half step going to the
//!   lower half.
//!
//! A rank that needs a band it does not hold (adopting a dead rank's
//! tile, or assembling one no checkpoint kept) simulates it on demand.
//! Every tile still goes through `compute_tile` in the plan's `i < j`
//! operand order, so the kernel is bitwise identical to `GramEngine`
//! for either strategy, any rank count and any tile edge.

use crate::tiles::{band_count, TilePlan};
use crate::timing::PhaseClock;
use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_mpi::{Process, Source};
use qk_mps::{Mps, MpsSimulator, TruncationConfig};
use qk_obs::{TraceLane, TracePhase};
use qk_tensor::backend::ExecutionBackend;
use std::ops::Range;
use std::time::Duration;

/// Tag of ring-rotation messages (the rank protocol's tags start at 101).
const TAG_RING: u32 = 100;

/// How the ranks of a distributed Gram job get their states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Independent tile groups, redundant simulation, zero messages
    /// (Fig. 4a).
    NoMessaging,
    /// Partitioned states passed around a ring (Fig. 4b).
    RoundRobin,
}

/// Which bands each rank simulates up front and which rank owns each
/// tile, for one strategy over one plan.
pub(crate) struct Layout {
    strategy: Strategy,
    /// Round-robin band share of each rank (empty for no-messaging).
    shares: Vec<Range<usize>>,
    /// Bands each rank simulates before the tile phase, ascending.
    simulated: Vec<Vec<usize>>,
    /// Owner rank of each plan tile, by tile index.
    pub(crate) owners: Vec<usize>,
}

impl Layout {
    pub(crate) fn new(strategy: Strategy, plan: &TilePlan, k: usize) -> Layout {
        let bands = band_count(plan.rows, plan.tile);
        match strategy {
            Strategy::NoMessaging => {
                let g = tile_grid_order(k).min(bands);
                let groups = block_ranges(bands, g);
                let group_of: Vec<usize> = (0..g)
                    .flat_map(|a| groups[a].clone().map(move |_| a))
                    .collect();
                let pairs = (0..g)
                    .flat_map(|a| (a + 1..g).map(move |b| (a, b)))
                    .chain((0..g).map(|a| (a, a)));
                let mut pair_owner = vec![0; g * g];
                let mut simulated = vec![Vec::new(); k];
                for (p, (a, b)) in pairs.enumerate() {
                    pair_owner[a * g + b] = p % k;
                    simulated[p % k].extend(groups[a].clone().chain(groups[b].clone()));
                }
                for bands in &mut simulated {
                    bands.sort_unstable();
                    bands.dedup();
                }
                let owners = plan
                    .tiles
                    .iter()
                    .map(|t| pair_owner[group_of[t.bi] * g + group_of[t.bj]])
                    .collect();
                Layout {
                    strategy,
                    shares: Vec::new(),
                    simulated,
                    owners,
                }
            }
            Strategy::RoundRobin => {
                let shares = block_ranges(bands, k);
                let share_of: Vec<usize> = (0..k)
                    .flat_map(|r| shares[r].clone().map(move |_| r))
                    .collect();
                let owners = plan
                    .tiles
                    .iter()
                    .map(|t| {
                        let (a, b) = (share_of[t.bi], share_of[t.bj]);
                        if b - a <= k / 2 {
                            a
                        } else {
                            b
                        }
                    })
                    .collect();
                Layout {
                    strategy,
                    simulated: shares.iter().map(|s| s.clone().collect()).collect(),
                    shares,
                    owners,
                }
            }
        }
    }
}

/// Everything a rank needs to simulate any band itself.
#[derive(Clone, Copy)]
pub(crate) struct Encoder<'a> {
    pub(crate) rows: &'a [Vec<f64>],
    pub(crate) ansatz: &'a AnsatzConfig,
    pub(crate) truncation: &'a TruncationConfig,
    pub(crate) backend: &'a dyn ExecutionBackend,
    pub(crate) tile: usize,
}

impl Encoder<'_> {
    fn band_rows(&self, band: usize) -> Range<usize> {
        let start = band * self.tile;
        start..(start + self.tile).min(self.rows.len())
    }
}

/// One rank's resident states, by band, and what acquiring them cost
/// on the rank's CPU clock.
pub(crate) struct Resident<'a> {
    enc: Encoder<'a>,
    bands: Vec<Option<Vec<Mps>>>,
    pub(crate) clock: PhaseClock,
    pub(crate) simulations: u64,
    pub(crate) bytes_sent: u64,
    pub(crate) simulation_time: Duration,
    pub(crate) communication_time: Duration,
}

impl<'a> Resident<'a> {
    pub(crate) fn new(enc: Encoder<'a>) -> Self {
        Resident {
            bands: vec![None; band_count(enc.rows.len(), enc.tile)],
            enc,
            clock: PhaseClock::new(),
            simulations: 0,
            bytes_sent: 0,
            simulation_time: Duration::ZERO,
            communication_time: Duration::ZERO,
        }
    }

    /// Simulates `band` unless it is already resident.
    pub(crate) fn ensure(&mut self, band: usize, lane: Option<&TraceLane>) {
        if self.bands[band].is_some() {
            return;
        }
        let _t = lane.map(|l| l.span_args(TracePhase::Encode, band as i64, -1));
        let t0 = self.clock.now();
        let states: Vec<Mps> = self.enc.rows[self.enc.band_rows(band)]
            .iter()
            .map(|x| {
                MpsSimulator::new(self.enc.backend)
                    .with_truncation(*self.enc.truncation)
                    .simulate(&feature_map_circuit(x, self.enc.ansatz))
                    .0
            })
            .collect();
        self.simulation_time += self.clock.since(t0);
        self.simulations += states.len() as u64;
        self.bands[band] = Some(states);
    }

    /// A resident band's states.
    ///
    /// # Panics
    /// Panics if the band was never [`Resident::ensure`]d.
    pub(crate) fn band(&self, band: usize) -> &[Mps] {
        self.bands[band].as_deref().expect("band is resident")
    }

    /// The strategy phase: simulate this rank's bands, then (round-robin)
    /// run the ring until every share this rank's tiles need has arrived.
    pub(crate) fn acquire(&mut self, p: &mut Process, layout: &Layout, lane: Option<&TraceLane>) {
        let rank = p.rank();
        for &band in &layout.simulated[rank] {
            self.ensure(band, lane);
        }
        if layout.strategy == Strategy::NoMessaging {
            return;
        }
        let k = p.world_size();
        let t0 = self.clock.now();
        let mut traveling = pack_states(layout.shares[rank].clone().flat_map(|b| self.band(b)));
        for step in 1..=k / 2 {
            self.bytes_sent += traveling.len() as u64;
            traveling = p
                .send_recv(
                    (rank + k - 1) % k,
                    TAG_RING,
                    &traveling,
                    Source::Rank((rank + 1) % k),
                    TAG_RING,
                )
                .payload;
            let mut states = unpack_states(&traveling).into_iter();
            for band in layout.shares[(rank + step) % k].clone() {
                let len = self.enc.band_rows(band).len();
                self.bands[band] = Some(states.by_ref().take(len).collect());
            }
        }
        self.communication_time += self.clock.since(t0);
    }
}

/// Contiguous ranges partitioning `n` items over `k` owners, the first
/// `n % k` one item longer (empty when `k > n`).
fn block_ranges(n: usize, k: usize) -> Vec<Range<usize>> {
    let (base, extra) = (n / k, n % k);
    let mut start = 0;
    (0..k)
        .map(|p| {
            let len = base + usize::from(p < extra);
            start += len;
            start - len..start
        })
        .collect()
}

/// Smallest `g` with `g(g+1)/2 >= k`: the group count that gives every
/// rank at least one group pair.
fn tile_grid_order(k: usize) -> usize {
    let mut g = 1usize;
    while g * (g + 1) / 2 < k {
        g += 1;
    }
    g
}

/// Serializes states as length-prefixed [`Mps::to_bytes`] records.
fn pack_states<'s>(states: impl Iterator<Item = &'s Mps>) -> Vec<u8> {
    let mut out = Vec::new();
    for s in states {
        let bytes = s.to_bytes();
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Inverse of [`pack_states`]; a malformed message aborts the job, as
/// an MPI transport error would.
fn unpack_states(mut bytes: &[u8]) -> Vec<Mps> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let (len, rest) = bytes.split_at_checked(8).expect("truncated ring message");
        let len = u64::from_le_bytes(len.try_into().expect("8-byte length")) as usize;
        let (record, rest) = rest.split_at_checked(len).expect("truncated ring message");
        out.push(
            Mps::try_from_bytes(record).unwrap_or_else(|e| panic!("corrupt ring message: {e}")),
        );
        bytes = rest;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rank_distributed_gram, GramConfig, GramEngine, RankConfig, RankOutcome};
    use qk_tensor::backend::CpuBackend;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn rows(n: usize, m: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..m).map(|j| ((i * m + j) % 11) as f64 * 0.18).collect())
            .collect()
    }

    fn run(data: &[Vec<f64>], tile: usize, k: usize, strategy: Strategy) -> RankOutcome {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "qk-gram-distributed-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let cfg = RankConfig {
            strategy,
            // No deaths are injected, and a falsely dead rank would skew
            // the simulation counts: never time a busy host out.
            hb_timeout: Duration::from_secs(60),
            ..RankConfig::new(k, tile, &root)
        };
        let be = CpuBackend::new();
        let out = rank_distributed_gram(
            data,
            &AnsatzConfig::new(2, 1, 0.6),
            &be,
            &TruncationConfig::default(),
            &cfg,
        );
        let _ = std::fs::remove_dir_all(&root);
        out
    }

    /// All of `data`'s states, simulated as one band.
    fn states(data: &[Vec<f64>]) -> Vec<Mps> {
        let (ansatz, truncation, be) = (
            AnsatzConfig::new(2, 1, 0.6),
            TruncationConfig::default(),
            CpuBackend::new(),
        );
        let mut res = Resident::new(Encoder {
            rows: data,
            ansatz: &ansatz,
            truncation: &truncation,
            backend: &be,
            tile: data.len(),
        });
        res.ensure(0, None);
        res.band(0).to_vec()
    }

    /// Runs the strategy and pins its kernel bitwise to the engine's.
    fn check_strategy(n: usize, tile: usize, k: usize, strategy: Strategy) -> RankOutcome {
        let data = rows(n, 4);
        let out = run(&data, tile, k, strategy);
        let engine = GramEngine::new(GramConfig::in_memory(3));
        let reference = engine
            .compute_gram(&states(&data), &CpuBackend::new())
            .unwrap();
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(out.kernel.data()),
            bits(reference.kernel.data()),
            "{strategy:?} n={n} tile={tile} k={k}"
        );
        assert_eq!(out.report.per_rank.len(), k);
        out
    }

    #[test]
    fn no_messaging_matches_reference() {
        for k in [1usize, 2, 3, 4, 7] {
            check_strategy(9, 2, k, Strategy::NoMessaging);
        }
    }

    #[test]
    fn round_robin_matches_reference_odd_ring() {
        for k in [3usize, 5] {
            check_strategy(10, 2, k, Strategy::RoundRobin);
        }
    }

    #[test]
    fn round_robin_matches_reference_even_ring() {
        for k in [2usize, 4, 6] {
            check_strategy(12, 2, k, Strategy::RoundRobin);
        }
    }

    #[test]
    fn round_robin_with_ragged_blocks() {
        // Ragged last tile, bands not divisible by ranks, and more ranks
        // than bands (empty shares still ride the ring).
        check_strategy(11, 3, 4, Strategy::RoundRobin);
        check_strategy(7, 2, 3, Strategy::RoundRobin);
        check_strategy(7, 3, 5, Strategy::RoundRobin);
    }

    #[test]
    fn round_robin_simulates_each_circuit_once() {
        let out = check_strategy(12, 2, 4, Strategy::RoundRobin);
        let sims: u64 = out.report.per_rank.iter().map(|s| s.simulations).sum();
        let bytes: u64 = out.report.per_rank.iter().map(|s| s.bytes_sent).sum();
        assert_eq!(sims, 12);
        assert!(bytes > 0);
    }

    #[test]
    fn no_messaging_duplicates_simulations() {
        let out = check_strategy(12, 2, 6, Strategy::NoMessaging);
        let sims: u64 = out.report.per_rank.iter().map(|s| s.simulations).sum();
        assert!(sims > 12, "expected redundant simulations, got {sims}");
        assert!(out.report.per_rank.iter().all(|s| s.bytes_sent == 0));
    }

    #[test]
    fn block_ranges_cover_everything() {
        for (n, k) in [(10usize, 3usize), (7, 7), (5, 2), (9, 4), (2, 5)] {
            let blocks = block_ranges(n, k);
            assert_eq!(blocks.len(), k);
            assert_eq!(blocks.iter().map(|r| r.len()).sum::<usize>(), n);
            assert_eq!(blocks[0].start, 0);
            for w in blocks.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn tile_grid_order_bounds() {
        assert_eq!(tile_grid_order(1), 1);
        assert_eq!(tile_grid_order(3), 2);
        assert_eq!(tile_grid_order(4), 3);
        assert_eq!(tile_grid_order(6), 3);
        assert_eq!(tile_grid_order(7), 4);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let states = states(&rows(3, 4));
        let back = unpack_states(&pack_states(states.iter()));
        assert_eq!(back.len(), 3);
        for (a, b) in states.iter().zip(&back) {
            assert_eq!(a.to_bytes(), b.to_bytes());
        }
        assert!(unpack_states(&[]).is_empty());
    }

    #[test]
    fn phase_times_populated() {
        // Enough work per rank that even a tick-granular thread CPU
        // clock registers the compute phases.
        let data = rows(24, 8);
        let out = run(&data, 6, 4, Strategy::RoundRobin);
        let ranks = &out.report.per_rank;
        assert!(ranks.iter().any(|s| s.simulation_time > Duration::ZERO));
        assert!(ranks.iter().any(|s| s.inner_product_time > Duration::ZERO));
        assert!(ranks.iter().all(|s| s.bytes_sent > 0));
    }
}
