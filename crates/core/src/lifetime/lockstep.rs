//! Lockstep multi-lane execution of the accelerated line simulation.
//!
//! [`simulate_line_batch_lockstep`] advances independent lines one
//! *round* at a time: every live lane surfaces its next sampled trace
//! write, the round's payloads are transposed into [`LineBatch64`] lane
//! planes and compressed through one [`compress_best_batch`] kernel
//! call, and then each lane finishes its write — heuristic decision,
//! window checks, cell updates — against its own state in lane order. A
//! lane that reaches a control-flow boundary (death, revival,
//! fast-forward, rotation, relocation, horizon) *peels* out of the
//! round, replays exactly the scalar boundary logic from
//! [`simulate_line_with`](super::linesim::simulate_line_with), and
//! rejoins the next round at its next sampled write.
//!
//! Non-compressing kinds never enter the rounds at all: with no
//! compression stage to batch, round-robin interleaving only trades away
//! L1 residency, so [`simulate_line_batch_lockstep`] runs them through
//! the scalar per-line loop — the same fallback the serve engine's
//! `apply_batch` takes for those kinds.
//!
//! A batch of up to [`BATCH_LANES`] seeds is processed in waves of
//! [`WAVE_LANES`] lanes. Wider waves cost more than they batch: each
//! lane's per-cell state (wear, endurance, flip counters — ~10 KiB) is
//! touched once per round, so the round-robin evicts it from L1 between
//! touches, while the batched compression stage runs the same per-lane
//! kernels either way. The measured sweep on the tracked campaign shape
//! (Comp+WF/milc, 64 lines, endurance 2000) is in EXPERIMENTS.md; 8
//! lanes was the flattest point of the locality/occupancy trade.
//!
//! Byte-identity with the scalar path holds by construction: compression
//! is a pure function of the line data (no `HostMeta` input), lanes share
//! no mutable state (the ECC engine is stateless and the payload scratch
//! is fully overwritten per decision), and every stateful step runs per
//! lane in the same program order as the scalar loop — wave width
//! included, since lanes are independent. The differential tests below
//! and the campaign suite pin this, record for record.

use super::linesim::{simulate_line_with, LineRecord, LineScratch, LineSimConfig};
use crate::line::{EccEngine, ManagedLine, Payload};
use crate::payload::{choose_payload, choose_payload_precompressed, HostMeta, PayloadBufs};
use crate::system::SystemConfig;
use pcm_compress::{compress_best_batch, Method};
use pcm_trace::BlockStream;
use pcm_util::simd::LineBatch64;
use pcm_util::{child_seed, seeded_rng, simd, Line512, BATCH_LANES, DATA_BITS, DATA_BYTES};

/// Where a lane stands between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// At the top of the scalar `while` loop: horizon / dead-line checks
    /// and segment setup run next.
    Top,
    /// Inside a segment's sampled-write loop: `pending` holds the next
    /// trace write once `advance` returns `true`.
    Write,
    /// Reached the horizon (or died without a revival path).
    Done,
}

/// Occupancy statistics of one lockstep batch, for the EXPERIMENTS.md
/// divergence table.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LockstepStats {
    /// Write rounds executed.
    pub rounds: u64,
    /// Rounds in which every lane of the batch contributed a write.
    pub full_rounds: u64,
    /// Sampled writes issued in total.
    pub writes: u64,
    /// Sampled writes issued in rounds with at least two live lanes —
    /// i.e. writes whose compression actually ran shoulder to shoulder.
    pub lockstep_writes: u64,
}

/// One line's complete simulation state, advanced round by round.
///
/// Field names and update order mirror the locals of the scalar
/// `simulate_line_with` loop one for one; see that function for the
/// model-level comments.
struct Lane {
    seed: u64,
    line: ManagedLine,
    block: BlockStream,
    meta: HostMeta,
    writes: u64,
    rotation: usize,
    residency_left: u64,
    block_counter: u64,
    events: Vec<u64>,
    first_death: Option<u64>,
    faults_at_death: Option<u32>,
    death_fault_counts: Vec<u32>,
    flip_sum: u64,
    sampled: u64,
    // Current-segment state.
    counts: [u32; DATA_BITS],
    flip_acc: simd::MaskAccumulator,
    seg: u64,
    k: u64,
    done: u64,
    died: bool,
    pending: Line512,
    phase: Phase,
}

impl Lane {
    fn new(cfg: &LineSimConfig, seed: u64) -> Self {
        let sys = &cfg.system;
        let mut rng = seeded_rng(child_seed(seed, 0));
        // pcm-audit: allow(hotpath-alloc) — one-time per-lane endurance sampling, outside the write rounds
        let line = ManagedLine::sample_with_tech(&sys.endurance, sys.tech, &mut rng);
        // pcm-audit: allow(hotpath-alloc) — profile clone happens once per residency, amortized over residency_writes writes
        let block = BlockStream::new(cfg.profile.clone(), child_seed(seed, 1));
        let max_events = if sys.kind.slides() {
            ((cfg.max_writes / sys.residency_writes.max(1)).min(512) as usize + 1) * 2
        } else {
            1
        };
        Lane {
            seed,
            line,
            block,
            meta: HostMeta::default(),
            writes: 0,
            rotation: 0,
            residency_left: sys.residency_writes,
            block_counter: 2,
            events: Vec::with_capacity(max_events),
            first_death: None,
            faults_at_death: None,
            death_fault_counts: Vec::with_capacity(max_events / 2 + 1),
            flip_sum: 0,
            sampled: 0,
            counts: [0; DATA_BITS],
            flip_acc: simd::MaskAccumulator::new(),
            seg: 0,
            k: 0,
            done: 0,
            died: false,
            pending: Line512::zero(),
            phase: Phase::Top,
        }
    }

    /// Runs the lane forward until it either surfaces its next sampled
    /// write (`true`; the trace line is in `self.pending`) or terminates
    /// (`false`). All boundary logic — dead-line handling, segment setup,
    /// fast-forward, rotation, relocation — replays the scalar loop
    /// verbatim.
    fn advance(
        &mut self,
        cfg: &LineSimConfig,
        engine: &EccEngine,
        rotation_period: u64,
        bufs: &mut PayloadBufs,
    ) -> bool {
        let sys = &cfg.system;
        loop {
            match self.phase {
                Phase::Done => return false,
                Phase::Top => {
                    if self.writes >= cfg.max_writes {
                        self.phase = Phase::Done;
                        return false;
                    }
                    if self.line.is_dead() {
                        if !sys.kind.slides() {
                            self.phase = Phase::Done;
                            return false;
                        }
                        self.writes += self.residency_left;
                        if self.writes >= cfg.max_writes {
                            self.phase = Phase::Done;
                            return false;
                        }
                        let bseed = child_seed(self.seed, self.block_counter);
                        // pcm-audit: allow(hotpath-alloc) — per-residency block refresh, amortized over residency_writes writes
                        self.block = BlockStream::new(cfg.profile.clone(), bseed);
                        self.block_counter += 1;
                        self.meta = HostMeta::default();
                        self.residency_left = sys.residency_writes;
                        let incoming = self.block.current();
                        let (_, _, fallback) = choose_payload(sys, self.meta, &incoming, bufs);
                        let preferred = if sys.kind.rotates() { self.rotation } else { 0 };
                        let len = if fallback.is_some() {
                            bufs.fallback().len()
                        } else {
                            bufs.chosen().len()
                        }
                        .min(bufs.chosen().len());
                        if self
                            .line
                            .can_host_with_step(engine, len, preferred, true, sys.window_step)
                            .is_some()
                        {
                            self.line.revive();
                            // pcm-audit: allow(hotpath-alloc) — stays within the with_capacity reservation made at entry
                            self.events.push(self.writes);
                        }
                        continue;
                    }
                    // Segment setup.
                    let to_rotation = if rotation_period == u64::MAX {
                        u64::MAX
                    } else {
                        rotation_period - (self.writes % rotation_period)
                    };
                    self.seg = self
                        .residency_left
                        .min(to_rotation)
                        .min(cfg.max_writes - self.writes)
                        .max(1);
                    self.k = (cfg.sample_writes as u64).min(self.seg);
                    self.counts.fill(0);
                    self.flip_acc = simd::MaskAccumulator::new();
                    self.done = 0;
                    self.died = false;
                    self.phase = Phase::Write;
                }
                Phase::Write => {
                    if !self.died && self.done < self.k {
                        self.pending = self.block.next_data();
                        return true;
                    }
                    // Segment end: commit the sampled writes, then either
                    // record a death or fast-forward the remainder.
                    self.writes += self.done;
                    self.residency_left = self.residency_left.saturating_sub(self.done);
                    if self.died {
                        if self.first_death.is_none() {
                            self.first_death = Some(self.writes);
                        }
                        self.faults_at_death = Some(self.line.faults().count());
                        // pcm-audit: allow(hotpath-alloc) — stays within the with_capacity reservation made at entry
                        self.death_fault_counts.push(self.line.faults().count());
                        // pcm-audit: allow(hotpath-alloc) — stays within the with_capacity reservation made at entry
                        self.events.push(self.writes);
                        self.phase = Phase::Top;
                        continue;
                    }
                    let mut extra = self.seg - self.done;
                    if extra > 0 && self.done > 0 {
                        self.flip_acc.drain_into(&mut self.counts);
                        extra =
                            self.line
                                .wear()
                                .project_first_failure(&self.counts, self.done, extra);
                        let done = self.done;
                        let scale =
                            |c: u32| ((c as u64 * extra) as f64 / done as f64).round() as u32;
                        let mut grants = [0u32; DATA_BITS];
                        if done <= 64 {
                            let mut memo: [Option<u32>; 65] = [None; 65];
                            for (pos, &c) in self.counts.iter().enumerate() {
                                if c != 0 {
                                    grants[pos] = *memo[c as usize].get_or_insert_with(|| scale(c));
                                }
                            }
                        } else {
                            for (pos, &c) in self.counts.iter().enumerate() {
                                if c != 0 {
                                    grants[pos] = scale(c);
                                }
                            }
                        }
                        self.line.add_wear_bulk(&grants);
                        self.writes += extra;
                        self.residency_left = self.residency_left.saturating_sub(extra);
                    }
                    if sys.kind.rotates() && self.writes % rotation_period == 0 {
                        self.rotation = (self.rotation + 1) % DATA_BYTES;
                    }
                    if self.residency_left == 0 {
                        let bseed = child_seed(self.seed, self.block_counter);
                        // pcm-audit: allow(hotpath-alloc) — per-residency block refresh, amortized over residency_writes writes
                        self.block = BlockStream::new(cfg.profile.clone(), bseed);
                        self.block_counter += 1;
                        self.meta = HostMeta::default();
                        self.residency_left = sys.residency_writes;
                    }
                    self.phase = Phase::Top;
                }
            }
        }
    }

    /// Executes the pending sampled write, optionally with the compression
    /// stage already done by the round's batch kernel (`pre` carries the
    /// lane's method and payload from [`compress_best_batch`]).
    fn apply_pending(
        &mut self,
        sys: &SystemConfig,
        engine: &EccEngine,
        bufs: &mut PayloadBufs,
        pre: Option<(Method, &[u8])>,
    ) {
        let (mut method, new_meta, fallback) = match pre {
            Some((m, payload)) => {
                choose_payload_precompressed(sys, self.meta, &self.pending, m, payload, bufs)
            }
            None => choose_payload(sys, self.meta, &self.pending, bufs),
        };
        self.meta = new_meta;
        let mut bytes: &[u8] = bufs.chosen();
        let preferred = if sys.kind.rotates() { self.rotation } else { 0 };
        if let Some(fb_method) = fallback {
            if self
                .line
                .can_host_with_step(
                    engine,
                    bytes.len(),
                    preferred,
                    sys.kind.slides(),
                    sys.window_step,
                )
                .is_none()
                && self
                    .line
                    .can_host_with_step(
                        engine,
                        bufs.fallback().len(),
                        preferred,
                        sys.kind.slides(),
                        sys.window_step,
                    )
                    .is_some()
            {
                bytes = bufs.fallback();
                method = fb_method;
            }
        }
        match self.line.write_with_step(
            engine,
            Payload { method, bytes },
            preferred,
            sys.kind.slides(),
            sys.window_step,
        ) {
            Ok(r) => {
                self.flip_sum += r.flips as u64;
                self.sampled += 1;
                self.flip_acc
                    .accumulate(&mut self.counts, &r.flip_mask.words());
                self.meta.last_size = bytes.len();
                self.done += 1;
            }
            Err(_) => {
                self.died = true;
                self.done += 1;
            }
        }
    }

    fn into_record(self, cfg: &LineSimConfig) -> LineRecord {
        LineRecord {
            first_death: self.first_death,
            events: self.events,
            faults_at_death: self.faults_at_death,
            death_fault_counts: self.death_fault_counts,
            final_faults: self.line.faults().count(),
            mean_flips_per_write: if self.sampled > 0 {
                self.flip_sum as f64 / self.sampled as f64
            } else {
                0.0
            },
            demand_writes: self.writes,
            horizon: cfg.max_writes,
        }
    }
}

/// Lanes advanced together per wave; see the module docs for the measured
/// locality trade behind this width.
pub(crate) const WAVE_LANES: usize = 8;

/// Simulates `seeds.len()` lines in lockstep rounds (waves of
/// [`WAVE_LANES`] lanes), returning records in seed order plus
/// round-occupancy statistics accumulated across the waves.
///
/// Non-compressing kinds bypass the round machinery entirely (nothing to
/// batch) and return all-zero stats.
// pcm-audit: root(hotpath-alloc) — lockstep stepper of the campaign runner; per-round state lives in fixed lane planes and stack arrays
pub(crate) fn simulate_line_batch_lockstep(
    cfg: &LineSimConfig,
    seeds: &[u64],
    scratch: &mut LineScratch,
) -> (Vec<LineRecord>, LockstepStats) {
    assert!(
        seeds.len() <= BATCH_LANES,
        "a batch holds at most {} lines, got {}",
        BATCH_LANES,
        seeds.len()
    );
    let mut stats = LockstepStats::default();
    if !cfg.system.kind.compresses() {
        let records = seeds
            .iter()
            .map(|&s| simulate_line_with(cfg, s, scratch))
            // pcm-audit: allow(hotpath-alloc) — one record Vec per batch
            .collect();
        return (records, stats);
    }
    // pcm-audit: allow(hotpath-alloc) — one record Vec per batch, filled wave by wave
    let mut records = Vec::with_capacity(seeds.len());
    for wave in seeds.chunks(WAVE_LANES) {
        run_wave(cfg, wave, scratch, &mut stats, &mut records);
    }
    (records, stats)
}

/// Runs one wave of lanes to completion, appending records in seed order.
// pcm-audit: root(hotpath-alloc) — per-wave round loop of the lockstep driver
fn run_wave(
    cfg: &LineSimConfig,
    seeds: &[u64],
    scratch: &mut LineScratch,
    stats: &mut LockstepStats,
    records: &mut Vec<LineRecord>,
) {
    let sys = &cfg.system;
    // pcm-audit: allow(hotpath-alloc) — one stateless engine shared by every lane, constructed once per wave
    let engine = EccEngine::new(sys.ecc);
    let rotation_period = if sys.kind.rotates() {
        sys.rotation_period
    } else {
        u64::MAX
    };
    // pcm-audit: allow(hotpath-alloc) — one Lane per seed, built once per wave outside the write rounds
    let mut lanes: Vec<Lane> = seeds.iter().map(|&s| Lane::new(cfg, s)).collect();

    let mut payloads = [[0u8; DATA_BYTES]; BATCH_LANES];
    let mut methods = [(Method::Uncompressed, 0usize); BATCH_LANES];
    let mut pending_lane = [0usize; BATCH_LANES];
    let mut batch = LineBatch64::new();
    loop {
        batch.clear();
        let mut n_pending = 0usize;
        for (i, lane) in lanes.iter_mut().enumerate() {
            if lane.advance(cfg, &engine, rotation_period, &mut scratch.bufs) {
                pending_lane[n_pending] = i;
                // pcm-audit: allow(hotpath-alloc) — LineBatch64::push transposes into fixed lane planes; no heap involved
                batch.push(&lane.pending);
                n_pending += 1;
            }
        }
        if n_pending == 0 {
            break;
        }
        stats.rounds += 1;
        if n_pending == lanes.len() {
            stats.full_rounds += 1;
        }
        stats.writes += n_pending as u64;
        if n_pending >= 2 {
            stats.lockstep_writes += n_pending as u64;
            compress_best_batch(
                &batch,
                &mut payloads[..n_pending],
                &mut methods[..n_pending],
            );
            for j in 0..n_pending {
                let (m, len) = methods[j];
                lanes[pending_lane[j]].apply_pending(
                    sys,
                    &engine,
                    &mut scratch.bufs,
                    Some((m, &payloads[j][..len])),
                );
            }
        } else {
            // A lone live lane gains nothing from the transpose/gather
            // round-trip: let choose_payload compress it in place, exactly
            // as the scalar path would.
            lanes[pending_lane[0]].apply_pending(sys, &engine, &mut scratch.bufs, None);
        }
    }
    records.extend(lanes.into_iter().map(|l| l.into_record(cfg)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemKind;
    use pcm_trace::SpecApp;

    fn quick_cfg(kind: SystemKind, mean: f64, app: SpecApp) -> LineSimConfig {
        let system = SystemConfig::new(kind).with_endurance_mean(mean);
        let mut cfg = LineSimConfig::new(system, app.profile());
        cfg.sample_writes = 8;
        cfg
    }

    fn scalar_records(cfg: &LineSimConfig, seeds: &[u64]) -> Vec<LineRecord> {
        let mut scratch = LineScratch::new();
        seeds
            .iter()
            .map(|&s| simulate_line_with(cfg, s, &mut scratch))
            .collect()
    }

    fn assert_lockstep_matches_scalar(cfg: &LineSimConfig, n: usize) {
        let seeds: Vec<u64> = (0..n as u64).map(|i| child_seed(0xBA7C4, i)).collect();
        let mut scratch = LineScratch::new();
        let (got, _) = simulate_line_batch_lockstep(cfg, &seeds, &mut scratch);
        let want = scalar_records(cfg, &seeds);
        assert_eq!(
            got, want,
            "lockstep diverged (kind {:?}, n {})",
            cfg.system.kind, n
        );
    }

    #[test]
    fn lockstep_matches_scalar_every_kind() {
        // Low endurance forces the divergence-heavy paths: deaths for
        // every kind, revivals and relocations for Comp+WF, rotations for
        // the wear-leveled kinds.
        for kind in SystemKind::ALL {
            let cfg = quick_cfg(kind, 600.0, SpecApp::Milc);
            assert_lockstep_matches_scalar(&cfg, 9);
        }
    }

    #[test]
    fn lockstep_matches_scalar_at_batch_edges() {
        // A single lane, a full batch, and one short of full — the
        // occupancy bookkeeping must not leak into lane behavior.
        let cfg = quick_cfg(SystemKind::CompWF, 400.0, SpecApp::Sjeng);
        for n in [1usize, 63, 64] {
            assert_lockstep_matches_scalar(&cfg, n);
        }
    }

    #[test]
    fn lockstep_matches_scalar_on_incompressible_data() {
        // lbm's near-random payloads exercise the Uncompressed early
        // return and the heuristic fallback revert.
        for kind in [SystemKind::Comp, SystemKind::CompWF] {
            let cfg = quick_cfg(kind, 900.0, SpecApp::Lbm);
            assert_lockstep_matches_scalar(&cfg, 7);
        }
    }

    #[test]
    fn stats_reflect_round_occupancy() {
        let cfg = quick_cfg(SystemKind::CompWF, 600.0, SpecApp::Milc);
        let seeds: Vec<u64> = (0..16).map(|i| child_seed(7, i)).collect();
        let mut scratch = LineScratch::new();
        let (recs, stats) = simulate_line_batch_lockstep(&cfg, &seeds, &mut scratch);
        assert_eq!(recs.len(), seeds.len());
        assert!(stats.rounds > 0);
        assert!(stats.full_rounds <= stats.rounds);
        assert!(stats.lockstep_writes <= stats.writes);
        // With 16 concurrently-live lanes nearly every write should run in
        // a multi-lane round.
        assert!(
            stats.lockstep_writes * 10 >= stats.writes * 9,
            "expected ≥90% lockstep occupancy, got {}/{}",
            stats.lockstep_writes,
            stats.writes
        );
    }

    #[test]
    fn non_compressing_kinds_take_the_scalar_path() {
        // Baseline has no compression stage to batch, so the driver
        // bypasses the round machinery: records still match the scalar
        // loop (pinned above) and the occupancy stats stay zero.
        let cfg = quick_cfg(SystemKind::Baseline, 600.0, SpecApp::Milc);
        let seeds: Vec<u64> = (0..8).map(|i| child_seed(9, i)).collect();
        let mut scratch = LineScratch::new();
        let (recs, stats) = simulate_line_batch_lockstep(&cfg, &seeds, &mut scratch);
        assert_eq!(recs, scalar_records(&cfg, &seeds));
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.writes, 0);
        assert_eq!(stats.lockstep_writes, 0);
    }

    /// Not an invariant check: prints the per-SystemKind divergence table
    /// for EXPERIMENTS.md (`cargo test -p pcm-core lockstep_divergence -- --nocapture --ignored`).
    #[test]
    #[ignore]
    fn lockstep_divergence_table() {
        for kind in SystemKind::ALL {
            let cfg = quick_cfg(kind, 2_000.0, SpecApp::Milc);
            let seeds: Vec<u64> = (0..64).map(|i| child_seed(300, i)).collect();
            let mut scratch = LineScratch::new();
            let (_, s) = simulate_line_batch_lockstep(&cfg, &seeds, &mut scratch);
            println!(
                "{:?}: rounds {} full {} writes {} lockstep {} ({:.1}%)",
                kind,
                s.rounds,
                s.full_rounds,
                s.writes,
                s.lockstep_writes,
                100.0 * s.lockstep_writes as f64 / s.writes.max(1) as f64,
            );
        }
    }
}
