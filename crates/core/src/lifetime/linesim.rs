//! The accelerated per-line lifetime simulation.

use crate::line::{EccEngine, ManagedLine, Payload};
use crate::payload::{choose_payload, HostMeta, PayloadBufs};
use crate::system::SystemConfig;
use pcm_trace::{BlockStream, WorkloadProfile};
use pcm_util::{child_seed, seeded_rng, simd, DATA_BITS, DATA_BYTES};
use serde::{Deserialize, Serialize};

/// Configuration of one accelerated line simulation.
#[derive(Debug, Clone)]
pub struct LineSimConfig {
    /// The system under evaluation.
    pub system: SystemConfig,
    /// The workload whose blocks the line hosts.
    pub profile: WorkloadProfile,
    /// Real writes simulated per segment before fast-forwarding (the
    /// sampling ratio is `sample_writes / segment length`).
    pub sample_writes: u32,
    /// Horizon: stop after this many per-line demand writes.
    pub max_writes: u64,
}

impl LineSimConfig {
    /// A configuration with sensible campaign defaults: 16 sampled writes
    /// per segment and a horizon of `120 ×` the mean endurance.
    pub fn new(system: SystemConfig, profile: WorkloadProfile) -> Self {
        let horizon = (system.endurance.mean() * 120.0) as u64;
        LineSimConfig {
            system,
            profile,
            sample_writes: 16,
            max_writes: horizon,
        }
    }
}

/// The life story of one simulated line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineRecord {
    /// Per-line write time of the first uncorrectable failure.
    pub first_death: Option<u64>,
    /// Alternating death/revival timestamps: `events[0]` = first death,
    /// `events[1]` = first revival, … (odd length = still dead at the
    /// horizon).
    pub events: Vec<u64>,
    /// Faulty cells when the line last died (paper Fig. 12), if it died.
    pub faults_at_death: Option<u32>,
    /// Faulty cells at every death event, in order (Fig. 12 averages over
    /// these failure events).
    pub death_fault_counts: Vec<u32>,
    /// Total faulty cells at the end of simulation.
    pub final_faults: u32,
    /// Mean programmed cells per demand write (sampled writes only).
    pub mean_flips_per_write: f64,
    /// Total demand writes simulated (sampled + fast-forwarded); the
    /// work metric behind the `pcm-bench-hotpath` writes/sec throughput.
    pub demand_writes: u64,
    /// Horizon used.
    pub horizon: u64,
}

impl LineRecord {
    /// `true` if the line is dead at per-line write time `t`.
    pub fn dead_at(&self, t: u64) -> bool {
        // events alternate death, revival, death, ...
        let idx = self.events.partition_point(|&e| e <= t);
        idx % 2 == 1
    }
}

/// Reusable per-worker scratch for [`simulate_line_with`]: the payload
/// buffer pair is allocated once and shared across every line the worker
/// simulates, so the per-write hot path never touches the heap.
#[derive(Debug, Default)]
pub struct LineScratch {
    pub(crate) bufs: PayloadBufs,
}

impl LineScratch {
    /// Creates fresh scratch buffers.
    pub fn new() -> Self {
        LineScratch::default()
    }
}

/// Simulates one line to its horizon under the accelerated model.
///
/// The line alternates through *residencies* (a hosted block between two
/// inter-line relocations). Each residency is split into segments bounded
/// by intra-line rotations; per segment, `sample_writes` real writes
/// establish the per-cell flip rates, and the rest of the segment is
/// fast-forwarded onto the wear counters.
pub fn simulate_line(cfg: &LineSimConfig, seed: u64) -> LineRecord {
    simulate_line_with(cfg, seed, &mut LineScratch::new())
}

/// [`simulate_line`] with caller-owned scratch buffers, reusable across
/// lines (the campaign runner hands each pool worker one [`LineScratch`]).
// pcm-audit: root(hotpath-alloc) — per-line inner loop of the campaign runner; scratch buffers exist so this chain never allocates
pub fn simulate_line_with(cfg: &LineSimConfig, seed: u64, scratch: &mut LineScratch) -> LineRecord {
    let sys = &cfg.system;
    // pcm-audit: allow(hotpath-alloc) — one-time engine construction per line, outside the write loop
    let engine = EccEngine::new(sys.ecc);
    let mut rng = seeded_rng(child_seed(seed, 0));
    // pcm-audit: allow(hotpath-alloc) — one-time per-line endurance sampling, outside the write loop
    let mut line = ManagedLine::sample_with_tech(&sys.endurance, sys.tech, &mut rng);
    // pcm-audit: allow(hotpath-alloc) — profile clone happens once per residency, amortized over residency_writes writes
    let mut block = BlockStream::new(cfg.profile.clone(), child_seed(seed, 1));
    let mut meta = HostMeta::default();

    let mut writes: u64 = 0;
    let mut rotation: usize = 0;
    let mut residency_left: u64 = sys.residency_writes;
    let mut block_counter: u64 = 2;

    // Death/revival events only happen at residency boundaries (a dead
    // line waits for the next relocation), so the horizon bounds how many
    // can occur; one up-front reservation replaces regrowth in the loop.
    let max_events = if sys.kind.slides() {
        ((cfg.max_writes / sys.residency_writes.max(1)).min(512) as usize + 1) * 2
    } else {
        1
    };
    // pcm-audit: allow(hotpath-alloc) — one up-front reservation per line, outside the write loop
    let mut events: Vec<u64> = Vec::with_capacity(max_events);
    let mut first_death = None;
    let mut faults_at_death = None;
    // pcm-audit: allow(hotpath-alloc) — one up-front reservation per line, outside the write loop
    let mut death_fault_counts: Vec<u32> = Vec::with_capacity(max_events / 2 + 1);
    let mut flip_sum: u64 = 0;
    let mut sampled: u64 = 0;

    let rotation_period = if sys.kind.rotates() {
        sys.rotation_period
    } else {
        u64::MAX
    };

    while writes < cfg.max_writes {
        if line.is_dead() {
            // Dead lines receive no traffic until the next relocation
            // offers a fresh block (and, for Comp+WF, a resurrection
            // check). Other systems never revive: finish early.
            if !sys.kind.slides() {
                break;
            }
            writes += residency_left;
            if writes >= cfg.max_writes {
                break;
            }
            // pcm-audit: allow(hotpath-alloc) — per-residency block refresh, amortized over residency_writes writes
            block = BlockStream::new(cfg.profile.clone(), child_seed(seed, block_counter));
            block_counter += 1;
            meta = HostMeta::default();
            residency_left = sys.residency_writes;
            // Resurrection check with the incoming block's payload size
            // (compressed fallback counts: any storable form revives).
            let (_, _, fallback) = choose_payload(sys, meta, &block.current(), &mut scratch.bufs);
            let preferred = if sys.kind.rotates() { rotation } else { 0 };
            let len = if fallback.is_some() {
                scratch.bufs.fallback().len()
            } else {
                scratch.bufs.chosen().len()
            }
            .min(scratch.bufs.chosen().len());
            if line
                .can_host_with_step(&engine, len, preferred, true, sys.window_step)
                .is_some()
            {
                line.revive();
                // pcm-audit: allow(hotpath-alloc) — stays within the with_capacity reservation made at entry
                events.push(writes);
            }
            continue;
        }

        // Segment length: bounded by the rotation boundary, the residency,
        // and the horizon.
        let to_rotation = if rotation_period == u64::MAX {
            u64::MAX
        } else {
            rotation_period - (writes % rotation_period)
        };
        let seg = residency_left
            .min(to_rotation)
            .min(cfg.max_writes - writes)
            .max(1);
        let k = (cfg.sample_writes as u64).min(seg);

        // Real writes: establish the flip pattern of this segment. Flip
        // masks land in a carry-save bit-plane accumulator and are only
        // expanded to per-bit counts once, at the fast-forward boundary.
        let mut counts = [0u32; DATA_BITS];
        let mut flip_acc = simd::MaskAccumulator::new();
        let mut done: u64 = 0;
        let mut died = false;
        for _ in 0..k {
            let data = block.next_data();
            let (mut method, new_meta, fallback) =
                choose_payload(sys, meta, &data, &mut scratch.bufs);
            meta = new_meta;
            let mut bytes: &[u8] = scratch.bufs.chosen();
            let preferred = if sys.kind.rotates() { rotation } else { 0 };
            // If the heuristic preferred uncompressed but the full line no
            // longer fits while the compressed form would, revert.
            if let Some(fb_method) = fallback {
                if line
                    .can_host_with_step(
                        &engine,
                        bytes.len(),
                        preferred,
                        sys.kind.slides(),
                        sys.window_step,
                    )
                    .is_none()
                    && line
                        .can_host_with_step(
                            &engine,
                            scratch.bufs.fallback().len(),
                            preferred,
                            sys.kind.slides(),
                            sys.window_step,
                        )
                        .is_some()
                {
                    bytes = scratch.bufs.fallback();
                    method = fb_method;
                }
            }
            match line.write_with_step(
                &engine,
                Payload { method, bytes },
                preferred,
                sys.kind.slides(),
                sys.window_step,
            ) {
                Ok(r) => {
                    flip_sum += r.flips as u64;
                    sampled += 1;
                    flip_acc.accumulate(&mut counts, &r.flip_mask.words());
                    meta.last_size = bytes.len();
                    done += 1;
                }
                Err(_) => {
                    died = true;
                    done += 1;
                    break;
                }
            }
        }
        writes += done;
        residency_left = residency_left.saturating_sub(done);

        if died {
            if first_death.is_none() {
                first_death = Some(writes);
            }
            faults_at_death = Some(line.faults().count());
            // pcm-audit: allow(hotpath-alloc) — stays within the with_capacity reservation made at entry
            death_fault_counts.push(line.faults().count());
            // pcm-audit: allow(hotpath-alloc) — stays within the with_capacity reservation made at entry
            events.push(writes);
            continue;
        }

        // Fast-forward the rest of the segment analytically, stopping at
        // the first projected cell failure so fault counts at death stay
        // write-accurate (no multi-fault overshoot within a segment).
        let mut extra = seg - done;
        if extra > 0 && done > 0 {
            flip_acc.drain_into(&mut counts);
            // Stop at the first projected cell failure so fault counts at
            // death stay write-accurate; the scan lives next to the wear
            // slices in `LineWear` instead of making 512 accessor calls.
            extra = line.wear().project_first_failure(&counts, done, extra);
            // The wear grant depends only on the flip count `c` (extra and
            // done are fixed for the segment) and `c` never exceeds `done`,
            // so a small memo table replaces the per-cell f64 divide. A
            // failure granted here lands exactly on the capped boundary;
            // the next sampled write discovers and re-handles it.
            let scale = |c: u32| ((c as u64 * extra) as f64 / done as f64).round() as u32;
            let mut grants = [0u32; DATA_BITS];
            if done <= 64 {
                let mut memo: [Option<u32>; 65] = [None; 65];
                for (pos, &c) in counts.iter().enumerate() {
                    if c != 0 {
                        grants[pos] = *memo[c as usize].get_or_insert_with(|| scale(c));
                    }
                }
            } else {
                for (pos, &c) in counts.iter().enumerate() {
                    if c != 0 {
                        grants[pos] = scale(c);
                    }
                }
            }
            line.add_wear_bulk(&grants);
            writes += extra;
            residency_left = residency_left.saturating_sub(extra);
        }

        // Rotation boundary?
        if sys.kind.rotates() && writes % rotation_period == 0 {
            rotation = (rotation + 1) % DATA_BYTES;
        }

        // Relocation: a fresh block arrives.
        if residency_left == 0 {
            // pcm-audit: allow(hotpath-alloc) — per-residency block refresh, amortized over residency_writes writes
            block = BlockStream::new(cfg.profile.clone(), child_seed(seed, block_counter));
            block_counter += 1;
            meta = HostMeta::default();
            residency_left = sys.residency_writes;
        }
    }

    LineRecord {
        first_death,
        events,
        faults_at_death,
        death_fault_counts,
        final_faults: line.faults().count(),
        mean_flips_per_write: if sampled > 0 {
            flip_sum as f64 / sampled as f64
        } else {
            0.0
        },
        demand_writes: writes,
        horizon: cfg.max_writes,
    }
}

/// Simulates one batch of lines (at most [`pcm_util::BATCH_LANES`] seeds)
/// in lockstep, returning records in seed order.
///
/// This is the campaign's unit of work: lines are handed to pool workers
/// one whole batch at a time, and the lanes advance *together*, one
/// sampled write per round — each round transposes every live lane's next
/// trace write into [`pcm_util::simd::LineBatch64`] planes, compresses
/// them through one `compress_best_batch` kernel call, and then finishes
/// each write (heuristic decision, window checks, cell updates) per lane.
/// A lane that reaches a control-flow boundary — death, revival,
/// fast-forward, rotation, relocation — peels out of the round, replays
/// the scalar boundary logic, and rejoins at its next sampled write.
///
/// Record `i` is byte-identical to `simulate_line_with(cfg, seeds[i], ..)`
/// because compression is a pure function of the line data and every
/// stateful step runs per lane in scalar program order; the differential
/// tests in the `lockstep` module and the campaign suite pin this.
///
/// # Panics
///
/// Panics if more than [`pcm_util::BATCH_LANES`] seeds are passed.
pub fn simulate_line_batch(
    cfg: &LineSimConfig,
    seeds: &[u64],
    scratch: &mut LineScratch,
) -> Vec<LineRecord> {
    super::lockstep::simulate_line_batch_lockstep(cfg, seeds, scratch).0
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

    #[test]
    fn baseline_line_dies_within_expected_scale() {
        // Random-ish content flips each cell ~every other write, so a
        // baseline line should die within a few multiples of endurance.
        let cfg = quick_cfg(SystemKind::Baseline, 2_000.0, SpecApp::Lbm);
        let rec = simulate_line(&cfg, 5);
        let death = rec.first_death.expect("baseline line must die");
        assert!(death > 1_000, "death {death} suspiciously early");
        assert!(death < 60_000, "death {death} suspiciously late");
        assert!(rec.final_faults >= 7, "ECP-6 exhaustion requires 7+ faults");
    }

    #[test]
    fn compwf_outlives_baseline_on_compressible_workload() {
        let base = simulate_line(&quick_cfg(SystemKind::Baseline, 2_000.0, SpecApp::Milc), 9);
        let wf = simulate_line(&quick_cfg(SystemKind::CompWF, 2_000.0, SpecApp::Milc), 9);
        let bd = base.first_death.expect("baseline dies");
        match wf.first_death {
            None => {} // outlived the horizon entirely
            Some(wd) => assert!(
                wd > bd * 2,
                "Comp+WF first death {wd} should far exceed baseline {bd}"
            ),
        }
    }

    #[test]
    fn dead_at_tracks_events() {
        let rec = LineRecord {
            first_death: Some(100),
            events: vec![100, 200, 300],
            faults_at_death: Some(9),
            death_fault_counts: vec![9, 9],
            final_faults: 9,
            mean_flips_per_write: 10.0,
            demand_writes: 1000,
            horizon: 1000,
        };
        assert!(!rec.dead_at(50));
        assert!(rec.dead_at(150));
        assert!(!rec.dead_at(250));
        assert!(rec.dead_at(400));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = quick_cfg(SystemKind::CompW, 1_000.0, SpecApp::Gcc);
        let a = simulate_line(&cfg, 77);
        let b = simulate_line(&cfg, 77);
        assert_eq!(a, b);
    }

    #[test]
    fn compwf_records_revivals_on_highly_compressible_workload() {
        // With sjeng (tiny payloads) a dead line should usually revive.
        let mut cfg = quick_cfg(SystemKind::CompWF, 500.0, SpecApp::Sjeng);
        cfg.max_writes = 2_000_000;
        let rec = simulate_line(&cfg, 3);
        if rec.events.len() >= 2 {
            assert!(rec.events.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
