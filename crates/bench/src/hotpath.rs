//! The `pcm-bench-hotpath` subsystem: measures the simulator's real hot
//! paths and emits machine-readable `BENCH_hotpath.json` so every PR
//! has a perf baseline to move (DESIGN.md §9).
//!
//! Measured paths:
//!
//! 1. `compress_best` throughput (lines/sec) over workload-shaped and
//!    random content,
//! 2. `Line512` kernels — XOR/popcount, windowed popcount, byte rotation,
//!    differential-write and Flip-N-Write encoding,
//! 3. `simulate_line` throughput (simulated demand writes/sec) per
//!    `SystemKind` × `EccChoice`, plus the lockstep batch driver pushing a
//!    full 64-lane wave through `simulate_line_batch` (`campaign/lockstep`),
//! 4. `pcm_util::Pool` scheduling (threads ∈ {1, 2, 4, 8}, balanced vs.
//!    skewed job cost),
//! 5. the serve engine's per-bank batched write path — a scripted traffic
//!    replay through `Engine::run_script` (`serve/bank_batch`),
//! 6. Fig-9 Monte-Carlo points — injections/sec of `failure_probability`
//!    for Aegis 17×31 and SAFER-32 at a 32-byte window near their 50%
//!    failure transition (`mc/*`),
//! 7. end-to-end campaign wall-clock.
//!
//! Every benchmark also folds its outputs into a seed-stable checksum, so
//! two runs with the same `--seed` must agree on every non-timing field —
//! the determinism regression test diffs exactly that (JSON with timing
//! lines stripped), and an optimized kernel that changes any observable
//! value is caught immediately.

use criterion::{Criterion, Throughput};
use pcm_core::lifetime::{
    run_campaign, simulate_line, simulate_line_batch, CampaignConfig, LineScratch, LineSimConfig,
};
use pcm_core::{EccChoice, SystemConfig, SystemKind};
use pcm_device::{diff_write, diff_write_batch, flip_n_write_batch, FlipNWrite};
use pcm_ecc::{failure_probability, Aegis, HardErrorScheme, MonteCarlo, Safer};
use pcm_serve::{Engine, ServeConfig, TrafficGen};
use pcm_trace::{BlockStream, SpecApp};
use pcm_util::{child_seed, seeded_rng, simd, Line512, LineBatch64, Pool, BATCH_LANES, DATA_BYTES};
use std::time::{Duration, Instant};

/// Options of the `pcm-bench-hotpath` binary.
#[derive(Debug, Clone)]
pub struct HotpathOptions {
    /// Seconds-scale run for CI gates: tiny batches and campaigns.
    pub smoke: bool,
    /// Base seed for all generated content and simulations.
    pub seed: u64,
    /// Campaign worker threads; 0 selects available parallelism.
    pub threads: usize,
    /// Output path for the JSON report.
    pub out: String,
    /// Tracked report to ratchet against (see [`crate::ratchet`]); none
    /// skips the comparison.
    pub ratchet: Option<String>,
    /// Throughput floor factor for the ratchet comparison.
    pub ratchet_min: f64,
}

impl Default for HotpathOptions {
    fn default() -> Self {
        HotpathOptions {
            smoke: false,
            seed: 2017,
            threads: 0,
            out: "BENCH_hotpath.json".into(),
            ratchet: None,
            ratchet_min: crate::ratchet::DEFAULT_MIN_RATIO,
        }
    }
}

impl HotpathOptions {
    /// Parses `--smoke`, `--seed N`, `--threads N|auto`, `--out PATH` from
    /// the process arguments.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses options from an explicit iterator (testable).
    ///
    /// # Panics
    ///
    /// Panics on unknown flags or malformed values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = HotpathOptions::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--seed" => {
                    let v = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                    opts.seed = v
                        .parse()
                        .unwrap_or_else(|_| usage("--seed needs an integer"));
                }
                "--threads" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| usage("--threads needs a value"));
                    opts.threads = if v == "auto" {
                        0
                    } else {
                        v.parse()
                            .unwrap_or_else(|_| usage("--threads needs an integer or 'auto'"))
                    };
                }
                "--out" => {
                    opts.out = it.next().unwrap_or_else(|| usage("--out needs a path"));
                }
                "--ratchet" => {
                    opts.ratchet =
                        Some(it.next().unwrap_or_else(|| usage("--ratchet needs a path")));
                }
                "--ratchet-min" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| usage("--ratchet-min needs a value"));
                    opts.ratchet_min = v
                        .parse()
                        .ok()
                        .filter(|r: &f64| r.is_finite() && *r > 0.0)
                        .unwrap_or_else(|| usage("--ratchet-min needs a positive number"));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        opts
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: pcm-bench-hotpath [--smoke] [--seed N] [--threads N|auto] [--out PATH] \
         [--ratchet TRACKED.json] [--ratchet-min F]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// One micro-benchmark in the report.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Benchmark id, `group/name`.
    pub id: String,
    /// What one throughput element is ("lines", "ops", "writes").
    pub unit: &'static str,
    /// Seed-stable checksum over the benchmark's outputs.
    pub checksum: u64,
    /// Iterations per measured batch.
    pub iters: u64,
    /// Median per-iteration nanoseconds.
    pub median_ns: f64,
    /// Median absolute deviation of the per-iteration nanoseconds.
    pub mad_ns: f64,
    /// Throughput in `unit`s per second.
    pub per_second: Option<f64>,
}

/// One end-to-end campaign in the report.
#[derive(Debug, Clone)]
pub(crate) struct CampaignEntry {
    /// Campaign label, e.g. `campaign/CompWF/milc`.
    pub label: String,
    /// Wall-clock milliseconds of `run_campaign`.
    pub wall_ms: f64,
    /// Total simulated demand writes across all lines.
    pub demand_writes: u64,
    /// The campaign statistics (must be bit-identical across runs and
    /// thread counts).
    pub stats: pcm_core::lifetime::LifetimeResult,
}

/// The full report behind `BENCH_hotpath.json`.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Seed the run used.
    pub seed: u64,
    /// Whether this was a `--smoke` run.
    pub smoke: bool,
    /// Requested campaign threads (0 = auto).
    pub threads: usize,
    /// Measured batches per micro-benchmark.
    pub batches: usize,
    /// Micro-benchmarks, in run order.
    pub benches: Vec<BenchEntry>,
    /// End-to-end campaigns, in run order.
    pub(crate) campaigns: Vec<CampaignEntry>,
}

impl HotpathReport {
    /// Number of end-to-end campaign entries in the report.
    pub fn campaign_count(&self) -> usize {
        self.campaigns.len()
    }
}

fn mix(h: u64, v: u64) -> u64 {
    // SplitMix64 finalizer fold: order-sensitive, seed-stable.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix_f64(h: u64, v: f64) -> u64 {
    mix(h, v.to_bits())
}

/// Workload-shaped lines: a few blocks from each of four SPEC profiles.
fn workload_lines(seed: u64, per_app: usize) -> Vec<Line512> {
    let mut lines = Vec::with_capacity(per_app * 4);
    for (i, app) in [SpecApp::Milc, SpecApp::Gcc, SpecApp::Sjeng, SpecApp::Lbm]
        .into_iter()
        .enumerate()
    {
        let mut stream = BlockStream::new(app.profile(), child_seed(seed, i as u64));
        for _ in 0..per_app {
            lines.push(stream.next_data());
        }
    }
    lines
}

fn record_checksum(r: &pcm_core::lifetime::LineRecord) -> u64 {
    let mut h = 0u64;
    h = mix(h, r.first_death.unwrap_or(u64::MAX));
    for &e in &r.events {
        h = mix(h, e);
    }
    h = mix(h, r.final_faults as u64);
    h = mix_f64(h, r.mean_flips_per_write);
    h = mix(h, r.demand_writes);
    h
}

fn stats_checksum(s: &pcm_core::lifetime::LifetimeResult) -> u64 {
    let mut h = 0u64;
    h = mix(h, s.writes_to_half_capacity.unwrap_or(u64::MAX));
    if let Some((lo, hi)) = s.half_capacity_ci {
        h = mix(mix(h, lo), hi);
    }
    h = mix_f64(h, s.mean_faults_at_death.unwrap_or(-1.0));
    h = mix_f64(h, s.mean_flips_per_write);
    h = mix_f64(h, s.lines_died);
    h = mix_f64(h, s.lines_revived);
    h
}

/// The linesim configurations measured: `SystemKind` × `EccChoice`.
fn linesim_matrix(smoke: bool) -> Vec<(SystemKind, EccChoice)> {
    let kinds: &[SystemKind] = if smoke {
        &[SystemKind::Baseline, SystemKind::CompWF]
    } else {
        &SystemKind::ALL
    };
    let eccs: &[EccChoice] = if smoke {
        &[EccChoice::Ecp6]
    } else {
        &[EccChoice::Ecp6, EccChoice::Safer32]
    };
    let mut out = Vec::new();
    for &kind in kinds {
        for &ecc in eccs {
            out.push((kind, ecc));
        }
    }
    out
}

/// Runs the full hot-path suite and returns the report.
pub fn run(opts: &HotpathOptions) -> HotpathReport {
    let (batch, batches) = if opts.smoke {
        (Duration::from_millis(2), 3)
    } else {
        (Duration::from_millis(100), 5)
    };
    let mut c = Criterion::default()
        .measurement_time(batch)
        .sample_size(batches);
    let mut entries: Vec<(&'static str, u64)> = Vec::new(); // (unit, checksum) per bench

    // --- 1. compress_best lines/sec ------------------------------------
    let per_app = if opts.smoke { 64 } else { 512 };
    let wl = workload_lines(opts.seed, per_app);
    let rl: Vec<Line512> = {
        let mut rng = seeded_rng(child_seed(opts.seed, 100));
        (0..wl.len()).map(|_| Line512::random(&mut rng)).collect()
    };
    for (name, lines) in [("workload", &wl), ("random", &rl)] {
        let checksum = lines.iter().fold(0u64, |h, l| {
            let c = pcm_compress::compress_best(l);
            mix(mix(h, c.method().encode_5bit() as u64), c.size() as u64)
        });
        let mut g = c.benchmark_group("compress_best");
        g.throughput(Throughput::Elements(lines.len() as u64));
        g.bench_function(name, |b| {
            b.iter(|| {
                lines
                    .iter()
                    .fold(0usize, |acc, l| acc + pcm_compress::compress_best(l).size())
            })
        });
        g.finish();
        entries.push(("lines", checksum));
    }

    // --- 2. Line512 kernels --------------------------------------------
    let pairs: Vec<(Line512, Line512)> = {
        let mut rng = seeded_rng(child_seed(opts.seed, 200));
        (0..64)
            .map(|_| (Line512::random(&mut rng), Line512::random(&mut rng)))
            .collect()
    };
    {
        let checksum = pairs
            .iter()
            .fold(0u64, |h, (a, b)| mix(h, a.hamming_distance(b) as u64));
        let mut g = c.benchmark_group("kernels");
        g.throughput(Throughput::Elements(pairs.len() as u64));
        g.bench_function("xor_popcount", |b| {
            b.iter(|| {
                pairs
                    .iter()
                    .map(|(x, y)| x.hamming_distance(y))
                    .sum::<u32>()
            })
        });
        g.finish();
        entries.push(("ops", checksum));
    }
    {
        let checksum = pairs.iter().enumerate().fold(0u64, |h, (i, (a, _))| {
            mix(
                h,
                a.count_ones_in((i * 7) % 300..(i * 7) % 300 + 200) as u64,
            )
        });
        let mut g = c.benchmark_group("kernels");
        g.throughput(Throughput::Elements(pairs.len() as u64));
        g.bench_function("window_popcount", |b| {
            b.iter(|| {
                pairs
                    .iter()
                    .enumerate()
                    .map(|(i, (x, _))| x.count_ones_in((i * 7) % 300..(i * 7) % 300 + 200))
                    .sum::<u32>()
            })
        });
        g.finish();
        entries.push(("ops", checksum));
    }
    {
        let checksum = pairs.iter().enumerate().fold(0u64, |h, (i, (a, _))| {
            mix(h, a.rotate_left_bytes(i % 64).words()[0])
        });
        let mut g = c.benchmark_group("kernels");
        g.throughput(Throughput::Elements(pairs.len() as u64));
        g.bench_function("rotate_bytes", |b| {
            b.iter(|| {
                pairs.iter().enumerate().fold(0u64, |acc, (i, (x, _))| {
                    acc ^ x.rotate_left_bytes(i % 64).words()[0]
                })
            })
        });
        g.finish();
        entries.push(("ops", checksum));
    }
    {
        let checksum = pairs
            .iter()
            .fold(0u64, |h, (a, b)| mix(h, diff_write(a, b).flips() as u64));
        let mut g = c.benchmark_group("kernels");
        g.throughput(Throughput::Elements(pairs.len() as u64));
        g.bench_function("diff_write", |b| {
            b.iter(|| {
                pairs
                    .iter()
                    .map(|(x, y)| diff_write(x, y).flips())
                    .sum::<u32>()
            })
        });
        g.finish();
        entries.push(("ops", checksum));
    }
    {
        let run_fnw = || {
            let mut fnw = FlipNWrite::new(8);
            let mut stored = Line512::zero();
            let mut flips = 0u32;
            for (_, data) in &pairs {
                let (next, f) = fnw.write(&stored, data);
                stored = next;
                flips += f;
            }
            (flips, stored)
        };
        let (flips, stored) = run_fnw();
        let checksum = mix(mix(0, flips as u64), stored.words()[0]);
        let mut g = c.benchmark_group("kernels");
        g.throughput(Throughput::Elements(pairs.len() as u64));
        g.bench_function("flip_n_write", |b| b.iter(run_fnw));
        g.finish();
        entries.push(("ops", checksum));
    }

    // --- 2b. SoA batch kernels -----------------------------------------
    // The same 64 line pairs, transposed once into `LineBatch64` lane
    // planes; each bench runs a whole-batch kernel per iteration, and each
    // checksum folds per-lane outputs in lane order so any divergence from
    // the per-line kernels above shows up as checksum drift.
    let batch_a = LineBatch64::from_lines(&pairs.iter().map(|(a, _)| *a).collect::<Vec<_>>());
    let batch_b = LineBatch64::from_lines(&pairs.iter().map(|(_, b)| *b).collect::<Vec<_>>());
    {
        let checksum = simd::batch_hamming(&batch_a, &batch_b)
            .iter()
            .fold(0u64, |h, &v| mix(h, v as u64));
        let mut g = c.benchmark_group("batch");
        g.throughput(Throughput::Elements(batch_a.len() as u64));
        g.bench_function("hamming", |b| {
            b.iter(|| simd::batch_hamming(&batch_a, &batch_b).iter().sum::<u32>())
        });
        g.finish();
        entries.push(("ops", checksum));
    }
    {
        let checksum = simd::batch_window_popcount(&batch_a, 9, 48)
            .iter()
            .fold(0u64, |h, &v| mix(h, v as u64));
        let mut g = c.benchmark_group("batch");
        g.throughput(Throughput::Elements(batch_a.len() as u64));
        g.bench_function("window_popcount", |b| {
            b.iter(|| {
                simd::batch_window_popcount(&batch_a, 9, 48)
                    .iter()
                    .sum::<u32>()
            })
        });
        g.finish();
        entries.push(("ops", checksum));
    }
    {
        let dw = diff_write_batch(&batch_a, &batch_b);
        let checksum = dw
            .flips()
            .iter()
            .zip(dw.sets())
            .fold(0u64, |h, (&f, s)| mix(mix(h, f as u64), s as u64));
        let mut g = c.benchmark_group("batch");
        g.throughput(Throughput::Elements(batch_a.len() as u64));
        g.bench_function("diff_write", |b| {
            b.iter(|| {
                diff_write_batch(&batch_a, &batch_b)
                    .flips()
                    .iter()
                    .sum::<u32>()
            })
        });
        g.finish();
        entries.push(("ops", checksum));
    }
    {
        let run_fnw_batch = || {
            let mut fnws = vec![FlipNWrite::new(8); batch_a.len()];
            let (stored, flips) = flip_n_write_batch(&mut fnws, &batch_a, &batch_b);
            let total: u32 = flips.iter().sum();
            (total, stored)
        };
        let (flips, stored) = run_fnw_batch();
        let checksum = (0..stored.len()).fold(mix(0, flips as u64), |h, lane| {
            mix(h, stored.lane(lane).words()[0])
        });
        let mut g = c.benchmark_group("batch");
        g.throughput(Throughput::Elements(batch_a.len() as u64));
        g.bench_function("flip_n_write", |b| b.iter(|| run_fnw_batch().0));
        g.finish();
        entries.push(("ops", checksum));
    }
    {
        let batch_w = LineBatch64::from_lines(&wl[..64.min(wl.len())]);
        let mut bufs = vec![[0u8; DATA_BYTES]; batch_w.len()];
        let checksum = pcm_compress::compress_best_batch_into(&batch_w, &mut bufs)
            .iter()
            .fold(0u64, |h, &(m, len)| {
                mix(mix(h, m.encode_5bit() as u64), len as u64)
            });
        let mut g = c.benchmark_group("batch");
        g.throughput(Throughput::Elements(batch_w.len() as u64));
        g.bench_function("compress_best", |b| {
            b.iter(|| {
                pcm_compress::compress_best_batch_into(&batch_w, &mut bufs)
                    .iter()
                    .map(|&(_, len)| len)
                    .sum::<usize>()
            })
        });
        g.finish();
        entries.push(("lines", checksum));
    }

    // --- 3. linesim writes/sec per SystemKind × EccChoice --------------
    let endurance = if opts.smoke { 300.0 } else { 2_000.0 };
    for (kind, ecc) in linesim_matrix(opts.smoke) {
        let system = SystemConfig::new(kind)
            .with_endurance_mean(endurance)
            .with_ecc(ecc);
        let cfg = LineSimConfig::new(system, SpecApp::Milc.profile());
        let seed = child_seed(opts.seed, 300);
        let rec = simulate_line(&cfg, seed);
        let checksum = record_checksum(&rec);
        let mut g = c.benchmark_group("linesim");
        g.throughput(Throughput::Elements(rec.demand_writes));
        g.bench_function(format!("{kind}/{ecc}"), |b| {
            b.iter(|| simulate_line(&cfg, seed).demand_writes)
        });
        g.finish();
        entries.push(("writes", checksum));
    }

    // --- 3b. campaign lockstep: one full wave through the batch driver -
    // The unit the campaign runner hands each worker: a chunk of seeds
    // driven through `simulate_line_batch` in lockstep. Smoke keeps the
    // wave partial (16 lanes); the full run measures a complete 64-lane
    // wave so lane-divergence cost is visible in the rate. The checksum
    // folds every record in lane order — byte-identity with the scalar
    // path is pinned separately by the differential tests, this pins the
    // batch driver's own outputs across commits.
    {
        let lanes = if opts.smoke { 16 } else { BATCH_LANES };
        let system = SystemConfig::new(SystemKind::CompWF).with_endurance_mean(endurance);
        let cfg = LineSimConfig::new(system, SpecApp::Milc.profile());
        let seeds: Vec<u64> = (0..lanes)
            .map(|i| child_seed(opts.seed, 600 + i as u64))
            .collect();
        let mut scratch = LineScratch::new();
        let recs = simulate_line_batch(&cfg, &seeds, &mut scratch);
        let demand: u64 = recs.iter().map(|r| r.demand_writes).sum();
        let checksum = recs.iter().fold(0u64, |h, r| mix(h, record_checksum(r)));
        let mut g = c.benchmark_group("campaign");
        g.throughput(Throughput::Elements(demand));
        g.bench_function("lockstep", |b| {
            b.iter(|| {
                simulate_line_batch(&cfg, &seeds, &mut scratch)
                    .iter()
                    .map(|r| r.demand_writes)
                    .sum::<u64>()
            })
        });
        g.finish();
        entries.push(("writes", checksum));
    }

    // --- 4. scheduler: pool scaling, balanced vs. skewed job cost ------
    // Each job spins a deterministic LCG seeded by its index; the skewed
    // shape makes every 8th job 16× heavier — the static-striping worst
    // case. Checksums fold the pooled results in index order, so they must
    // agree across every thread count (scheduling invariance).
    let jobs = if opts.smoke { 32 } else { 256 };
    let base_rounds: u64 = if opts.smoke { 1_000 } else { 10_000 };
    let spin = |seed: u64, rounds: u64| {
        let mut acc = seed;
        for _ in 0..rounds {
            acc = acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        acc
    };
    let weights: [(&str, fn(usize) -> u64); 2] = [
        ("balanced", |_| 1),
        ("skewed", |i| if i % 8 == 0 { 16 } else { 1 }),
    ];
    for (shape, weight) in weights {
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            let run_pool = || {
                pool.map_indexed(jobs, 1, |i| {
                    spin(child_seed(opts.seed, i as u64), base_rounds * weight(i))
                })
                .into_iter()
                .fold(0u64, mix)
            };
            let checksum = run_pool();
            let mut g = c.benchmark_group("scheduler");
            g.throughput(Throughput::Elements(jobs as u64));
            g.bench_function(format!("{shape}/t{threads}"), |b| b.iter(run_pool));
            g.finish();
            entries.push(("jobs", checksum));
        }
    }

    // --- 4b. serve: per-bank batched write path ------------------------
    // A scripted open-loop traffic burst replayed through the engine; one
    // shard keeps the measurement on the bank batch path itself rather
    // than pool spawn cost. Each iteration rebuilds the engine (bank
    // construction is a small fraction of the scripted write work) so
    // every replay starts from pristine wear state and the checksum — wear
    // digests plus snapshot counters — is iteration-invariant.
    {
        let mut scfg = ServeConfig::new(child_seed(opts.seed, 500));
        scfg.shards = 1;
        scfg.banks = 4;
        scfg.lines_per_bank = 32;
        scfg.mean_gap_cycles = 20.0;
        let horizon: u64 = if opts.smoke { 20_000 } else { 160_000 };
        let script = TrafficGen::new(&scfg).script_until(horizon);
        let run_serve = || {
            let mut engine = Engine::new(scfg.clone());
            engine.run_script(&script);
            engine
        };
        let engine = run_serve();
        let snap = engine.snapshot();
        let mut checksum = engine.wear_digests().iter().fold(0u64, |h, &d| mix(h, d));
        checksum = mix(checksum, snap.writes);
        checksum = mix(checksum, snap.faults);
        checksum = mix(checksum, snap.dead_lines);
        checksum = mix(mix(mix(checksum, snap.p50), snap.p99), snap.p999);
        checksum = mix_f64(checksum, snap.compressed_fraction);
        let mut g = c.benchmark_group("serve");
        g.throughput(Throughput::Elements(script.len() as u64));
        g.bench_function("bank_batch", |b| {
            b.iter(|| {
                run_serve()
                    .wear_digests()
                    .iter()
                    .fold(0u64, |h, &d| mix(h, d))
            })
        });
        g.finish();
        entries.push(("writes", checksum));
    }

    // --- 4c. mc: Fig-9 Monte-Carlo points ------------------------------
    // One worker, a 32-byte window and 40 faults: Fig. 9 puts Aegis at a
    // 0.54 and SAFER-32 at a 0.37 failure probability there, so the window
    // search reaches the dense windows where the partition search is
    // costliest. The checksum is the estimated probability itself.
    {
        let mc = MonteCarlo {
            injections: if opts.smoke { 256 } else { 4_096 },
            seed: child_seed(opts.seed, 700),
            threads: 1,
        };
        let (safer, aegis) = (Safer::new(32), Aegis::new(17, 31));
        let schemes: [(&str, &dyn HardErrorScheme); 2] = [("aegis", &aegis), ("safer32", &safer)];
        for (name, scheme) in schemes {
            let checksum = mix_f64(0, failure_probability(scheme, 32, 40, &mc));
            let mut g = c.benchmark_group("mc");
            g.throughput(Throughput::Elements(mc.injections as u64));
            g.bench_function(format!("{name}/w32_e40"), |b| {
                b.iter(|| failure_probability(scheme, 32, 40, &mc))
            });
            g.finish();
            entries.push(("injections", checksum));
        }
    }

    // --- micro-bench entries -------------------------------------------
    assert_eq!(
        c.results().len(),
        entries.len(),
        "bench/checksum bookkeeping out of sync"
    );
    let benches: Vec<BenchEntry> = c
        .results()
        .iter()
        .zip(&entries)
        .map(|(r, &(unit, checksum))| BenchEntry {
            id: r.id.clone(),
            unit,
            checksum,
            iters: r.iters,
            median_ns: r.median_ns,
            mad_ns: r.mad_ns,
            per_second: r.per_second(),
        })
        .collect();

    // --- 5. end-to-end campaign wall-clock -----------------------------
    let mut campaigns = Vec::new();
    for (kind, app) in [
        (SystemKind::Baseline, SpecApp::Lbm),
        (SystemKind::CompWF, SpecApp::Milc),
    ] {
        let system = SystemConfig::new(kind).with_endurance_mean(endurance);
        let mut line = LineSimConfig::new(system, app.profile());
        line.sample_writes = 16;
        let mut cfg = CampaignConfig::new(line, child_seed(opts.seed, 400));
        cfg.lines = if opts.smoke { 8 } else { 64 };
        cfg.threads = opts.threads;
        let start = Instant::now();
        let stats = run_campaign(&cfg);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        // Demand writes re-derived serially for the throughput figure.
        let demand_writes: u64 = (0..cfg.lines)
            .map(|i| simulate_line(&cfg.line, child_seed(cfg.seed, i as u64)).demand_writes)
            .sum();
        campaigns.push(CampaignEntry {
            label: format!("campaign/{kind}/{}", app.name()),
            wall_ms,
            demand_writes,
            stats,
        });
    }

    HotpathReport {
        seed: opts.seed,
        smoke: opts.smoke,
        threads: opts.threads,
        batches,
        benches,
        campaigns,
    }
}

fn json_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{:.1}", v)
    } else {
        format!("{v}")
    }
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "null".into())
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map(json_f64).unwrap_or_else(|| "null".into())
}

impl HotpathReport {
    /// Renders the report as pretty-printed JSON, one field per line.
    ///
    /// With `with_timing == false` every timing-dependent field (iters,
    /// median, MAD, throughput, wall-clock) is omitted; what remains must
    /// be byte-identical for two runs with the same seed, which is exactly
    /// what the determinism regression test asserts.
    pub fn to_json(&self, with_timing: bool) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"pcm-bench-hotpath/v1\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        if with_timing {
            s.push_str(&format!("  \"batches\": {},\n", self.batches));
        }
        s.push_str("  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"id\": \"{}\",\n", b.id));
            s.push_str(&format!("      \"unit\": \"{}\",\n", b.unit));
            if with_timing {
                s.push_str(&format!("      \"iters\": {},\n", b.iters));
                s.push_str(&format!(
                    "      \"median_ns\": {},\n",
                    json_f64(b.median_ns)
                ));
                s.push_str(&format!("      \"mad_ns\": {},\n", json_f64(b.mad_ns)));
                s.push_str(&format!(
                    "      \"per_second\": {},\n",
                    json_opt_f64(b.per_second)
                ));
            }
            s.push_str(&format!("      \"checksum\": {}\n", b.checksum));
            s.push_str(if i + 1 < self.benches.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ],\n");
        s.push_str("  \"campaigns\": [\n");
        for (i, e) in self.campaigns.iter().enumerate() {
            let st = &e.stats;
            s.push_str("    {\n");
            s.push_str(&format!("      \"label\": \"{}\",\n", e.label));
            if with_timing {
                s.push_str(&format!("      \"wall_ms\": {},\n", json_f64(e.wall_ms)));
            }
            s.push_str(&format!("      \"demand_writes\": {},\n", e.demand_writes));
            s.push_str(&format!("      \"checksum\": {},\n", stats_checksum(st)));
            s.push_str("      \"stats\": {\n");
            s.push_str(&format!(
                "        \"writes_to_half_capacity\": {},\n",
                json_opt_u64(st.writes_to_half_capacity)
            ));
            let ci = st
                .half_capacity_ci
                .map(|(lo, hi)| format!("[{lo}, {hi}]"))
                .unwrap_or_else(|| "null".into());
            s.push_str(&format!("        \"half_capacity_ci\": {ci},\n"));
            s.push_str(&format!(
                "        \"mean_faults_at_death\": {},\n",
                json_opt_f64(st.mean_faults_at_death)
            ));
            s.push_str(&format!(
                "        \"mean_final_death_faults\": {},\n",
                json_opt_f64(st.mean_final_death_faults)
            ));
            s.push_str(&format!(
                "        \"mean_flips_per_write\": {},\n",
                json_f64(st.mean_flips_per_write)
            ));
            s.push_str(&format!(
                "        \"lines_died\": {},\n",
                json_f64(st.lines_died)
            ));
            s.push_str(&format!(
                "        \"lines_revived\": {},\n",
                json_f64(st.lines_revived)
            ));
            s.push_str(&format!("        \"lines\": {},\n", st.lines));
            s.push_str(&format!("        \"horizon\": {}\n", st.horizon));
            s.push_str("      }\n");
            s.push_str(if i + 1 < self.campaigns.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse() {
        let o = HotpathOptions::parse(
            [
                "--smoke",
                "--seed",
                "7",
                "--threads",
                "2",
                "--out",
                "x.json",
            ]
            .map(String::from),
        );
        assert!(o.smoke);
        assert_eq!(o.seed, 7);
        assert_eq!(o.threads, 2);
        assert_eq!(o.out, "x.json");
        assert_eq!(o.ratchet, None);
        assert_eq!(o.ratchet_min, crate::ratchet::DEFAULT_MIN_RATIO);
        let auto = HotpathOptions::parse(["--threads", "auto"].map(String::from));
        assert_eq!(auto.threads, 0);
        let r = HotpathOptions::parse(
            ["--ratchet", "tracked.json", "--ratchet-min", "0.25"].map(String::from),
        );
        assert_eq!(r.ratchet.as_deref(), Some("tracked.json"));
        assert_eq!(r.ratchet_min, 0.25);
    }

    #[test]
    fn json_scalars() {
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_opt_u64(None), "null");
        assert_eq!(json_opt_f64(Some(1.0)), "1.0");
    }

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(mix(mix(0, 1), 2), mix(mix(0, 2), 1));
    }
}
