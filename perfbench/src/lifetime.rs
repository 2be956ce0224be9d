//! `lifetime-compwf` and `lifetime-grid`: whole-memory lifetime campaigns.
//!
//! * `lifetime-compwf` is the paper's headline system — Comp+WF with
//!   SAFER-32 on milc at endurance 2000. Every line dies, slides and
//!   revives, and the window/ECC/wear write dominates line time, so
//!   fault-path changes show here and compression changes barely do.
//!   256 lines make four 64-line pool jobs: two per worker on two cores.
//! * `lifetime-grid` is many short campaigns (Baseline, Comp, Comp+W × six
//!   apps at ECP-6, endurance 8000) whose lines die once and never slide or
//!   revive. Per-line set-up, trace generation, compression and one pool
//!   spawn per campaign dominate; Baseline bypasses compression. It is the
//!   bypass workload for fault-path changes.
//!
//! One repetition runs every campaign of the workload once, and its work
//! is the campaigns' simulated demand writes (sampled plus fast-forwarded).
//! The timed operation is one `run_campaign` call: about 2 s on
//! `lifetime-compwf`, 1 to 200 ms on `lifetime-grid`.

use crate::spans::now;
use crate::stats::{self, Digest};
use crate::Ctx;
use pcm_compress::{compress_best_into, Method};
use pcm_core::lifetime::campaign::summarize;
use pcm_core::lifetime::{
    run_campaign, simulate_line_with, CampaignConfig, LifetimeResult, LineRecord, LineScratch,
    LineSimConfig,
};
use pcm_core::line::{EccEngine, Payload};
use pcm_core::{EccChoice, ManagedLine, SystemConfig, SystemKind};
use pcm_trace::{BlockStream, SpecApp};
use pcm_util::stats::mean;
use pcm_util::{child_seed, seeded_rng, DATA_BYTES};

/// Which lifetime workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One Comp+WF / SAFER-32 / milc campaign.
    Compwf,
    /// Baseline/Comp/Comp+W × six apps, ECP-6.
    Grid,
}

const GRID_APPS: [SpecApp; 6] = [
    SpecApp::Bzip2,
    SpecApp::Gcc,
    SpecApp::Hmmer,
    SpecApp::Lbm,
    SpecApp::Sjeng,
    SpecApp::Zeusmp,
];

/// Direct writes per probed line before the probe gives up on its death.
const PROBE_WRITE_CAP: usize = 200_000;

fn campaigns(shape: Shape, seed: u64) -> Vec<CampaignConfig> {
    let campaign = |sys: SystemConfig, app: SpecApp, lines: usize, stream: u64| {
        let mut cfg = CampaignConfig::new(
            LineSimConfig::new(sys, app.profile()),
            child_seed(seed, stream),
        );
        cfg.lines = lines;
        cfg
    };
    match shape {
        Shape::Compwf => vec![campaign(
            SystemConfig::new(SystemKind::CompWF)
                .with_endurance_mean(2_000.0)
                .with_ecc(EccChoice::Safer32),
            SpecApp::Milc,
            256,
            1,
        )],
        Shape::Grid => {
            let mut out = Vec::new();
            for (k, kind) in [SystemKind::Baseline, SystemKind::Comp, SystemKind::CompW]
                .into_iter()
                .enumerate()
            {
                for (a, app) in GRID_APPS.into_iter().enumerate() {
                    let sys = SystemConfig::new(kind)
                        .with_endurance_mean(8_000.0)
                        .with_ecc(EccChoice::Ecp6);
                    out.push(campaign(sys, app, 128, 100 + (k * 16 + a) as u64));
                }
            }
            out
        }
    }
}

fn line_seeds(cfg: &CampaignConfig) -> impl Iterator<Item = u64> + '_ {
    (0..cfg.lines).map(|i| child_seed(cfg.seed, i as u64))
}

fn result_digest(d: &mut Digest, r: &LifetimeResult) {
    d.word(r.writes_to_half_capacity.unwrap_or(u64::MAX));
    let (lo, hi) = r.half_capacity_ci.unwrap_or((u64::MAX, u64::MAX));
    d.word(lo).word(hi);
    d.float(r.mean_faults_at_death.unwrap_or(-1.0));
    d.float(r.mean_final_death_faults.unwrap_or(-1.0));
    d.float(r.mean_flips_per_write)
        .float(r.lines_died)
        .float(r.lines_revived);
    d.word(r.lines as u64).word(r.horizon);
}

/// Runs one lifetime workload.
pub fn run(ctx: &mut Ctx, shape: Shape) {
    let seed = ctx.seed;
    let mut table_ms = Vec::new();
    let mut build = |_: &mut Ctx| {
        // SAFER-32's tables are built once per process behind a `OnceLock`;
        // a fresh build per set-up repetition keeps that cost in `setup_s`.
        if shape == Shape::Compwf {
            let t = now();
            std::hint::black_box(pcm_ecc::Safer::new(32));
            table_ms.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(pcm_core::registry::shared_safer32());
        }
        campaigns(shape, seed)
    };
    let cells = ctx.setup(&mut build);

    // Warm-up: fills caches and gives the reference results.
    let reference: Vec<LifetimeResult> = cells.iter().map(run_campaign).collect();

    let mut rep_secs = Vec::new();
    let mut campaign_us: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    ctx.measure(2, usize::MAX, &mut build, |ctx| {
        let rep_start = now();
        let rep_span = ctx.tracer.open("campaign.rep", None);
        let mut ops_us = Vec::with_capacity(cells.len());
        for (i, cfg) in cells.iter().enumerate() {
            let t = now();
            let r = run_campaign(cfg);
            let end = now();
            ctx.tracer.record("campaign.run", rep_span, t, end);
            let us = (end - t).as_secs_f64() * 1e6;
            ops_us.push(us);
            if !ctx.tracer.is_on() {
                campaign_us[i].push(us);
            }
            ctx.checks.check(r == reference[i], || {
                format!("campaign {i}: result differs from the warm-up run")
            });
        }
        ctx.tracer.close(rep_span);
        ctx.rep_ops(&ops_us);
        if !ctx.tracer.is_on() {
            rep_secs.push(rep_start.elapsed().as_secs_f64());
        }
    });

    // Oracle: the serial per-line records, summarized, must equal the
    // parallel campaign result. Its per-line timings are the serial cost.
    let mut digest = Digest::default();
    let mut scratch = LineScratch::new();
    let mut records_all: Vec<Vec<LineRecord>> = Vec::new();
    let mut line_ms = Vec::new();
    let mut demand_total = 0u64;
    let mut summarize_ms = Vec::new();
    let serial_span = ctx.tracer.open("linesim.serial", None);
    for (i, cfg) in cells.iter().enumerate() {
        let records: Vec<LineRecord> = line_seeds(cfg)
            .map(|s| {
                let t = now();
                let r = simulate_line_with(&cfg.line, s, &mut scratch);
                let end = now();
                ctx.tracer.record("linesim.line", serial_span, t, end);
                line_ms.push((end - t).as_secs_f64() * 1e3);
                r
            })
            .collect();
        let t = now();
        let summary = summarize(&records, cfg.line.max_writes);
        let end = now();
        ctx.tracer.record("campaign.summarize", serial_span, t, end);
        summarize_ms.push((end - t).as_secs_f64() * 1e3);
        ctx.checks.check(summary == reference[i], || {
            format!("campaign {i}: run_campaign differs from summarize over serial records")
        });
        demand_total += records.iter().map(|r| r.demand_writes).sum::<u64>();
        result_digest(&mut digest, &reference[i]);
        records_all.push(records);
    }
    ctx.tracer.close(serial_span);
    digest.word(demand_total);
    ctx.pin(
        match shape {
            Shape::Compwf => "lifetime-compwf",
            Shape::Grid => "lifetime-grid",
        },
        digest.finish(),
    );

    let records = records_all.iter().flatten();
    let deaths: u64 = records
        .clone()
        .map(|r| r.events.len().div_ceil(2) as u64)
        .sum();
    let revivals: u64 = records.clone().map(|r| (r.events.len() / 2) as u64).sum();
    let final_faults: u64 = records.clone().map(|r| r.final_faults as u64).sum();
    match shape {
        Shape::Compwf => ctx.self_check(
            revivals > 0,
            &format!("Comp+WF lines revive ({revivals} revivals)"),
        ),
        Shape::Grid => ctx.self_check(
            revivals == 0,
            &format!("grid lines never revive ({revivals} revivals)"),
        ),
    }

    ctx.work_per_rep(demand_total as f64);
    let rates: Vec<f64> = rep_secs.iter().map(|s| demand_total as f64 / s).collect();
    ctx.named("sim_writes_per_s", "1/s", &rates);
    let all_cells: Vec<f64> = campaign_us.iter().flatten().map(|us| us / 1e3).collect();
    ctx.named("campaign_ms", "ms", &all_cells);
    ctx.named("ecc.table_build_ms", "ms", &table_ms);

    if !ctx.tracing_run() {
        return;
    }
    ctx.layer("linesim.line_ms_p50", stats::median_of(&line_ms));
    ctx.layer(
        "linesim.line_ms_max",
        line_ms.iter().copied().fold(0.0, f64::max),
    );
    ctx.layer("linesim.demand_writes", demand_total as f64);
    ctx.layer("linesim.deaths", deaths as f64);
    ctx.layer("linesim.revivals", revivals as f64);
    ctx.layer("linesim.final_faults", final_faults as f64);
    ctx.layer("campaign.summarize_ms", summarize_ms.iter().sum());
    let workers = pcm_util::Pool::new(0).threads() as f64;
    let wall_ms: f64 = campaign_us
        .iter()
        .map(|us| stats::median_of(us) / 1e3)
        .sum();
    ctx.layer(
        "campaign.parallel_efficiency",
        line_ms.iter().sum::<f64>() / (workers * wall_ms),
    );
    if !table_ms.is_empty() {
        ctx.layer("ecc.table_build_ms", stats::median_of(&table_ms));
    }
    probe_layers(ctx, shape, &cells);
}

/// Times the layers a campaign line runs through, one call at a time, on
/// the workload's own blocks and line seeds.
fn probe_layers(ctx: &mut Ctx, shape: Shape, cells: &[CampaignConfig]) {
    // Trace generation and compression: the first blocks of every line.
    let blocks_per_line = match shape {
        Shape::Compwf => 64,
        Shape::Grid => 16,
    };
    let span = ctx.tracer.open("trace.blocks", None);
    let t = now();
    let mut blocks = Vec::new();
    for cfg in cells {
        for s in line_seeds(cfg) {
            let mut stream = BlockStream::new(cfg.line.profile.clone(), child_seed(s, 1));
            for _ in 0..blocks_per_line {
                blocks.push((cfg.line.system.kind, stream.next_data()));
            }
        }
    }
    let elapsed = t.elapsed();
    ctx.tracer.close(span);
    ctx.layer(
        "trace.ns_per_block",
        elapsed.as_nanos() as f64 / blocks.len() as f64,
    );

    let mut buf = [0u8; DATA_BYTES];
    let (mut n, mut compressed, mut bytes) = (0usize, 0usize, 0usize);
    let span = ctx.tracer.open("compress.lines", None);
    let t = now();
    for (kind, data) in &blocks {
        if kind.compresses() {
            let (method, len) = compress_best_into(data, &mut buf);
            n += 1;
            compressed += method.is_compressed() as usize;
            bytes += len;
        }
    }
    let elapsed = t.elapsed();
    ctx.tracer.close(span);
    if n > 0 {
        ctx.layer("compress.ns_per_line", elapsed.as_nanos() as f64 / n as f64);
        ctx.layer("compress.compressed_share", compressed as f64 / n as f64);
        ctx.layer("compress.mean_bytes", bytes as f64 / n as f64);
    }

    // Per-line set-up, exactly as a campaign line does it.
    let setup_span = ctx.tracer.open("line.setup_all", None);
    let mut setup_us = Vec::new();
    for cfg in cells {
        let sys = &cfg.line.system;
        for s in line_seeds(cfg) {
            let t = now();
            let mut rng = seeded_rng(child_seed(s, 0));
            let line = ManagedLine::sample_with_tech(&sys.endurance, sys.tech, &mut rng);
            let engine = EccEngine::new(sys.ecc);
            std::hint::black_box((line, engine));
            let end = now();
            ctx.tracer.record("line.setup", setup_span, t, end);
            setup_us.push((end - t).as_secs_f64() * 1e6);
        }
    }
    ctx.tracer.close(setup_span);
    ctx.layer("line.setup_us", mean(&setup_us));

    // Direct-write probe: `ManagedLine::write` on the line's own blocks,
    // every write real, until the line dies.
    let probe_lines = match shape {
        Shape::Compwf => 4,
        Shape::Grid => 1,
    };
    let mut p = Probe::default();
    let probe_span = ctx.tracer.open("line.probe", None);
    for cfg in cells {
        for s in line_seeds(cfg).take(probe_lines) {
            p.line(ctx, probe_span, &cfg.line.system, &cfg.line.profile, s);
        }
    }
    ctx.tracer.close(probe_span);
    let writes = p.writes.max(1) as f64;
    ctx.layer("line.write_ns", p.write_ns / writes);
    ctx.layer("line.can_host_ns", p.can_host_ns / writes);
    ctx.layer("line.slide_share", p.slid as f64 / writes);
    ctx.layer("line.retry_share", p.retried as f64 / writes);
    ctx.layer(
        "line.new_faults",
        p.new_faults as f64 / p.lines.max(1) as f64,
    );
    ctx.layer("line.flips_per_write", p.flips as f64 / writes);

    // `can_store` on the fault sets the probed lines died with.
    let ecc = cells[0].line.system.ecc;
    let scheme = ecc.scheme();
    let reps = 200;
    let span = ctx.tracer.open("ecc.can_store", None);
    let t = now();
    for _ in 0..reps {
        for faults in &p.death_faults {
            std::hint::black_box(scheme.can_store(faults));
        }
    }
    let elapsed = t.elapsed();
    ctx.tracer.close(span);
    let calls = (reps * p.death_faults.len()).max(1);
    let name = match ecc {
        EccChoice::Safer32 => "ecc.can_store_ns.safer32",
        EccChoice::Aegis17x31 => "ecc.can_store_ns.aegis",
        _ => "ecc.can_store_ns.ecp6",
    };
    ctx.layer(name, elapsed.as_nanos() as f64 / calls as f64);
}

#[derive(Default)]
struct Probe {
    lines: u64,
    writes: u64,
    write_ns: f64,
    can_host_ns: f64,
    slid: u64,
    retried: u64,
    new_faults: u64,
    flips: u64,
    death_faults: Vec<Vec<u16>>,
}

impl Probe {
    fn line(
        &mut self,
        ctx: &mut Ctx,
        parent: Option<usize>,
        sys: &SystemConfig,
        profile: &pcm_trace::WorkloadProfile,
        seed: u64,
    ) {
        let mut rng = seeded_rng(child_seed(seed, 0));
        let mut line = ManagedLine::sample_with_tech(&sys.endurance, sys.tech, &mut rng);
        let engine = EccEngine::new(sys.ecc);
        let mut stream = BlockStream::new(profile.clone(), child_seed(seed, 1));
        let slide = sys.kind.slides();
        let mut buf = [0u8; DATA_BYTES];
        self.lines += 1;
        for _ in 0..PROBE_WRITE_CAP {
            let data = stream.next_data();
            let (method, len) = if sys.kind.compresses() {
                compress_best_into(&data, &mut buf)
            } else {
                buf = data.to_bytes();
                (Method::Uncompressed, DATA_BYTES)
            };
            let t = now();
            let fits = line.can_host(&engine, len, 0, slide);
            let mid = now();
            let result = line.write(
                &engine,
                Payload {
                    method,
                    bytes: &buf[..len],
                },
                0,
                slide,
            );
            let end = now();
            ctx.tracer.record("line.can_host", parent, t, mid);
            ctx.tracer.record("line.write", parent, mid, end);
            std::hint::black_box(fits);
            self.can_host_ns += (mid - t).as_nanos() as f64;
            self.write_ns += (end - mid).as_nanos() as f64;
            self.writes += 1;
            match result {
                Ok(r) => {
                    self.slid += r.slid as u64;
                    self.retried += (r.attempts > 1) as u64;
                    self.new_faults += r.new_faults as u64;
                    self.flips += r.flips as u64;
                }
                Err(_) => {
                    self.death_faults
                        .push(line.faults().iter().map(|f| f.pos).collect());
                    return;
                }
            }
        }
    }
}
