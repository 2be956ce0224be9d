//! `montecarlo`: the Fig. 9 fault-injection sweep.
//!
//! `failure_surface` for ECP-6, SAFER-32 and Aegis 17×31 over windows
//! {8, 32, 64} bytes and 16–128 faults. The sweep crosses each scheme's 50%
//! failure transition, where Aegis's partition search is most expensive.
//! This layer runs in no other workload and none of theirs run here, so a
//! partition-search speed-up shows only here, and fault-path caching in the
//! line simulator must leave it alone.
//!
//! One repetition sweeps every `(scheme, window, faults)` point once, and
//! its work is the fault injections. The timed operation is one point's
//! `failure_surface` call, 1 to 130 ms.

use crate::spans::now;
use crate::stats::{self, Digest};
use crate::Ctx;
use pcm_ecc::montecarlo::failure_surface;
use pcm_ecc::{failure_probability, Aegis, Ecp, HardErrorScheme, MonteCarlo, Safer};
use pcm_util::stats::mean;
use pcm_util::{child_seed, seeded_rng, DATA_BITS};
use rand::RngExt;

const WINDOWS: [usize; 3] = [8, 32, 64];
const FAULTS: [usize; 8] = [16, 24, 32, 48, 64, 80, 96, 128];
const INJECTIONS: usize = 2_000;
const SCHEMES: [&str; 3] = ["ecp6", "safer32", "aegis"];

/// Span names per `(scheme, window)`, in [`SCHEMES`] × [`WINDOWS`] order.
const POINT_SPANS: [&str; 9] = [
    "mc.point_ms.ecp6.w8",
    "mc.point_ms.ecp6.w32",
    "mc.point_ms.ecp6.w64",
    "mc.point_ms.safer32.w8",
    "mc.point_ms.safer32.w32",
    "mc.point_ms.safer32.w64",
    "mc.point_ms.aegis.w8",
    "mc.point_ms.aegis.w32",
    "mc.point_ms.aegis.w64",
];

/// The three schemes, freshly built (SAFER and Aegis build their tables).
struct Schemes {
    ecp: Ecp,
    safer: Safer,
    aegis: Aegis,
}

impl Schemes {
    fn all(&self) -> [&dyn HardErrorScheme; 3] {
        [&self.ecp, &self.safer, &self.aegis]
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let mc = MonteCarlo {
        injections: INJECTIONS,
        seed: child_seed(ctx.seed, 7),
        threads: 0,
    };
    let mut table_ms = Vec::new();
    let mut build = |_: &mut Ctx| {
        let t = now();
        let s = Schemes {
            ecp: Ecp::new(6),
            safer: Safer::new(32),
            aegis: Aegis::new(17, 31),
        };
        table_ms.push(t.elapsed().as_secs_f64() * 1e3);
        s
    };
    let schemes = ctx.setup(&mut build);
    let points: Vec<(usize, usize, usize)> = (0..SCHEMES.len())
        .flat_map(|s| {
            WINDOWS
                .iter()
                .flat_map(move |&w| FAULTS.iter().map(move |&e| (s, w, e)))
        })
        .collect();
    let surface = |s: &dyn HardErrorScheme, w: usize, e: usize| -> f64 {
        failure_surface(s, &[w], &[e], &mc).probabilities[0][0]
    };

    // Warm-up: fills caches and gives the reference probabilities.
    let reference: Vec<f64> = points
        .iter()
        .map(|&(s, w, e)| surface(schemes.all()[s], w, e))
        .collect();

    let mut point_us: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let mut rates = Vec::new();
    ctx.measure(2, usize::MAX, &mut build, |ctx| {
        let rep_start = now();
        let rep_span = ctx.tracer.open("mc.rep", None);
        let mut ops_us = Vec::with_capacity(points.len());
        for (i, &(s, w, e)) in points.iter().enumerate() {
            let t = now();
            let p = surface(schemes.all()[s], w, e);
            let end = now();
            let wi = WINDOWS.iter().position(|&x| x == w).expect("listed window");
            ctx.tracer
                .record(POINT_SPANS[s * WINDOWS.len() + wi], rep_span, t, end);
            let us = (end - t).as_secs_f64() * 1e6;
            ops_us.push(us);
            if !ctx.tracer.is_on() {
                point_us[i].push(us);
            }
            ctx.checks.check(p == reference[i], || {
                format!("point {i}: probability differs from the warm-up run")
            });
        }
        ctx.tracer.close(rep_span);
        let secs = rep_start.elapsed().as_secs_f64();
        ctx.rep_ops(&ops_us);
        if !ctx.tracer.is_on() {
            rates.push((points.len() * INJECTIONS) as f64 / secs);
        }
    });

    // Oracle: per-point `failure_probability` on one worker.
    let serial = MonteCarlo { threads: 1, ..mc };
    let mut serial_ms = 0.0;
    let mut digest = Digest::default();
    let oracle_span = ctx.tracer.open("mc.serial", None);
    for (i, &(s, w, e)) in points.iter().enumerate() {
        let t = now();
        let p = failure_probability(schemes.all()[s], w, e, &serial);
        serial_ms += t.elapsed().as_secs_f64() * 1e3;
        ctx.checks.check(p == reference[i], || {
            format!(
                "{} w{w} e{e}: failure_surface {} != one-worker failure_probability {p}",
                SCHEMES[s], reference[i]
            )
        });
        digest.float(p);
    }
    ctx.tracer.close(oracle_span);
    ctx.pin("montecarlo", digest.finish());

    for (s, name) in SCHEMES.iter().enumerate() {
        let probs = points
            .iter()
            .zip(&reference)
            .filter(|((ps, _, _), _)| *ps == s);
        let below = probs.clone().any(|(_, &p)| p < 0.5);
        let above = probs.clone().any(|(_, &p)| p > 0.5);
        ctx.self_check(
            below && above,
            &format!("{name} has points on both sides of its 50% failure transition"),
        );
    }

    ctx.work_per_rep((points.len() * INJECTIONS) as f64);
    ctx.named("injections_per_s", "1/s", &rates);
    let all_ms: Vec<f64> = point_us.iter().flatten().map(|us| us / 1e3).collect();
    ctx.named("point_ms", "ms", &all_ms);
    ctx.named("ecc.table_build_ms", "ms", &table_ms);

    if !ctx.tracing_run() {
        return;
    }
    ctx.layer("ecc.table_build_ms", stats::median_of(&table_ms));
    let traced_ms = |name: &str| -> Vec<f64> {
        ctx.tracer
            .durations_ns(name)
            .iter()
            .map(|ns| ns / 1e6)
            .collect()
    };
    let per_span: Vec<Vec<f64>> = POINT_SPANS.iter().map(|n| traced_ms(n)).collect();
    let total: f64 = per_span.iter().flatten().sum();
    for (name, ms) in POINT_SPANS.iter().zip(&per_span) {
        ctx.layer(name, mean(ms));
    }
    for (s, name) in [
        "mc.scheme_share.ecp6",
        "mc.scheme_share.safer32",
        "mc.scheme_share.aegis",
    ]
    .into_iter()
    .enumerate()
    {
        let scheme_ms: f64 = per_span[s * WINDOWS.len()..(s + 1) * WINDOWS.len()]
            .iter()
            .flatten()
            .sum();
        ctx.layer(name, scheme_ms / total);
    }
    let workers = pcm_util::Pool::new(0).threads() as f64;
    let parallel_ms: f64 = point_us.iter().map(|us| stats::median_of(us) / 1e3).sum();
    ctx.layer(
        "mc.parallel_efficiency",
        serial_ms / (workers * parallel_ms),
    );

    // `can_store` on injected fault sets of every swept size.
    let mut rng = seeded_rng(child_seed(ctx.seed, 8));
    let sets: Vec<Vec<u16>> = FAULTS
        .iter()
        .flat_map(|&k| std::iter::repeat_n(k, 64))
        .map(|k| {
            let mut cells: Vec<u16> = (0..DATA_BITS as u16).collect();
            for i in 0..k {
                let j = rng.random_range(i..DATA_BITS);
                cells.swap(i, j);
            }
            let mut set = cells[..k].to_vec();
            set.sort_unstable();
            set
        })
        .collect();
    for (s, name) in [
        "ecc.can_store_ns.ecp6",
        "ecc.can_store_ns.safer32",
        "ecc.can_store_ns.aegis",
    ]
    .into_iter()
    .enumerate()
    {
        let scheme = schemes.all()[s];
        let span = ctx.tracer.open("ecc.can_store", None);
        let t = now();
        for set in &sets {
            std::hint::black_box(scheme.can_store(set));
        }
        let ns = t.elapsed().as_nanos() as f64;
        ctx.tracer.close(span);
        ctx.layer(name, ns / sets.len() as f64);
    }
}
