//! `perfbench`: the collab-pcm benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed, measures for the given
//! seconds, checks the simulated outputs, prints one human-readable line
//! per metric and, last, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones of
//! [`END_TO_END`]; with `--trace 1` they are the per-layer ones of
//! [`PER_LAYER`], taken from spans recorded around the benchmark's calls
//! into the workspace crates. A workload that leaves a layer unused
//! reports 0 for it. The exit code is 0 only when every check passed.
//! See `README.md` in this directory for the workload → layer → metric map.

mod lifetime;
mod montecarlo;
mod serve;
mod spans;
mod stats;

use spans::{now, Tracer};
use stats::Summary;
use std::collections::BTreeMap;
use std::time::Duration;

/// Least time of one `setup_s` sample: builds repeat until it has passed.
const SETUP_SAMPLE: Duration = Duration::from_millis(5);

/// Least time of one [`Ctx::setup`] call, which takes several samples.
const SETUP_CALL: Duration = Duration::from_millis(25);

/// The seed whose outputs are pinned in [`PINNED`].
pub const DEFAULT_SEED: u64 = 1;

/// Output digests at [`DEFAULT_SEED`], per workload and output.
const PINNED: &[(&str, u64)] = &[
    ("lifetime-compwf", 0x8b8c_4acc_d7c9_06fe),
    ("lifetime-grid", 0xcb11_3b11_7283_a179),
    ("serve-mixed", 0xf872_8251_44f7_bc6f),
    ("montecarlo", 0x8580_9025_2b14_303f),
];

/// End-to-end metrics, reported by every workload: name and unit. Must match
/// the `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: name and unit. Must match the
/// `per_layer` list of `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.ns_per_block", "ns"),
    ("trace.script_gen_s", "s"),
    ("compress.ns_per_line", "ns"),
    ("compress.compressed_share", "ratio"),
    ("compress.mean_bytes", "bytes"),
    ("line.setup_us", "us"),
    ("line.write_ns", "ns"),
    ("line.can_host_ns", "ns"),
    ("line.slide_share", "ratio"),
    ("line.retry_share", "ratio"),
    ("line.new_faults", "count"),
    ("line.flips_per_write", "count"),
    ("linesim.line_ms_p50", "ms"),
    ("linesim.line_ms_max", "ms"),
    ("linesim.demand_writes", "count"),
    ("linesim.deaths", "count"),
    ("linesim.revivals", "count"),
    ("linesim.final_faults", "count"),
    ("campaign.summarize_ms", "ms"),
    ("campaign.parallel_efficiency", "ratio"),
    ("ecc.table_build_ms", "ms"),
    ("ecc.can_store_ns.ecp6", "ns"),
    ("ecc.can_store_ns.safer32", "ns"),
    ("ecc.can_store_ns.aegis", "ns"),
    ("mc.point_ms.ecp6.w8", "ms"),
    ("mc.point_ms.ecp6.w32", "ms"),
    ("mc.point_ms.ecp6.w64", "ms"),
    ("mc.point_ms.safer32.w8", "ms"),
    ("mc.point_ms.safer32.w32", "ms"),
    ("mc.point_ms.safer32.w64", "ms"),
    ("mc.point_ms.aegis.w8", "ms"),
    ("mc.point_ms.aegis.w32", "ms"),
    ("mc.point_ms.aegis.w64", "ms"),
    ("mc.scheme_share.ecp6", "ratio"),
    ("mc.scheme_share.safer32", "ratio"),
    ("mc.scheme_share.aegis", "ratio"),
    ("mc.parallel_efficiency", "ratio"),
    ("serve.engine_new_ms", "ms"),
    ("serve.protocol.decode_ns", "ns"),
    ("serve.protocol.encode_ns", "ns"),
    ("serve.write_us_p50", "us"),
    ("serve.write_us_p99", "us"),
    ("serve.read_us", "us"),
    ("serve.telemetry_us", "us"),
    ("serve.replay.parallel_efficiency", "ratio"),
    ("serve.writes", "count"),
    ("serve.reads", "count"),
    ("serve.error_responses", "count"),
    ("serve.faults", "count"),
    ("serve.dead_lines", "count"),
    ("serve.compressed_fraction", "ratio"),
    ("serve.sim_p99_cycles", "cycles"),
    ("self_ms.trace", "ms"),
    ("self_ms.compress", "ms"),
    ("self_ms.line", "ms"),
    ("self_ms.linesim", "ms"),
    ("self_ms.campaign", "ms"),
    ("self_ms.ecc", "ms"),
    ("self_ms.mc", "ms"),
    ("self_ms.serve", "ms"),
    ("tracing.overhead_share", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_campaign` on Comp+WF / SAFER-32 / milc at endurance 2000.
    LifetimeCompwf,
    /// Short `run_campaign`s over Baseline/Comp/Comp+W × six apps, ECP-6.
    LifetimeGrid,
    /// A `pcm-serve` engine replaying a script, then serving wire frames.
    ServeMixed,
    /// The Fig. 9 `failure_surface` for ECP-6, SAFER-32 and Aegis.
    Montecarlo,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::LifetimeCompwf,
        Workload::LifetimeGrid,
        Workload::ServeMixed,
        Workload::Montecarlo,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::LifetimeCompwf => "lifetime-compwf",
            Workload::LifetimeGrid => "lifetime-grid",
            Workload::ServeMixed => "serve-mixed",
            Workload::Montecarlo => "montecarlo",
        }
    }
}

/// Operation counts and the reasons of any failed check.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

/// Everything a workload run shares with the harness.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Spans of the traced run (off in the untraced run).
    pub tracer: Tracer,
    /// Output checks.
    pub checks: Checks,
    /// Set-up durations, seconds.
    setup_s: Vec<f64>,
    /// Per measured repetition, with tracing off / on: the median and the
    /// tail of its operations' host times, µs.
    rep_ops_us: [(Vec<f64>, Vec<f64>); 2],
    /// Per untraced repetition, its operations' host times, µs: every
    /// repetition runs the same operations in the same order.
    op_reps: Vec<Vec<f64>>,
    /// The work one repetition does, in the workload's unit.
    work: f64,
    /// Peak resident memory when measuring starts: set-up and the warm-up
    /// repetition have run, so the workload's whole state has existed.
    rss_mib: Option<f64>,
    /// Whether this is the traced run.
    trace_run: bool,
    /// Workload-specific metrics for the text report: name, unit, summary.
    named: Vec<(String, &'static str, Summary, f64)>,
    /// Per-layer metrics (traced run only).
    layers: BTreeMap<&'static str, f64>,
}

impl Ctx {
    fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Ctx {
            seed,
            seconds,
            tracer: Tracer::new(false),
            checks: Checks::default(),
            setup_s: Vec::new(),
            rep_ops_us: Default::default(),
            op_reps: Vec::new(),
            work: 0.0,
            rss_mib: None,
            // Tracing stays off until the measured loop turns it on, so
            // set-up is timed identically in both runs.
            trace_run: trace,
            named: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Whether this is the traced run.
    pub fn tracing_run(&self) -> bool {
        self.trace_run
    }

    /// Builds the workload's inputs, repeatedly: in batches of at least
    /// [`SETUP_SAMPLE`] each, since some set-ups take microseconds, until
    /// [`SETUP_CALL`] has passed. Each batch's mean time per build is one
    /// `setup_s` sample, recorded while tracing is off. Returns the last
    /// build.
    pub fn setup<T>(&mut self, build: &mut impl FnMut(&mut Ctx) -> T) -> T {
        let call = now();
        loop {
            let start = now();
            let mut builds = 0u32;
            let value = loop {
                let value = std::hint::black_box(build(self));
                builds += 1;
                if start.elapsed() >= SETUP_SAMPLE {
                    break value;
                }
            };
            if !self.tracer.is_on() {
                let per_build = start.elapsed().as_secs_f64() / builds as f64;
                self.setup_s.push(per_build);
            }
            if call.elapsed() >= SETUP_CALL {
                return value;
            }
        }
    }

    /// Runs `rep` for the measuring time, and at least `min_reps` times,
    /// running [`setup`](Self::setup) again before each repetition: set-up
    /// is sampled across the whole run, like the operations.
    ///
    /// In the traced run the first half of the time runs with tracing off
    /// and the rest with it on, for at most `max_traced` repetitions; the
    /// gap between the two halves' median operation times is the tracing
    /// overhead. Both halves set up before every repetition, so the gap
    /// holds no set-up effect; only the untraced half's set-up is recorded.
    pub fn measure<T>(
        &mut self,
        min_reps: usize,
        max_traced: usize,
        build: &mut impl FnMut(&mut Ctx) -> T,
        mut rep: impl FnMut(&mut Ctx),
    ) {
        self.rss_mib = stats::peak_rss_mib();
        let traced = self.tracing_run();
        let budget = if traced {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        for phase_on in if traced {
            &[false, true][..]
        } else {
            &[false][..]
        } {
            self.tracer.set_on(*phase_on);
            let start = now();
            let mut reps = 0;
            while reps < min_reps
                || (start.elapsed().as_secs_f64() < budget && !(*phase_on && reps >= max_traced))
            {
                drop(self.setup(build));
                rep(self);
                reps += 1;
            }
        }
        // Probes after the loop are traced in the traced run.
        self.tracer.set_on(traced);
    }

    /// Records the host times of one measured repetition's operations, µs:
    /// the operations that did its work. Each operation's median over the
    /// untraced repetitions gives `op_p50_us`, `op_tail_us` and the time
    /// `work_per_s` divides by.
    pub fn rep_ops(&mut self, ops_us: &[f64]) {
        let s = stats::summarize(ops_us);
        let (p50, tail) = &mut self.rep_ops_us[self.tracer.is_on() as usize];
        p50.push(s.median);
        tail.push(s.tail);
        if !self.tracer.is_on() {
            let same = keep_rep(&mut self.op_reps, ops_us);
            self.checks.check(same, || {
                format!(
                    "a repetition ran {} operations, not as many as the first",
                    ops_us.len()
                )
            });
        }
    }

    /// Sets the work every repetition does (simulated writes, injections).
    pub fn work_per_rep(&mut self, work: f64) {
        self.work = work;
    }

    /// Each operation's median time over the untraced repetitions (µs),
    /// and the work rate they give: one repetition's work over their sum.
    /// `None` before any repetition.
    fn op_medians(&self) -> Option<(Vec<f64>, f64)> {
        if self.op_reps.is_empty() {
            return None;
        }
        let ops = stats::median_per_position(&self.op_reps);
        let per_s = self.work / (ops.iter().sum::<f64>() / 1e6);
        Some((ops, per_s))
    }

    /// Adds a metric's samples to the text report: median, tail, best
    /// sample (rates — unit `1/s` — are best when highest) and count.
    pub fn named(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        if !samples.is_empty() {
            let best = stats::best(samples, unit == "1/s");
            self.named
                .push((name.to_string(), unit, stats::summarize(samples), best));
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Checks an output digest against the pinned one at the default seed.
    pub fn pin(&mut self, key: &str, digest: u64) {
        println!("digest {key} {digest:#018x}");
        if self.seed != DEFAULT_SEED {
            return;
        }
        let pinned = PINNED.iter().find(|(k, _)| *k == key).map(|(_, d)| *d);
        self.checks.check(pinned == Some(digest), || {
            format!("{key}: digest {digest:#018x}, pinned {pinned:x?}")
        });
    }

    /// A workload self-check: fails the run if the workload stopped
    /// stressing the layer it exists for.
    pub fn self_check(&mut self, ok: bool, what: &str) {
        println!("self-check {}: {what}", if ok { "ok" } else { "FAILED" });
        self.checks
            .check(ok, || format!("self-check failed: {what}"));
    }
}

/// Keeps one repetition's times; false, keeping nothing, when their count
/// differs from the first repetition's.
fn keep_rep(reps: &mut Vec<Vec<f64>>, times: &[f64]) -> bool {
    let same = reps.first().is_none_or(|first| first.len() == times.len());
    if same {
        reps.push(times.to_vec());
    }
    same
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .unwrap_or_else(|| usage("--seconds needs a number in (0, 600]"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag '{flag}'")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    // Non-finite values are not JSON; they only arise from a broken run,
    // which the checks already mark incorrect.
    let v = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args = parse_args();
    println!(
        "perfbench {} seed {} seconds {} trace {} workers {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        pcm_util::Pool::new(0).threads()
    );
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace);
    match args.workload {
        Workload::LifetimeCompwf => lifetime::run(&mut ctx, lifetime::Shape::Compwf),
        Workload::LifetimeGrid => lifetime::run(&mut ctx, lifetime::Shape::Grid),
        Workload::ServeMixed => serve::run(&mut ctx),
        Workload::Montecarlo => montecarlo::run(&mut ctx),
    }

    if args.trace {
        finish_trace(&mut ctx, &args);
    }
    if ctx.checks.attempted == 0 {
        ctx.checks
            .check(false, || "the workload checked no output".into());
    }
    let rss = ctx.rss_mib.unwrap_or(f64::NAN);
    ctx.checks
        .check(rss.is_finite(), || "peak RSS unreadable".into());
    let (p50s, tails) = ctx.rep_ops_us[0].clone();
    let setup_s = ctx.setup_s.clone();
    // Every operation is deterministic and repeated; each one's median
    // over the repetitions is its typical cost on the shared machine.
    let (work_per_s, op_p50, op_tail) = match ctx.op_medians() {
        Some((ops, per_s)) => {
            let s = stats::summarize(&ops);
            ctx.named("op_median_us", "us", &ops);
            (per_s, s.median, s.tail)
        }
        None => (f64::NAN, f64::NAN, f64::NAN),
    };
    ctx.checks
        .check(work_per_s > 0.0, || "no work was timed".into());
    // A set-up sample lasts milliseconds, and every run has quiet moments
    // that short: the least sample is the build's own cost, where the
    // median followed how busy the neighbours were during the run.
    let e2e = [
        stats::best(&setup_s, false),
        work_per_s,
        op_p50,
        op_tail,
        rss,
    ];
    // Per repetition: the median and tail of its operations' times.
    ctx.named("setup_s", "s", &setup_s);
    ctx.named("rep_op_p50_us", "us", &p50s);
    ctx.named("rep_op_tail_us", "us", &tails);

    for (name, unit, s, best) in &ctx.named {
        println!(
            "{name:<28} median {:>14.4}  p{:<4} {:>14.4}  best {:>14.4}  n {:>6}  [{unit}]",
            s.median, s.tail_pct, s.tail, best, s.n
        );
    }
    let failed_ratio = stats::ops_failed_ratio(ctx.checks.attempted, ctx.checks.failed);
    println!(
        "{:<28} {failed_ratio} [ratio] ({} of {} operations failed)",
        "ops_failed_ratio", ctx.checks.failed, ctx.checks.attempted
    );
    for note in &ctx.checks.notes {
        println!("check failed: {note}");
    }
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = ctx.layers.get(name).copied().unwrap_or(0.0);
                println!("{name:<36} {v:>16.4} [{unit}]");
                json_metric(name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|((name, unit), v)| {
                println!("{name:<28} {v:.6} [{unit}]");
                json_metric(name, v, unit)
            })
            .collect()
    };
    let correct = ctx.checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.checks.attempted,
        ctx.checks.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Adds the traced run's own metrics — tracing overhead and per-layer self
/// time — and writes the spans out.
fn finish_trace(ctx: &mut Ctx, args: &Args) {
    let median = |v: &[f64]| stats::summarize(v).median;
    let (untraced, traced) = (&ctx.rep_ops_us[0].0, &ctx.rep_ops_us[1].0);
    if !untraced.is_empty() && !traced.is_empty() {
        let overhead = median(traced) / median(untraced) - 1.0;
        ctx.layers.insert("tracing.overhead_share", overhead);
    }
    for (layer, ns) in spans::layer_self_ns(ctx.tracer.spans()) {
        if let Some((name, _)) = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("self_ms.") == Some(layer))
        {
            ctx.layers.insert(name, ns as f64 / 1e6);
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let path = std::path::Path::new(&target)
        .join("perfbench-spans")
        .join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
    match ctx.tracer.write_tsv(&path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            ctx.tracer.spans().len(),
            path.display()
        ),
        Err(e) => ctx
            .checks
            .check(false, || format!("writing {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let quoted = |n: &str| format!("\"name\": \"{n}\"");
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&quoted(name)),
                "{name} missing from BENCHMARK.json"
            );
        }
        let listed = json.matches("\"name\": ").count();
        let workloads = Workload::ALL.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for w in Workload::ALL {
            assert!(json.contains(&quoted(w.name())), "{} missing", w.name());
        }
    }

    #[test]
    fn measure_splits_the_traced_run() {
        // Each repetition notes how many builds ran since the last one.
        let builds = std::cell::Cell::new(0u32);
        let mut build = |_: &mut Ctx| builds.set(builds.get() + 1);
        let rep = |c: &mut Ctx| {
            assert!(builds.replace(0) > 0, "no set-up before the repetition");
            c.rep_ops(&[1.0]);
        };
        let mut ctx = Ctx::new(3, 0.01, true);
        ctx.measure(2, 3, &mut build, rep);
        assert!(ctx.rep_ops_us[0].0.len() >= 2);
        assert!((2..=3).contains(&ctx.rep_ops_us[1].0.len()));
        assert!(ctx.tracer.is_on());
        // Only the untraced half's set-up is sampled: at least one sample
        // per untraced repetition's set-up call.
        let untraced = ctx.rep_ops_us[0].0.len();
        let per_call = (SETUP_CALL.as_nanos() / SETUP_SAMPLE.as_nanos()) as usize;
        assert!((untraced..=untraced * per_call).contains(&ctx.setup_s.len()));
        let mut ctx = Ctx::new(3, 0.0001, false);
        ctx.measure(4, 0, &mut build, rep);
        assert!(ctx.rep_ops_us[0].0.len() >= 4 && ctx.rep_ops_us[1].0.is_empty());
    }

    #[test]
    fn only_untraced_repetitions_are_kept() {
        let mut ctx = Ctx::new(3, 1.0, true);
        ctx.rep_ops(&[3.0, 1.0, 5.0]);
        ctx.rep_ops(&[2.0, 4.0, 6.0]);
        ctx.tracer.set_on(true);
        ctx.rep_ops(&[0.5, 0.5, 0.5]);
        assert_eq!(ctx.op_reps, vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 6.0]]);
        assert_eq!(ctx.rep_ops_us[0].0, vec![3.0, 4.0]);
        assert_eq!(ctx.rep_ops_us[1].0, vec![0.5]);
        assert_eq!(ctx.checks.failed, 0);
        ctx.tracer.set_on(false);
        ctx.rep_ops(&[1.0]);
        assert_eq!((ctx.checks.failed, ctx.op_reps.len()), (1, 2));
    }

    #[test]
    fn work_rate_sums_each_operations_median_time() {
        let mut ctx = Ctx::new(3, 1.0, true);
        assert!(ctx.op_medians().is_none());
        ctx.work_per_rep(600.0);
        ctx.rep_ops(&[2e5, 3e5]);
        ctx.rep_ops(&[4e5, 1e5]);
        ctx.rep_ops(&[3e5, 2e5]);
        ctx.tracer.set_on(true);
        ctx.rep_ops(&[1.0, 1.0]);
        // Medians 3e5 and 2e5 µs: 600 over half a second.
        assert_eq!(ctx.op_medians(), Some((vec![3e5, 2e5], 1200.0)));
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "bad".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.notes, vec!["bad".to_string()]);
    }
}
