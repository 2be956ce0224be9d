//! `serve-mixed`: the `pcm-serve` engine under a batch replay, then online
//! wire traffic.
//!
//! Endurance is low (100) so faults, slides and `LineDead` responses appear
//! within the run. Phase one replays a `TrafficGen` script through
//! `Engine::run_script`. Phase two continues the same traffic as encoded
//! wire frames — WRITEs with READs beside them and a TELEMETRY every 1024
//! requests — fed by one closed-loop client through `Daemon::handle_bytes`,
//! one request in flight, since the daemon serves one connection at a time.
//! Every write is real. This is the only workload that runs the protocol,
//! router and telemetry.
//!
//! The request mix — one READ after every fourth WRITE, one TELEMETRY
//! every 1024 requests — is an assumption: `TrafficGen` makes only writes,
//! and nothing in the workspace states a read or polling rate. At
//! seed 1 the text report's `wire_share.*` lines put about 73% of wire
//! host time in writes, 2% in reads and 25% in TELEMETRY, whose rendering
//! costs about 1.7 ms. The per-request `op_*` figures barely see it: at
//! one request in 1024, TELEMETRY is a tenth of the 1% above p99.
//!
//! A repetition serves [`FLEETS`] independent daemons, each with its own
//! seed-derived fleet and tenant population. The request mix — above all
//! the share of writes that meet a dead line, which take several times as
//! long — hinges on when the few hottest lines of a Zipf population die;
//! one population made the median request time differ by half between
//! seeds, and pooling independent ones averages that out.
//!
//! The operation whose host time is reported is one wire request, and the
//! work is the wire requests: what the closed-loop client gets done. The
//! phase-one replay runs on both cores, and on a host shared with other
//! guests its rate spread 0.24 of its median over ten seeds against 0.10
//! for the one-threaded wire phase; the text report prints it as
//! `replay_writes_per_s`.

use crate::spans::now;
use crate::stats::{self, Digest};
use crate::Ctx;
use pcm_compress::compress_best_into;
use pcm_serve::protocol::{decode_response, encode_read, encode_telemetry, encode_write};
use pcm_serve::{
    ConnState, Daemon, Engine, FrameDecoder, ScriptedWrite, ServeConfig, Snapshot, TrafficGen,
};
use pcm_trace::profile::ALL_APPS;
use pcm_trace::BlockStream;
use pcm_util::stats::Ecdf;
use pcm_util::{child_seed, Line512, DATA_BYTES};
use std::collections::HashMap;
use std::time::Duration;

/// End of phase one and of phase two, in virtual bus cycles.
const REPLAY_CYCLES: u64 = 2_000_000;
const WIRE_CYCLES: u64 = 4_000_000;
/// Error status of a write or read that met an uncorrectable line.
const STATUS_LINE_DEAD: u8 = 7;
/// Independent daemons per repetition.
const FLEETS: u64 = 4;

/// One phase-two request.
enum Req {
    Write(ScriptedWrite),
    Read { tenant: u64, line: u64 },
    Telemetry,
}

impl Req {
    /// Span names of the request kinds, in [`Req::kind`] order.
    const SPANS: [&'static str; 3] = ["serve.write", "serve.read", "serve.telemetry"];

    fn kind(&self) -> usize {
        match self {
            Req::Write(_) => 0,
            Req::Read { .. } => 1,
            Req::Telemetry => 2,
        }
    }
}

/// One daemon's configuration and traffic.
struct Fleet {
    cfg: ServeConfig,
    replay: Vec<ScriptedWrite>,
    reqs: Vec<Req>,
    frames: Vec<Vec<u8>>,
}

/// The read model: per `(bank, line)`, the data of the most recent write
/// the engine acknowledged. A failed write leaves the line dead or, once a
/// wear-leveling move relocates it, holding the older acknowledged data.
type Acked = HashMap<(usize, u64), Line512>;

/// What one repetition produced, compared across repetitions.
#[derive(PartialEq)]
struct RepOutput {
    responses: u64,
    wear: Vec<u64>,
    snapshot: Snapshot,
    error_responses: u64,
}

fn config(seed: u64, fleet: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(child_seed(child_seed(seed, 3), fleet));
    cfg.endurance_mean = 100.0;
    cfg
}

/// Builds every fleet's traffic, frames and daemon.
fn build_fleets(
    seed: u64,
    script_s: &mut Vec<f64>,
    engine_ms: &mut Vec<f64>,
) -> (Vec<Fleet>, Vec<Daemon>) {
    let (mut fleets, mut daemons) = (Vec::new(), Vec::new());
    let (mut script, mut engine) = (0.0, 0.0);
    for k in 0..FLEETS {
        let cfg = config(seed, k);
        let t = now();
        let mut gen = TrafficGen::new(&cfg);
        let replay = gen.script_until(REPLAY_CYCLES);
        let writes = gen.script_until(WIRE_CYCLES);
        script += t.elapsed().as_secs_f64();
        let mut reqs = Vec::with_capacity(writes.len() * 5 / 4 + 64);
        for i in 0..writes.len() {
            reqs.push(Req::Write(writes[i].clone()));
            if i % 4 == 3 {
                // Alternate between the line just written and an older one.
                let src = &writes[if i % 8 == 3 { i - 1 } else { i / 2 }];
                reqs.push(Req::Read {
                    tenant: src.tenant,
                    line: src.line,
                });
            }
            if reqs.len() % 1024 == 1023 {
                reqs.push(Req::Telemetry);
            }
        }
        let frames = reqs.iter().map(encode).collect();
        let t = now();
        daemons.push(Daemon::new(cfg.clone()));
        engine += t.elapsed().as_secs_f64() * 1e3;
        fleets.push(Fleet {
            cfg,
            replay,
            reqs,
            frames,
        });
    }
    script_s.push(script);
    engine_ms.push(engine);
    (fleets, daemons)
}

fn encode(r: &Req) -> Vec<u8> {
    match r {
        Req::Write(w) => encode_write(w.at, w.tenant, w.line, &w.data),
        Req::Read { tenant, line } => encode_read(*tenant, *line),
        Req::Telemetry => encode_telemetry(),
    }
}

/// Runs both phases of one fleet on a fresh daemon, checking every
/// response. Appends the per-request times to `wire_ns`; returns the
/// replay time and the output to compare.
fn rep(
    ctx: &mut Ctx,
    inp: &Fleet,
    acked: &Acked,
    daemon: &mut Daemon,
    wire_ns: &mut Vec<u32>,
) -> (Duration, RepOutput) {
    let rep_span = ctx.tracer.open("serve.rep", None);
    let t = now();
    daemon.engine_mut().run_script(&inp.replay);
    let replay_end = now();
    let replay = replay_end - t;
    ctx.tracer.record("serve.replay", rep_span, t, replay_end);

    let mut last = acked.clone();

    let wire_span = ctx.tracer.open("serve.wire", rep_span);
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::with_capacity(4096);
    let mut digest = Digest::default();
    let mut error_responses = 0u64;
    for (req, frame) in inp.reqs.iter().zip(&inp.frames) {
        out.clear();
        let t = now();
        let state = daemon.handle_bytes(&mut decoder, frame, &mut out);
        let end = now();
        ctx.tracer.record(Req::SPANS[req.kind()], wire_span, t, end);
        wire_ns.push((end - t).as_nanos().min(u32::MAX as u128) as u32);
        digest.bytes(&out);

        let resp = decode_response(&out).filter(|&(_, _, used)| used == out.len());
        let bank_of = |tenant| daemon.engine().bank_of(tenant);
        let ok = match (req, resp) {
            (_, None) => false,
            (Req::Write(w), Some((status, body, _))) => {
                if status == 0 {
                    last.insert((bank_of(w.tenant), w.line), w.data);
                }
                error_responses += (status == STATUS_LINE_DEAD) as u64;
                (status == 0 && body.len() == 8) || (status == STATUS_LINE_DEAD && body.is_empty())
            }
            (Req::Read { tenant, line }, Some((status, body, _))) => {
                error_responses += (status == STATUS_LINE_DEAD) as u64;
                match status {
                    0 => last
                        .get(&(bank_of(*tenant), *line))
                        .is_some_and(|d| body == d.to_bytes()),
                    STATUS_LINE_DEAD => body.is_empty(),
                    _ => false,
                }
            }
            (Req::Telemetry, Some((status, body, _))) => status == 0 && !body.is_empty(),
        };
        ctx.checks.check(ok && state == ConnState::Open, || {
            format!(
                "wire request {}: bad response {:?}",
                wire_ns.len(),
                resp.map(|r| r.0)
            )
        });
    }
    ctx.tracer.close(wire_span);
    ctx.tracer.close(rep_span);
    let engine = daemon.engine();
    (
        replay,
        RepOutput {
            responses: digest.finish(),
            wear: engine.wear_digests(),
            snapshot: engine.snapshot(),
            error_responses,
        },
    )
}

/// Runs every fleet once on fresh daemons (or the given ones), returning
/// the total replay time, the per-request times and each fleet's output.
fn rep_all(
    ctx: &mut Ctx,
    fleets: &[Fleet],
    acked: &[Acked],
    daemons: Option<Vec<Daemon>>,
) -> (Duration, Vec<u32>, Vec<RepOutput>) {
    let mut daemons = daemons.unwrap_or_else(|| {
        fleets
            .iter()
            .map(|f| {
                let t = now();
                let d = Daemon::new(f.cfg.clone());
                ctx.tracer.record("serve.engine_new", None, t, now());
                d
            })
            .collect()
    });
    let mut replay = Duration::ZERO;
    let mut wire_ns = Vec::new();
    let mut outs = Vec::new();
    for ((fleet, acked), daemon) in fleets.iter().zip(acked).zip(&mut daemons) {
        let (r, out) = rep(ctx, fleet, acked, daemon, &mut wire_ns);
        replay += r;
        outs.push(out);
    }
    (replay, wire_ns, outs)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let (mut script_s, mut engine_ms) = (Vec::new(), Vec::new());
    let mut build = |_: &mut Ctx| build_fleets(seed, &mut script_s, &mut engine_ms);
    let (fleets, daemons) = ctx.setup(&mut build);
    let replay_writes: usize = fleets.iter().map(|f| f.replay.len()).sum();

    // Phase one's acknowledgements, from the same writes served one at a
    // time (`run_script` reports none).
    let acked: Vec<Acked> = fleets
        .iter()
        .map(|f| {
            let mut serial = Engine::new(f.cfg.clone());
            let mut acked = Acked::new();
            for w in &f.replay {
                if serial.write(w).is_ok() {
                    acked.insert((serial.bank_of(w.tenant), w.line), w.data);
                }
            }
            acked
        })
        .collect();

    // Warm-up on the daemons set-up built: fills caches and gives the
    // reference outputs.
    let (_, _, reference) = rep_all(ctx, &fleets, &acked, Some(daemons));

    let (mut replay_rates, mut wire_rates, mut replay_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wire_p50, mut wire_p99) = (Vec::new(), Vec::new());
    let mut wire_share: [Vec<f64>; 3] = Default::default();
    ctx.measure(3, 3, &mut build, |ctx| {
        let (replay, wire_ns, outs) = rep_all(ctx, &fleets, &acked, None);
        let ops_us: Vec<f64> = wire_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        ctx.rep_ops(&ops_us);
        if !ctx.tracer.is_on() {
            replay_rates.push(replay_writes as f64 / replay.as_secs_f64());
            replay_ms.push(replay.as_secs_f64() * 1e3);
            let wire_us = ops_us.iter().sum::<f64>();
            wire_rates.push(ops_us.len() as f64 / (wire_us / 1e6));
            let mut kind_us = [0.0; 3];
            for (req, us) in fleets.iter().flat_map(|f| &f.reqs).zip(&ops_us) {
                kind_us[req.kind()] += us;
            }
            for (share, us) in wire_share.iter_mut().zip(kind_us) {
                share.push(us / wire_us);
            }
            let ops = Ecdf::new(ops_us);
            wire_p50.push(ops.quantile(0.50));
            wire_p99.push(ops.quantile(0.99));
        }
        ctx.checks.check(outs == reference, || {
            "serve outputs differ from the warm-up run".into()
        });
    });

    // Oracle: a fresh engine replaying every write of both phases as one
    // script must end in the daemon's state (reads aside).
    let mut digest = Digest::default();
    for (fleet, out) in fleets.iter().zip(&reference) {
        let mut oracle = Engine::new(fleet.cfg.clone());
        let all: Vec<ScriptedWrite> = fleet
            .replay
            .iter()
            .cloned()
            .chain(fleet.reqs.iter().filter_map(|r| match r {
                Req::Write(w) => Some(w.clone()),
                _ => None,
            }))
            .collect();
        oracle.run_script(&all);
        let mut served = out.snapshot.clone();
        served.reads = 0;
        ctx.checks.check(
            oracle.wear_digests() == out.wear && oracle.snapshot() == served,
            || "daemon state differs from a fresh run_script over the same writes".into(),
        );

        let snap = &out.snapshot;
        for &w in &out.wear {
            digest.word(w);
        }
        digest
            .word(out.responses)
            .word(snap.writes)
            .word(snap.reads)
            .word(snap.faults)
            .word(snap.dead_lines)
            .word(snap.p50)
            .word(snap.p99)
            .word(snap.p999)
            .float(snap.compressed_fraction)
            .word(out.error_responses);
        ctx.self_check(
            snap.faults > 0 && out.error_responses > 0,
            &format!(
                "cells fail during the run ({} faults, {} error responses)",
                snap.faults, out.error_responses
            ),
        );
    }
    ctx.pin("serve-mixed", digest.finish());

    let requests: usize = fleets.iter().map(|f| f.reqs.len()).sum();
    ctx.work_per_rep(requests as f64);
    ctx.named("replay_writes_per_s", "1/s", &replay_rates);
    ctx.named("wire_requests_per_s", "1/s", &wire_rates);
    ctx.named("wire_p50_us", "us", &wire_p50);
    ctx.named("wire_p99_us", "us", &wire_p99);
    for (span, share) in Req::SPANS.iter().zip(&wire_share) {
        let kind = span.trim_start_matches("serve.");
        ctx.named(&format!("wire_share.{kind}"), "ratio", share);
    }
    ctx.named("serve.replay_ms", "ms", &replay_ms);
    ctx.named("trace.script_gen_s", "s", &script_s);

    if !ctx.tracing_run() {
        return;
    }
    ctx.layer("trace.script_gen_s", stats::median_of(&script_s));
    ctx.layer("serve.engine_new_ms", stats::median_of(&engine_ms));
    let span_us = |ctx: &Ctx, name: &str| -> Vec<f64> {
        ctx.tracer
            .durations_ns(name)
            .iter()
            .map(|ns| ns / 1e3)
            .collect()
    };
    let writes = span_us(ctx, "serve.write");
    if !writes.is_empty() {
        let writes = Ecdf::new(writes);
        ctx.layer("serve.write_us_p50", writes.quantile(0.50));
        ctx.layer("serve.write_us_p99", writes.quantile(0.99));
    }
    let reads = span_us(ctx, "serve.read");
    ctx.layer("serve.read_us", stats::median_of(&reads));
    let telemetry = span_us(ctx, "serve.telemetry");
    ctx.layer("serve.telemetry_us", stats::median_of(&telemetry));
    let sum = |f: fn(&RepOutput) -> u64| reference.iter().map(f).sum::<u64>() as f64;
    let demand = sum(|o| o.snapshot.writes);
    let compressed: f64 = reference
        .iter()
        .map(|o| o.snapshot.compressed_fraction * o.snapshot.writes as f64)
        .sum();
    ctx.layer("serve.writes", demand);
    ctx.layer("serve.reads", sum(|o| o.snapshot.reads));
    ctx.layer("serve.error_responses", sum(|o| o.error_responses));
    ctx.layer("serve.faults", sum(|o| o.snapshot.faults));
    ctx.layer("serve.dead_lines", sum(|o| o.snapshot.dead_lines));
    ctx.layer("serve.compressed_fraction", compressed / demand);
    let sim_p99 = reference.iter().map(|o| o.snapshot.p99).max().unwrap_or(0);
    ctx.layer("serve.sim_p99_cycles", sim_p99 as f64);

    // Replay parallel efficiency: each bank's partition replayed alone.
    let serial_span = ctx.tracer.open("serve.bank_serial", None);
    let mut serial_ms = 0.0;
    for fleet in &fleets {
        let mut engine = Engine::new(ServeConfig {
            shards: 1,
            ..fleet.cfg.clone()
        });
        let mut parts: Vec<Vec<ScriptedWrite>> = vec![Vec::new(); fleet.cfg.banks];
        for w in &fleet.replay {
            parts[engine.bank_of(w.tenant)].push(w.clone());
        }
        for part in &parts {
            let t = now();
            engine.run_script(part);
            let end = now();
            ctx.tracer.record("serve.bank_replay", serial_span, t, end);
            serial_ms += (end - t).as_secs_f64() * 1e3;
        }
    }
    ctx.tracer.close(serial_span);
    let shards = pcm_util::Pool::new(fleets[0].cfg.shards).threads() as f64;
    ctx.layer(
        "serve.replay.parallel_efficiency",
        serial_ms / (shards * stats::median_of(&replay_ms)),
    );

    // Protocol: encode and decode every phase-two frame.
    let reqs: Vec<&Req> = fleets.iter().flat_map(|f| &f.reqs).collect();
    let frames: Vec<&Vec<u8>> = fleets.iter().flat_map(|f| &f.frames).collect();
    let span = ctx.tracer.open("serve.protocol.encode", None);
    let t = now();
    let encoded: Vec<Vec<u8>> = reqs.iter().map(|r| encode(r)).collect();
    let encode_ns = t.elapsed().as_nanos() as f64;
    ctx.tracer.close(span);
    ctx.checks
        .check(encoded.iter().eq(frames.iter().copied()), || {
            "re-encoded frames differ".into()
        });
    let span = ctx.tracer.open("serve.protocol.decode", None);
    let t = now();
    let mut decoder = FrameDecoder::new();
    let mut decoded = 0usize;
    for frame in &frames {
        decoder.push(frame);
        while let Some(r) = decoder.next_frame() {
            decoded += r.is_ok() as usize;
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64;
    ctx.tracer.close(span);
    ctx.checks.check(decoded == frames.len(), || {
        format!("decoded {decoded} of {} frames", frames.len())
    });
    ctx.layer("serve.protocol.encode_ns", encode_ns / frames.len() as f64);
    ctx.layer("serve.protocol.decode_ns", decode_ns / frames.len() as f64);

    // Trace generation: the tenants' block streams, as the generator
    // builds them; compression: the replayed write data.
    let per_tenant = 500;
    let span = ctx.tracer.open("trace.blocks", None);
    let t = now();
    let mut blocks = 0u64;
    for fleet in &fleets {
        for tenant in 0..fleet.cfg.tenants {
            let app = ALL_APPS[(tenant % ALL_APPS.len() as u64) as usize];
            let seed = child_seed(fleet.cfg.seed, 1000 + tenant);
            let mut stream = BlockStream::new(app.profile(), seed);
            for _ in 0..per_tenant {
                std::hint::black_box(stream.next_data());
            }
            blocks += per_tenant;
        }
    }
    ctx.layer(
        "trace.ns_per_block",
        t.elapsed().as_nanos() as f64 / blocks as f64,
    );
    ctx.tracer.close(span);

    let mut buf = [0u8; DATA_BYTES];
    let (mut compressed, mut bytes) = (0usize, 0usize);
    let span = ctx.tracer.open("compress.lines", None);
    let t = now();
    for w in fleets.iter().flat_map(|f| &f.replay) {
        let (method, len) = compress_best_into(&w.data, &mut buf);
        compressed += method.is_compressed() as usize;
        bytes += len;
    }
    let n = replay_writes as f64;
    ctx.layer("compress.ns_per_line", t.elapsed().as_nanos() as f64 / n);
    ctx.tracer.close(span);
    ctx.layer("compress.compressed_share", compressed as f64 / n);
    ctx.layer("compress.mean_bytes", bytes as f64 / n);
}
