//! `warm_wire`: a closed loop of [`config::CLIENTS`] clients cycling the
//! hot set over the daemon after warm-up, so every answer is a cache hit
//! and the time goes to the wire, parsing, fingerprinting, the cache
//! lookup and encoding — the engines do nothing.

use crate::common::{relative_change, shuffle, Ctx, Metric, Outcome, Tally};
use crate::config;
use crate::daemon::{Conn, Daemon};
use crate::hotset::{self, check_solve, HotEntry};
use crate::layers::Counters;
use crate::stats::median;
use crate::trace::Tracer;
use repliflow_core::gen::Gen;
use serde::Value;
use std::time::{Duration, Instant};

const WORKLOAD: usize = 0;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let entries = hotset::build(&ctx.root, ctx.seed)?;
    let (daemon, setups) = hotset::setup(&ctx.serve_bin, ctx.nproc, &entries)?;
    let large = entries.iter().filter(|e| e.large).count();
    let mut meta = vec![
        ("hot_set".into(), Value::Int(entries.len() as i128)),
        ("hot_set_large".into(), Value::Int(large as i128)),
        ("clients".into(), Value::Int(config::CLIENTS as i128)),
        ("connections".into(), Value::Int(config::CLIENTS as i128)),
        (
            "fresh_connection_every".into(),
            Value::Int(config::FRESH_CONNECTION_EVERY as i128),
        ),
    ];
    let setup_s = median(&setups);
    let (tail_p, hit_p) = (
        config::TAIL_PERCENTILE[WORKLOAD],
        config::HIT_TAIL_PERCENTILE[WORKLOAD],
    );
    let outcome = if ctx.trace {
        traced(ctx, &daemon, &entries, &mut meta, tail_p, hit_p)
    } else {
        let (mut tally, _) = live_loop(&daemon, &entries, ctx.seconds, ctx.seed, false);
        let (mut metrics, tally_meta) = tally.end_to_end(tail_p, hit_p);
        metrics.insert(0, Metric::new("setup_s", setup_s, "s"));
        metrics.push(Metric::new("peak_rss_mb", daemon.peak_rss_mb(), "MB"));
        meta.extend(tally_meta);
        Ok(Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            correct: tally.wrong == 0,
            metrics,
            meta: Vec::new(),
            errors: tally.errors,
        })
    };
    let drained = daemon.shutdown();
    let mut outcome = outcome?;
    drained?;
    meta.push((
        "setups_s".into(),
        Value::Array(setups.into_iter().map(Value::Float).collect()),
    ));
    outcome.meta.extend(meta);
    Ok(outcome)
}

/// The measured closed loop: every client cycles a seeded permutation
/// of the hot set on its own connection, reconnecting before about one
/// request in [`config::FRESH_CONNECTION_EVERY`].
fn live_loop(
    daemon: &Daemon,
    entries: &[HotEntry],
    seconds: f64,
    seed: u64,
    traced: bool,
) -> (Tally, Option<Tracer>) {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let results: Vec<(Tally, Option<Tracer>)> = repliflow_sync::thread::scope(|scope| {
        let handles: Vec<_> = (0..config::CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    client_loop(daemon, entries, seed, client, epoch, deadline, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut tracer = traced.then(|| Tracer::new(epoch));
    for (t, spans) in results {
        tally.merge(t);
        if let (Some(all), Some(spans)) = (tracer.as_mut(), spans) {
            all.merge(spans);
        }
    }
    (tally, tracer)
}

fn client_loop(
    daemon: &Daemon,
    entries: &[HotEntry],
    seed: u64,
    client: usize,
    epoch: Instant,
    deadline: Instant,
    traced: bool,
) -> (Tally, Option<Tracer>) {
    let mut gen = Gen::new(seed.wrapping_mul(31).wrapping_add(client as u64 + 1));
    let mut order: Vec<usize> = (0..entries.len()).collect();
    shuffle(&mut order, &mut gen);
    let mut tally = Tally::default();
    let mut tracer = traced.then(|| Tracer::new(epoch));
    let mut conn: Option<Conn> = None;
    let mut next = 0;
    // every FRESH_CONNECTION_EVERY-th request reconnects, at a seeded phase
    let phase = gen.int(0, config::FRESH_CONNECTION_EVERY - 1);
    let mut sent_count = 0u64;
    // ids are unique per client; the high bits name the client
    let mut id = (client as u64 + 1) << 40;
    loop {
        let start = Instant::now();
        if start >= deadline {
            break;
        }
        if next == order.len() {
            shuffle(&mut order, &mut gen);
            next = 0;
        }
        let entry = &entries[order[next]];
        next += 1;
        id += 1;
        sent_count += 1;
        let fresh = conn.is_none() || sent_count % config::FRESH_CONNECTION_EVERY == phase;
        let sent = (|| -> std::io::Result<()> {
            if fresh {
                conn = Some(Conn::connect(&daemon.addr)?);
            }
            let c = conn.as_mut().expect("connected above");
            c.send(id, &entry.line)?;
            c.recv()
        })();
        let took = start.elapsed();
        let ms = took.as_secs_f64() * 1e3;
        tally.elapsed_s = (start + took - epoch).as_secs_f64();
        match sent {
            Err(e) => {
                conn = None;
                tally.fail(ms, format!("{}: {e}", entry.name));
            }
            Ok(()) => {
                let line = &conn.as_ref().expect("connected").line;
                match check_solve(line, id, &entry.canonical) {
                    // Every answer is a hit; the hit class is the cheap
                    // ones, the small lines, so `hit_tail_ms` shows a
                    // reconnect's accept wait and the wait behind large
                    // lines without the large lines' own time.
                    Ok(true) => tally.ok(ms, !entry.large, entry.proven(), config::SLO_HIT_MS),
                    Ok(false) => tally.fail(ms, format!("{} was not a cache hit", entry.name)),
                    Err(e) => tally.wrong(ms, e),
                }
            }
        }
        if let Some(t) = tracer.as_mut() {
            let name = if entry.large {
                "hit.large"
            } else {
                "hit.small"
            };
            t.record(name, "loadgen", None, id, start, took);
        }
    }
    (tally, tracer)
}

/// The traced invocation: half the run untraced, half with spans on
/// (their p50 difference is the tracing overhead), then the stage
/// replay and the fresh-connection probes.
fn traced(
    ctx: &Ctx,
    daemon: &Daemon,
    entries: &[HotEntry],
    meta: &mut Vec<(String, Value)>,
    tail_p: f64,
    hit_p: f64,
) -> Result<Outcome, String> {
    let half = ctx.seconds / 2.0;
    let (mut plain, _) = live_loop(daemon, entries, half, ctx.seed, false);
    let before = Counters::from_stats(&daemon.stats()?);
    let (mut tally, live) = live_loop(daemon, entries, half, ctx.seed ^ 0x7ACE, true);
    let after = Counters::from_stats(&daemon.stats()?);

    let mut replay = Tracer::new(Instant::now());
    let mut request = 0u64;
    let first_reply = hotset::first_reply_us(daemon, &mut replay, &mut request)?;
    let mut metrics = hotset::replay_hits(daemon, entries, &mut replay, &mut request)?;
    metrics.push(Metric::new("serve.first_reply_us", first_reply, "us"));
    metrics.extend(after.since(&before).metrics(tally.elapsed_s, ctx.nproc));
    metrics.push(Metric::new(
        "trace.overhead_share",
        relative_change(tally.latency.median(), plain.latency.median()),
        "share",
    ));
    for (layer, ms) in replay.self_ms() {
        metrics.push(Metric::new(format!("layer.{layer}.self_ms"), ms, "ms"));
    }
    let (_, tally_meta) = tally.end_to_end(tail_p, hit_p);
    meta.extend(tally_meta);
    meta.push(("replayed_requests".into(), Value::Int(request as i128)));
    let mut spans = live.unwrap_or_else(|| Tracer::new(Instant::now()));
    spans.merge(replay);
    crate::write_spans(ctx, "warm_wire", &spans, meta);
    let attempted = plain.attempted + tally.attempted;
    let failed = plain.failed + tally.failed;
    let wrong = plain.wrong + tally.wrong;
    let mut errors = plain.errors;
    errors.extend(tally.errors);
    Ok(Outcome {
        attempted,
        failed,
        correct: wrong == 0,
        metrics,
        meta: Vec::new(),
        errors,
    })
}
