//! The three workloads. Each runs in its own process, so `setup_s` and
//! `peak_rss_mb` are its own; every run reports every end-to-end metric
//! (untraced) or every per-layer metric (traced).
//!
//! A run measures in rounds: each round yields latency samples and its own
//! throughput. The median latency pools every round's samples; the tail
//! and the throughput are medians over rounds, so a burst of outside load
//! during one round does not decide the run's figure.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use multiem_core::{MultiEm, MultiEmConfig};
use multiem_embed::HashedLexicalEncoder;
use multiem_eval::evaluate;
use multiem_serve::metrics::percentile_ms;
use serde::Value;

use crate::load::{self, closed_loop, open_loop, Book, Op, Stream, Timings};
use crate::replay;
use crate::report::{Report, Summary};
use crate::trace::Recorder;

/// `batch-shopee`: MultiEM on the 20-table shopee preset at this scale,
/// where merge levels 1-4 use brute force and the last level's larger
/// table (~2.2k items) crosses `hnsw_threshold` (2 000) with margin.
const BATCH_SCALE: f64 = 0.18;
/// Minimum pipeline runs (rounds) per measurement.
const BATCH_MIN_RUNS: usize = 3;

/// `match-open`: music-20 at this scale; sources 0..4 prefill a 2-shard
/// in-memory server (each shard stays below `hnsw_threshold`), source 4
/// is the query set.
const MATCH_SCALE: f64 = 0.2;
const MATCH_SHARDS: usize = 2;
const MATCH_HELD_OUT_SOURCE: u32 = 4;
/// Open-loop rate of phase A, about a quarter of one client's capacity.
const MATCH_RATE: f64 = 100.0;
/// Share of each round given to phase A (the rest is phase B).
const MATCH_PHASE_A_SHARE: f64 = 0.6;
/// Rounds of (phase A, phase B) `--seconds` is split into.
const MATCH_ROUNDS: u32 = 10;

/// `ingest-cross`: the first `INGEST_OPS` records of interleaved music-20
/// at this scale against a durable 1-shard server; every
/// `INGEST_READ_EVERY`th op is a match instead of an insert. The shard
/// crosses `hnsw_threshold` after roughly 2 600-2 800 inserts, and about
/// 600 inserts follow the upgrade: one crossing per run.
const INGEST_SCALE: f64 = 0.3;
const INGEST_OPS: usize = 4_200;
const INGEST_READ_EVERY: usize = 5;
const LOADERS: usize = 2;

/// Ops of the serve probe the traced `batch-shopee` run replays (its own
/// workload has no serve path).
const BATCH_SERVE_PROBE_OPS: usize = 600;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Names of the workloads, in the order the benchmark declares them.
pub const WORKLOADS: [&str; 3] = ["batch-shopee", "match-open", "ingest-cross"];

/// Run one workload.
pub fn run(args: &Args, scratch: &Path) -> Report {
    match args.workload.as_str() {
        "batch-shopee" => batch_shopee(args, scratch),
        "match-open" => match_open(args, scratch),
        "ingest-cross" => ingest_cross(args, scratch),
        other => unreachable!("unknown workload {other} passed validation"),
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

fn setup_metric(report: &mut Report, setup_s: Vec<f64>) {
    let note = format!("median of {} set-ups", setup_s.len());
    report.metric("setup_s", "s", median(setup_s), note);
}

/// The timed operation of a workload, round by round.
#[derive(Debug, Default)]
struct Rounds {
    /// Every latency sample, pooled.
    samples: Vec<u64>,
    /// Each round's latency summary.
    summaries: Vec<Summary>,
    /// Each round's wall-clock throughput (items per second).
    rates: Vec<f64>,
    /// Each round's CPU cost (CPU milliseconds per item).
    cpu_ms: Vec<f64>,
}

impl Rounds {
    /// Record a round: its latency samples, and `items` completed in
    /// `wall` while the process used `cpu_s` CPU seconds.
    fn add(&mut self, samples: &[u64], items: usize, wall: Duration, cpu_s: f64) {
        self.samples.extend_from_slice(samples);
        self.summaries.push(Summary::of(samples.to_vec()));
        self.rates.push(items as f64 / wall.as_secs_f64());
        self.cpu_ms.push(cpu_s * 1e3 / items.max(1) as f64);
    }
}

/// The end-to-end metrics every workload reports, from its rounds. The
/// median pools every sample; the tail (the reporting rule applied to each
/// round's samples) and the CPU cost are medians over rounds. Returns the
/// pooled summary and the median wall-clock throughput for the report's
/// named lines.
fn end_to_end(
    report: &mut Report,
    what: &str,
    rounds: Rounds,
    item: &str,
    quality: (f64, String),
) -> (Summary, f64) {
    let n_rounds = rounds.rates.len();
    let pooled = Summary::of(rounds.samples);
    let tails: Vec<f64> = rounds.summaries.iter().map(|s| s.tail_ms).collect();
    let tail_label = rounds.summaries.first().map_or("max", |s| s.tail_label);
    report.metric(
        "op_p50_ms",
        "ms",
        pooled.p50_ms,
        format!("{what} median, n={}", pooled.n),
    );
    report.metric(
        "op_tail_ms",
        "ms",
        median(tails),
        format!("{what} {tail_label} per round, median of {n_rounds} rounds"),
    );
    report.metric(
        "cpu_ms_per_item",
        "ms",
        median(rounds.cpu_ms),
        format!("process CPU per {item}, median of {n_rounds} rounds"),
    );
    report.metric("quality", "ratio", quality.0, quality.1);
    report.metric(
        "peak_rss_mb",
        "MiB",
        load::peak_rss_mb(),
        "VmHWM of the benchmark process",
    );
    let rates: Vec<String> = rounds.rates.iter().map(|r| format!("{r:.1}")).collect();
    report.notes.push(format!(
        "{item}s per second, per round [{}]",
        rates.join(", ")
    ));
    (pooled, median(rounds.rates))
}

/// A human-report line under the workload-level name of a figure.
fn named(report: &mut Report, name: &str, value: f64, unit: &str, detail: impl std::fmt::Display) {
    report
        .notes
        .push(format!("{name} = {value:.4} {unit} ({detail})"));
}

/// Named lines for a latency summary: `<prefix>.p50_ms`, `<prefix>.p99_ms`
/// (the pooled tail, whichever percentile the rule picks) and, when asked,
/// `<prefix>.max_ms`.
fn named_latency(report: &mut Report, prefix: &str, s: &Summary, with_max: bool) {
    named(
        report,
        &format!("{prefix}.p50_ms"),
        s.p50_ms,
        "ms",
        format!("median, n={}", s.n),
    );
    named(
        report,
        &format!("{prefix}.p99_ms"),
        s.tail_ms,
        "ms",
        format!("{}, n={}", s.tail_label, s.n),
    );
    if with_max {
        named(
            report,
            &format!("{prefix}.max_ms"),
            s.max_ms,
            "ms",
            format!("max, n={}", s.n),
        );
    }
}

fn hit_at_1(hits: usize, scored: usize, what: &str) -> (f64, String) {
    (
        hits as f64 / scored.max(1) as f64,
        format!("{what} ({hits}/{scored})"),
    )
}

fn batch_shopee(args: &Args, scratch: &Path) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut stream = None;
    for _ in 0..if args.trace { 1 } else { 5 } {
        let started = Instant::now();
        stream = Some(Stream::generate("shopee", BATCH_SCALE, args.seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let stream = stream.expect("at least one set-up");
    let dataset = &stream.dataset;
    let entities = dataset.total_entities();

    if args.trace {
        let mut rec = Recorder::default();
        let core = replay::traced_pipeline(&mut rec, dataset);
        let ops = serve_ops(BATCH_SERVE_PROBE_OPS.min(stream.ids.len()));
        let probe = serve_probe(&mut report, &stream, &ops, scratch);
        let replayed =
            replay::replay_serve(&mut rec, &stream, &ops, 1, &scratch.join("replay.wal"));
        let all: Vec<usize> = (0..stream.ids.len()).collect();
        replay::ann_probes(&mut rec, &stream, &all, &positions(&ops, false));
        layer_metrics(&mut report, &rec, core, probe, replayed, LATE_CLOSED);
        finish_trace(&rec, args, scratch);
        return report;
    }

    let pipeline = MultiEm::new(MultiEmConfig::default(), HashedLexicalEncoder::default());
    let truth = dataset
        .ground_truth()
        .expect("generated datasets carry ground truth");
    let started = Instant::now();
    let mut rounds = Rounds::default();
    let mut first = None;
    while rounds.rates.len() < BATCH_MIN_RUNS
        || started.elapsed() < Duration::from_secs(args.seconds)
    {
        let (run_started, cpu_started) = (Instant::now(), load::cpu_seconds());
        let output = pipeline.run(dataset);
        let took = run_started.elapsed();
        let cpu_s = load::cpu_seconds() - cpu_started;
        rounds.add(&[load::ns(took)], entities, took, cpu_s);
        match (output, &first) {
            (Ok(output), None) => {
                report.tally.record(true);
                first = Some(output.tuples);
            }
            (Ok(output), Some(tuples)) => report.tally.record(output.tuples == *tuples),
            (Err(_), _) => report.tally.record(false),
        }
    }
    let tuples = first.unwrap_or_default();
    let f1 = evaluate(&tuples, truth).pair.f1;
    report.check("every run finds the same tuples", report.tally.failed == 0);
    report.check("pair-F1 is positive", f1 > 0.0);
    setup_metric(&mut report, setup_s);
    let runs = rounds.rates.len();
    let (_, rate) = end_to_end(
        &mut report,
        "MultiEm::run",
        rounds,
        "entity",
        (f1, format!("batch.pair_f1 over {} tuples", tuples.len())),
    );
    named(
        &mut report,
        "batch.entities_per_s",
        rate,
        "1/s",
        format!("median of {runs} runs"),
    );
    named(
        &mut report,
        "batch.pair_f1",
        f1,
        "ratio",
        format!("{} tuples", tuples.len()),
    );
    report
}

fn match_open(args: &Args, scratch: &Path) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..if args.trace { 1 } else { 3 } {
        // Tear the previous set-up down before timing the next one.
        drop(live.take());
        let started = Instant::now();
        let stream = Stream::generate("music-20", MATCH_SCALE, args.seed);
        let server = load::spawn_server(&stream, MATCH_SHARDS, None);
        let book = Book::new(stream.ids.len());
        let prefill = closed_loop(
            &server.addr().to_string(),
            1,
            &catalog_ops(&stream),
            None,
            &stream,
            &book,
        );
        setup_s.push(started.elapsed().as_secs_f64());
        live = Some((stream, server, book, prefill));
    }
    let (stream, server, book, prefill) = live.expect("at least one set-up");
    let addr = server.addr().to_string();
    report.tally.add(prefill.tally);
    let inserts = prefill.write_ns.len();
    let queries: Vec<Op> = (0..stream.ids.len())
        .filter(|&pos| stream.ids[pos].source == MATCH_HELD_OUT_SOURCE)
        .map(Op::Match)
        .collect();

    let round_len = Duration::from_secs_f64(args.seconds as f64 / f64::from(MATCH_ROUNDS));
    let mut rounds = Rounds::default();
    let mut phase_a = Timings::default();
    let mut phase_b_rps = Vec::new();
    for _ in 0..MATCH_ROUNDS {
        let (round_started, cpu_started) = (Instant::now(), load::cpu_seconds());
        let a = match open_loop(
            &addr,
            MATCH_RATE,
            round_len.mul_f64(MATCH_PHASE_A_SHARE),
            &queries,
            &stream,
            &book,
        ) {
            Ok(timings) => timings,
            Err(_) => {
                report.check("open-loop connection", false);
                Timings::default()
            }
        };
        // The traced run only needs phase A's client side.
        if !args.trace {
            let until = Instant::now() + round_len.mul_f64(1.0 - MATCH_PHASE_A_SHARE);
            let b = closed_loop(&addr, LOADERS, &queries, Some(until), &stream, &book);
            report.tally.add(b.tally);
            phase_b_rps.push(b.read_ns.len() as f64 / b.elapsed.as_secs_f64());
            rounds.add(
                &a.read_ns,
                a.read_ns.len() + b.read_ns.len(),
                round_started.elapsed(),
                load::cpu_seconds() - cpu_started,
            );
        }
        phase_a.merge(a);
    }
    report.tally.add(phase_a.tally);
    let stats = load::fetch_stats(&addr);
    report.check(
        "/stats counts every prefilled record",
        stats_u64(&stats, "records") == Some(inserts as u64),
    );
    let (hits, scored) = book.hits();
    report.check("hit@1 is scored on held-out queries", scored > 0);
    drop(server);

    if args.trace {
        let mut rec = Recorder::default();
        let core = replay::traced_pipeline(&mut rec, &stream.dataset);
        let sent = phase_a.read_ns.len().max(1);
        let ops: Vec<Op> = catalog_ops(&stream)
            .into_iter()
            .chain((0..sent).map(|i| queries[i % queries.len()]))
            .collect();
        let replayed = replay::replay_serve(
            &mut rec,
            &stream,
            &ops,
            MATCH_SHARDS,
            &scratch.join("replay.wal"),
        );
        replay::ann_probes(
            &mut rec,
            &stream,
            &positions(&ops, true),
            &positions(&queries, false),
        );
        let probe = Probe {
            writes: prefill.write_ns,
            reads: phase_a.read_ns,
            late: phase_a.late_ns,
            stats,
        };
        layer_metrics(&mut report, &rec, core, probe, replayed, LATE_OPEN);
        finish_trace(&rec, args, scratch);
        return report;
    }

    setup_metric(&mut report, setup_s);
    let quality = hit_at_1(hits, scored, "match.hit_at_1 over held-out queries");
    let (rps, hit) = (median(phase_b_rps), quality.0);
    let (phase_a, _) = end_to_end(
        &mut report,
        &format!("POST /match open loop at {MATCH_RATE}/s"),
        rounds,
        "match request",
        quality,
    );
    named_latency(&mut report, "match", &phase_a, false);
    named(
        &mut report,
        "match.rps",
        rps,
        "1/s",
        format!("phase B, {LOADERS} clients"),
    );
    named(
        &mut report,
        "match.hit_at_1",
        hit,
        "ratio",
        format!("{hits}/{scored} queries"),
    );
    report
}

fn ingest_cross(args: &Args, scratch: &Path) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let data_dir = scratch.join("data");
    let mut live = None;
    for _ in 0..if args.trace { 1 } else { 5 } {
        drop(live.take());
        let started = Instant::now();
        let stream = Stream::generate("music-20", INGEST_SCALE, args.seed);
        let _ = std::fs::remove_dir_all(&data_dir);
        std::fs::create_dir_all(&data_dir).expect("create data dir");
        let server = load::spawn_server(&stream, 1, Some(data_dir.clone()));
        setup_s.push(started.elapsed().as_secs_f64());
        live = Some((stream, server));
    }
    let (stream, server) = live.expect("at least one set-up");
    let addr = server.addr().to_string();
    let ops = serve_ops(INGEST_OPS.min(stream.ids.len()));
    let book = Book::new(stream.ids.len());
    let cpu_started = load::cpu_seconds();
    let load = closed_loop(&addr, LOADERS, &ops, None, &stream, &book);
    let cpu_s = load::cpu_seconds() - cpu_started;
    report.tally.add(load.tally);
    let stats = load::fetch_stats(&addr);
    report.check(
        "/stats counts every acked insert",
        stats_u64(&stats, "records") == Some(book.acked() as u64),
    );
    check_crossed(&mut report, "server", shard_stats(&stats));
    let (hits, scored) = book.hits();
    report.check("hit@1 is scored on reads", scored > 0);
    drop(server);

    if args.trace {
        let mut rec = Recorder::default();
        let core = replay::traced_pipeline(&mut rec, &stream.dataset);
        let replayed =
            replay::replay_serve(&mut rec, &stream, &ops, 1, &scratch.join("replay.wal"));
        if let Ok(stats) = &replayed {
            let shards = stats
                .shards
                .iter()
                .map(|s| (s.rebuilds as u64, (s.index_nodes - s.stale_nodes) as u64))
                .collect();
            check_crossed(&mut report, "replay", Some(shards));
        }
        replay::ann_probes(
            &mut rec,
            &stream,
            &positions(&ops, true),
            &positions(&ops, false),
        );
        let inserts = rec.durations("shard.insert");
        let (slowest, longest) = inserts
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, d)| d)
            .unwrap_or_default();
        report.notes.push(format!(
            "client ingest max {:.1} ms; longest replayed shard.insert {:.1} ms, insert #{slowest} of {}",
            Summary::of(load.write_ns.clone()).max_ms,
            longest as f64 / 1e6,
            inserts.len()
        ));
        let probe = Probe {
            writes: load.write_ns,
            reads: load.read_ns,
            late: load.late_ns,
            stats,
        };
        layer_metrics(&mut report, &rec, core, probe, replayed, LATE_CLOSED);
        finish_trace(&rec, args, scratch);
        return report;
    }

    setup_metric(&mut report, setup_s);
    let rps = load.write_ns.len() as f64 / load.elapsed.as_secs_f64();
    let mut rounds = Rounds::default();
    let requests = load.write_ns.len() + load.read_ns.len();
    rounds.add(&load.write_ns, requests, load.elapsed, cpu_s);
    let (writes, _) = end_to_end(
        &mut report,
        "POST /records",
        rounds,
        "request",
        hit_at_1(hits, scored, "hit@1 of reads beside ingest"),
    );
    named_latency(&mut report, "ingest", &writes, true);
    named(
        &mut report,
        "ingest.rps",
        rps,
        "1/s",
        format!("acked inserts, {LOADERS} loaders"),
    );
    named_latency(&mut report, "match", &Summary::of(load.read_ns), false);
    report
}

/// The interleaved stream as serve ops: every `INGEST_READ_EVERY`th
/// position is a match, the rest are inserts.
fn serve_ops(len: usize) -> Vec<Op> {
    (0..len)
        .map(|pos| {
            if pos % INGEST_READ_EVERY == INGEST_READ_EVERY - 1 {
                Op::Match(pos)
            } else {
                Op::Insert(pos)
            }
        })
        .collect()
}

fn catalog_ops(stream: &Stream) -> Vec<Op> {
    (0..stream.ids.len())
        .filter(|&pos| stream.ids[pos].source != MATCH_HELD_OUT_SOURCE)
        .map(Op::Insert)
        .collect()
}

/// Stream positions of the inserts (`inserts`) or matches of `ops`.
fn positions(ops: &[Op], inserts: bool) -> Vec<usize> {
    ops.iter()
        .filter_map(|&op| match (op, inserts) {
            (Op::Insert(pos), true) | (Op::Match(pos), false) => Some(pos),
            _ => None,
        })
        .collect()
}

/// Client-side numbers the layer metrics are set against.
struct Probe {
    writes: Vec<u64>,
    reads: Vec<u64>,
    late: Vec<u64>,
    stats: std::io::Result<Value>,
}

/// How `gen.late_p99_ms` measures lateness, for its note.
const LATE_OPEN: &str = "open-loop sender behind schedule";
const LATE_CLOSED: &str = "closed-loop client, reply to next send";

/// Run `ops` through a fresh durable server with the workload's closed-loop
/// loaders (the traced `batch-shopee` run's serve probe).
fn serve_probe(report: &mut Report, stream: &Stream, ops: &[Op], scratch: &Path) -> Probe {
    let data_dir = scratch.join("probe-data");
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).expect("create data dir");
    let server = load::spawn_server(stream, 1, Some(data_dir));
    let addr = server.addr().to_string();
    let book = Book::new(stream.ids.len());
    let load = closed_loop(&addr, LOADERS, ops, None, stream, &book);
    report.tally.add(load.tally);
    let stats = load::fetch_stats(&addr);
    report.check(
        "/stats counts every acked insert",
        stats_u64(&stats, "records") == Some(book.acked() as u64),
    );
    Probe {
        writes: load.write_ns,
        reads: load.read_ns,
        late: load.late_ns,
        stats,
    }
}

fn stats_u64(stats: &std::io::Result<Value>, name: &str) -> Option<u64> {
    load::field(stats.as_ref().ok()?, name)?.as_u64()
}

/// Per shard: (rebuilds, live index nodes) from a `/stats` answer.
fn shard_stats(stats: &std::io::Result<Value>) -> Option<Vec<(u64, u64)>> {
    let shards = load::field(stats.as_ref().ok()?, "shards")?.as_seq()?;
    shards
        .iter()
        .map(|s| {
            let get = |name| load::field(s, name).and_then(Value::as_u64);
            Some((
                get("rebuilds")?,
                get("index_nodes")?.checked_sub(get("stale_nodes")?)?,
            ))
        })
        .collect()
}

/// `ingest-cross` is only valid when its shard upgraded to HNSW exactly
/// once: a run that never crosses the threshold is invalid, not fast.
fn check_crossed(report: &mut Report, who: &str, shards: Option<Vec<(u64, u64)>>) {
    let threshold = MultiEmConfig::default().hnsw_threshold as u64;
    let crossed = shards.is_some_and(|s| s.len() == 1 && s[0].0 == 1 && s[0].1 >= threshold);
    report.check(
        format!("{who}: the shard crossed hnsw_threshold with exactly one rebuild"),
        crossed,
    );
}

/// The nearest-rank `q`-quantile of nanosecond samples, in microseconds.
fn micros(mut samples: Vec<u64>, q: f64) -> f64 {
    samples.sort_unstable();
    percentile_ms(&samples, q) * 1e3
}

/// Every per-layer metric, from the spans, the client side, and `/stats`.
fn layer_metrics(
    report: &mut Report,
    rec: &Recorder,
    core: Result<replay::CoreRun, String>,
    probe: Probe,
    replayed: std::io::Result<multiem_serve::ShardedStats>,
    late_note: &str,
) {
    report.check("replay ran every op", replayed.is_ok());
    // A failed pipeline still reports every metric (its own as zeros) and
    // fails the run's checks.
    let core = core.unwrap_or_else(|e| {
        report.check(format!("traced pipeline: {e}"), false);
        replay::CoreRun::default()
    });
    report.check(
        "traced pipeline tuples equal MultiEm::run tuples",
        core.tuples_equal,
    );

    let p50_us = |name: &str| micros(rec.self_times(name), 0.5);
    let span_note = |name: &str| format!("{name} self time, n={}", rec.self_times(name).len());
    for (metric, span) in [
        ("http.parse_us", "http.parse"),
        ("embed.encode_us", "embed.encode"),
        ("shard.match_us", "shard.match"),
        ("shard.insert_us", "shard.insert"),
        ("wal.append_us", "wal.append"),
        ("ann.bf_search_us", "ann.bf_search"),
        ("ann.hnsw_add_us", "ann.hnsw_add"),
        ("ann.hnsw_search_us", "ann.hnsw_search"),
    ] {
        report.metric(
            metric,
            "us",
            p50_us(span),
            format!("median {}", span_note(span)),
        );
    }
    report.metric(
        "shard.match_p99_us",
        "us",
        micros(rec.self_times("shard.match"), 0.99),
        format!("p99 {}", span_note("shard.match")),
    );
    report.metric(
        "shard.insert_max_ms",
        "ms",
        micros(rec.self_times("shard.insert"), 1.0) / 1e3,
        format!("max {}", span_note("shard.insert")),
    );
    report.metric(
        "wal.fsync_ms",
        "ms",
        micros(rec.self_times("wal.fsync"), 0.5) / 1e3,
        format!("median {}", span_note("wal.fsync")),
    );

    let shards = probe
        .stats
        .as_ref()
        .ok()
        .and_then(|s| load::field(s, "shards"))
        .and_then(Value::as_seq)
        .unwrap_or_default();
    let sum = |name: &str| -> f64 {
        shards
            .iter()
            .filter_map(|s| load::field(s, name).and_then(Value::as_u64))
            .sum::<u64>() as f64
    };
    report.check("/stats answered after the run", !shards.is_empty());
    report.metric(
        "online.rebuilds",
        "count",
        sum("rebuilds"),
        "GET /stats after the run",
    );
    report.metric(
        "online.stale_ratio",
        "ratio",
        sum("stale_nodes") / sum("index_nodes").max(1.0),
        "stale / index nodes, GET /stats",
    );
    report.metric(
        "online.clusters",
        "count",
        sum("clusters"),
        "GET /stats after the run",
    );

    let seconds = |name: &str| rec.self_times(name).first().copied().unwrap_or(0) as f64 / 1e9;
    for (metric, span) in [
        ("core.select_s", "core.select"),
        ("core.represent_s", "core.represent"),
        ("core.merge_s", "core.merge"),
        ("core.prune_s", "core.prune"),
    ] {
        report.metric(metric, "s", seconds(span), format!("{span} span"));
    }
    report.metric(
        "core.merge_levels",
        "count",
        core.merge_levels as f64,
        "hierarchical_merge levels",
    );
    report.metric(
        "core.matched_pairs",
        "count",
        core.matched_pairs as f64,
        "mutual top-k pairs",
    );
    report.metric(
        "core.index_peak_mb",
        "MiB",
        core.index_peak_bytes as f64 / (1 << 20) as f64,
        "largest pair of merge indexes",
    );
    report.metric(
        "core.outliers_removed",
        "count",
        core.outliers_removed as f64,
        "density pruning",
    );

    let client_p50 = |samples: Vec<u64>| Summary::of(samples).p50_ms;
    let replay_p50 = |name: &str| micros(rec.durations(name), 0.5) / 1e3;
    report.metric(
        "serve.match_residual_ms",
        "ms",
        client_p50(probe.reads) - replay_p50("op.match"),
        "client POST /match p50 - replayed op.match p50",
    );
    report.metric(
        "serve.ingest_residual_ms",
        "ms",
        client_p50(probe.writes) - replay_p50("op.insert"),
        "client POST /records p50 - replayed op.insert p50",
    );
    report.metric(
        "gen.late_p99_ms",
        "ms",
        micros(probe.late, 0.99) / 1e3,
        late_note,
    );
    report.metric(
        "trace.overhead_pct",
        "%",
        core.overhead_pct,
        "traced pipeline vs MultiEm::run",
    );
}

/// Write the spans out at the end of the traced run.
fn finish_trace(rec: &Recorder, args: &Args, scratch: &Path) {
    let path: PathBuf = scratch
        .parent()
        .unwrap_or(scratch)
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = rec.write_jsonl(&path) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
}
