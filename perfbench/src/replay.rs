//! The traced run's in-process side: the workload's op sequence replayed
//! through the public functions the request handlers call, the batch
//! pipeline run phase by phase, and the ANN indexes probed directly — each
//! call wrapped in a span by the benchmark itself.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use multiem_ann::{BruteForceIndex, HnswConfig, HnswIndex, Metric, VectorIndex};
use multiem_core::{
    hierarchical_merge, prune_merged_table, select_attributes, EmbeddingStore, MergedTable,
    MultiEm, MultiEmConfig,
};
use multiem_embed::{EmbeddingModel, HashedLexicalEncoder};
use multiem_serve::http::RequestParser;
use multiem_serve::{FsyncPolicy, ServeConfig, ShardedEntityStore, ShardedStats, Wal, WalOp};
use multiem_table::{serialize_record, Dataset, Schema};

use crate::load::{request_bytes, Op, Stream};
use crate::trace::{Recorder, Span};

/// ANN queries probed per index (enough for a stable median).
const ANN_QUERIES: usize = 200;

/// Replay `ops` single-threaded against an in-process sharded store built
/// the way the server builds its own, with a WAL at `wal_path` under the
/// server's default fsync policy. Each op is a root span (`op.insert` /
/// `op.match`) over the layers the handler runs: `http.parse`, then
/// `wal.append` (with any `wal.fsync` inside it) and `shard.insert`, or
/// `shard.match`. A match also gets a separate `embed.encode` span: the
/// query's serialize + encode, which every shard repeats inside
/// `shard.match`. A final forced fsync closes the log.
pub fn replay_serve(
    rec: &mut Recorder,
    stream: &Stream,
    ops: &[Op],
    shards: usize,
    wal_path: &Path,
) -> io::Result<ShardedStats> {
    let online = ServeConfig::default().online;
    let serialize = online.base.serialize.clone();
    let schema = Arc::new(Schema::new(stream.attributes()));
    let encoder = HashedLexicalEncoder::default();
    let store = ShardedEntityStore::new(online, schema, shards, encoder.clone())
        .map_err(|e| io::Error::other(e.to_string()))?;
    let (mut wal, _) = Wal::open_with(wal_path, FsyncPolicy::default())?;
    let mut parser = RequestParser::new();
    for (i, &op) in ops.iter().enumerate() {
        let request = i as u64;
        let (path, body) = op.request(stream);
        let bytes = request_bytes(path, &body);
        let (root_name, pos) = match op {
            Op::Insert(pos) => ("op.insert", pos),
            Op::Match(pos) => ("op.match", pos),
        };
        let record = stream.records[pos].clone();
        if let Op::Match(_) = op {
            rec.time("embed.encode", None, request, || {
                black_box(encoder.encode(&serialize_record(&record, &serialize)))
            });
        }
        let root = rec.begin(root_name, None, request);
        rec.time("http.parse", Some(root), request, || {
            parser.feed(&bytes);
            parser.try_next()
        })?
        .ok_or_else(|| io::Error::other("request did not parse"))?;
        match op {
            Op::Insert(_) => {
                let append = rec.begin("wal.append", Some(root), request);
                let timing = wal.append_timed(&WalOp::Insert(record.clone()))?;
                rec.end(append);
                if timing.fsynced {
                    // The fsync ends the append.
                    let end_ns = rec.span(append).end_ns;
                    rec.push(Span {
                        name: "wal.fsync",
                        start_ns: end_ns.saturating_sub(timing.fsync_ns),
                        end_ns,
                        parent: Some(append),
                        request,
                    });
                }
                rec.time("shard.insert", Some(root), request, || store.insert(record))
                    .map_err(|e| io::Error::other(e.to_string()))?;
            }
            Op::Match(_) => {
                rec.time("shard.match", Some(root), request, || {
                    black_box(store.match_record(&record))
                });
            }
        }
        rec.end(root);
    }
    rec.time("wal.fsync", None, ops.len() as u64, || wal.sync())?;
    Ok(store.stats())
}

/// What the phase-by-phase pipeline run found.
#[derive(Debug, Default)]
pub struct CoreRun {
    pub merge_levels: usize,
    pub matched_pairs: usize,
    pub index_peak_bytes: usize,
    pub outliers_removed: usize,
    /// Whether its tuples equal an untraced [`MultiEm::run`]'s.
    pub tuples_equal: bool,
    /// Traced wall time over untraced, minus one, in percent.
    pub overhead_pct: f64,
}

/// Run the MultiEM pipeline on `dataset` phase by phase under spans
/// (`core.select`, `core.represent`, `core.merge`, `core.prune` inside
/// `core.run`), then once untraced through [`MultiEm::run`] with the same
/// default configuration, and compare.
pub fn traced_pipeline(rec: &mut Recorder, dataset: &Dataset) -> Result<CoreRun, String> {
    let config = MultiEmConfig::default();
    let encoder = HashedLexicalEncoder::default();
    let started = Instant::now();
    let root = rec.begin("core.run", None, 0);
    let selection = rec
        .time("core.select", Some(root), 0, || {
            select_attributes(dataset, &encoder, &config)
        })
        .map_err(|e| e.to_string())?;
    let store = rec.time("core.represent", Some(root), 0, || {
        EmbeddingStore::build(dataset, &encoder, &selection.selected, &config)
    });
    let merged = rec.time("core.merge", Some(root), 0, || {
        let tables: Vec<MergedTable> = (0..dataset.num_sources() as u32)
            .map(|s| MergedTable::from_source(dataset, s, &store))
            .collect();
        hierarchical_merge(tables, &config, encoder.dim())
    });
    let pruned = rec.time("core.prune", Some(root), 0, || {
        prune_merged_table(&merged.integrated, &store, &config)
    });
    rec.end(root);
    let traced_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let untraced = MultiEm::new(config, encoder)
        .run(dataset)
        .map_err(|e| e.to_string())?;
    let untraced_s = started.elapsed().as_secs_f64();
    Ok(CoreRun {
        merge_levels: merged.levels,
        matched_pairs: merged.total_matched_pairs,
        index_peak_bytes: merged.peak_index_bytes,
        outliers_removed: pruned.outliers_removed,
        tuples_equal: pruned.tuples == untraced.tuples,
        overhead_pct: (traced_s / untraced_s - 1.0) * 100.0,
    })
}

/// Probe the ANN layer on the workload's own records, embedded the way the
/// serving layer embeds them: a brute-force top-k over the whole `catalog`
/// (`ann.bf_search`), and an HNSW index with the default configuration
/// built from the first `hnsw_threshold` catalog vectors (`ann.hnsw_add`)
/// and searched (`ann.hnsw_search`). `k` is the pipeline default.
pub fn ann_probes(rec: &mut Recorder, stream: &Stream, catalog: &[usize], queries: &[usize]) {
    let config = MultiEmConfig::default();
    let serialize = ServeConfig::default().online.base.serialize;
    let encoder = HashedLexicalEncoder::default();
    let embed = |positions: &[usize]| -> Vec<Vec<f32>> {
        positions
            .iter()
            .map(|&pos| encoder.encode(&serialize_record(&stream.records[pos], &serialize)))
            .collect()
    };
    let catalog = embed(catalog);
    let queries = embed(&queries[..queries.len().min(ANN_QUERIES)]);
    let dim = encoder.dim();

    let brute =
        BruteForceIndex::from_vectors(dim, Metric::Cosine, catalog.iter().map(Vec::as_slice));
    for (i, query) in queries.iter().enumerate() {
        rec.time("ann.bf_search", None, i as u64, || {
            black_box(brute.search(query, config.k))
        });
    }
    let mut hnsw = HnswIndex::new(dim, Metric::Cosine, HnswConfig::default());
    for (i, vector) in catalog.iter().take(config.hnsw_threshold).enumerate() {
        rec.time("ann.hnsw_add", None, i as u64, || hnsw.add(vector));
    }
    for (i, query) in queries.iter().enumerate() {
        rec.time("ann.hnsw_search", None, i as u64, || {
            black_box(hnsw.search(query, config.k))
        });
    }
}
