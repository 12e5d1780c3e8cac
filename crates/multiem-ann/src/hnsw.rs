//! Hierarchical Navigable Small World graphs (Malkov & Yashunin, TPAMI 2020).
//!
//! A from-scratch HNSW implementation covering the parts MultiEM needs:
//! incremental insertion with exponentially-distributed level assignment,
//! greedy descent through the upper layers, best-first `ef`-bounded search at
//! the base layer, and the *heuristic* neighbour-selection rule (Algorithm 4 of
//! the HNSW paper) that keeps the graph navigable on clustered data.
//!
//! The index is deterministic given its seed, which keeps pipeline runs and
//! the sensitivity experiments (Figure 6(b)) reproducible.

use crate::metric::Metric;
use crate::{DynamicVectorIndex, Neighbor, VectorIndex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of an [`HnswIndex`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HnswConfig {
    /// Maximum number of bidirectional links per node on layers > 0 (the
    /// HNSW `M` parameter).
    pub m: usize,
    /// Maximum links on layer 0 (usually `2 * m`).
    pub m0: usize,
    /// Size of the dynamic candidate list during construction.
    pub ef_construction: usize,
    /// Size of the dynamic candidate list during search (raised to `k` when
    /// `k > ef_search`).
    pub ef_search: usize,
    /// Seed of the level-assignment RNG.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            m0: 32,
            ef_construction: 128,
            ef_search: 64,
            seed: 42,
        }
    }
}

impl HnswConfig {
    /// A configuration tuned for small collections (tests, tiny tables).
    pub fn small() -> Self {
        Self {
            m: 8,
            m0: 16,
            ef_construction: 64,
            ef_search: 32,
            seed: 42,
        }
    }
}

/// An HNSW approximate nearest-neighbour index.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    config: HnswConfig,
    metric: Metric,
    dim: usize,
    /// Flat row-major vector storage.
    data: Vec<f32>,
    /// `links[node][layer]` = neighbour list of `node` at `layer`.
    links: Vec<Vec<Vec<u32>>>,
    /// Highest layer currently present.
    max_layer: usize,
    /// Entry point node for searches.
    entry_point: Option<usize>,
    /// Level-assignment RNG.
    rng: ChaCha8Rng,
    /// `1 / ln(M)` — the level normalisation factor from the HNSW paper.
    level_mult: f64,
}

impl HnswIndex {
    /// Create an empty index.
    pub fn new(dim: usize, metric: Metric, config: HnswConfig) -> Self {
        let level_mult = 1.0 / (config.m.max(2) as f64).ln();
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        Self {
            config,
            metric,
            dim,
            data: Vec::new(),
            links: Vec::new(),
            max_layer: 0,
            entry_point: None,
            rng,
            level_mult,
        }
    }

    /// Build an index from a set of vectors.
    pub fn build<'a, I>(dim: usize, metric: Metric, config: HnswConfig, vectors: I) -> Self
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut idx = Self::new(dim, metric, config);
        for v in vectors {
            idx.add(v);
        }
        idx
    }

    /// The index configuration.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    #[inline]
    fn dist_to(&self, query: &[f32], node: usize) -> f32 {
        self.metric.distance(query, self.vector(node))
    }

    fn random_level(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        ((-u.ln()) * self.level_mult).floor() as usize
    }

    /// Greedy search restricted to one layer, returning up to `ef` closest
    /// candidates to `query` starting from `entry_points`.
    fn search_layer(
        &self,
        query: &[f32],
        entry_points: &[usize],
        ef: usize,
        layer: usize,
    ) -> Vec<Neighbor> {
        let mut visited = vec![false; self.len()];
        // Both heaps rank by the `Neighbor` order: `results` pops its
        // worst hit, `candidates` its closest.
        let mut candidates: BinaryHeap<Reverse<Neighbor>> = BinaryHeap::new();
        let mut results: BinaryHeap<Neighbor> = BinaryHeap::new();

        for &ep in entry_points {
            if visited[ep] {
                continue;
            }
            visited[ep] = true;
            let found = Neighbor::new(ep, self.dist_to(query, ep));
            candidates.push(Reverse(found));
            results.push(found);
        }

        while let Some(Reverse(closest)) = candidates.pop() {
            if results.len() >= ef && results.peek().is_some_and(|worst| closest > *worst) {
                break;
            }
            for &nb in &self.links[closest.index][layer] {
                let nb = nb as usize;
                if visited[nb] {
                    continue;
                }
                visited[nb] = true;
                let found = Neighbor::new(nb, self.dist_to(query, nb));
                if results.len() < ef || results.peek().is_some_and(|worst| found < *worst) {
                    candidates.push(Reverse(found));
                    results.push(found);
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        results.into_sorted_vec()
    }

    /// Heuristic neighbour selection (HNSW paper, Algorithm 4): prefer
    /// candidates that are closer to the new node than to any already-selected
    /// neighbour, which preserves graph navigability between clusters.
    fn select_neighbors_heuristic(&self, candidates: &[Neighbor], m: usize) -> Vec<usize> {
        let mut selected: Vec<Neighbor> = Vec::with_capacity(m);
        for &cand in candidates {
            if selected.len() >= m {
                break;
            }
            let cand_vec = self.vector(cand.index);
            let dominated = selected
                .iter()
                .any(|s| self.metric.distance(cand_vec, self.vector(s.index)) < cand.distance);
            if !dominated {
                selected.push(cand);
            }
        }
        // Fill up with remaining nearest candidates if the heuristic was too strict.
        if selected.len() < m {
            for &cand in candidates {
                if selected.len() >= m {
                    break;
                }
                if !selected.iter().any(|s| s.index == cand.index) {
                    selected.push(cand);
                }
            }
        }
        selected.into_iter().map(|n| n.index).collect()
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m0
        } else {
            self.config.m
        }
    }

    /// Re-prune the neighbour list of `node` at `layer` to the layer's link cap.
    fn shrink_links(&mut self, node: usize, layer: usize) {
        let cap = self.max_links(layer);
        if self.links[node][layer].len() <= cap {
            return;
        }
        let node_vec: Vec<f32> = self.vector(node).to_vec();
        let mut cands: Vec<Neighbor> = self.links[node][layer]
            .iter()
            .map(|&nb| {
                Neighbor::new(
                    nb as usize,
                    self.metric.distance(&node_vec, self.vector(nb as usize)),
                )
            })
            .collect();
        cands.sort_unstable();
        let kept = self.select_neighbors_heuristic(&cands, cap);
        self.links[node][layer] = kept.into_iter().map(|i| i as u32).collect();
    }

    /// Insert a vector; returns its index.
    ///
    /// # Panics
    /// Panics if `vector.len() != dim`.
    pub fn add(&mut self, vector: &[f32]) -> usize {
        assert_eq!(vector.len(), self.dim, "vector dimensionality mismatch");
        let new_id = self.len();
        self.data.extend_from_slice(vector);
        let level = self.random_level();
        self.links.push(vec![Vec::new(); level + 1]);

        let Some(entry) = self.entry_point else {
            self.entry_point = Some(new_id);
            self.max_layer = level;
            return new_id;
        };

        let query: Vec<f32> = vector.to_vec();
        let mut current = entry;

        // Phase 1: greedy descent through layers above the new node's level.
        let mut layer = self.max_layer;
        while layer > level {
            let found = self.search_layer(&query, &[current], 1, layer);
            if let Some(best) = found.first() {
                current = best.index;
            }
            if layer == 0 {
                break;
            }
            layer -= 1;
        }

        // Phase 2: connect on every layer from min(level, max_layer) down to 0.
        let top = level.min(self.max_layer);
        let mut entry_points = vec![current];
        for layer in (0..=top).rev() {
            let candidates =
                self.search_layer(&query, &entry_points, self.config.ef_construction, layer);
            let m = self.max_links(layer);
            let selected = self.select_neighbors_heuristic(&candidates, m);
            for &nb in &selected {
                self.links[new_id][layer].push(nb as u32);
                self.links[nb][layer].push(new_id as u32);
                self.shrink_links(nb, layer);
            }
            entry_points = candidates.iter().map(|n| n.index).collect();
            if entry_points.is_empty() {
                entry_points = vec![current];
            }
        }

        if level > self.max_layer {
            self.max_layer = level;
            self.entry_point = Some(new_id);
        }
        new_id
    }
}

/// The serializable part of an [`HnswIndex`].
///
/// The level-assignment RNG is not stored: it is a pure function of the
/// config seed and the number of insertions, so deserialization recreates it
/// from the seed and replays the level draws. This keeps snapshots compact
/// and guarantees a restored index continues the exact insertion sequence the
/// original would have produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HnswIndexState {
    config: HnswConfig,
    metric: Metric,
    dim: usize,
    data: Vec<f32>,
    links: Vec<Vec<Vec<u32>>>,
    max_layer: usize,
    entry_point: Option<usize>,
}

impl Serialize for HnswIndex {
    fn to_value(&self) -> serde::Value {
        HnswIndexState {
            config: self.config.clone(),
            metric: self.metric,
            dim: self.dim,
            data: self.data.clone(),
            links: self.links.clone(),
            max_layer: self.max_layer,
            entry_point: self.entry_point,
        }
        .to_value()
    }
}

impl Deserialize for HnswIndex {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let state = HnswIndexState::from_value(v)?;
        // Cross-field validation: a malformed (e.g. hand-edited or truncated)
        // snapshot must fail here with an error, not panic later in search.
        let nodes = state.links.len();
        if state.dim == 0 && !state.data.is_empty() {
            return Err(serde::Error::type_mismatch(
                "HnswIndex",
                "dim > 0 for non-empty data",
            ));
        }
        if state.dim != 0 && state.data.len() != nodes * state.dim {
            return Err(serde::Error::type_mismatch(
                "HnswIndex",
                "data length matching links length times dim",
            ));
        }
        match state.entry_point {
            Some(ep) if ep >= nodes => {
                return Err(serde::Error::type_mismatch(
                    "HnswIndex",
                    "entry_point within bounds",
                ))
            }
            None if nodes > 0 => {
                return Err(serde::Error::type_mismatch(
                    "HnswIndex",
                    "entry_point present for a non-empty index",
                ))
            }
            _ => {}
        }
        for layers in &state.links {
            if layers.is_empty() || layers.len() > state.max_layer + 1 {
                return Err(serde::Error::type_mismatch(
                    "HnswIndex",
                    "per-node layer lists within max_layer",
                ));
            }
            for layer in layers {
                if layer.iter().any(|&nb| nb as usize >= nodes) {
                    return Err(serde::Error::type_mismatch(
                        "HnswIndex",
                        "neighbour links within bounds",
                    ));
                }
            }
        }
        let mut index = HnswIndex::new(state.dim, state.metric, state.config);
        index.data = state.data;
        index.links = state.links;
        index.max_layer = state.max_layer;
        index.entry_point = state.entry_point;
        // Replay the level draws so future insertions continue the stream.
        for _ in 0..nodes {
            index.random_level();
        }
        Ok(index)
    }
}

impl DynamicVectorIndex for HnswIndex {
    fn insert(&mut self, vector: &[f32]) -> usize {
        self.add(vector)
    }
}

impl VectorIndex for HnswIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        let entry = self
            .entry_point
            .expect("non-empty index has an entry point");
        let mut current = entry;
        // Greedy descent to layer 1.
        for layer in (1..=self.max_layer).rev() {
            let found = self.search_layer(query, &[current], 1, layer);
            if let Some(best) = found.first() {
                current = best.index;
            }
        }
        let ef = self.config.ef_search.max(k);
        let mut results = self.search_layer(query, &[current], ef, 0);
        results.truncate(k);
        results
    }

    fn vector(&self, index: usize) -> &[f32] {
        let start = index * self.dim;
        &self.data[start..start + self.dim]
    }

    fn approx_bytes(&self) -> usize {
        let link_bytes: usize = self
            .links
            .iter()
            .map(|layers| {
                layers
                    .iter()
                    .map(|l| l.capacity() * 4 + std::mem::size_of::<Vec<u32>>())
                    .sum::<usize>()
            })
            .sum();
        self.data.capacity() * 4 + link_bytes + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForceIndex;
    use rand::Rng;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    #[test]
    fn empty_and_single_element() {
        let idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::small());
        assert!(idx.is_empty());
        assert!(idx.search(&[1.0, 0.0, 0.0, 0.0], 3).is_empty());

        let mut idx = HnswIndex::new(2, Metric::Euclidean, HnswConfig::small());
        idx.add(&[1.0, 1.0]);
        let res = idx.search(&[0.0, 0.0], 5);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].index, 0);
    }

    #[test]
    fn exact_on_tiny_collections() {
        let points: Vec<Vec<f32>> = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0, 5.0],
            vec![5.1, 5.0],
        ];
        let idx = HnswIndex::build(
            2,
            Metric::Euclidean,
            HnswConfig::small(),
            points.iter().map(|p| p.as_slice()),
        );
        let res = idx.search(&[5.05, 5.0], 2);
        let found: Vec<usize> = res.iter().map(|n| n.index).collect();
        assert!(found.contains(&3) && found.contains(&4));
    }

    #[test]
    fn recall_against_brute_force() {
        let dim = 16;
        let n = 400;
        let vectors = random_vectors(n, dim, 7);
        let hnsw = HnswIndex::build(
            dim,
            Metric::Cosine,
            HnswConfig::default(),
            vectors.iter().map(|v| v.as_slice()),
        );
        let exact = BruteForceIndex::from_vectors(
            dim,
            Metric::Cosine,
            vectors.iter().map(|v| v.as_slice()),
        );

        let queries = random_vectors(30, dim, 99);
        let k = 10;
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let approx: std::collections::HashSet<usize> =
                hnsw.search(q, k).into_iter().map(|n| n.index).collect();
            let truth: Vec<usize> = exact.search(q, k).into_iter().map(|n| n.index).collect();
            total += truth.len();
            hits += truth.iter().filter(|t| approx.contains(t)).count();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.85, "HNSW recall too low: {recall}");
    }

    #[test]
    fn results_sorted_by_distance() {
        let vectors = random_vectors(100, 8, 3);
        let idx = HnswIndex::build(
            8,
            Metric::Euclidean,
            HnswConfig::small(),
            vectors.iter().map(|v| v.as_slice()),
        );
        let res = idx.search(&vectors[0], 10);
        for w in res.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
        // The query point itself is in the index; it must be the closest.
        assert_eq!(res[0].index, 0);
        assert!(res[0].distance < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let vectors = random_vectors(200, 8, 11);
        let build = || {
            HnswIndex::build(
                8,
                Metric::Cosine,
                HnswConfig::default(),
                vectors.iter().map(|v| v.as_slice()),
            )
        };
        let a = build();
        let b = build();
        let qa = a.search(&vectors[5], 7);
        let qb = b.search(&vectors[5], 7);
        assert_eq!(qa, qb);
    }

    #[test]
    fn link_counts_respect_caps() {
        let vectors = random_vectors(300, 8, 21);
        let config = HnswConfig {
            m: 6,
            m0: 12,
            ..HnswConfig::default()
        };
        let idx = HnswIndex::build(
            8,
            Metric::Cosine,
            config,
            vectors.iter().map(|v| v.as_slice()),
        );
        for layers in &idx.links {
            for (layer, l) in layers.iter().enumerate() {
                let cap = if layer == 0 { 12 } else { 6 };
                assert!(
                    l.len() <= cap,
                    "layer {layer} has {} links (cap {cap})",
                    l.len()
                );
            }
        }
    }

    #[test]
    fn approx_bytes_nonzero_and_grows() {
        let vectors = random_vectors(50, 8, 5);
        let small = HnswIndex::build(
            8,
            Metric::Cosine,
            HnswConfig::small(),
            vectors[..10].iter().map(|v| v.as_slice()),
        );
        let large = HnswIndex::build(
            8,
            Metric::Cosine,
            HnswConfig::small(),
            vectors.iter().map(|v| v.as_slice()),
        );
        assert!(large.approx_bytes() > small.approx_bytes());
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn add_rejects_wrong_dim() {
        let mut idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::small());
        idx.add(&[1.0, 2.0]);
    }

    #[test]
    fn serde_roundtrip_preserves_search_and_insertion_stream() {
        let vectors = random_vectors(150, 8, 17);
        let mut original = HnswIndex::build(
            8,
            Metric::Cosine,
            HnswConfig::small(),
            vectors[..100].iter().map(|v| v.as_slice()),
        );
        let json = serde_json::to_string(&original).unwrap();
        let mut restored: HnswIndex = serde_json::from_str(&json).unwrap();

        // Same graph: identical search results.
        assert_eq!(
            original.search(&vectors[3], 10),
            restored.search(&vectors[3], 10)
        );

        // Same RNG position: further insertions keep the indexes identical.
        for v in &vectors[100..] {
            original.add(v);
            restored.add(v);
        }
        assert_eq!(
            original.search(&vectors[120], 10),
            restored.search(&vectors[120], 10)
        );
        assert_eq!(original.max_layer, restored.max_layer);
        assert_eq!(original.links, restored.links);
    }

    #[test]
    fn deserialize_rejects_malformed_snapshots() {
        let vectors = random_vectors(20, 4, 9);
        let idx = HnswIndex::build(
            4,
            Metric::Cosine,
            HnswConfig::small(),
            vectors.iter().map(|v| v.as_slice()),
        );
        let json = serde_json::to_string(&idx).unwrap();
        // Out-of-bounds entry point (replace whatever value it has with 999).
        let key = "\"entry_point\":";
        let start = json.find(key).unwrap() + key.len();
        let end = start + json[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let bad = format!("{}999{}", &json[..start], &json[end..]);
        assert!(serde_json::from_str::<HnswIndex>(&bad).is_err());
        // Data length inconsistent with dim * nodes.
        let bad = json.replace("\"dim\":4", "\"dim\":5");
        assert!(serde_json::from_str::<HnswIndex>(&bad).is_err());
    }

    #[test]
    fn dynamic_insert_trait_matches_inherent_add() {
        use crate::DynamicVectorIndex;
        let mut a = HnswIndex::new(2, Metric::Euclidean, HnswConfig::small());
        let mut b = HnswIndex::new(2, Metric::Euclidean, HnswConfig::small());
        for v in [[0.0f32, 0.0], [1.0, 0.0], [0.0, 1.0]] {
            assert_eq!(a.add(&v), DynamicVectorIndex::insert(&mut b, &v));
        }
        assert_eq!(a.search(&[0.1, 0.1], 3), b.search(&[0.1, 0.1], 3));
    }
}
