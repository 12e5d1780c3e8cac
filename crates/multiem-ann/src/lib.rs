//! Approximate nearest-neighbour search substrate for MultiEM.
//!
//! The merging phase of MultiEM builds an ANN index over the embeddings of each
//! table and queries *mutual top-K* neighbours with a distance threshold `m`
//! (Eq. 1 of the paper). The paper uses hnswlib; this crate provides:
//!
//! * [`Metric`] — cosine / Euclidean / inner-product distances; cosine has
//!   one lane-unrolled kernel, so every index scores a pair with the same
//!   float;
//! * [`BruteForceIndex`] — exact k-NN by one bounded top-k scan (a single
//!   query is a batch of one), used for small inputs and as the correctness
//!   oracle in tests and recall benchmarks;
//! * [`HnswIndex`] — a from-scratch implementation of Hierarchical Navigable
//!   Small World graphs (Malkov & Yashunin, TPAMI 2020) with heuristic
//!   neighbour selection, `ef_construction` / `ef_search` control and
//!   deterministic seeding;
//! * [`AnnIndex`] — either of the two, the backend the batch merger and the
//!   online store pick per table size;
//! * [`mutual_top_k`] — the mutual top-K join used by the two-table merging
//!   strategy (Algorithm 3).
//!
//! Every search path ranks hits with the one total order of [`Neighbor`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bruteforce;
pub mod hnsw;
pub mod metric;
pub mod mutual;

pub use bruteforce::BruteForceIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use metric::Metric;
pub use mutual::{merge_ranked, mutual_top_k, MutualMatch};

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// One search result: the index of a stored vector and its distance to the query.
///
/// Neighbors are totally ordered by ascending distance under
/// [`f32::total_cmp`], ties broken by index; every NaN ranks after every
/// number, whatever its sign bit. This is the ranking of every search path,
/// so a NaN distance can neither make a sort panic nor outrank a number.
/// Equality is the same relation: same index, bit-equal distance.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Neighbor {
    /// Index of the matched vector within the index (insertion order).
    pub index: usize,
    /// Distance from the query to the matched vector under the index metric.
    pub distance: f32,
}

impl Neighbor {
    /// Create a neighbor result.
    pub fn new(index: usize, distance: f32) -> Self {
        Self { index, distance }
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance
            .is_nan()
            .cmp(&other.distance.is_nan())
            .then(self.distance.total_cmp(&other.distance))
            .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Neighbor {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Neighbor {}

/// Vector indexes that support online insertion after construction.
///
/// Both [`BruteForceIndex`] and [`HnswIndex`] implement this: HNSW insertion
/// is `O(log N)` (the graph is built incrementally anyway), which is what the
/// streaming entity store in `multiem-online` relies on.
pub trait DynamicVectorIndex: VectorIndex {
    /// Insert a vector into the (possibly already built) index, returning its
    /// storage index.
    ///
    /// # Panics
    /// Implementations panic if `vector.len() != self.dim()`.
    fn insert(&mut self, vector: &[f32]) -> usize;
}

/// Common interface over exact and approximate vector indexes.
pub trait VectorIndex: Send + Sync {
    /// Dimensionality of indexed vectors.
    fn dim(&self) -> usize;

    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distance metric used by the index.
    fn metric(&self) -> Metric;

    /// Return (up to) the `k` nearest stored vectors to `query`, ordered by
    /// increasing distance.
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor>;

    /// Borrow the stored vector at `index`.
    fn vector(&self, index: usize) -> &[f32];

    /// Approximate heap footprint of the index in bytes (memory accounting).
    fn approx_bytes(&self) -> usize;
}

/// Either index backend. The batch merger picks one per table and the online
/// store per rebuild: brute force below a size threshold, HNSW above it.
///
/// The serialized form names the variant (`{"Brute": …}` / `{"Hnsw": …}`);
/// online-store checkpoints embed it, so the variant names are part of the
/// snapshot format.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AnnIndex {
    /// Exact index.
    Brute(BruteForceIndex),
    /// HNSW graph index.
    Hnsw(Box<HnswIndex>),
}

impl AnnIndex {
    /// Search several queries at once. Brute force answers all of them in
    /// one pass ([`BruteForceIndex::search_batch`]); HNSW has no batched
    /// traversal, so it runs one graph search per query. Per-query results
    /// equal [`VectorIndex::search`].
    pub fn search_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Neighbor>> {
        match self {
            AnnIndex::Brute(i) => i.search_batch(queries, k),
            AnnIndex::Hnsw(i) => queries.iter().map(|q| i.search(q, k)).collect(),
        }
    }

    fn inner(&self) -> &dyn VectorIndex {
        match self {
            AnnIndex::Brute(i) => i,
            AnnIndex::Hnsw(i) => i.as_ref(),
        }
    }
}

impl DynamicVectorIndex for AnnIndex {
    fn insert(&mut self, vector: &[f32]) -> usize {
        match self {
            AnnIndex::Brute(i) => i.add(vector),
            AnnIndex::Hnsw(i) => i.add(vector),
        }
    }
}

impl VectorIndex for AnnIndex {
    fn dim(&self) -> usize {
        self.inner().dim()
    }

    fn len(&self) -> usize {
        self.inner().len()
    }

    fn metric(&self) -> Metric {
        self.inner().metric()
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.inner().search(query, k)
    }

    fn vector(&self, index: usize) -> &[f32] {
        self.inner().vector(index)
    }

    fn approx_bytes(&self) -> usize {
        self.inner().approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    #[test]
    fn cosine_kernel_is_one_float_for_every_path() {
        let m = Metric::Cosine;
        for dim in 1..=67 {
            let vectors = random_vectors(24, dim, dim as u64);
            let (a, b) = (&vectors[0], &vectors[1]);
            let prenormed =
                m.distance_prenormed(a, b, Metric::squared_norm(a), Metric::squared_norm(b));
            assert_eq!(
                m.distance(a, b).to_bits(),
                prenormed.to_bits(),
                "dim {dim}: distance and distance_prenormed differ"
            );

            // Both indexes hold every vector but the query; with fewer
            // vectors than `ef_search` the HNSW top hit is the exact one.
            let stored = || vectors[1..].iter().map(Vec::as_slice);
            let brute = BruteForceIndex::from_vectors(dim, m, stored());
            let hnsw = HnswIndex::build(dim, m, HnswConfig::small(), stored());
            let exact = brute.search(a, 1)[0];
            let approx = hnsw.search(a, 1)[0];
            assert_eq!(approx.index, exact.index, "dim {dim}");
            assert_eq!(
                approx.distance.to_bits(),
                exact.distance.to_bits(),
                "dim {dim}"
            );
            assert_eq!(
                exact.distance.to_bits(),
                m.distance(a, brute.vector(exact.index)).to_bits(),
                "dim {dim}"
            );
        }
    }

    #[test]
    fn non_finite_vectors_rank_after_finite_ones() {
        let dim = 6;
        let mut vectors = random_vectors(40, dim, 5);
        let mut poisoned = vec![false; vectors.len()];
        for (at, bad) in [
            (3, f32::NAN),
            (11, f32::INFINITY),
            (17, f32::NEG_INFINITY),
            (29, -f32::NAN),
        ] {
            vectors[at][at % dim] = bad;
            poisoned[at] = true;
        }
        vectors[35] = vec![f32::INFINITY; dim];
        poisoned[35] = true;
        let stored = || vectors.iter().map(Vec::as_slice);
        let mut queries = random_vectors(5, dim, 6);
        queries.push(vectors[3].clone());
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();

        for metric in [Metric::Cosine, Metric::Euclidean] {
            let indexes = [
                AnnIndex::Brute(BruteForceIndex::from_vectors(dim, metric, stored())),
                AnnIndex::Hnsw(Box::new(HnswIndex::build(
                    dim,
                    metric,
                    HnswConfig::small(),
                    stored(),
                ))),
            ];
            for index in &indexes {
                for k in [1, 5, vectors.len()] {
                    let batched = index.search_batch(&refs, k);
                    for (query, hits) in refs.iter().zip(&batched) {
                        assert_eq!(hits, &index.search(query, k), "{metric:?} k={k}");
                        assert!(hits.windows(2).all(|w| w[0] < w[1]), "{metric:?}");
                    }
                    // Finite queries: every finite vector outranks every
                    // poisoned one.
                    for hits in &batched[..5] {
                        let first_poisoned = hits
                            .iter()
                            .position(|h| poisoned[h.index])
                            .unwrap_or(hits.len());
                        assert!(
                            hits[first_poisoned..].iter().all(|h| poisoned[h.index]),
                            "{metric:?} k={k}: {hits:?}"
                        );
                    }
                }
            }
            // Brute force is exact: the whole finite set comes first.
            let all = indexes[0].search(refs[0], vectors.len());
            let finite = poisoned.iter().filter(|&&p| !p).count();
            assert!(all[..finite].iter().all(|h| !poisoned[h.index]));
        }
    }

    #[test]
    fn neighbor_order_is_total_and_nan_last() {
        let mut hits = [
            Neighbor::new(0, f32::NAN),
            Neighbor::new(1, f32::INFINITY),
            Neighbor::new(2, -f32::NAN),
            Neighbor::new(3, 0.5),
            Neighbor::new(4, f32::NEG_INFINITY),
            Neighbor::new(5, 0.5),
        ];
        hits.sort();
        let order: Vec<usize> = hits.iter().map(|n| n.index).collect();
        assert_eq!(order, vec![4, 3, 5, 1, 2, 0]);
        assert_eq!(Neighbor::new(0, f32::NAN), Neighbor::new(0, f32::NAN));
        assert_ne!(Neighbor::new(0, 0.0), Neighbor::new(0, -0.0));
    }

    #[test]
    fn ann_index_serde_shape_names_the_variant() {
        let mut brute = AnnIndex::Brute(BruteForceIndex::new(2, Metric::Cosine));
        brute.insert(&[1.0, 0.5]);
        let json = serde_json::to_string(&brute).unwrap();
        assert_eq!(
            json,
            r#"{"Brute":{"metric":"Cosine","dim":2,"data":[1.0,0.5]}}"#
        );
        let back: AnnIndex = serde_json::from_str(&json).unwrap();
        assert!(matches!(back, AnnIndex::Brute(_)));
        assert_eq!(back.search(&[1.0, 0.0], 1), brute.search(&[1.0, 0.0], 1));

        let mut hnsw = AnnIndex::Hnsw(Box::new(HnswIndex::new(
            2,
            Metric::Cosine,
            HnswConfig::small(),
        )));
        for v in random_vectors(20, 2, 3) {
            hnsw.insert(&v);
        }
        let json = serde_json::to_string(&hnsw).unwrap();
        assert!(json.starts_with(r#"{"Hnsw":{"config":{"m":8,"#), "{json}");
        let back: AnnIndex = serde_json::from_str(&json).unwrap();
        assert!(matches!(back, AnnIndex::Hnsw(_)));
        assert_eq!(back.search(&[1.0, 0.0], 5), hnsw.search(&[1.0, 0.0], 5));
    }
}
