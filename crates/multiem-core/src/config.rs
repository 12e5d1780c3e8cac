//! Configuration of the MultiEM pipeline.

use multiem_ann::{AnnIndex, BruteForceIndex, HnswConfig, HnswIndex, Metric};
use multiem_table::SerializeOptions;
use serde::{Deserialize, Serialize};

/// Which vector index backs the mutual top-K searches of the merging phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum IndexBackend {
    /// Always use the exact brute-force index.
    BruteForce,
    /// Always use the HNSW graph index.
    Hnsw,
    /// Use brute force below [`MultiEmConfig::hnsw_threshold`] items and HNSW
    /// above it (default — mirrors how the reference implementation behaves on
    /// small vs. large tables).
    #[default]
    Auto,
}

impl IndexBackend {
    /// Whether a collection of `items` vectors gets the HNSW index under
    /// this backend (brute force otherwise).
    pub fn uses_hnsw(self, items: usize, hnsw_threshold: usize) -> bool {
        match self {
            IndexBackend::BruteForce => false,
            IndexBackend::Hnsw => true,
            IndexBackend::Auto => items >= hnsw_threshold,
        }
    }
}

/// Hyper-parameters of MultiEM (Section IV-A, "Implementation details").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiEmConfig {
    // --- Enhanced Entity Representation -----------------------------------
    /// Whether to run the automated attribute selection (the `w/o EER`
    /// ablation disables this and embeds all attributes).
    pub attribute_selection: bool,
    /// Sampling ratio `r` used when computing attribute significance scores
    /// (0.2 for most datasets, 0.05 for the largest in the paper).
    pub sample_ratio: f64,
    /// Selection threshold `γ`: an attribute is kept when the mean cosine
    /// similarity between original and value-shuffled embeddings is **at
    /// most** `γ` (i.e. shuffling the attribute changes the embedding enough
    /// to matter). The paper grid-searches `γ ∈ {0.8, 0.9}`.
    pub gamma: f64,
    /// Serialization options (lowercasing, max sequence length 64).
    pub serialize: SerializeOptions,

    // --- Table-wise Hierarchical Merging -----------------------------------
    /// Mutual top-K bound `k` (the paper uses 1).
    pub k: usize,
    /// Distance threshold `m` on matched pairs (grid `{0.05, 0.2, 0.35, 0.5}`).
    pub m: f32,
    /// Metric used in the merging phase (cosine in the paper).
    pub merge_metric: Metric,
    /// Index backend selection.
    pub index_backend: IndexBackend,
    /// Table size above which [`IndexBackend::Auto`] switches to HNSW.
    pub hnsw_threshold: usize,
    /// HNSW construction/search parameters.
    pub hnsw: HnswConfig,
    /// Seed controlling the random pairing order of tables in hierarchical
    /// merging (Figure 6(b) varies this seed).
    pub merge_seed: u64,

    // --- Density-based Pruning ---------------------------------------------
    /// Whether to run the pruning phase (the `w/o DP` ablation disables it).
    pub pruning: bool,
    /// Neighbourhood radius `ε` (grid `{0.8, 1.0}` in the paper).
    pub epsilon: f32,
    /// `MinPts` (2 in the paper).
    pub min_pts: usize,
    /// Metric used in the pruning phase (Euclidean in the paper).
    pub prune_metric: Metric,

    // --- Execution ----------------------------------------------------------
    /// Run merging and pruning with rayon data parallelism
    /// (the `MultiEM (parallel)` variant of Tables V/VI).
    pub parallel: bool,
}

impl Default for MultiEmConfig {
    fn default() -> Self {
        Self {
            attribute_selection: true,
            sample_ratio: 0.2,
            gamma: 0.9,
            serialize: SerializeOptions::default(),
            k: 1,
            m: 0.35,
            merge_metric: Metric::Cosine,
            index_backend: IndexBackend::Auto,
            hnsw_threshold: 2_000,
            hnsw: HnswConfig::default(),
            merge_seed: 0,
            pruning: true,
            epsilon: 1.0,
            min_pts: 2,
            prune_metric: Metric::Euclidean,
            parallel: false,
        }
    }
}

impl MultiEmConfig {
    /// The parallel variant of the default configuration.
    pub fn parallel() -> Self {
        Self {
            parallel: true,
            ..Self::default()
        }
    }

    /// The `w/o EER` ablation: skip attribute selection.
    pub fn without_attribute_selection(mut self) -> Self {
        self.attribute_selection = false;
        self
    }

    /// The `w/o DP` ablation: skip density-based pruning.
    pub fn without_pruning(mut self) -> Self {
        self.pruning = false;
        self
    }

    /// An empty merge-metric index for a collection of `items` vectors, on
    /// the backend [`IndexBackend::uses_hnsw`] picks.
    pub fn ann_index(&self, items: usize, dim: usize) -> AnnIndex {
        if self.index_backend.uses_hnsw(items, self.hnsw_threshold) {
            AnnIndex::Hnsw(Box::new(HnswIndex::new(
                dim,
                self.merge_metric,
                self.hnsw.clone(),
            )))
        } else {
            AnnIndex::Brute(BruteForceIndex::new(dim, self.merge_metric))
        }
    }

    /// Validate the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("k must be at least 1".into());
        }
        if !(0.0 < self.sample_ratio && self.sample_ratio <= 1.0) {
            return Err("sample_ratio must be in (0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err("gamma must be in [0, 1]".into());
        }
        if self.m < 0.0 {
            return Err("m must be non-negative".into());
        }
        if self.epsilon <= 0.0 {
            return Err("epsilon must be positive".into());
        }
        if self.min_pts == 0 {
            return Err("min_pts must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = MultiEmConfig::default();
        assert_eq!(c.k, 1);
        assert_eq!(c.min_pts, 2);
        assert_eq!(c.merge_metric, Metric::Cosine);
        assert_eq!(c.prune_metric, Metric::Euclidean);
        assert!(c.attribute_selection);
        assert!(c.pruning);
        assert!(!c.parallel);
        assert!(c.validate().is_ok());
        assert_eq!(c.serialize.max_tokens, Some(64));
    }

    #[test]
    fn ablation_builders() {
        let c = MultiEmConfig::default().without_attribute_selection();
        assert!(!c.attribute_selection);
        assert!(c.pruning);
        let c = MultiEmConfig::default().without_pruning();
        assert!(!c.pruning);
        let c = MultiEmConfig::parallel();
        assert!(c.parallel);
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = [
            MultiEmConfig {
                k: 0,
                ..MultiEmConfig::default()
            },
            MultiEmConfig {
                sample_ratio: 0.0,
                ..MultiEmConfig::default()
            },
            MultiEmConfig {
                gamma: 1.5,
                ..MultiEmConfig::default()
            },
            MultiEmConfig {
                m: -0.1,
                ..MultiEmConfig::default()
            },
            MultiEmConfig {
                epsilon: 0.0,
                ..MultiEmConfig::default()
            },
            MultiEmConfig {
                min_pts: 0,
                ..MultiEmConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err());
        }
    }
}
