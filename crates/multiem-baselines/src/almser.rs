//! ALMSER-GB stand-in: graph-boosted active learning for multi-source ER.
//!
//! ALMSER-GB (Primpeli & Bizer, ISWC 2021) builds a similarity graph over
//! candidate record pairs from all sources, actively queries the most
//! informative pairs for labels, and propagates match decisions over the
//! graph. This reimplementation keeps that structure:
//!
//! 1. candidate generation: mutual top-K embedding neighbours between every
//!    pair of sources;
//! 2. active learning: starting from the labelled seed available in the
//!    [`MatchContext`], repeatedly train a pair classifier, pick the most
//!    uncertain candidates and query their labels from the dataset's ground
//!    truth (the stand-in for the human annotator), up to a query budget;
//! 3. graph boosting: classify all candidates and take the transitive closure
//!    of accepted pairs (Algorithm 5) to produce tuples.
//!
//! Because candidate generation is quadratic in the number of source pairs and
//! the similarity graph is materialised, runtime and memory grow much faster
//! than MultiEM's — reproducing the scalability gap of Tables V/VI.

use crate::context::MatchContext;
use crate::extensions::pairs_to_tuples;
use crate::lr::LogisticRegression;
use crate::{MatchedPair, MultiTableMatcher};
use multiem_ann::{BruteForceIndex, Metric, VectorIndex};
use multiem_table::{EntityId, MatchTuple};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Configuration of the ALMSER-GB stand-in.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlmserConfig {
    /// Candidate neighbours per entity and source pair.
    pub block_k: usize,
    /// Number of active-learning rounds.
    pub rounds: usize,
    /// Labels queried from the oracle per round.
    pub queries_per_round: usize,
    /// Acceptance threshold on the final match probability.
    pub decision_threshold: f64,
}

impl Default for AlmserConfig {
    fn default() -> Self {
        Self {
            block_k: 2,
            rounds: 5,
            queries_per_round: 20,
            decision_threshold: 0.5,
        }
    }
}

/// The ALMSER-GB stand-in.
#[derive(Debug, Clone, Default)]
pub struct AlmserGb {
    config: AlmserConfig,
}

impl AlmserGb {
    /// Create the method with the given configuration.
    pub fn new(config: AlmserConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AlmserConfig {
        &self.config
    }

    fn features(ctx: &MatchContext<'_>, a: EntityId, b: EntityId) -> Vec<f64> {
        vec![f64::from(ctx.cosine(a, b)), f64::from(ctx.jaccard(a, b))]
    }

    fn candidates(&self, ctx: &MatchContext<'_>) -> Vec<(EntityId, EntityId)> {
        let s = ctx.dataset.num_sources();
        let dim = ctx.store.dim();
        let mut out: BTreeSet<(EntityId, EntityId)> = BTreeSet::new();
        for i in 0..s {
            let left = ctx.source_entities(i as u32);
            for j in (i + 1)..s {
                let right = ctx.source_entities(j as u32);
                if right.is_empty() || left.is_empty() {
                    continue;
                }
                let right_index = BruteForceIndex::from_vectors(
                    dim,
                    Metric::Cosine,
                    right.iter().map(|&id| ctx.embedding(id)),
                );
                for &l in &left {
                    for n in right_index.search(ctx.embedding(l), self.config.block_k) {
                        let r = right[n.index];
                        out.insert((l.min(r), l.max(r)));
                    }
                }
            }
        }
        out.into_iter().collect()
    }
}

impl MultiTableMatcher for AlmserGb {
    fn name(&self) -> String {
        "ALMSER-GB".to_string()
    }

    fn run(&self, ctx: &MatchContext<'_>) -> Vec<MatchTuple> {
        let candidates = self.candidates(ctx);
        if candidates.is_empty() {
            return Vec::new();
        }
        let truth = ctx
            .dataset
            .ground_truth()
            .map(|gt| gt.pairs())
            .unwrap_or_default();

        // Labelled pool starts from the context's labelled sample.
        let mut labeled: Vec<((EntityId, EntityId), bool)> = ctx
            .labeled
            .iter()
            .map(|p| ((p.a.min(p.b), p.a.max(p.b)), p.label))
            .collect();
        let mut labeled_keys: BTreeSet<(EntityId, EntityId)> =
            labeled.iter().map(|(k, _)| *k).collect();

        let mut model = LogisticRegression::new(2);
        for _ in 0..self.config.rounds {
            let examples: Vec<(Vec<f64>, bool)> = labeled
                .iter()
                .map(|(pair, y)| (Self::features(ctx, pair.0, pair.1), *y))
                .collect();
            model.fit(&examples);

            // Query the most uncertain unlabelled candidates (oracle = ground truth).
            let mut uncertain: Vec<((EntityId, EntityId), f64)> = candidates
                .iter()
                .filter(|p| !labeled_keys.contains(p))
                .map(|&p| {
                    let prob = model.predict_proba(&Self::features(ctx, p.0, p.1));
                    (p, (prob - 0.5).abs())
                })
                .collect();
            uncertain.sort_by(|a, b| a.1.total_cmp(&b.1));
            for (pair, _) in uncertain.into_iter().take(self.config.queries_per_round) {
                let label = truth.contains(&pair);
                labeled.push((pair, label));
                labeled_keys.insert(pair);
            }
        }

        // Final training pass and classification of every candidate.
        let examples: Vec<(Vec<f64>, bool)> = labeled
            .iter()
            .map(|(pair, y)| (Self::features(ctx, pair.0, pair.1), *y))
            .collect();
        model.fit(&examples);

        let accepted: Vec<MatchedPair> = candidates
            .iter()
            .filter_map(|&(a, b)| {
                let p = model.predict_proba(&Self::features(ctx, a, b));
                if p >= self.config.decision_threshold {
                    Some(MatchedPair::new(a, b, p as f32))
                } else {
                    None
                }
            })
            .collect();
        pairs_to_tuples(&accepted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiem_datagen::{
        CorruptionConfig, Corruptor, Domain, GeneratorConfig, MultiSourceGenerator,
    };
    use multiem_embed::HashedLexicalEncoder;
    use multiem_eval::{evaluate, sample_labeled_pairs, SamplingConfig};

    #[test]
    fn active_learning_recovers_most_tuples_on_clean_music() {
        let factory = Domain::Music.factory();
        let corruptor = Corruptor::new(CorruptionConfig::light());
        let ds = MultiSourceGenerator::new(GeneratorConfig::small_test("almser", 3))
            .generate(factory.as_ref(), &corruptor);
        let encoder = HashedLexicalEncoder::default();
        let labeled = sample_labeled_pairs(
            &ds,
            &SamplingConfig {
                positive_fraction: 0.1,
                negatives_per_positive: 3,
                seed: 4,
            },
        );
        let ctx = MatchContext::build(&ds, &encoder, labeled);
        let method = AlmserGb::default();
        assert_eq!(method.name(), "ALMSER-GB");
        let tuples = method.run(&ctx);
        let report = evaluate(&tuples, ds.ground_truth().unwrap());
        assert!(report.pair.f1 > 0.5, "ALMSER pair-F1 {:?}", report.pair);
    }

    #[test]
    fn empty_dataset_produces_no_tuples() {
        let schema = multiem_table::Schema::new(["title"]).shared();
        let mut ds = multiem_table::Dataset::new("empty", schema.clone());
        for name in ["a", "b"] {
            ds.add_table(multiem_table::Table::new(name, schema.clone()))
                .unwrap();
        }
        let encoder = HashedLexicalEncoder::default();
        let ctx = MatchContext::build(&ds, &encoder, Vec::new());
        assert!(AlmserGb::default().run(&ctx).is_empty());
    }

    #[test]
    fn config_accessor() {
        let method = AlmserGb::new(AlmserConfig {
            rounds: 2,
            ..AlmserConfig::default()
        });
        assert_eq!(method.config().rounds, 2);
    }
}
