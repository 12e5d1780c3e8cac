//! AutoFuzzyJoin-style unsupervised fuzzy-join matcher.
//!
//! AutoFJ (Li et al., SIGMOD 2021) programs fuzzy joins without labels by
//! automatically choosing a join configuration that targets a user-specified
//! precision. This stand-in keeps the two properties the evaluation depends
//! on: (1) it is unsupervised, (2) it tunes its own similarity threshold to be
//! precision-oriented, which gives the high-precision / low-recall profile the
//! paper reports for AutoFJ (Table IV).
//!
//! Mechanics: candidate pairs are reciprocal best matches under token Jaccard
//! similarity; the acceptance threshold is calibrated from the score
//! distribution of *non-best* candidate pairs (an estimate of the "random
//! collision" score level), lifted by a safety margin.

use crate::context::MatchContext;
use crate::{MatchedPair, TwoTableMatcher};
use multiem_table::EntityId;
use serde::{Deserialize, Serialize};

/// Configuration of the AutoFJ-style matcher.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutoFjConfig {
    /// Target precision proxy: quantile of the non-best-match score
    /// distribution used as the base threshold (higher = more conservative).
    pub calibration_quantile: f64,
    /// Additive safety margin on top of the calibrated threshold.
    pub margin: f32,
    /// Hard floor for the threshold.
    pub min_threshold: f32,
}

impl Default for AutoFjConfig {
    fn default() -> Self {
        Self {
            calibration_quantile: 0.95,
            margin: 0.05,
            min_threshold: 0.35,
        }
    }
}

/// Unsupervised fuzzy-join matcher with automatic threshold calibration.
#[derive(Debug, Clone, Default)]
pub struct AutoFjMatcher {
    config: AutoFjConfig,
}

impl AutoFjMatcher {
    /// Create a matcher with the given configuration.
    pub fn new(config: AutoFjConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AutoFjConfig {
        &self.config
    }

    /// Calibrate the acceptance threshold from observed similarity scores of
    /// candidate pairs that are *not* reciprocal best matches.
    fn calibrate(&self, background: &mut [f32]) -> f32 {
        if background.is_empty() {
            return self.config.min_threshold.max(0.5);
        }
        background.sort_by(f32::total_cmp);
        let idx = ((background.len() - 1) as f64 * self.config.calibration_quantile) as usize;
        (background[idx] + self.config.margin).max(self.config.min_threshold)
    }
}

impl TwoTableMatcher for AutoFjMatcher {
    fn name(&self) -> &str {
        "AutoFJ"
    }

    fn match_collections(
        &self,
        ctx: &MatchContext<'_>,
        left: &[EntityId],
        right: &[EntityId],
    ) -> Vec<MatchedPair> {
        if left.is_empty() || right.is_empty() {
            return Vec::new();
        }
        // Best right match for every left entity, and vice versa, under token
        // Jaccard. (Quadratic — AutoFJ's blocking is approximated by the fact
        // that Jaccard of disjoint token sets is 0 and never wins.)
        let mut best_right: Vec<(usize, f32)> = vec![(usize::MAX, -1.0); left.len()];
        let mut best_left: Vec<(usize, f32)> = vec![(usize::MAX, -1.0); right.len()];
        let mut background: Vec<f32> = Vec::new();
        for (i, &l) in left.iter().enumerate() {
            for (j, &r) in right.iter().enumerate() {
                let s = ctx.jaccard(l, r);
                if s > best_right[i].1 {
                    best_right[i] = (j, s);
                }
                if s > best_left[j].1 {
                    best_left[j] = (i, s);
                }
            }
        }
        // Background distribution: best scores that fail reciprocity plus a
        // sample of second-tier scores.
        for (i, &(j, s)) in best_right.iter().enumerate() {
            if j != usize::MAX && best_left[j].0 != i {
                background.push(s);
            }
        }
        let threshold = self.calibrate(&mut background);

        let mut out = Vec::new();
        for (i, &(j, s)) in best_right.iter().enumerate() {
            if j == usize::MAX || s < threshold {
                continue;
            }
            if best_left[j].0 == i {
                out.push(MatchedPair::new(left[i], right[j], s));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatchContext;
    use multiem_datagen::{
        CorruptionConfig, Corruptor, Domain, GeneratorConfig, MultiSourceGenerator,
    };
    use multiem_embed::HashedLexicalEncoder;
    use multiem_table::Dataset;

    fn dataset(corruption: CorruptionConfig, sources: usize) -> Dataset {
        let factory = Domain::Music.factory();
        let corruptor = Corruptor::new(corruption);
        MultiSourceGenerator::new(GeneratorConfig::small_test("autofj", sources))
            .generate(factory.as_ref(), &corruptor)
    }

    #[test]
    fn high_precision_on_light_corruption() {
        let ds = dataset(CorruptionConfig::light(), 2);
        let encoder = HashedLexicalEncoder::default();
        let ctx = MatchContext::build(&ds, &encoder, Vec::new());
        let matcher = AutoFjMatcher::default();
        let pairs =
            matcher.match_collections(&ctx, &ctx.source_entities(0), &ctx.source_entities(1));
        assert!(!pairs.is_empty());
        let truth = ds.ground_truth().unwrap().pairs();
        let correct = pairs
            .iter()
            .filter(|p| truth.contains(&(p.a.min(p.b), p.a.max(p.b))))
            .count();
        let precision = correct as f64 / pairs.len() as f64;
        assert!(
            precision > 0.8,
            "AutoFJ precision {precision} ({} pairs)",
            pairs.len()
        );
    }

    #[test]
    fn calibration_raises_threshold_with_noisy_background() {
        let matcher = AutoFjMatcher::default();
        let mut clean: Vec<f32> = vec![0.05, 0.1, 0.08];
        let mut noisy: Vec<f32> = vec![0.4, 0.45, 0.5, 0.42, 0.48];
        let t_clean = matcher.calibrate(&mut clean);
        let t_noisy = matcher.calibrate(&mut noisy);
        assert!(t_noisy > t_clean);
        // Empty background falls back to a conservative default.
        let t_default = matcher.calibrate(&mut Vec::new());
        assert!(t_default >= 0.5);
    }

    #[test]
    fn empty_inputs() {
        let ds = dataset(CorruptionConfig::none(), 2);
        let encoder = HashedLexicalEncoder::default();
        let ctx = MatchContext::build(&ds, &encoder, Vec::new());
        let matcher = AutoFjMatcher::default();
        assert!(matcher
            .match_collections(&ctx, &[], &ctx.source_entities(1))
            .is_empty());
        assert_eq!(matcher.name(), "AutoFJ");
        assert!(matcher.config().calibration_quantile > 0.5);
    }
}
