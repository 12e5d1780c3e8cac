//! Affinity propagation clustering (Frey & Dueck, Science 2007).
//!
//! Substrate behind the MSCD-AP baseline (Lerm, Saeedi & Rahm, BTW 2021):
//! entities exchange "responsibility" and "availability" messages until a set
//! of exemplars emerges; every entity is then assigned to its best exemplar.
//! The implementation operates on a dense similarity matrix, so its quadratic
//! memory footprint and cubic-ish runtime mirror the scalability problems the
//! paper attributes to clustering-based multi-table EM.

use multiem_ann::Metric;
use serde::{Deserialize, Serialize};

/// Configuration of [`AffinityPropagation`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AffinityPropagationConfig {
    /// Damping factor in `[0.5, 1)` applied to message updates.
    pub damping: f32,
    /// Maximum number of message-passing iterations.
    pub max_iterations: usize,
    /// Stop early when exemplar assignments have been stable for this many
    /// consecutive iterations.
    pub convergence_iterations: usize,
    /// Self-similarity (preference). `None` uses the median pairwise
    /// similarity, the standard default.
    pub preference: Option<f32>,
    /// Distance metric; similarities are negated distances.
    pub metric: Metric,
}

impl Default for AffinityPropagationConfig {
    fn default() -> Self {
        Self {
            damping: 0.7,
            max_iterations: 200,
            convergence_iterations: 15,
            preference: None,
            metric: Metric::Cosine,
        }
    }
}

/// Affinity propagation clusterer.
#[derive(Debug, Clone)]
pub struct AffinityPropagation {
    config: AffinityPropagationConfig,
}

impl AffinityPropagation {
    /// Create a clusterer with the given configuration.
    pub fn new(config: AffinityPropagationConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AffinityPropagationConfig {
        &self.config
    }

    /// Cluster `points`. Returns clusters as lists of point indices (ordered by
    /// smallest member, singletons included).
    pub fn cluster(&self, points: &[&[f32]]) -> Vec<Vec<usize>> {
        let n = points.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![vec![0]];
        }

        // Similarity matrix: s(i, k) = -distance(i, k).
        let mut sim = vec![0.0f32; n * n];
        let mut offdiag: Vec<f32> = Vec::with_capacity(n * (n - 1));
        for i in 0..n {
            for k in 0..n {
                if i == k {
                    continue;
                }
                let s = -self.config.metric.distance(points[i], points[k]);
                sim[i * n + k] = s;
                offdiag.push(s);
            }
        }
        let preference = self.config.preference.unwrap_or_else(|| {
            offdiag.sort_by(f32::total_cmp);
            offdiag[offdiag.len() / 2]
        });
        for i in 0..n {
            sim[i * n + i] = preference;
        }

        let mut resp = vec![0.0f32; n * n];
        let mut avail = vec![0.0f32; n * n];
        let damping = self.config.damping.clamp(0.5, 0.99);

        let mut last_exemplars: Vec<usize> = Vec::new();
        let mut stable_for = 0usize;

        for _ in 0..self.config.max_iterations {
            // Responsibilities: r(i,k) = s(i,k) - max_{k' != k} (a(i,k') + s(i,k')).
            for i in 0..n {
                // Track the two largest a + s values for row i.
                let mut best = f32::NEG_INFINITY;
                let mut second = f32::NEG_INFINITY;
                let mut best_k = 0usize;
                for k in 0..n {
                    let v = avail[i * n + k] + sim[i * n + k];
                    if v > best {
                        second = best;
                        best = v;
                        best_k = k;
                    } else if v > second {
                        second = v;
                    }
                }
                for k in 0..n {
                    let cap = if k == best_k { second } else { best };
                    let new_r = sim[i * n + k] - cap;
                    resp[i * n + k] = damping * resp[i * n + k] + (1.0 - damping) * new_r;
                }
            }

            // Availabilities:
            // a(i,k) = min(0, r(k,k) + sum_{i' not in {i,k}} max(0, r(i',k)))   (i != k)
            // a(k,k) = sum_{i' != k} max(0, r(i',k)).
            for k in 0..n {
                let mut positive_sum = 0.0f32;
                for i in 0..n {
                    if i != k {
                        positive_sum += resp[i * n + k].max(0.0);
                    }
                }
                for i in 0..n {
                    let new_a = if i == k {
                        positive_sum
                    } else {
                        let without_i = positive_sum - resp[i * n + k].max(0.0);
                        (resp[k * n + k] + without_i).min(0.0)
                    };
                    avail[i * n + k] = damping * avail[i * n + k] + (1.0 - damping) * new_a;
                }
            }

            // Current exemplars.
            let exemplars: Vec<usize> = (0..n)
                .filter(|&k| resp[k * n + k] + avail[k * n + k] > 0.0)
                .collect();
            if exemplars == last_exemplars && !exemplars.is_empty() {
                stable_for += 1;
                if stable_for >= self.config.convergence_iterations {
                    break;
                }
            } else {
                stable_for = 0;
                last_exemplars = exemplars;
            }
        }

        let mut exemplars: Vec<usize> = (0..n)
            .filter(|&k| resp[k * n + k] + avail[k * n + k] > 0.0)
            .collect();
        if exemplars.is_empty() {
            // Degenerate case: fall back to the point with the highest self-evidence.
            let best = (0..n)
                .max_by(|&a, &b| {
                    let va = resp[a * n + a] + avail[a * n + a];
                    let vb = resp[b * n + b] + avail[b * n + b];
                    va.total_cmp(&vb)
                })
                .unwrap_or(0);
            exemplars.push(best);
        }

        // Assign every point to its most similar exemplar (exemplars assign to
        // themselves).
        let mut clusters: std::collections::BTreeMap<usize, Vec<usize>> =
            exemplars.iter().map(|&e| (e, Vec::new())).collect();
        for i in 0..n {
            let target = if exemplars.contains(&i) {
                i
            } else {
                *exemplars
                    .iter()
                    .max_by(|&&a, &&b| sim[i * n + a].total_cmp(&sim[i * n + b]))
                    .expect("at least one exemplar")
            };
            clusters
                .get_mut(&target)
                .expect("exemplar cluster exists")
                .push(i);
        }

        let mut out: Vec<Vec<usize>> = clusters.into_values().collect();
        for c in &mut out {
            c.sort_unstable();
        }
        out.sort_by_key(|c| c[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(points: &[Vec<f32>]) -> Vec<&[f32]> {
        points.iter().map(|p| p.as_slice()).collect()
    }

    #[test]
    fn separates_two_well_separated_blobs() {
        let points = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![10.0, 10.0],
            vec![10.1, 10.0],
            vec![10.0, 10.1],
        ];
        let cfg = AffinityPropagationConfig {
            metric: Metric::Euclidean,
            ..Default::default()
        };
        let clusters = AffinityPropagation::new(cfg).cluster(&refs(&points));
        assert_eq!(clusters.len(), 2, "clusters: {clusters:?}");
        assert_eq!(clusters[0], vec![0, 1, 2]);
        assert_eq!(clusters[1], vec![3, 4, 5]);
    }

    #[test]
    fn every_point_assigned_exactly_once() {
        let points: Vec<Vec<f32>> = (0..12)
            .map(|i| vec![(i % 4) as f32 * 3.0, (i / 4) as f32 * 3.0])
            .collect();
        let cfg = AffinityPropagationConfig {
            metric: Metric::Euclidean,
            ..Default::default()
        };
        let clusters = AffinityPropagation::new(cfg).cluster(&refs(&points));
        let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn single_and_empty_inputs() {
        let cfg = AffinityPropagationConfig::default();
        let ap = AffinityPropagation::new(cfg);
        assert!(ap.cluster(&[]).is_empty());
        let one = vec![vec![1.0, 2.0]];
        assert_eq!(ap.cluster(&refs(&one)), vec![vec![0]]);
    }

    #[test]
    fn identical_points_form_one_cluster() {
        let points = vec![vec![1.0, 1.0]; 5];
        let cfg = AffinityPropagationConfig {
            metric: Metric::Euclidean,
            ..Default::default()
        };
        let clusters = AffinityPropagation::new(cfg).cluster(&refs(&points));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 5);
    }

    #[test]
    fn low_preference_reduces_cluster_count() {
        let points: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32]).collect();
        let many_cfg = AffinityPropagationConfig {
            metric: Metric::Euclidean,
            preference: Some(-0.1),
            ..Default::default()
        };
        let few_cfg = AffinityPropagationConfig {
            metric: Metric::Euclidean,
            preference: Some(-50.0),
            ..Default::default()
        };
        let many = AffinityPropagation::new(many_cfg)
            .cluster(&refs(&points))
            .len();
        let few = AffinityPropagation::new(few_cfg)
            .cluster(&refs(&points))
            .len();
        assert!(many >= few, "many={many} few={few}");
    }
}
