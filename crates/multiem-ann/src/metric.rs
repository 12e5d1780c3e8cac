//! Distance metrics.

use serde::{Deserialize, Serialize};

/// Distance metric used by the vector indexes.
///
/// The paper uses cosine distance in the merging phase and Euclidean distance
/// in the pruning phase (Section IV-A, implementation details).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Metric {
    /// Cosine distance `1 - cos(a, b)`, range `[0, 2]`.
    #[default]
    Cosine,
    /// Euclidean (L2) distance.
    Euclidean,
    /// Negative inner product (so that smaller is closer).
    InnerProduct,
}

impl Metric {
    /// Distance between two equal-length vectors under this metric.
    ///
    /// Cosine runs the lane-unrolled kernel: [`Metric::squared_norm`] of
    /// each side and one dot product, so it is bit-identical to
    /// [`Metric::distance_prenormed`] for the same pair and every index
    /// scores a pair with the same float. Against a non-zero vector, a NaN
    /// or infinite component yields a NaN cosine distance, which the
    /// [`crate::Neighbor`] order ranks last.
    #[inline]
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Cosine => Self::cosine_from_parts(
                dot_lanes(a, b),
                Self::squared_norm(a),
                Self::squared_norm(b),
            ),
            Metric::Euclidean => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt(),
            Metric::InnerProduct => -a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>(),
        }
    }

    /// [`Metric::distance`] with **both** squared norms precomputed, leaving
    /// only the dot product per pair.
    ///
    /// This is the kernel of a *batched* scan, and the reason batching a
    /// memory- and compute-bound linear scan genuinely saves work: the
    /// candidate's norm `nb` is computed once per stored vector and shared
    /// by every query of the batch, which a single-query scan cannot do
    /// (each candidate is visited once per scan, so there is nothing to
    /// amortize its norm over). Bit-identical to `distance` for the same
    /// pair when `na`/`nb` come from [`Metric::squared_norm`]. Other metrics
    /// fall through to `distance` unchanged.
    #[inline]
    pub fn distance_prenormed(&self, a: &[f32], b: &[f32], na: f32, nb: f32) -> f32 {
        match self {
            Metric::Cosine => Self::cosine_from_parts(dot_lanes(a, b), na, nb),
            _ => self.distance(a, b),
        }
    }

    /// Squared L2 norm, lane-unrolled like the dot product of the cosine
    /// kernel. [`Metric::distance`] computes norms with it, so a norm
    /// hoisted out of a scan yields the same floats.
    #[inline]
    pub fn squared_norm(v: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut chunks = v.chunks_exact(LANES);
        for c in &mut chunks {
            for (lane, x) in acc.iter_mut().zip(c) {
                *lane += x * x;
            }
        }
        let mut n = sum_lanes(acc);
        for x in chunks.remainder() {
            n += x * x;
        }
        n
    }

    #[inline]
    fn cosine_from_parts(dot: f32, na: f32, nb: f32) -> f32 {
        if na == 0.0 || nb == 0.0 {
            return 1.0;
        }
        let d = 1.0 - dot / (na.sqrt() * nb.sqrt());
        // Clamp rounding below zero, but let NaN through (`f32::max` would
        // turn it into a perfect match).
        if d < 0.0 {
            0.0
        } else {
            d
        }
    }
}

/// Accumulator lanes of the unrolled scan kernels. A single-accumulator
/// f32 reduction is bound by FMA latency (one chain); eight independent
/// lanes keep the multiplier ports busy and let LLVM vectorize the body.
const LANES: usize = 8;

/// Pairs lane `i` with lane `i + 4` first: that is the element-wise sum of
/// the two 4-wide halves, so the vectorized loop keeps each half in its own
/// register. Pairing neighbouring lanes instead makes LLVM shuffle on every
/// iteration (~1.6x slower `squared_norm` at dim 384, measured on a 2-vCPU
/// x86-64 VM).
#[inline]
fn sum_lanes(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// Lane-unrolled dot product.
#[inline]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        for ((lane, x), y) in acc.iter_mut().zip(xs).zip(ys) {
            *lane += x * y;
        }
    }
    let mut dot = sum_lanes(acc);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        dot += x * y;
    }
    dot
}

impl Metric {
    /// Short name used in experiment records.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Cosine => "cosine",
            Metric::Euclidean => "euclidean",
            Metric::InnerProduct => "inner-product",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_distance_properties() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        let m = Metric::Cosine;
        assert!(m.distance(&a, &a) < 1e-6);
        assert!((m.distance(&a, &b) - 1.0).abs() < 1e-6);
        // Opposite vectors: distance 2.
        assert!((m.distance(&a, &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
        // Zero vector convention.
        assert_eq!(m.distance(&a, &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn euclidean_distance_matches_hand_computed() {
        let m = Metric::Euclidean;
        assert!((m.distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(m.distance(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn inner_product_is_negated() {
        let m = Metric::InnerProduct;
        assert_eq!(m.distance(&[1.0, 2.0], &[3.0, 4.0]), -11.0);
        // Larger inner product = smaller (more negative) distance.
        assert!(m.distance(&[1.0, 0.0], &[5.0, 0.0]) < m.distance(&[1.0, 0.0], &[1.0, 0.0]));
    }

    #[test]
    fn names() {
        assert_eq!(Metric::Cosine.name(), "cosine");
        assert_eq!(Metric::Euclidean.name(), "euclidean");
        assert_eq!(Metric::InnerProduct.name(), "inner-product");
        assert_eq!(Metric::default(), Metric::Cosine);
    }
}
