//! Inherent information gain (paper §5.1, Eq. 6).
//!
//! The utility of assigning cell `c_ij` to worker `u` is the expected drop in
//! the truth distribution's entropy after observing one more answer from `u`:
//! `IG(c_ij) = H(T) − E_a[H(T | a)]`. Entropy is Shannon for categorical
//! cells and differential for continuous cells; because only *differences*
//! enter, the measure is comparable across datatypes (the paper's Δ-binning
//! argument, verified in `tcrowd_stat::entropy` tests).
//!
//! For a Gaussian posterior the expected posterior entropy is exact — the
//! updated variance `(1/T^φ + 1/v)⁻¹` does not depend on the answer's value —
//! so the default estimator needs no sampling. A sampling estimator
//! mirroring the paper's Monte-Carlo description is provided for the
//! ablation study.

use crate::inference::InferenceResult;
use crate::truth::TruthDist;
use rand::rngs::StdRng;
use tcrowd_stat::{clamp_prob, clamp_var};
use tcrowd_tabular::{CellId, WorkerId};

/// How the expected posterior entropy of a *continuous* cell is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GainEstimator {
    /// Closed form (default): for Gaussians the post-update variance is
    /// answer-independent, so `E_a[H_d]` is exact.
    #[default]
    Exact,
    /// Monte-Carlo over sampled hypothetical answers (`s_cont` in the
    /// paper's complexity analysis). Agreement with `Exact` is tested; kept
    /// for the ablation bench.
    Sampling {
        /// Number of hypothetical answers drawn.
        samples: usize,
    },
}

/// Information gain of one more answer on a cell whose z-space posterior is
/// `truth`, answered with effective variance `obs_var` (continuous) or
/// quality `q` (categorical).
///
/// This is the primitive both the inherent and the structure-aware policies
/// reduce to; they differ only in how `obs_var`/`q` are predicted.
pub fn gain_with_params(
    truth: &TruthDist,
    obs_var: f64,
    q: f64,
    estimator: GainEstimator,
    rng: &mut StdRng,
) -> f64 {
    match truth {
        TruthDist::Continuous(n) => {
            let v = clamp_var(obs_var);
            match estimator {
                GainEstimator::Exact => {
                    // H − H' = ½ ln(T^φ / T^φ') = ½ ln(1 + T^φ / v).
                    0.5 * (1.0 + n.var / v).ln()
                }
                GainEstimator::Sampling { samples } => {
                    let predictive = n.predictive(v);
                    let h0 = n.differential_entropy();
                    let mut total = 0.0;
                    for _ in 0..samples.max(1) {
                        let a = predictive.sample(rng);
                        let post = n.posterior_with_observation(a, v);
                        total += post.differential_entropy();
                    }
                    h0 - total / samples.max(1) as f64
                }
            }
        }
        TruthDist::Categorical(p) => categorical_gain(p, q),
    }
}

/// Information gain of one categorical answer of quality `q` on a cell with
/// posterior `p`, as the mutual information `I(T; A) = H(A) − H(A|T)`.
///
/// Under every hypothesis `z` the answer takes `z` with probability `q` and
/// each other label with `r = (1−q)/(|L|−1)` (Eq. 3), so `H(A|T)` is the
/// one closed term `−q ln q − (1−q) ln r`, and `P(a) = p_a q + (1 − p_a) r`.
/// That is `|L| + 2` logarithms and no allocation, where the textbook
/// `H(T) − Σ_a P(a) H(T|a)` builds `|L|` posteriors; the two agree to
/// rounding (property-tested against that enumeration).
fn categorical_gain(p: &[f64], q: f64) -> f64 {
    if p.len() <= 1 {
        return 0.0;
    }
    let q = clamp_prob(q);
    let r = (1.0 - q) / (p.len() - 1) as f64;
    let total: f64 = p.iter().sum();
    let mut h_answer = 0.0;
    for &pz in p {
        let pa = pz * q + (total - pz) * r;
        if pa > 0.0 {
            h_answer -= pa * pa.ln();
        }
    }
    let h_answer_given_truth = -(q * q.ln() + (1.0 - q) * r.ln());
    h_answer - h_answer_given_truth
}

/// The textbook `H(T) − Σ_a P(a)·H(T|a)` enumeration, one explicit
/// posterior per hypothetical answer — the test oracle for
/// [`categorical_gain`].
#[cfg(test)]
pub(crate) fn enumerated_categorical_gain(p: &[f64], q: f64) -> f64 {
    use tcrowd_tabular::Value;
    let truth = TruthDist::Categorical(p.to_vec());
    let l = p.len() as u32;
    if l <= 1 {
        return 0.0;
    }
    let mut expected_h = 0.0;
    for a in 0..l {
        let p_a: f64 = p
            .iter()
            .enumerate()
            .map(|(z, pz)| pz * crate::model::cat_answer_likelihood(q, l, z as u32 == a))
            .sum();
        if p_a <= 0.0 {
            continue;
        }
        let post = truth.updated_with_answer(&Value::Categorical(a), 1.0, q);
        expected_h += p_a * post.entropy();
    }
    truth.entropy() - expected_h
}

/// Inherent information gain `IG_q(c_ij)` (Eq. 6): the gain of assigning
/// `cell` to `worker`, using the worker's fitted quality and the cell's
/// fitted difficulty.
pub fn inherent_gain(
    result: &InferenceResult,
    worker: WorkerId,
    cell: CellId,
    estimator: GainEstimator,
    rng: &mut StdRng,
) -> f64 {
    let v = result.effective_variance(worker, cell);
    let q = result.cell_quality(worker, cell);
    gain_with_params(result.truth_z(cell), v, q, estimator, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use tcrowd_stat::normal::Normal;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn continuous_gain_exact_matches_sampling() {
        let t = TruthDist::Continuous(Normal::new(0.3, 2.0));
        let mut r = rng();
        let exact = gain_with_params(&t, 0.5, 0.8, GainEstimator::Exact, &mut r);
        let sampled =
            gain_with_params(&t, 0.5, 0.8, GainEstimator::Sampling { samples: 50 }, &mut r);
        // For Gaussians the sampled entropy is answer-independent, so even a
        // small sample agrees to machine precision.
        assert!((exact - sampled).abs() < 1e-9, "{exact} vs {sampled}");
        assert!(exact > 0.0);
    }

    #[test]
    fn better_worker_means_larger_gain() {
        let t = TruthDist::Continuous(Normal::new(0.0, 1.0));
        let mut r = rng();
        let good = gain_with_params(&t, 0.1, 0.9, GainEstimator::Exact, &mut r);
        let bad = gain_with_params(&t, 5.0, 0.3, GainEstimator::Exact, &mut r);
        assert!(good > bad);
        let tc = TruthDist::uniform(4);
        let good_c = gain_with_params(&tc, 0.1, 0.9, GainEstimator::Exact, &mut r);
        let bad_c = gain_with_params(&tc, 5.0, 0.3, GainEstimator::Exact, &mut r);
        assert!(good_c > bad_c);
    }

    #[test]
    fn uncertain_cell_gains_more_than_settled_cell() {
        let mut r = rng();
        let uncertain = TruthDist::uniform(3);
        let settled = TruthDist::Categorical(vec![0.98, 0.01, 0.01]);
        let g_unc = gain_with_params(&uncertain, 0.3, 0.8, GainEstimator::Exact, &mut r);
        let g_set = gain_with_params(&settled, 0.3, 0.8, GainEstimator::Exact, &mut r);
        assert!(g_unc > g_set);

        let wide = TruthDist::Continuous(Normal::new(0.0, 4.0));
        let tight = TruthDist::Continuous(Normal::new(0.0, 0.01));
        let g_wide = gain_with_params(&wide, 0.5, 0.8, GainEstimator::Exact, &mut r);
        let g_tight = gain_with_params(&tight, 0.5, 0.8, GainEstimator::Exact, &mut r);
        assert!(g_wide > g_tight);
    }

    #[test]
    fn categorical_gain_is_nonnegative_and_bounded_by_entropy() {
        let mut r = rng();
        for probs in [vec![0.25; 4], vec![0.7, 0.2, 0.05, 0.05], vec![0.5, 0.5]] {
            let t = TruthDist::Categorical(probs);
            let h = t.entropy();
            for q in [0.3, 0.6, 0.95] {
                let g = gain_with_params(&t, 0.3, q, GainEstimator::Exact, &mut r);
                assert!(g >= -1e-12, "gain must be non-negative, got {g}");
                assert!(g <= h + 1e-12, "gain cannot exceed prior entropy");
            }
        }
    }

    #[test]
    fn uninformative_worker_gains_nothing_categorical() {
        // q = 1/|L| makes every answer equally likely under all hypotheses.
        let t = TruthDist::Categorical(vec![0.4, 0.3, 0.3]);
        let mut r = rng();
        let g = gain_with_params(&t, 1.0, 1.0 / 3.0, GainEstimator::Exact, &mut r);
        assert!(g.abs() < 1e-9, "gain = {g}");
    }

    #[test]
    fn single_label_domain_gains_zero() {
        let t = TruthDist::Categorical(vec![1.0]);
        let mut r = rng();
        assert_eq!(gain_with_params(&t, 0.5, 0.9, GainEstimator::Exact, &mut r), 0.0);
    }

    #[test]
    fn continuous_gain_formula() {
        // IG = ½ ln(1 + T^φ/v) exactly.
        let t = TruthDist::Continuous(Normal::new(1.0, 3.0));
        let mut r = rng();
        let g = gain_with_params(&t, 1.5, 0.5, GainEstimator::Exact, &mut r);
        assert!((g - 0.5 * (1.0f64 + 3.0 / 1.5).ln()).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn closed_form_categorical_gain_matches_enumeration(
            raw in prop::collection::vec(0.0f64..1.0, 2..9),
            sharpen in 1i32..6,
            zeros in any::<u8>(),
            q in 1e-6f64..(1.0 - 1e-6),
        ) {
            // Random posteriors over |L| ∈ [2, 8], sharpened toward spikes,
            // some with exact zeros.
            let mut p: Vec<f64> = raw
                .iter()
                .enumerate()
                .map(|(i, x)| if zeros >> (i % 8) & 1 == 1 && zeros % 3 == 0 { 0.0 } else { x.powi(sharpen) })
                .collect();
            if p.iter().sum::<f64>() <= 0.0 {
                p[0] = 1.0;
            }
            let total: f64 = p.iter().sum();
            p.iter_mut().for_each(|x| *x /= total);
            let closed = categorical_gain(&p, q);
            let oracle = enumerated_categorical_gain(&p, q);
            prop_assert!(
                (closed - oracle).abs() < 1e-12,
                "q = {q}, p = {p:?}: {closed} vs {oracle}"
            );
        }
    }
}
