//! GLAD (paper ref \[33\]) — worker ability × task difficulty, categorical.
//!
//! `P(correct) = σ(a_u · b_t)` where `a_u` is the worker's ability and
//! `b_t > 0` the task's discriminability (inverse difficulty); wrong answers
//! are uniform over the remaining labels (the standard multi-class
//! generalisation of Whitehill et al.'s binary model). Fitted per categorical
//! column with EM; the M-step is gradient ascent on the expected
//! log-likelihood, reusing the workspace optimizer.

#![allow(clippy::needless_range_loop)] // index loops here walk several parallel arrays
use crate::method::{naive_estimates, TruthMethod};
use tcrowd_stat::clamp_prob;
use tcrowd_stat::optimize::{gradient_ascent_with, AscentOptions};
use tcrowd_tabular::{AnswerLog, AnswerMatrix, CellId, ColumnType, Schema, Value};

/// GLAD estimator (per-column fits).
#[derive(Debug, Clone, Copy)]
pub struct Glad {
    /// Outer EM iterations.
    pub max_iters: usize,
    /// Gaussian prior strength on abilities and log-discriminabilities.
    pub prior_strength: f64,
}

impl Default for Glad {
    fn default() -> Self {
        Glad { max_iters: 15, prior_strength: 1.0 }
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl Glad {
    fn fit_column(&self, matrix: &AnswerMatrix, col: u32, l: usize) -> Vec<Vec<f64>> {
        let n = matrix.rows();
        // (row, worker_idx, label) per answer, via the by-cell CSR slices of
        // this column; workers are compacted to a column-local index so the
        // optimiser only carries abilities for this column's workers.
        let mut remap = vec![u32::MAX; matrix.num_workers()];
        let mut nu = 0usize;
        let mut triples: Vec<(usize, usize, usize)> = Vec::new();
        for i in 0..n as u32 {
            for k in matrix.cell_range(CellId::new(i, col)) {
                let g = matrix.answer_workers()[k] as usize;
                if remap[g] == u32::MAX {
                    remap[g] = nu as u32;
                    nu += 1;
                }
                triples.push((i as usize, remap[g] as usize, matrix.answer_labels()[k] as usize));
            }
        }

        // Posterior init from vote shares.
        let mut posterior = vec![vec![0.0f64; l]; n];
        let mut counts = vec![0usize; n];
        for &(i, _, a) in &triples {
            posterior[i][a] += 1.0;
            counts[i] += 1;
        }
        for (i, row) in posterior.iter_mut().enumerate() {
            if counts[i] == 0 {
                row.iter_mut().for_each(|p| *p = 1.0 / l as f64);
            } else {
                row.iter_mut().for_each(|p| *p /= counts[i] as f64);
            }
        }

        // Parameters: abilities a_u (init 1.0) and ln b_t (init 0.0).
        let mut params = vec![1.0; nu];
        params.extend(vec![0.0; n]);
        let lam = self.prior_strength;

        for _ in 0..self.max_iters {
            // Cache p_correct per answer.
            let pc: Vec<f64> =
                triples.iter().map(|&(i, _, a)| clamp_prob(posterior[i][a])).collect();
            let objective = |x: &[f64], grad: &mut [f64]| -> f64 {
                let (ab, lnb) = x.split_at(nu);
                let mut val = 0.0;
                grad.fill(0.0);
                for (t, &(i, u, _)) in triples.iter().enumerate() {
                    let b = lnb[i].clamp(-8.0, 8.0).exp();
                    let s = clamp_prob(sigmoid(ab[u] * b));
                    let p = pc[t];
                    val += p * s.ln() + (1.0 - p) * ((1.0 - s) / (l.max(2) - 1) as f64).ln();
                    // d/dx [p ln σ + (1-p) ln(1-σ)] with σ = σ(a·b):
                    // = (p − σ) · d(a·b)/dx.
                    let common = p - s;
                    grad[u] += common * b;
                    grad[nu + i] += common * ab[u] * b; // d(a·b)/d ln b = a·b
                }
                // Priors: a_u ~ N(1, 1/λ), ln b ~ N(0, 1/λ).
                for (u, &a) in ab.iter().enumerate() {
                    val -= 0.5 * lam * (a - 1.0) * (a - 1.0);
                    grad[u] -= lam * (a - 1.0);
                }
                for (i, &v) in lnb.iter().enumerate() {
                    val -= 0.5 * lam * v * v;
                    grad[nu + i] -= lam * v;
                }
                val
            };
            let res = gradient_ascent_with(
                objective,
                &params,
                &AscentOptions { initial_step: 0.3, max_iters: 20, ..Default::default() },
            );
            params = res.params;

            // E-step.
            let (ab, lnb) = params.split_at(nu);
            let mut ln_post = vec![vec![0.0f64; l]; n];
            for &(i, u, a) in &triples {
                let b = lnb[i].clamp(-8.0, 8.0).exp();
                let s = clamp_prob(sigmoid(ab[u] * b));
                let wrong = clamp_prob((1.0 - s) / (l.max(2) - 1) as f64);
                for (z, lp) in ln_post[i].iter_mut().enumerate() {
                    *lp += if z == a { s.ln() } else { wrong.ln() };
                }
            }
            for (i, row) in ln_post.iter().enumerate() {
                if counts[i] == 0 {
                    continue;
                }
                let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut p: Vec<f64> = row.iter().map(|lp| (lp - max).exp()).collect();
                let total: f64 = p.iter().sum();
                p.iter_mut().for_each(|v| *v /= total);
                posterior[i] = p;
            }
        }
        posterior
    }
}

impl TruthMethod for Glad {
    fn name(&self) -> &'static str {
        "GLAD"
    }

    fn estimate(&self, schema: &Schema, answers: &AnswerLog) -> Vec<Vec<Value>> {
        let matrix = AnswerMatrix::build(answers);
        let mut est = naive_estimates(schema, &matrix);
        for j in 0..schema.num_columns() {
            if let ColumnType::Categorical { labels } = schema.column_type(j) {
                let post = self.fit_column(&matrix, j as u32, labels.len());
                for (i, row) in post.iter().enumerate() {
                    if matrix.count_for_cell(CellId::new(i as u32, j as u32)) == 0 {
                        continue;
                    }
                    let best = row
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN"))
                        .map(|(z, _)| z as u32)
                        .unwrap_or(0);
                    est[i][j] = Value::Categorical(best);
                }
            }
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mv::MajorityVoting;
    use tcrowd_tabular::{generate_dataset, GeneratorConfig, WorkerQualityConfig};

    #[test]
    fn sigmoid_sanity() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(5.0) > 0.99);
        assert!(sigmoid(-5.0) < 0.01);
    }

    #[test]
    fn glad_competitive_with_mv() {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 80,
                columns: 3,
                categorical_ratio: 1.0,
                num_workers: 16,
                answers_per_task: 5,
                quality: WorkerQualityConfig {
                    median_phi: 0.25,
                    sigma_ln_phi: 1.0,
                    spammer_fraction: 0.2,
                    spammer_factor: 30.0,
                },
                ..Default::default()
            },
            9,
        );
        let glad = Glad::default().estimate(&d.schema, &d.answers);
        let mv = MajorityVoting.estimate(&d.schema, &d.answers);
        let ge = tcrowd_tabular::evaluate(&d.schema, &d.truth, &glad).error_rate.unwrap();
        let me = tcrowd_tabular::evaluate(&d.schema, &d.truth, &mv).error_rate.unwrap();
        assert!(ge <= me + 0.02, "GLAD {ge} vs MV {me}");
    }

    #[test]
    fn glad_output_matches_schema() {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 20,
                columns: 4,
                categorical_ratio: 0.5,
                num_workers: 10,
                answers_per_task: 3,
                ..Default::default()
            },
            4,
        );
        let est = Glad::default().estimate(&d.schema, &d.answers);
        for (i, row) in est.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert!(d.schema.column_type(j).accepts(v), "({i},{j})");
            }
        }
    }
}
