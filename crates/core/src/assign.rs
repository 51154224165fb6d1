//! Online task assignment (paper §5, Algorithm 2).
//!
//! A policy receives the incoming worker and the current state (answer log +
//! inference result) and returns the cell(s) to assign. T-Crowd's two
//! policies rank candidates by information gain:
//!
//! * [`InherentGainPolicy`] — Eq. 6, using the worker's fitted quality and
//!   the cell's fitted difficulty.
//! * [`StructureAwarePolicy`] — additionally conditions the worker's
//!   predicted error on the errors they already made on other attributes of
//!   the same row (Eq. 7), through a [`CorrelationModel`].
//!
//! Batched assignment (§5.3) greedily takes the top-K candidates; because
//! distinct cells have independent posteriors, the sum in Eq. 9 decomposes
//! and top-K is exactly the greedy optimum. A sequential mode that refreshes
//! the picked cell's posterior between picks is provided for completeness.

use crate::correlation::{observe_error, CorrelationModel, ErrorObservation, PredictedError};
use crate::gain::{gain_with_params, GainEstimator};
use crate::inference::InferenceResult;
use crate::model::quality_from_variance;
use crate::truth::TruthDist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use tcrowd_stat::clamp_prob;
use tcrowd_tabular::{AnswerMatrix, AnswerQueries, CellId, FrozenView, Schema, Value, WorkerId};

/// Everything a policy may consult when selecting tasks.
pub struct AssignmentContext<'a> {
    /// The table schema.
    pub schema: &'a Schema,
    /// The answer history so far, behind the representation-agnostic
    /// [`AnswerQueries`] trait: library callers pass the live
    /// [`tcrowd_tabular::AnswerLog`]; snapshot-serving callers (the service
    /// layer) pass the frozen [`AnswerMatrix`] itself, so a published
    /// snapshot needs no indexed log at all.
    pub answers: &'a dyn AnswerQueries,
    /// The caller's frozen columnar view of [`Self::answers`]. Matrix-side
    /// policies (structure-aware, entity-aware) fit their models from this
    /// freeze instead of each `select` call rebuilding one — the runner
    /// keeps a single evolving freeze and delta-merges the log tail into it,
    /// so per-HIT assignment no longer pays the `O(cells + W·R)` rebuild.
    pub freeze: FrozenView<'a>,
    /// The most recent truth-inference result. T-Crowd's gain policies
    /// require it; baseline policies (random, round-robin, raw-entropy,
    /// CDAS) work from the answer log alone and ignore it.
    pub inference: Option<&'a InferenceResult>,
    /// Optional per-cell redundancy cap: cells that already have this many
    /// answers are not assigned again.
    pub max_answers_per_cell: Option<usize>,
    /// Cells terminated by an adaptive stopping rule (confidence reached);
    /// they are excluded from assignment. `None` means nothing terminated.
    pub terminated: Option<&'a std::collections::HashSet<CellId>>,
    /// A pre-fitted correlation model of [`Self::freeze`] +
    /// [`Self::inference`]. The model is a pure function of the two, so
    /// callers serving many `select` calls per published state (the service
    /// layer caches one on each snapshot) fit it once here instead of
    /// [`StructureAwarePolicy`] re-fitting per request. `None` keeps the
    /// fit-per-select behaviour.
    pub correlation: Option<&'a CorrelationModel>,
}

impl<'a> AssignmentContext<'a> {
    /// The frozen matrix, checked (in debug builds) to actually cover the
    /// answer history: a stale freeze means the caller forgot to
    /// delta-merge the log tail before assignment, and the fitted
    /// correlation/entity models would silently ignore the newest answers.
    pub fn matrix(&self) -> &'a AnswerMatrix {
        debug_assert_eq!(
            self.freeze.epoch(),
            self.answers.len(),
            "assignment context holds a stale freeze — refresh the matrix \
             (AnswerMatrix::refresh / merge_delta) before selecting",
        );
        self.freeze.matrix()
    }

    /// The freeze epoch (number of log answers the matrix covers).
    pub fn epoch(&self) -> usize {
        self.freeze.epoch()
    }

    /// Cells the worker may be assigned: not yet answered by this worker and
    /// under the redundancy cap. Enumerates the table in row-major order.
    pub fn candidates(&self, worker: WorkerId) -> Vec<CellId> {
        let (rows, cols) = (self.answers.rows(), self.answers.cols());
        let mut out = Vec::new();
        for slot in 0..rows * cols {
            let c = CellId::new((slot / cols) as u32, (slot % cols) as u32);
            if let Some(cap) = self.max_answers_per_cell {
                if self.answers.count_for_cell(c) >= cap {
                    continue;
                }
            }
            if let Some(stopped) = self.terminated {
                if stopped.contains(&c) {
                    continue;
                }
            }
            if !self.answers.has_answered(worker, c) {
                out.push(c);
            }
        }
        out
    }
}

/// An online task-assignment policy (Definition 4).
pub trait AssignmentPolicy {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Select up to `k` cells for the incoming worker. Fewer than `k` cells
    /// are returned only when the candidate pool is smaller than `k`.
    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId>;
}

/// Batch-selection strategy for multi-task HITs (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Take the K candidates with the largest individual gain (the paper's
    /// greedy; exact here because per-cell gains are independent).
    #[default]
    TopK,
    /// After each pick, replace the picked cell's posterior with its expected
    /// post-answer posterior and re-rank. Differs from `TopK` only through
    /// the removal of the picked cell, so results coincide; kept as an
    /// extension point for policies with inter-cell coupling.
    SequentialGreedy,
}

/// Total order on gains with NaN below every number: a degenerate gain
/// (e.g. from a broken posterior) ranks its cell last instead of panicking
/// the request that asked for an assignment.
fn cmp_gain(a: f64, b: f64) -> Ordering {
    let key = |g: f64| if g.is_nan() { f64::NEG_INFINITY } else { g };
    key(a).partial_cmp(&key(b)).unwrap_or(Ordering::Equal)
}

/// Rank `candidates` by `gain` and return the top `k` (ties and NaN gains
/// broken by cell order).
pub(crate) fn top_k_by_gain(candidates: Vec<CellId>, gains: Vec<f64>, k: usize) -> Vec<CellId> {
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| cmp_gain(gains[b], gains[a]).then(candidates[a].cmp(&candidates[b])));
    order.into_iter().take(k).map(|i| candidates[i]).collect()
}

/// T-Crowd's inherent information-gain policy (§5.1).
#[derive(Debug)]
pub struct InherentGainPolicy {
    /// Expected-entropy estimator for continuous cells.
    pub estimator: GainEstimator,
    /// Batch strategy.
    pub batch: BatchMode,
    rng: StdRng,
}

impl InherentGainPolicy {
    /// Create with the given estimator (RNG only used by the sampling
    /// estimator; seeded for reproducibility).
    pub fn new(estimator: GainEstimator) -> Self {
        InherentGainPolicy {
            estimator,
            batch: BatchMode::default(),
            rng: StdRng::seed_from_u64(0xC0FFEE),
        }
    }

    /// Builder: set the batch-selection strategy.
    pub fn with_batch(mut self, batch: BatchMode) -> Self {
        self.batch = batch;
        self
    }
}

impl Default for InherentGainPolicy {
    fn default() -> Self {
        Self::new(GainEstimator::default())
    }
}

impl AssignmentPolicy for InherentGainPolicy {
    fn name(&self) -> &'static str {
        "inherent-gain"
    }

    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId> {
        let inference =
            ctx.inference.expect("InherentGainPolicy requires an inference result in the context");
        let candidates = ctx.candidates(worker);
        let gains: Vec<f64> = if self.estimator == GainEstimator::Exact {
            // The exact estimator is RNG-free, so large candidate sets can be
            // scored across threads (the paper's §5.1 parallelisation note).
            crate::gain::compute_gains(&candidates, |c| {
                let v = inference.effective_variance(worker, c);
                let q = inference.cell_quality(worker, c);
                let mut rng = StdRng::seed_from_u64(0); // unused by Exact
                gain_with_params(inference.truth_z(c), v, q, GainEstimator::Exact, &mut rng)
            })
        } else {
            candidates
                .iter()
                .map(|&c| {
                    let v = inference.effective_variance(worker, c);
                    let q = inference.cell_quality(worker, c);
                    gain_with_params(inference.truth_z(c), v, q, self.estimator, &mut self.rng)
                })
                .collect()
        };
        match self.batch {
            BatchMode::TopK => top_k_by_gain(candidates, gains, k),
            BatchMode::SequentialGreedy => sequential_greedy(
                candidates,
                gains,
                k,
                |cell, rng| {
                    let v = inference.effective_variance(worker, cell);
                    let q = inference.cell_quality(worker, cell);
                    gain_with_params(inference.truth_z(cell), v, q, self.estimator, rng)
                },
                &mut self.rng,
            ),
        }
    }
}

/// Generic sequential greedy: pick the max-gain candidate, drop it, repeat.
/// `rescore` recomputes a candidate's gain (posterior-coupled policies would
/// hook their updates here).
fn sequential_greedy<F>(
    mut candidates: Vec<CellId>,
    mut gains: Vec<f64>,
    k: usize,
    rescore: F,
    rng: &mut StdRng,
) -> Vec<CellId>
where
    F: Fn(CellId, &mut StdRng) -> f64,
{
    let mut picked = Vec::with_capacity(k.min(candidates.len()));
    for _ in 0..k {
        if candidates.is_empty() {
            break;
        }
        let best = gains
            .iter()
            .enumerate()
            .max_by(|a, b| cmp_gain(*a.1, *b.1))
            .map(|(i, _)| i)
            .expect("non-empty");
        picked.push(candidates.swap_remove(best));
        gains.swap_remove(best);
        // Re-score survivors (no-op for independent posteriors, but keeps the
        // hook honest for coupled policies).
        for (i, &c) in candidates.iter().enumerate() {
            gains[i] = rescore(c, rng);
        }
    }
    picked
}

/// T-Crowd's structure-aware information-gain policy (§5.2).
///
/// Fits a [`CorrelationModel`] from the current state, then for each
/// candidate cell conditions the incoming worker's predicted error on the
/// errors the worker already made on the same row. Falls back to the
/// inherent gain when no conditioning information exists (new worker, empty
/// row, or unsupported pair).
#[derive(Debug)]
pub struct StructureAwarePolicy {
    /// Expected-entropy estimator for continuous cells.
    pub estimator: GainEstimator,
    /// Batch strategy.
    pub batch: BatchMode,
    rng: StdRng,
}

impl StructureAwarePolicy {
    /// Create with the given estimator.
    pub fn new(estimator: GainEstimator) -> Self {
        StructureAwarePolicy {
            estimator,
            batch: BatchMode::default(),
            rng: StdRng::seed_from_u64(0x5EED),
        }
    }

    /// Gain of `cell` for `worker` under the correlation-conditioned error
    /// model; `observed` holds the worker's errors on the cell's row.
    fn structure_gain(
        &mut self,
        inference: &InferenceResult,
        model: &CorrelationModel,
        worker: WorkerId,
        cell: CellId,
        observed: &[(usize, ErrorObservation)],
    ) -> f64 {
        let truth = inference.truth_z(cell);
        let v_inherent = inference.effective_variance(worker, cell);
        let q_inherent = inference.cell_quality(worker, cell);
        let (v, q) = match model.conditional_error(cell.col as usize, observed) {
            Some(PredictedError::Categorical(p_wrong)) => {
                // Blend the structural prediction with the inherent quality:
                // both carry information about this worker on this cell.
                let q_struct = clamp_prob(1.0 - p_wrong);
                (v_inherent, 0.5 * (q_struct + q_inherent))
            }
            Some(mix @ PredictedError::ContinuousMixture(_)) => {
                let (_, var) = mix.mixture_moments().expect("continuous mixture");
                // Same blend on the variance scale.
                let v_struct = var.max(tcrowd_stat::EPS);
                let v = (v_struct * v_inherent).sqrt(); // geometric mean
                (v, quality_from_variance(inference.epsilon, v))
            }
            None => (v_inherent, q_inherent),
        };
        gain_with_params(truth, v, q, self.estimator, &mut self.rng)
    }
}

impl Default for StructureAwarePolicy {
    fn default() -> Self {
        Self::new(GainEstimator::default())
    }
}

impl AssignmentPolicy for StructureAwarePolicy {
    fn name(&self) -> &'static str {
        "structure-aware-gain"
    }

    fn select(&mut self, worker: WorkerId, k: usize, ctx: &AssignmentContext<'_>) -> Vec<CellId> {
        let inference = ctx
            .inference
            .expect("StructureAwarePolicy requires an inference result in the context");
        // The caller's shared freeze serves the correlation fit and the
        // row-error scan (by-(worker, row) CSR view) — no per-HIT rebuild.
        let matrix = ctx.matrix();
        let fitted_here;
        let model = match ctx.correlation {
            Some(cached) => cached,
            None => {
                fitted_here = CorrelationModel::fit_matrix(ctx.schema, matrix, inference);
                &fitted_here
            }
        };
        let candidates = ctx.candidates(worker);
        // Pre-compute the worker's observed errors per row (L^u_i of Eq. 7).
        let mut row_errors: std::collections::HashMap<u32, Vec<(usize, ErrorObservation)>> =
            std::collections::HashMap::new();
        if let Some(w) = matrix.worker_index(worker) {
            for a in matrix.worker_answers(w) {
                let answer =
                    tcrowd_tabular::Answer { worker: a.worker, cell: a.cell, value: a.value };
                row_errors
                    .entry(a.cell.row)
                    .or_default()
                    .push((a.cell.col as usize, observe_error(inference, &answer)));
            }
        }
        let empty: Vec<(usize, ErrorObservation)> = Vec::new();
        let gains: Vec<f64> = candidates
            .iter()
            .map(|&c| {
                let observed = row_errors.get(&c.row).unwrap_or(&empty);
                self.structure_gain(inference, model, worker, c, observed)
            })
            .collect();
        top_k_by_gain(candidates, gains, k)
    }
}

/// Expected posterior after an answer whose value is not yet known — used by
/// simulators that refresh cell posteriors between full inference runs.
///
/// Continuous: the variance shrinks deterministically, the mean is the prior
/// mean in expectation. Categorical: `P'(z) = Σ_a P(a) P(z|a)` which equals
/// the prior (posterior expectation is the prior), so the prior is returned —
/// the entropy *reduction* is only realised once an actual answer arrives.
pub fn expected_posterior(truth: &TruthDist, obs_var: f64, _q: f64) -> TruthDist {
    match truth {
        TruthDist::Continuous(n) => {
            TruthDist::Continuous(n.posterior_with_observation(n.mean, obs_var))
        }
        TruthDist::Categorical(p) => TruthDist::Categorical(p.clone()),
    }
}

/// Apply one real answer incrementally to an inference result's stored
/// posterior (the §5.1 acceleration: between full EM runs, only the answered
/// cell's posterior is refreshed).
pub fn apply_answer_incrementally(
    result: &mut InferenceResult,
    worker: WorkerId,
    cell: CellId,
    value: &Value,
) {
    let v = result.effective_variance(worker, cell);
    let q = result.cell_quality(worker, cell);
    let z_value = match value {
        Value::Continuous(x) => {
            let (m, s) = result.scaler(cell.col as usize).expect("scaler");
            Value::Continuous((x - m) / s)
        }
        Value::Categorical(l) => Value::Categorical(*l),
    };
    let updated = result.truth_z(cell).updated_with_answer(&z_value, v, q);
    result.set_truth_z(cell, updated);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::TCrowd;
    use tcrowd_tabular::{generate_dataset, GeneratorConfig, RowFamiliarity};

    fn setup(seed: u64) -> (tcrowd_tabular::Dataset, InferenceResult) {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 25,
                columns: 4,
                num_workers: 15,
                answers_per_task: 3,
                row_familiarity: Some(RowFamiliarity::default()),
                ..Default::default()
            },
            seed,
        );
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        (d, r)
    }

    #[test]
    fn nan_gains_rank_last_instead_of_panicking() {
        let cells: Vec<CellId> = (0..5).map(|c| CellId::new(0, c)).collect();
        let gains = vec![0.3, f64::NAN, 0.9, f64::NAN, 0.1];
        assert_eq!(
            top_k_by_gain(cells.clone(), gains.clone(), 5),
            vec![cells[2], cells[0], cells[4], cells[1], cells[3]]
        );
        let mut rng = StdRng::seed_from_u64(0);
        let rescore = |c: CellId, _: &mut StdRng| gains[c.col as usize];
        let picked = sequential_greedy(cells.clone(), gains.clone(), 3, rescore, &mut rng);
        assert_eq!(picked, vec![cells[2], cells[0], cells[4]]);
        let all_nan = vec![f64::NAN; 5];
        assert_eq!(top_k_by_gain(cells.clone(), all_nan, 2), vec![cells[0], cells[1]]);
    }

    #[test]
    fn candidates_exclude_answered_and_capped_cells() {
        let (d, r) = setup(1);
        let m = d.answers.to_matrix();
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &d.answers,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let w = d.answers.workers().next().unwrap();
        let cands = ctx.candidates(w);
        for c in &cands {
            assert!(!d.answers.has_answered(w, *c));
        }
        // Cap at the current redundancy: every cell has exactly 3 answers,
        // so a cap of 3 empties the pool.
        let capped = AssignmentContext { max_answers_per_cell: Some(3), ..ctx };
        assert!(capped.candidates(w).is_empty());
    }

    #[test]
    fn select_returns_k_distinct_cells() {
        let (d, r) = setup(2);
        let m = d.answers.to_matrix();
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &d.answers,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let w = WorkerId(9_999); // fresh worker
        for policy in [
            &mut InherentGainPolicy::default() as &mut dyn AssignmentPolicy,
            &mut StructureAwarePolicy::default() as &mut dyn AssignmentPolicy,
        ] {
            let picks = policy.select(w, 7, &ctx);
            assert_eq!(picks.len(), 7, "{}", policy.name());
            let mut dedup = picks.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 7, "{} returned duplicates", policy.name());
        }
    }

    #[test]
    fn topk_and_sequential_agree_for_inherent() {
        let (d, r) = setup(3);
        let m = d.answers.to_matrix();
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &d.answers,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let w = WorkerId(9_999);
        let mut a = InherentGainPolicy::default();
        let mut b = InherentGainPolicy { batch: BatchMode::SequentialGreedy, ..Default::default() };
        let pa: std::collections::BTreeSet<_> = a.select(w, 5, &ctx).into_iter().collect();
        let pb: std::collections::BTreeSet<_> = b.select(w, 5, &ctx).into_iter().collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn gain_policy_prefers_undersampled_cells() {
        // Give one cell extra answers; a fresh worker should be steered to
        // cells with fewer answers (higher remaining uncertainty), all else
        // equal.
        let (mut d, _) = setup(4);
        let target = CellId::new(0, 0);
        let heavy_worker_base = 500u32;
        for extra in 0..6 {
            let w = WorkerId(heavy_worker_base + extra);
            let truth = d.truth_of(target);
            d.answers.push(tcrowd_tabular::Answer { worker: w, cell: target, value: truth });
        }
        let r = TCrowd::default_full().infer(&d.schema, &d.answers);
        let m = d.answers.to_matrix();
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &d.answers,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let mut policy = InherentGainPolicy::default();
        let picks = policy.select(WorkerId(9_999), 10, &ctx);
        assert!(!picks.contains(&target), "the heavily-answered cell should not be a top pick");
    }

    #[test]
    fn structure_aware_falls_back_for_unseen_worker() {
        // A worker with no history has no row errors; structure-aware must
        // still return a full selection (inherent fallback).
        let (d, r) = setup(5);
        let m = d.answers.to_matrix();
        let ctx = AssignmentContext {
            schema: &d.schema,
            answers: &d.answers,
            freeze: m.freeze_view(),
            inference: Some(&r),
            max_answers_per_cell: None,
            terminated: None,
            correlation: None,
        };
        let mut policy = StructureAwarePolicy::default();
        let picks = policy.select(WorkerId(77_777), 4, &ctx);
        assert_eq!(picks.len(), 4);
    }

    #[test]
    fn incremental_update_moves_posterior() {
        let (d, mut r) = setup(6);
        let cell = CellId::new(2, 0); // categorical column in this layout
        let before = r.truth_z(cell).clone();
        let label = match d.truth_of(cell) {
            Value::Categorical(l) => l,
            _ => panic!("expected categorical column 0"),
        };
        apply_answer_incrementally(&mut r, WorkerId(9_999), cell, &Value::Categorical(label));
        let after = r.truth_z(cell);
        assert_ne!(&before, after);
        assert!(
            after.confidence_in(&Value::Categorical(label))
                >= before.confidence_in(&Value::Categorical(label))
        );
    }

    #[test]
    fn expected_posterior_shrinks_continuous_variance_only() {
        let t = TruthDist::Continuous(tcrowd_stat::Normal::new(1.0, 2.0));
        if let TruthDist::Continuous(n) = expected_posterior(&t, 1.0, 0.8) {
            assert!((n.mean - 1.0).abs() < 1e-12);
            assert!(n.var < 2.0);
        } else {
            panic!("variant");
        }
        let c = TruthDist::Categorical(vec![0.6, 0.4]);
        assert_eq!(expected_posterior(&c, 1.0, 0.8), c);
    }
}
