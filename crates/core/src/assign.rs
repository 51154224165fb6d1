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
//! and top-K is exactly the greedy optimum.
//!
//! Both policies (and the entity-aware extension) score through one
//! request-scoped pass, `select_by_gain`: the candidate set is a bitmap
//! cleared from the worker's own answer run, the worker's `φ` is resolved
//! once, the row errors `L^u_i` are read per row from the freeze's
//! by-(worker, row) view, each candidate costs a handful of arithmetic
//! operations and logarithms with no allocation, and the top `k` are
//! selected partially (`select_nth_unstable_by`) before the `k` winners are
//! sorted.

use crate::correlation::{
    mixture_moments, observe_error, CorrelationModel, ErrorObservation, Prediction,
};
use crate::gain::{gain_with_params, GainEstimator};
use crate::inference::InferenceResult;
use crate::model::quality_from_variance;
use crate::truth::TruthDist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use tcrowd_stat::{clamp_prob, EPS};
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
    /// Cells excluded from assignment on top of the worker's own answers in
    /// [`Self::answers`]: cells terminated by an adaptive stopping rule
    /// (confidence reached), or — in a serving layer whose freeze trails its
    /// log — the cells the worker answered since the freeze. `None` means
    /// nothing extra is excluded.
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

    /// Cells the worker may be assigned: not yet answered by this worker
    /// (neither in [`Self::answers`] nor among [`Self::terminated`]) and
    /// under the redundancy cap. Enumerates the table in row-major order.
    pub fn candidates(&self, worker: WorkerId) -> Vec<CellId> {
        self.candidate_mask(worker).cells().collect()
    }

    /// [`Self::candidates`] as a row-major bitmap: every cell set, then the
    /// worker's own answers cleared from their by-worker run
    /// (`O(answers by the worker)`) and the excluded cells cleared from
    /// their set — no per-cell membership query unless a redundancy cap
    /// asks for per-cell counts.
    pub(crate) fn candidate_mask(&self, worker: WorkerId) -> CandidateMask {
        let (rows, cols) = (self.answers.rows(), self.answers.cols());
        let n = rows * cols;
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if n % 64 != 0 {
            words[n / 64] = (1u64 << (n % 64)) - 1;
        }
        let mut clear = |c: CellId| {
            if (c.row as usize) < rows && (c.col as usize) < cols {
                let slot = c.row as usize * cols + c.col as usize;
                words[slot / 64] &= !(1u64 << (slot % 64));
            }
        };
        self.answers.for_each_answered_cell(worker, &mut clear);
        if let Some(stopped) = self.terminated {
            stopped.iter().for_each(|&c| clear(c));
        }
        if let Some(cap) = self.max_answers_per_cell {
            for slot in 0..n {
                let c = CellId::new((slot / cols) as u32, (slot % cols) as u32);
                if self.answers.count_for_cell(c) >= cap {
                    clear(c);
                }
            }
        }
        CandidateMask { words, cols }
    }
}

/// Row-major bitmap over a table's cells (see
/// [`AssignmentContext::candidate_mask`]).
pub(crate) struct CandidateMask {
    words: Vec<u64>,
    cols: usize,
}

impl CandidateMask {
    /// Number of candidate cells.
    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The candidate cells in row-major order.
    pub(crate) fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        let cols = self.cols;
        self.words.iter().enumerate().flat_map(move |(i, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let slot = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(CellId::new((slot / cols) as u32, (slot % cols) as u32))
            })
        })
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

/// Total order on gains with NaN below every number: a degenerate gain
/// (e.g. from a broken posterior) ranks its cell last instead of panicking
/// the request that asked for an assignment.
fn cmp_gain(a: f64, b: f64) -> Ordering {
    let key = |g: f64| if g.is_nan() { f64::NEG_INFINITY } else { g };
    key(a).partial_cmp(&key(b)).unwrap_or(Ordering::Equal)
}

/// The `k` highest-gain cells of `scored`, best first (ties and NaN gains
/// broken by cell order). The ranking is a total order — cells are
/// distinct — so a partial selection followed by a sort of the `k` winners
/// returns exactly the first `k` of a full sort, in `O(n + k log k)`.
pub(crate) fn top_k_by_gain(mut scored: Vec<(f64, CellId)>, k: usize) -> Vec<CellId> {
    let rank = |a: &(f64, CellId), b: &(f64, CellId)| cmp_gain(b.0, a.0).then(a.1.cmp(&b.1));
    if k == 0 {
        return Vec::new();
    }
    if k < scored.len() {
        scored.select_nth_unstable_by(k - 1, rank);
        scored.truncate(k);
    }
    scored.sort_unstable_by(rank);
    scored.into_iter().map(|(_, c)| c).collect()
}

/// Score every candidate of `worker` by information gain and return the top
/// `k` — the one scoring pass behind [`InherentGainPolicy`],
/// [`StructureAwarePolicy`] and [`crate::EntityAwarePolicy`].
///
/// A candidate's answer variance is `λ(row) · α_i β_j φ_u` (`λ` is the
/// entity-familiarity multiplier, 1 for the paper's policies) and its
/// quality the erf link of that variance. With a `correlation` model the
/// pair is blended with the Eq. 7 prediction from the worker's errors on
/// the same row (`L^u_i`, read once per row from the freeze's
/// by-(worker, row) view): the categorical quality is averaged with the
/// structural one, the continuous variance geometrically with the
/// mixture's second moment.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_by_gain(
    ctx: &AssignmentContext<'_>,
    worker: WorkerId,
    k: usize,
    inference: &InferenceResult,
    estimator: GainEstimator,
    correlation: Option<&CorrelationModel>,
    lambda: impl Fn(u32) -> f64,
    rng: &mut StdRng,
) -> Vec<CellId> {
    let phi = inference.phi_or_prior(worker);
    let epsilon = inference.epsilon;
    let mask = ctx.candidate_mask(worker);
    // Row errors exist only for a worker the freeze has seen.
    let history = correlation.and_then(|model| {
        let matrix = ctx.matrix();
        matrix.worker_index(worker).map(|w| (model, matrix, w))
    });
    let mut observed: Vec<(usize, ErrorObservation)> = Vec::new();
    let mut observed_row = None;
    let mut mix = Vec::new();
    let mut scored = Vec::with_capacity(mask.len());
    for cell in mask.cells() {
        let (row, col) = (cell.row as usize, cell.col as usize);
        let v_inherent = lambda(cell.row) * (inference.alpha[row] * inference.beta[col] * phi);
        let q_inherent = quality_from_variance(epsilon, v_inherent);
        let (v, q) = match history {
            None => (v_inherent, q_inherent),
            Some((model, matrix, w)) => {
                if observed_row != Some(cell.row) {
                    observed.clear();
                    for &a in matrix.worker_row_answer_indices(w, cell.row) {
                        let answer = matrix.to_answer(a as usize);
                        observed
                            .push((answer.cell.col as usize, observe_error(inference, &answer)));
                    }
                    observed_row = Some(cell.row);
                }
                match model.predict_into(col, &observed, &mut mix) {
                    Some(Prediction::Categorical(p_wrong)) => {
                        // Both carry information about this worker on
                        // this cell: average the structural quality in.
                        (v_inherent, 0.5 * (clamp_prob(1.0 - p_wrong) + q_inherent))
                    }
                    Some(Prediction::Mixture) => match mixture_moments(&mix) {
                        Some((_, var)) => {
                            // Same blend on the variance scale.
                            let v = (var.max(EPS) * v_inherent).sqrt();
                            (v, quality_from_variance(epsilon, v))
                        }
                        None => (v_inherent, q_inherent),
                    },
                    None => (v_inherent, q_inherent),
                }
            }
        };
        scored.push((gain_with_params(inference.truth_z(cell), v, q, estimator, rng), cell));
    }
    top_k_by_gain(scored, k)
}

/// T-Crowd's inherent information-gain policy (§5.1).
#[derive(Debug)]
pub struct InherentGainPolicy {
    /// Expected-entropy estimator for continuous cells.
    pub estimator: GainEstimator,
    rng: StdRng,
}

impl InherentGainPolicy {
    /// Create with the given estimator (RNG only used by the sampling
    /// estimator; seeded for reproducibility).
    pub fn new(estimator: GainEstimator) -> Self {
        InherentGainPolicy { estimator, rng: StdRng::seed_from_u64(0xC0FFEE) }
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
        select_by_gain(ctx, worker, k, inference, self.estimator, None, |_| 1.0, &mut self.rng)
    }
}

/// T-Crowd's structure-aware information-gain policy (§5.2).
///
/// Fits a [`CorrelationModel`] from the current state (or takes the
/// context's cached one), then for each candidate cell conditions the
/// incoming worker's predicted error on the errors the worker already made
/// on the same row. Falls back to the inherent gain when no conditioning
/// information exists (new worker, empty row, or unsupported pair).
#[derive(Debug)]
pub struct StructureAwarePolicy {
    /// Expected-entropy estimator for continuous cells.
    pub estimator: GainEstimator,
    rng: StdRng,
}

impl StructureAwarePolicy {
    /// Create with the given estimator.
    pub fn new(estimator: GainEstimator) -> Self {
        StructureAwarePolicy { estimator, rng: StdRng::seed_from_u64(0x5EED) }
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
        select_by_gain(
            ctx,
            worker,
            k,
            inference,
            self.estimator,
            Some(model),
            |_| 1.0,
            &mut self.rng,
        )
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

    /// `scored` ranked by the parent's full stable sort — the oracle for
    /// the partial selection.
    fn full_sort(scored: &[(f64, CellId)]) -> Vec<CellId> {
        let mut order: Vec<usize> = (0..scored.len()).collect();
        order.sort_by(|&a, &b| {
            cmp_gain(scored[b].0, scored[a].0).then(scored[a].1.cmp(&scored[b].1))
        });
        order.into_iter().map(|i| scored[i].1).collect()
    }

    #[test]
    fn nan_gains_rank_last_instead_of_panicking() {
        let cells: Vec<CellId> = (0..5).map(|c| CellId::new(0, c)).collect();
        let scored = |gains: &[f64]| gains.iter().copied().zip(cells.iter().copied()).collect();
        assert_eq!(
            top_k_by_gain(scored(&[0.3, f64::NAN, 0.9, f64::NAN, 0.1]), 5),
            vec![cells[2], cells[0], cells[4], cells[1], cells[3]]
        );
        assert_eq!(top_k_by_gain(scored(&[f64::NAN; 5]), 2), vec![cells[0], cells[1]]);
    }

    proptest::proptest! {
        #[test]
        fn partial_top_k_is_the_prefix_of_a_full_sort(
            levels in proptest::collection::vec(0u8..6, 0..60),
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Few distinct gain levels (ties), NaN and ±∞ among them, on
            // cells in shuffled order.
            let gain = |l: u8| match l {
                0 => f64::NAN,
                1 => f64::NEG_INFINITY,
                5 => f64::INFINITY,
                l => l as f64 * 0.25,
            };
            let mut cells: Vec<CellId> =
                (0..levels.len() as u32).map(|i| CellId::new(i / 7, i % 7)).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            use rand::seq::SliceRandom;
            cells.shuffle(&mut rng);
            let scored: Vec<(f64, CellId)> =
                levels.iter().map(|&l| gain(l)).zip(cells).collect();
            let full = full_sort(&scored);
            for k in 0..=scored.len() + 1 {
                let picked = top_k_by_gain(scored.clone(), k);
                proptest::prop_assert_eq!(&picked[..], &full[..k.min(full.len())]);
            }
        }
    }

    /// The parent's structure-aware scorer, kept as the exactness oracle:
    /// candidates by per-cell membership queries, a `HashMap` of row
    /// errors, `φ` resolved per cell, the enumerated categorical gain and a
    /// full sort.
    fn parent_structure_aware(
        ctx: &AssignmentContext<'_>,
        model: &CorrelationModel,
        worker: WorkerId,
        k: usize,
    ) -> Vec<CellId> {
        let inference = ctx.inference.unwrap();
        let (rows, cols) = (ctx.answers.rows(), ctx.answers.cols());
        let candidates: Vec<CellId> = (0..rows * cols)
            .map(|s| CellId::new((s / cols) as u32, (s % cols) as u32))
            .filter(|&c| !ctx.answers.has_answered(worker, c))
            .collect();
        let mut row_errors: std::collections::HashMap<u32, Vec<(usize, ErrorObservation)>> =
            std::collections::HashMap::new();
        let matrix = ctx.matrix();
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
        let scored: Vec<(f64, CellId)> = candidates
            .iter()
            .map(|&c| {
                let v_inherent = inference.effective_variance(worker, c);
                let q_inherent = inference.cell_quality(worker, c);
                let observed = row_errors.get(&c.row).map(Vec::as_slice).unwrap_or(&[]);
                let (v, q) = match model.conditional_error(c.col as usize, observed) {
                    Some(crate::PredictedError::Categorical(p_wrong)) => {
                        (v_inherent, 0.5 * (clamp_prob(1.0 - p_wrong) + q_inherent))
                    }
                    Some(mix @ crate::PredictedError::ContinuousMixture(_)) => {
                        let (_, var) = mix.mixture_moments().unwrap();
                        let v = (var.max(EPS) * v_inherent).sqrt();
                        (v, quality_from_variance(inference.epsilon, v))
                    }
                    None => (v_inherent, q_inherent),
                };
                let gain = match inference.truth_z(c) {
                    TruthDist::Categorical(p) => {
                        crate::gain::enumerated_categorical_gain(p, clamp_prob(q))
                    }
                    TruthDist::Continuous(n) => {
                        0.5 * (1.0 + n.var / tcrowd_stat::clamp_var(v)).ln()
                    }
                };
                (gain, c)
            })
            .collect();
        full_sort(&scored).into_iter().take(k).collect()
    }

    #[test]
    fn fast_scorer_picks_what_the_parent_scorer_picks() {
        for seed in 0..4 {
            let (d, r) = setup(10 + seed);
            let m = d.answers.to_matrix();
            let model = CorrelationModel::fit_matrix(&d.schema, &m, &r);
            let ctx = AssignmentContext {
                schema: &d.schema,
                answers: &d.answers,
                freeze: m.freeze_view(),
                inference: Some(&r),
                max_answers_per_cell: None,
                terminated: None,
                correlation: Some(&model),
            };
            let mut workers: Vec<WorkerId> = d.answers.workers().collect();
            workers.push(WorkerId(9_999));
            for &w in &workers {
                for k in [1, 5, 100] {
                    let fast = StructureAwarePolicy::default().select(w, k, &ctx);
                    assert_eq!(
                        fast,
                        parent_structure_aware(&ctx, &model, w, k),
                        "seed {seed}, {w:?}, k {k}"
                    );
                }
            }
        }
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
