//! Online truth inference: maintain estimates while answers stream in.
//!
//! A live platform (paper Fig. 1) interleaves answer collection with
//! inference. Re-running full EM on every answer is wasteful — §5.1 already
//! notes that one answer barely moves anything except the answered cell's
//! posterior — so [`OnlineTCrowd`] applies each incoming answer as an
//! incremental Bayesian update and re-fits the full model only every
//! `refit_every` answers (or on demand). Between refits the worker/difficulty
//! parameters are frozen; after a refit everything is exact again.
//!
//! ## Mutate vs. fit state
//!
//! The streaming state splits cleanly in two, and the split is load-bearing
//! for serving deployments:
//!
//! * the **mutate state** — the append-only [`AnswerLog`] — is all the
//!   collection path ever touches: `O(1)` push, `O(Δ)` tail slicing
//!   ([`AnswerLog::slice_since`]);
//! * the **fit state** — [`FitState`]: the evolving freeze plus the current
//!   [`InferenceResult`] — is what EM reads and writes, and it advances
//!   *only* by absorbing epoch-tagged [`LogSlice`]s.
//!
//! [`OnlineTCrowd`] composes the two behind the original single-threaded
//! API. A service that must not stall collection while EM runs holds them
//! behind separate locks instead: slice the tail under the ingest lock
//! (`O(Δ)`), [`FitState::absorb`] + [`FitState::refit`] outside it, then a
//! brief catch-up ([`FitState::catch_up`]) for the answers that arrived
//! mid-fit — see `tcrowd-service`.

use crate::assign::apply_answer_incrementally;
use crate::inference::{InferenceResult, TCrowd};
use std::sync::Arc;
use tcrowd_tabular::{Answer, AnswerLog, AnswerMatrix, LogSlice, Schema, Value, WorkerId};

/// The fit half of the online loop: the evolving freeze and the inference
/// result over it, advanced exclusively by epoch-tagged log slices.
///
/// A `FitState` never sees the answer log itself — whoever owns the log
/// hands it [`LogSlice`]s ([`AnswerLog::slice_since`]) and the state
/// delta-merges them into its freeze ([`AnswerMatrix::merge_delta`]). That
/// makes it safe to run EM over a `FitState` on one thread while another
/// keeps appending to the log: the fit works on a consistent prefix, and
/// [`FitState::catch_up`] folds in whatever arrived mid-fit with the §5.1
/// incremental posterior update.
///
/// The freeze lives behind an [`Arc`] so publishing it (handing an
/// immutable matrix to readers) is one refcount bump, not an `O(n)` clone.
#[derive(Debug, Clone)]
pub struct FitState {
    model: TCrowd,
    schema: Schema,
    matrix: Arc<AnswerMatrix>,
    result: InferenceResult,
    /// Quarantined workers, sorted ascending. The freeze always covers the
    /// full log; when this is non-empty, [`FitState::refit`] fits over
    /// [`AnswerMatrix::without_workers`] and [`FitState::catch_up`] skips
    /// these workers' incremental updates — the exclusion is a property of
    /// the *fit*, never of the data.
    exclude: Vec<WorkerId>,
}

impl FitState {
    /// An empty fit state for a `rows`-row table (runs the initial fit of
    /// the empty answer set).
    pub fn empty(model: TCrowd, schema: Schema, rows: usize) -> FitState {
        let matrix = AnswerMatrix::build(&AnswerLog::new(rows, schema.num_columns()));
        let result = model.infer_matrix(&schema, &matrix);
        FitState { model, schema, matrix: Arc::new(matrix), result, exclude: Vec::new() }
    }

    /// Adopt an already-computed fit of `matrix` (the crash-recovery
    /// constructor — see [`OnlineTCrowd::from_fit`] for the provenance
    /// contract).
    pub fn from_parts(
        model: TCrowd,
        schema: Schema,
        matrix: AnswerMatrix,
        result: InferenceResult,
    ) -> FitState {
        assert_eq!(
            (result.rows(), result.cols()),
            (matrix.rows(), matrix.cols()),
            "adopted fit has a different table shape than the freeze"
        );
        FitState { model, schema, matrix: Arc::new(matrix), result, exclude: Vec::new() }
    }

    /// Replace the quarantined-worker set (deduplicated and sorted
    /// internally). Returns whether the set actually changed; when it did,
    /// the current result still reflects the old set until the next
    /// [`Self::refit`]. Note an adopted result ([`Self::from_parts`]) is
    /// trusted to match whatever set the caller fit it under.
    pub fn set_exclusions(&mut self, mut excluded: Vec<WorkerId>) -> bool {
        excluded.sort_unstable();
        excluded.dedup();
        if excluded == self.exclude {
            return false;
        }
        self.exclude = excluded;
        true
    }

    /// The quarantined-worker set the next refit will exclude (sorted).
    #[inline]
    pub fn exclusions(&self) -> &[WorkerId] {
        &self.exclude
    }

    /// The epoch this fit state has absorbed up to (= its freeze's epoch).
    #[inline]
    pub fn epoch(&self) -> usize {
        self.matrix.epoch()
    }

    /// Merge an epoch-tagged log tail into the freeze (`O(Δ)` per-answer
    /// work plus bulk copies; no EM). Panics if the slice's base is not this
    /// state's epoch — it belongs to a different prefix.
    pub fn absorb(&mut self, slice: &LogSlice) {
        assert_eq!(slice.base(), self.epoch(), "fit state absorbed a slice from a different epoch");
        if slice.is_empty() {
            return;
        }
        self.matrix = Arc::new(self.matrix.merge_delta(slice.answers()));
    }

    /// Run full EM over the current freeze: cold by default (the result is a
    /// pure function of the absorbed prefix), warm-started from the current
    /// result when `warm` is set. With a non-empty exclusion set
    /// ([`Self::set_exclusions`]) EM runs over the filtered freeze instead —
    /// identical to fitting a log that never contained those workers'
    /// answers, while the published freeze keeps covering the full log.
    pub fn refit(&mut self, warm: bool) {
        let fit_over = |matrix: &AnswerMatrix, result: &InferenceResult| {
            if warm {
                self.model.infer_matrix_warm(&self.schema, matrix, result)
            } else {
                self.model.infer_matrix(&self.schema, matrix)
            }
        };
        self.result = if self.exclude.is_empty() {
            fit_over(&self.matrix, &self.result)
        } else {
            fit_over(&self.matrix.without_workers(&self.exclude), &self.result)
        };
    }

    /// Fold in the answers that arrived while a fit was running: absorb the
    /// slice into the freeze and apply the §5.1 incremental posterior
    /// update per answer (skipping excluded workers — their answers join the
    /// freeze but must not move the posteriors). `O(Δ')` — no EM. The next
    /// [`Self::refit`] makes the state exact again.
    pub fn catch_up(&mut self, slice: &LogSlice) {
        self.absorb(slice);
        for a in slice.answers() {
            if self.exclude.binary_search(&a.worker).is_err() {
                self.apply_incremental(a);
            }
        }
    }

    /// Apply one answer's incremental posterior update to the current
    /// result (the freeze is *not* advanced — pair with [`Self::absorb`]).
    pub fn apply_incremental(&mut self, answer: &Answer) {
        apply_answer_incrementally(&mut self.result, answer.worker, answer.cell, &answer.value);
    }

    /// The current freeze.
    #[inline]
    pub fn matrix(&self) -> &AnswerMatrix {
        &self.matrix
    }

    /// The current freeze behind its `Arc` (share with readers for free).
    #[inline]
    pub fn matrix_arc(&self) -> Arc<AnswerMatrix> {
        Arc::clone(&self.matrix)
    }

    /// The current inference result.
    #[inline]
    pub fn result(&self) -> &InferenceResult {
        &self.result
    }

    /// The model.
    #[inline]
    pub fn model(&self) -> &TCrowd {
        &self.model
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
}

/// Streaming wrapper around [`TCrowd`]: the mutate state (answer log) and
/// the [`FitState`] composed behind one single-threaded API.
#[derive(Debug, Clone)]
pub struct OnlineTCrowd {
    answers: AnswerLog,
    fit: FitState,
    /// Full EM re-fit cadence, in answers (default 64).
    pub refit_every: usize,
    /// Warm-start automatic re-fits from the previous fit's parameters
    /// (default off: cold re-fits reproduce the batch path bit-for-bit,
    /// which the differential tests rely on; turn this on in latency-bound
    /// deployments — see [`TCrowd::infer_matrix_warm`]).
    pub warm_refits: bool,
}

impl OnlineTCrowd {
    /// Start from an existing answer set (runs one full fit).
    pub fn new(model: TCrowd, schema: Schema, answers: AnswerLog) -> Self {
        let matrix = AnswerMatrix::build(&answers);
        let result = model.infer_matrix(&schema, &matrix);
        let fit = FitState::from_parts(model, schema, matrix, result);
        OnlineTCrowd { answers, fit, refit_every: 64, warm_refits: false }
    }

    /// Start with an empty answer log for a `rows`-row table.
    pub fn empty(model: TCrowd, schema: Schema, rows: usize) -> Self {
        let answers = AnswerLog::new(rows, schema.num_columns());
        Self::new(model, schema, answers)
    }

    /// Adopt an already-computed fit of `answers` instead of running EM —
    /// the crash-recovery constructor: the store layer replays the WAL into
    /// `answers`, produces `result` (seeded from the snapshot's
    /// [`crate::FitParams`] when one survived, cold otherwise) and resumes
    /// streaming from there.
    ///
    /// The caller supplies the freeze it already built to produce `result`
    /// (recovery runs the seeded fit on a freeze first — rebuilding it here
    /// would double the `O(n)` freeze cost on the boot path) and asserts
    /// that both are derived *from this log*; shape and staleness are
    /// checked, the provenance cannot be.
    pub fn from_fit(
        model: TCrowd,
        schema: Schema,
        answers: AnswerLog,
        matrix: AnswerMatrix,
        result: InferenceResult,
    ) -> Self {
        assert_eq!(
            (result.rows(), result.cols()),
            (answers.rows(), answers.cols()),
            "adopted fit has a different table shape than the answer log"
        );
        assert!(
            !matrix.is_stale(&answers) && matrix.rows() == answers.rows(),
            "adopted freeze does not cover the answer log"
        );
        let fit = FitState::from_parts(model, schema, matrix, result);
        OnlineTCrowd { answers, fit, refit_every: 64, warm_refits: false }
    }

    /// Ingest one answer: `O(1)` incremental posterior update, with a full
    /// EM re-fit every [`Self::refit_every`] answers. Returns `true` if this
    /// answer triggered a re-fit.
    pub fn add_answer(&mut self, answer: Answer) -> bool {
        assert!(
            self.fit.schema().column_type(answer.cell.col as usize).accepts(&answer.value),
            "answer value does not match its column type"
        );
        self.answers.push(answer);
        if self.pending() >= self.refit_every {
            self.refit();
            true
        } else {
            self.fit.apply_incremental(&answer);
            false
        }
    }

    /// Force a full EM re-fit now: the freeze is delta-merged up to date
    /// (identical to a rebuild, at a fraction of the cost) and EM runs —
    /// warm-started from the current result when [`Self::warm_refits`] is
    /// set, cold otherwise.
    pub fn refit(&mut self) {
        if self.pending() > 0 {
            self.fit.absorb(&self.answers.slice_since(self.fit.epoch()));
        }
        self.fit.refit(self.warm_refits);
    }

    /// Re-fit only if answers arrived since the last full fit. External
    /// drivers (a service refresher thread, a batch scheduler) call this on
    /// their own cadence instead of relying on [`Self::refit_every`]; a
    /// clean state is a no-op, so over-calling is free. Returns whether a
    /// re-fit actually ran.
    pub fn flush_refit(&mut self) -> bool {
        if self.pending() == 0 {
            return false;
        }
        self.refit();
        true
    }

    /// The current freeze of the answer log (kept current at refit points;
    /// may trail the log by up to [`Self::pending`] answers in between).
    pub fn matrix(&self) -> &AnswerMatrix {
        self.fit.matrix()
    }

    /// A staleness-checkable handle on the current freeze — what an
    /// [`crate::AssignmentContext`] wants. The view trails the log by
    /// [`Self::pending`] answers between re-fits; call [`Self::flush_refit`]
    /// first when assignment must see every ingested answer.
    pub fn freeze_view(&self) -> tcrowd_tabular::FrozenView<'_> {
        self.fit.matrix().freeze_view()
    }

    /// The current inference state (possibly incrementally updated since the
    /// last full fit).
    pub fn result(&self) -> &InferenceResult {
        self.fit.result()
    }

    /// The accumulated answer log.
    pub fn answers(&self) -> &AnswerLog {
        &self.answers
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.fit.schema()
    }

    /// Current point estimates.
    pub fn estimates(&self) -> Vec<Vec<Value>> {
        self.fit.result().estimates()
    }

    /// Answers ingested since the last full fit — the ones the next refit
    /// absorbs (the fit state trails the log by exactly these).
    pub fn pending(&self) -> usize {
        self.answers.len() - self.fit.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_tabular::{evaluate, generate_dataset, GeneratorConfig};

    fn dataset(seed: u64) -> tcrowd_tabular::Dataset {
        generate_dataset(
            &GeneratorConfig {
                rows: 25,
                columns: 4,
                num_workers: 15,
                answers_per_task: 4,
                ..Default::default()
            },
            seed,
        )
    }

    /// The categorical error rate of a report. Every dataset in this module
    /// mixes datatypes, so a missing rate means the generator layout changed
    /// out from under the test — say so instead of panicking on a bare
    /// `Option::unwrap` that leaves CI logs undiagnosable.
    fn error_rate(report: &tcrowd_tabular::QualityReport) -> f64 {
        report.error_rate.expect(
            "report has no categorical error rate — the test dataset should contain categorical \
             columns (did the generator's column layout change?)",
        )
    }

    #[test]
    fn streaming_matches_batch_after_refit() {
        let d = dataset(1);
        let mut online = OnlineTCrowd::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        for &a in d.answers.all() {
            online.add_answer(a);
        }
        online.refit();
        let batch = TCrowd::default_full().infer(&d.schema, &d.answers);
        assert_eq!(online.estimates(), batch.estimates());
        assert_eq!(online.result().iterations, batch.iterations);
    }

    #[test]
    fn refit_cadence_is_respected() {
        let d = dataset(2);
        let mut online = OnlineTCrowd::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        online.refit_every = 10;
        let mut refits = 0;
        for (i, &a) in d.answers.all().iter().enumerate() {
            if online.add_answer(a) {
                refits += 1;
                assert_eq!(online.pending(), 0);
            }
            assert!(online.pending() <= 10, "pending at answer {i}");
        }
        assert_eq!(refits, d.answers.len() / 10);
    }

    #[test]
    fn incremental_estimates_stay_close_to_batch() {
        // Between refits the estimates are approximate; they must still be
        // useful (here: within a small error-rate gap of the batch fit).
        let d = dataset(3);
        let mut online = OnlineTCrowd::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        online.refit_every = usize::MAX; // never refit: pure incremental
        for &a in d.answers.all() {
            online.add_answer(a);
        }
        let online_rep = evaluate(&d.schema, &d.truth, &online.estimates());
        let batch = TCrowd::default_full().infer(&d.schema, &d.answers);
        let batch_rep = evaluate(&d.schema, &d.truth, &batch.estimates());
        assert!(
            error_rate(&online_rep) <= error_rate(&batch_rep) + 0.15,
            "incremental {} vs batch {}",
            error_rate(&online_rep),
            error_rate(&batch_rep)
        );
    }

    #[test]
    fn warm_refits_stay_close_to_cold_refits() {
        let d = dataset(5);
        let mut warm = OnlineTCrowd::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        warm.warm_refits = true;
        warm.refit_every = 25;
        let mut cold = OnlineTCrowd::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        cold.refit_every = 25;
        for &a in d.answers.all() {
            warm.add_answer(a);
            cold.add_answer(a);
        }
        warm.refit();
        cold.refit();
        // Both chains see identical data; the warm chain's estimates must be
        // statistically indistinguishable (same error rate ballpark).
        let rw = evaluate(&d.schema, &d.truth, &warm.estimates());
        let rc = evaluate(&d.schema, &d.truth, &cold.estimates());
        assert!(
            (error_rate(&rw) - error_rate(&rc)).abs() <= 0.05,
            "warm {} vs cold {}",
            error_rate(&rw),
            error_rate(&rc)
        );
        // The freeze tracks the log at refit points.
        assert!(!warm.matrix().is_stale(warm.answers()));
    }

    #[test]
    fn flush_refit_is_explicit_and_idempotent() {
        let d = dataset(6);
        let mut online = OnlineTCrowd::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        online.refit_every = usize::MAX; // external driver controls refits
        for &a in d.answers.all() {
            online.add_answer(a);
        }
        assert_eq!(online.pending(), d.answers.len());
        assert!(online.freeze_view().is_stale(online.answers()), "freeze trails the log");
        assert!(online.flush_refit(), "pending answers must trigger a refit");
        assert_eq!(online.pending(), 0);
        assert!(!online.freeze_view().is_stale(online.answers()));
        assert_eq!(online.freeze_view().epoch(), d.answers.len());
        // Nothing new: flushing again is a no-op.
        assert!(!online.flush_refit());
        // And the flushed state equals the batch fit (cold refits).
        let batch = TCrowd::default_full().infer(&d.schema, &d.answers);
        assert_eq!(online.estimates(), batch.estimates());
    }

    #[test]
    #[should_panic(expected = "column type")]
    fn rejects_mistyped_answers() {
        let d = dataset(4);
        let mut online = OnlineTCrowd::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        // Column 0 is categorical in this layout.
        online.add_answer(Answer {
            worker: tcrowd_tabular::WorkerId(0),
            cell: tcrowd_tabular::CellId::new(0, 0),
            value: Value::Continuous(1.0),
        });
    }

    #[test]
    fn fit_state_absorb_refit_equals_batch() {
        // The lock-split protocol a service runs, exercised serially: slice
        // the log tail, absorb + refit out of band, catch up, repeat. At a
        // quiescent refit the state must equal the batch fit exactly.
        let d = dataset(7);
        let mut log = AnswerLog::new(d.rows(), d.cols());
        let mut fit = FitState::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        let stream = d.answers.all();
        let mut fed = 0usize;
        while fed < stream.len() {
            // "Collection" appends a burst…
            let burst = (stream.len() - fed).min(17);
            for &a in &stream[fed..fed + burst] {
                log.push(a);
            }
            fed += burst;
            // …the fitter takes the tail slice and fits outside the lock…
            let slice = log.slice_since(fit.epoch());
            fit.absorb(&slice);
            fit.refit(false);
            // …and a mid-fit arrival is caught up without EM.
            if fed < stream.len() {
                log.push(stream[fed]);
                fed += 1;
                fit.catch_up(&log.slice_since(fit.epoch()));
            }
        }
        // Final quiescent refit: everything absorbed, no catch-up pending.
        assert_eq!(fit.epoch(), log.len());
        fit.refit(false);
        let batch = TCrowd::default_full().infer(&d.schema, &d.answers);
        assert_eq!(fit.result().estimates(), batch.estimates());
        assert_eq!(fit.result().iterations, batch.iterations);
        assert_eq!(fit.matrix(), &AnswerMatrix::build(&log));
    }

    #[test]
    fn fit_state_exclusions_match_a_log_without_those_workers() {
        let d = dataset(9);
        let mut log = AnswerLog::new(d.rows(), d.cols());
        for &a in d.answers.all() {
            log.push(a);
        }
        let excluded: Vec<tcrowd_tabular::WorkerId> = log.workers().take(3).collect();
        let mut fit = FitState::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        fit.absorb(&log.slice_since(0));
        assert!(fit.set_exclusions(excluded.clone()));
        assert!(!fit.set_exclusions(excluded.clone()), "same set again is a no-op");
        fit.refit(false);
        // The freeze still covers the full log; only the fit is filtered.
        assert_eq!(fit.matrix().len(), log.len());
        let batch = TCrowd::default_full().infer(&d.schema, &log.without_workers(&excluded));
        assert_eq!(fit.result().estimates(), batch.estimates());
        assert_eq!(fit.result().iterations, batch.iterations);
        // Excluded workers carry no fitted quality; the rest match the batch.
        for w in &excluded {
            assert_eq!(fit.result().quality_of(*w), None);
        }
        // Dropping the exclusion restores the unfiltered fit bit-for-bit.
        assert!(fit.set_exclusions(Vec::new()));
        fit.refit(false);
        let full = TCrowd::default_full().infer(&d.schema, &log);
        assert_eq!(fit.result().estimates(), full.estimates());
        assert_eq!(fit.result().iterations, full.iterations);
    }

    #[test]
    fn catch_up_skips_excluded_workers() {
        let d = dataset(10);
        let stream = d.answers.all();
        let split = stream.len() / 2;
        let mut log = AnswerLog::new(d.rows(), d.cols());
        for &a in &stream[..split] {
            log.push(a);
        }
        let excluded = vec![stream[split].worker];
        let mut fit = FitState::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        fit.absorb(&log.slice_since(0));
        fit.set_exclusions(excluded.clone());
        fit.refit(false);
        let before = fit.result().clone();
        // Catch up with a tail that starts with the excluded worker's answer:
        // the freeze advances, the posteriors ignore it.
        log.push(stream[split]);
        fit.catch_up(&log.slice_since(fit.epoch()));
        assert_eq!(fit.epoch(), log.len());
        assert_eq!(fit.result().estimates(), before.estimates());
    }

    #[test]
    #[should_panic(expected = "different epoch")]
    fn fit_state_rejects_misaligned_slices() {
        let d = dataset(8);
        let mut fit = FitState::empty(TCrowd::default_full(), d.schema.clone(), d.rows());
        fit.absorb(&d.answers.slice_since(3)); // state is at epoch 0
    }
}
