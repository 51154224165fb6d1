//! Quarantine **filter views**: serve truth inference and assignment queries
//! over an answer set *minus* a set of excluded workers, without deleting
//! anything from the underlying log or changing the storage layout.
//!
//! Quarantining a worker must be cheap, reversible and exact: the answer log
//! is the system of record (answers are expensive and unrepeatable), so a
//! defense layer that *deleted* a suspected spammer's answers could never be
//! undone. Instead, [`QuarantineView`] wraps a frozen [`AnswerMatrix`] and a
//! sorted excluded-worker set and answers every [`AnswerQueries`] point query
//! as if those workers had never contributed; [`AnswerMatrix::without_workers`]
//! materialises the same exclusion as a standalone freeze for EM (truth
//! inference iterates whole payload lanes, so a filtered freeze beats
//! per-answer membership tests there). Un-quarantining is the identity: drop
//! the exclusion and the original log/matrix is still exactly what it was.
//!
//! The differential contract (regression-tested by proptest): inference over
//! the filtered freeze ≡ inference over a log rebuilt without the excluded
//! workers' answers ([`AnswerLog::without_workers`]), and an empty exclusion
//! set reproduces the unfiltered fit bit-for-bit.

use crate::answer::{AnswerLog, AnswerQueries, CellId, WorkerId};
use crate::matrix::AnswerMatrix;
use crate::value::Value;

impl AnswerMatrix {
    /// A standalone freeze of this matrix's answers **minus** the excluded
    /// workers, in original log order — field-for-field identical to
    /// `AnswerMatrix::build(&log.without_workers(excluded))` on the log this
    /// matrix froze (the differential tests assert it). `excluded` must be
    /// sorted ascending. `O(n)`; runs on the refresher thread, never under
    /// the ingest lock.
    pub fn without_workers(&self, excluded: &[WorkerId]) -> AnswerMatrix {
        debug_assert!(excluded.windows(2).all(|w| w[0] < w[1]), "exclusion set must be sorted");
        // The payload is cell-major; `log_position` is the permutation back
        // to append order, which the rebuilt log must preserve.
        let mut ordered = vec![usize::MAX; self.len()];
        for k in 0..self.len() {
            ordered[self.log_position(k)] = k;
        }
        let mut log = AnswerLog::new(self.rows(), self.cols());
        for &k in &ordered {
            let a = self.to_answer(k);
            if excluded.binary_search(&a.worker).is_err() {
                log.push(a);
            }
        }
        AnswerMatrix::build(&log)
    }
}

/// A borrowed view of an [`AnswerMatrix`] that hides a sorted set of
/// excluded workers — the quarantine seam between the storage layer (which
/// keeps everything) and truth inference (which must not see quarantined
/// answers). See the module docs for the semantics.
#[derive(Debug, Clone, Copy)]
pub struct QuarantineView<'a> {
    matrix: &'a AnswerMatrix,
    excluded: &'a [WorkerId],
    /// Answers hidden by the exclusion (precomputed so `len` is `O(1)`).
    hidden: usize,
}

impl<'a> QuarantineView<'a> {
    /// View `matrix` minus `excluded` (must be sorted ascending; workers
    /// unknown to the matrix are tolerated and hide nothing).
    pub fn new(matrix: &'a AnswerMatrix, excluded: &'a [WorkerId]) -> QuarantineView<'a> {
        debug_assert!(excluded.windows(2).all(|w| w[0] < w[1]), "exclusion set must be sorted");
        let hidden = excluded
            .iter()
            .filter_map(|&w| matrix.worker_index(w))
            .map(|i| matrix.worker_answer_indices(i).len())
            .sum();
        QuarantineView { matrix, excluded, hidden }
    }

    /// The excluded worker set (sorted ascending).
    pub fn excluded(&self) -> &[WorkerId] {
        self.excluded
    }

    /// Whether a worker is hidden by this view.
    pub fn is_excluded(&self, worker: WorkerId) -> bool {
        self.excluded.binary_search(&worker).is_ok()
    }

    /// The underlying (unfiltered) matrix.
    pub fn matrix(&self) -> &AnswerMatrix {
        self.matrix
    }

    /// Materialise the view as a standalone freeze for EM
    /// ([`AnswerMatrix::without_workers`]).
    pub fn to_matrix(&self) -> AnswerMatrix {
        self.matrix.without_workers(self.excluded)
    }

    #[inline]
    fn visible(&self, payload_index: usize) -> bool {
        let w = self.matrix.worker_id(self.matrix.answer_workers()[payload_index] as usize);
        !self.is_excluded(w)
    }
}

impl AnswerQueries for QuarantineView<'_> {
    fn rows(&self) -> usize {
        self.matrix.rows()
    }
    fn cols(&self) -> usize {
        self.matrix.cols()
    }
    fn len(&self) -> usize {
        self.matrix.len() - self.hidden
    }
    fn count_for_cell(&self, cell: CellId) -> usize {
        self.matrix.cell_range(cell).filter(|&k| self.visible(k)).count()
    }
    fn has_answered(&self, worker: WorkerId, cell: CellId) -> bool {
        !self.is_excluded(worker) && self.matrix.has_answered(worker, cell)
    }
    fn for_each_answered_cell(&self, worker: WorkerId, f: &mut dyn FnMut(CellId)) {
        if !self.is_excluded(worker) {
            AnswerQueries::for_each_answered_cell(self.matrix, worker, f);
        }
    }
    fn cell_values(&self, cell: CellId) -> Vec<Value> {
        let mut out = Vec::new();
        self.for_each_cell_value(cell, &mut |v| out.push(*v));
        out
    }
    fn for_each_cell_value(&self, cell: CellId, f: &mut dyn FnMut(&Value)) {
        for a in self.matrix.cell_answers(cell) {
            if !self.is_excluded(a.worker) {
                f(&a.value);
            }
        }
    }
    fn continuous_column_values(&self, col: u32) -> Vec<f64> {
        let cols = self.matrix.answer_cols();
        (0..self.matrix.len())
            .filter(|&k| cols[k] == col && !self.matrix.is_categorical(k) && self.visible(k))
            .map(|k| self.matrix.answer_values()[k])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::Answer;

    fn log() -> AnswerLog {
        let mut log = AnswerLog::new(3, 2);
        let push = |log: &mut AnswerLog, w: u32, r: u32, c: u32, v: Value| {
            log.push(Answer { worker: WorkerId(w), cell: CellId::new(r, c), value: v });
        };
        push(&mut log, 1, 0, 0, Value::Categorical(0));
        push(&mut log, 2, 0, 0, Value::Categorical(1));
        push(&mut log, 1, 0, 1, Value::Continuous(5.0));
        push(&mut log, 3, 1, 1, Value::Continuous(7.5));
        push(&mut log, 2, 2, 0, Value::Categorical(1));
        push(&mut log, 2, 2, 1, Value::Continuous(-1.0));
        log
    }

    /// Every `AnswerQueries` answer of the view must equal the same query
    /// against a log rebuilt without the excluded workers.
    fn assert_matches_rebuilt(log: &AnswerLog, excluded: &[WorkerId]) {
        let matrix = AnswerMatrix::build(log);
        let view = QuarantineView::new(&matrix, excluded);
        let rebuilt = log.without_workers(excluded);
        assert_eq!(view.len(), rebuilt.len());
        assert_eq!(view.is_empty(), rebuilt.is_empty());
        assert_eq!((view.rows(), view.cols()), (rebuilt.rows(), rebuilt.cols()));
        for cell in log.cells() {
            assert_eq!(view.count_for_cell(cell), rebuilt.count_for_cell(cell), "{cell:?}");
            assert_eq!(view.cell_values(cell), rebuilt.cell_values(cell), "{cell:?}");
            for w in log.workers() {
                assert_eq!(view.has_answered(w, cell), rebuilt.has_answered(w, cell));
            }
        }
        for col in 0..log.cols() as u32 {
            assert_eq!(view.continuous_column_values(col), rebuilt.continuous_column_values(col));
        }
        // The materialised freeze is exactly the rebuilt log's freeze.
        assert_eq!(view.to_matrix(), AnswerMatrix::build(&rebuilt));
    }

    #[test]
    fn view_matches_rebuilt_log_for_every_exclusion() {
        let log = log();
        let workers: Vec<WorkerId> = log.workers().collect();
        // Every subset of the three workers (sorted by construction).
        for mask in 0u32..(1 << workers.len()) {
            let excluded: Vec<WorkerId> = workers
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &w)| w)
                .collect();
            assert_matches_rebuilt(&log, &excluded);
        }
    }

    #[test]
    fn empty_exclusion_is_the_identity() {
        let log = log();
        let matrix = AnswerMatrix::build(&log);
        assert_eq!(matrix.without_workers(&[]), matrix);
        let view = QuarantineView::new(&matrix, &[]);
        assert_eq!(view.len(), matrix.len());
    }

    #[test]
    fn unknown_workers_hide_nothing() {
        let log = log();
        let matrix = AnswerMatrix::build(&log);
        let ghost = [WorkerId(999)];
        let view = QuarantineView::new(&matrix, &ghost);
        assert_eq!(view.len(), matrix.len());
        assert!(view.is_excluded(WorkerId(999)));
        assert_eq!(matrix.without_workers(&ghost), matrix);
    }
}
