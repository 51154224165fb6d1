//! Workers, cells and the indexed answer log.
//!
//! The answer set `A = {a^u_ij}` is the sole input of truth inference
//! (Definition 3) and the main input of task assignment (§5). Model code
//! iterates it three ways — all answers of a *cell* (E-step), all answers of
//! a *worker* (M-step quality update), and all answers of a worker on one
//! *row* (structure-aware gain, Eq. 7) — so the log maintains all three
//! indexes incrementally with `O(1)` appends.

use crate::schema::Schema;
use crate::value::Value;
use std::collections::BTreeMap;

/// Identifier of a worker `u ∈ U`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u32);

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Identifier of a cell `c_ij` (row-major position in the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Row (entity) index `i`.
    pub row: u32,
    /// Column (attribute) index `j`.
    pub col: u32,
}

impl CellId {
    /// Construct a cell id.
    #[inline]
    pub fn new(row: u32, col: u32) -> Self {
        CellId { row, col }
    }
}

/// One answer `a^u_ij`: worker `u` claims cell `c_ij` has `value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// The answering worker.
    pub worker: WorkerId,
    /// The answered cell.
    pub cell: CellId,
    /// The claimed value.
    pub value: Value,
}

/// The indexed answer set `A`.
///
/// Shape-aware: constructed for a fixed `rows × cols` table so the per-cell
/// index can be a dense vector rather than a hash map.
///
/// Equality is derived over shape, answers *and* the derived indexes; since
/// the indexes are a deterministic function of the push sequence, two logs
/// compare equal exactly when they hold the same answers in the same order
/// for the same shape.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerLog {
    rows: usize,
    cols: usize,
    answers: Vec<Answer>,
    /// `cell -> indices into answers` (dense, row-major).
    by_cell: Vec<Vec<u32>>,
    /// `worker -> indices into answers`. Ordered so [`AnswerLog::workers`]
    /// iterates in ascending id order — sweeps over workers must be
    /// deterministic run to run (hash-map iteration order is not).
    by_worker: BTreeMap<WorkerId, Vec<u32>>,
    /// `(worker, row) -> indices into answers` (structure-aware gain).
    by_worker_row: BTreeMap<(WorkerId, u32), Vec<u32>>,
}

impl AnswerLog {
    /// Create an empty log for a `rows × cols` table.
    pub fn new(rows: usize, cols: usize) -> Self {
        AnswerLog {
            rows,
            cols,
            answers: Vec::new(),
            by_cell: vec![Vec::new(); rows * cols],
            by_worker: BTreeMap::new(),
            by_worker_row: BTreeMap::new(),
        }
    }

    /// Number of rows `N`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns `M`.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of answers `|A|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// True if no answers have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    #[inline]
    fn cell_slot(&self, cell: CellId) -> usize {
        debug_assert!((cell.row as usize) < self.rows && (cell.col as usize) < self.cols);
        cell.row as usize * self.cols + cell.col as usize
    }

    /// Append one answer. Panics if the cell is out of the table's shape.
    pub fn push(&mut self, answer: Answer) {
        assert!(
            (answer.cell.row as usize) < self.rows && (answer.cell.col as usize) < self.cols,
            "answer for cell outside the table shape"
        );
        let idx = self.answers.len() as u32;
        let slot = self.cell_slot(answer.cell);
        self.answers.push(answer);
        self.by_cell[slot].push(idx);
        self.by_worker.entry(answer.worker).or_default().push(idx);
        self.by_worker_row.entry((answer.worker, answer.cell.row)).or_default().push(idx);
    }

    /// Validate every answer against a schema (datatype + domain), returning
    /// the index of the first offending answer if any.
    pub fn validate(&self, schema: &Schema) -> Result<(), usize> {
        assert_eq!(schema.num_columns(), self.cols, "schema shape mismatch");
        for (i, a) in self.answers.iter().enumerate() {
            if !schema.column_type(a.cell.col as usize).accepts(&a.value) {
                return Err(i);
            }
        }
        Ok(())
    }

    /// All answers, in insertion order.
    #[inline]
    pub fn all(&self) -> &[Answer] {
        &self.answers
    }

    /// Answers for one cell (`A_ij`).
    pub fn for_cell(&self, cell: CellId) -> impl Iterator<Item = &Answer> + '_ {
        self.by_cell[self.cell_slot(cell)].iter().map(move |&i| &self.answers[i as usize])
    }

    /// Number of answers for one cell.
    pub fn count_for_cell(&self, cell: CellId) -> usize {
        self.by_cell[self.cell_slot(cell)].len()
    }

    /// Answers by one worker (`a^u_**`).
    pub fn for_worker(&self, worker: WorkerId) -> impl Iterator<Item = &Answer> + '_ {
        self.by_worker
            .get(&worker)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(move |&i| &self.answers[i as usize])
    }

    /// Answers by one worker on one row (`L^u_i` in Eq. 7).
    pub fn for_worker_row(&self, worker: WorkerId, row: u32) -> impl Iterator<Item = &Answer> + '_ {
        self.by_worker_row
            .get(&(worker, row))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(move |&i| &self.answers[i as usize])
    }

    /// True if `worker` already answered `cell` (platforms forbid repeats).
    pub fn has_answered(&self, worker: WorkerId, cell: CellId) -> bool {
        self.for_cell(cell).any(|a| a.worker == worker)
    }

    /// The distinct workers that have contributed at least one answer, in
    /// ascending id order (deterministic).
    pub fn workers(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.by_worker.keys().copied()
    }

    /// Freeze this log into its columnar sweep-side form.
    pub fn to_matrix(&self) -> crate::matrix::AnswerMatrix {
        crate::matrix::AnswerMatrix::build(self)
    }

    /// Number of distinct workers.
    pub fn num_workers(&self) -> usize {
        self.by_worker.len()
    }

    /// Average number of answers per cell — the x-axis of Fig. 2/5.
    pub fn avg_answers_per_task(&self) -> f64 {
        if self.rows * self.cols == 0 {
            return 0.0;
        }
        self.answers.len() as f64 / (self.rows * self.cols) as f64
    }

    /// Iterate over all cells of the table in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        let cols = self.cols;
        (0..self.rows * self.cols).map(move |s| CellId::new((s / cols) as u32, (s % cols) as u32))
    }

    /// A copy of the log without the given workers' answers — the curation
    /// step after diagnostics flag spammers (re-run inference on the rest).
    pub fn without_workers(&self, excluded: &[WorkerId]) -> AnswerLog {
        let mut out = AnswerLog::new(self.rows, self.cols);
        for a in &self.answers {
            if !excluded.contains(&a.worker) {
                out.push(*a);
            }
        }
        out
    }
}

/// The point queries assignment policies make against the answer history,
/// abstracted over the *representation*: the mutable [`AnswerLog`] answers
/// them from its incremental indexes, the frozen
/// [`crate::AnswerMatrix`] from its CSR views. Library callers (the
/// simulator, offline experiments) pass the live log; the service layer
/// passes the snapshot's freeze, so a published snapshot never needs an
/// `O(n)`-to-build indexed log at all.
pub trait AnswerQueries {
    /// Number of table rows `N`.
    fn rows(&self) -> usize;
    /// Number of table columns `M`.
    fn cols(&self) -> usize;
    /// Total number of answers `|A|`.
    fn len(&self) -> usize;
    /// True when no answers have been recorded.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Number of answers on one cell.
    fn count_for_cell(&self, cell: CellId) -> usize;
    /// True if `worker` already answered `cell` (platforms forbid repeats).
    fn has_answered(&self, worker: WorkerId, cell: CellId) -> bool;
    /// Visit every cell `worker` answered (a cell answered twice is visited
    /// twice) — `O(answers by the worker)`, where asking
    /// [`Self::has_answered`] of every cell costs a scan per cell.
    fn for_each_answered_cell(&self, worker: WorkerId, f: &mut dyn FnMut(CellId));
    /// The values claimed for one cell, in insertion order.
    fn cell_values(&self, cell: CellId) -> Vec<Value>;
    /// Visit one cell's values in insertion order without materialising
    /// them — what per-candidate scoring loops (vote entropy, CDAS
    /// termination) call once per cell on the assignment hot path.
    fn for_each_cell_value(&self, cell: CellId, f: &mut dyn FnMut(&Value));
    /// Every continuous value claimed anywhere in one column (the raw
    /// answer spread CDAS-style termination scales against).
    fn continuous_column_values(&self, col: u32) -> Vec<f64>;
}

impl AnswerQueries for AnswerLog {
    fn rows(&self) -> usize {
        AnswerLog::rows(self)
    }
    fn cols(&self) -> usize {
        AnswerLog::cols(self)
    }
    fn len(&self) -> usize {
        AnswerLog::len(self)
    }
    fn count_for_cell(&self, cell: CellId) -> usize {
        AnswerLog::count_for_cell(self, cell)
    }
    fn has_answered(&self, worker: WorkerId, cell: CellId) -> bool {
        AnswerLog::has_answered(self, worker, cell)
    }
    fn for_each_answered_cell(&self, worker: WorkerId, f: &mut dyn FnMut(CellId)) {
        for a in self.for_worker(worker) {
            f(a.cell);
        }
    }
    fn cell_values(&self, cell: CellId) -> Vec<Value> {
        self.for_cell(cell).map(|a| a.value).collect()
    }
    fn for_each_cell_value(&self, cell: CellId, f: &mut dyn FnMut(&Value)) {
        for a in self.for_cell(cell) {
            f(&a.value);
        }
    }
    fn continuous_column_values(&self, col: u32) -> Vec<f64> {
        self.all()
            .iter()
            .filter(|a| a.cell.col == col)
            .filter_map(|a| match a.value {
                Value::Continuous(x) => Some(x),
                Value::Categorical(_) => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn log_with_answers() -> AnswerLog {
        let mut log = AnswerLog::new(3, 2);
        log.push(Answer {
            worker: WorkerId(1),
            cell: CellId::new(0, 0),
            value: Value::Categorical(0),
        });
        log.push(Answer {
            worker: WorkerId(1),
            cell: CellId::new(0, 1),
            value: Value::Continuous(5.0),
        });
        log.push(Answer {
            worker: WorkerId(2),
            cell: CellId::new(0, 0),
            value: Value::Categorical(1),
        });
        log.push(Answer {
            worker: WorkerId(1),
            cell: CellId::new(2, 1),
            value: Value::Continuous(7.0),
        });
        log
    }

    #[test]
    fn indexes_stay_consistent() {
        let log = log_with_answers();
        assert_eq!(log.len(), 4);
        assert_eq!(log.count_for_cell(CellId::new(0, 0)), 2);
        assert_eq!(log.count_for_cell(CellId::new(1, 0)), 0);
        assert_eq!(log.for_worker(WorkerId(1)).count(), 3);
        assert_eq!(log.for_worker(WorkerId(2)).count(), 1);
        assert_eq!(log.for_worker(WorkerId(9)).count(), 0);
        assert_eq!(log.for_worker_row(WorkerId(1), 0).count(), 2);
        assert_eq!(log.for_worker_row(WorkerId(1), 2).count(), 1);
        assert_eq!(log.num_workers(), 2);
    }

    #[test]
    fn has_answered_and_average() {
        let log = log_with_answers();
        assert!(log.has_answered(WorkerId(1), CellId::new(0, 0)));
        assert!(!log.has_answered(WorkerId(2), CellId::new(0, 1)));
        assert!((log.avg_answers_per_task() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn cells_enumeration_is_row_major() {
        let log = AnswerLog::new(2, 2);
        let cells: Vec<CellId> = log.cells().collect();
        assert_eq!(
            cells,
            vec![CellId::new(0, 0), CellId::new(0, 1), CellId::new(1, 0), CellId::new(1, 1)]
        );
    }

    #[test]
    #[should_panic(expected = "outside the table shape")]
    fn push_rejects_out_of_shape() {
        let mut log = AnswerLog::new(1, 1);
        log.push(Answer {
            worker: WorkerId(0),
            cell: CellId::new(5, 0),
            value: Value::Categorical(0),
        });
    }

    #[test]
    fn validate_catches_type_mismatch() {
        let schema = Schema::new(
            "t",
            "k",
            vec![
                Column::new("c", ColumnType::categorical_with_cardinality(2)),
                Column::new("x", ColumnType::Continuous { min: 0.0, max: 10.0 }),
            ],
        );
        let log = log_with_answers();
        assert_eq!(log.validate(&schema), Ok(()));

        let mut bad = AnswerLog::new(3, 2);
        bad.push(Answer {
            worker: WorkerId(1),
            cell: CellId::new(0, 0),
            value: Value::Continuous(3.0), // column 0 is categorical
        });
        assert_eq!(bad.validate(&schema), Err(0));
    }

    #[test]
    fn without_workers_drops_only_their_answers() {
        let log = log_with_answers();
        let all_workers: Vec<WorkerId> = log.workers().collect();
        let victim = all_workers[0];
        let filtered = log.without_workers(&[victim]);
        assert_eq!(filtered.rows(), log.rows());
        assert_eq!(filtered.cols(), log.cols());
        assert_eq!(filtered.len(), log.len() - log.for_worker(victim).count());
        assert!(filtered.for_worker(victim).next().is_none());
        // Excluding nobody is the identity on contents.
        let same = log.without_workers(&[]);
        assert_eq!(same.len(), log.len());
        // Excluding everyone empties the log but keeps the shape.
        let none = log.without_workers(&all_workers);
        assert!(none.is_empty());
        assert_eq!(none.rows(), log.rows());
    }
}
