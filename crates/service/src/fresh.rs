//! Assignment's view of a published snapshot plus every answer acked since.
//!
//! A [`crate::Snapshot`]'s posteriors are those of the fit at its epoch.
//! Between publishes the log keeps growing, and assignment scored against
//! the snapshot alone would keep ranking cells by uncertainty the newest
//! answers already removed — and would offer a worker the very cells they
//! just answered. [`FreshOverlay`] closes that gap with the paper's own
//! between-refit rule (§5.1, the rule `FitState::catch_up` applies to
//! mid-fit arrivals): each answer acked after the snapshot's epoch is
//! applied **once** as the incremental posterior update, skipping the
//! workers the snapshot's fit excluded, and is recorded as answered by its
//! worker.
//!
//! The overlay belongs to one snapshot and dies with it. It starts empty
//! and copies the snapshot's result only when the first since-epoch answer
//! must move a posterior (copy-on-write), so `/truth` and the snapshot
//! itself never change. Assignment requests advance it lazily under its own
//! leaf lock — writers only while applying the new answers, readers (many
//! at once) while scoring — and no other lock is ever taken while it is
//! held.

use std::collections::{HashMap, HashSet};
use std::sync::RwLock;
use tcrowd_core::{apply_answer_incrementally, InferenceResult};
use tcrowd_tabular::{CellId, LogSlice, WorkerId};

/// The since-epoch state of one snapshot (see the module docs).
pub struct FreshOverlay {
    state: RwLock<Fresh>,
}

struct Fresh {
    /// Log length covered: every answer below it has been applied.
    upto: usize,
    /// The snapshot's result plus the §5.1 update of each non-excluded
    /// answer in `epoch..upto`; `None` until such an answer arrives.
    result: Option<InferenceResult>,
    /// Cells each worker answered in `epoch..upto`.
    answered: HashMap<WorkerId, HashSet<CellId>>,
}

impl FreshOverlay {
    /// An overlay with nothing applied yet, for a snapshot at `epoch`.
    pub fn new(epoch: usize) -> FreshOverlay {
        FreshOverlay {
            state: RwLock::new(Fresh { upto: epoch, result: None, answered: HashMap::new() }),
        }
    }

    /// The log length the overlay covers (≥ its snapshot's epoch).
    pub fn upto(&self) -> usize {
        self.state.read().unwrap_or_else(|p| p.into_inner()).upto
    }

    /// Apply the answers of `tail` that the overlay does not cover yet —
    /// another request may have applied a prefix of it meanwhile. `base` is
    /// the snapshot's result and `excluded` (sorted) the workers its fit
    /// excluded: their answers are recorded as answered but move no
    /// posterior.
    pub fn advance(&self, base: &InferenceResult, excluded: &[WorkerId], tail: &LogSlice) {
        let mut fresh = self.state.write().unwrap_or_else(|p| p.into_inner());
        debug_assert!(tail.base() <= fresh.upto, "a slice past the overlay leaves a gap");
        let skip = fresh.upto.saturating_sub(tail.base());
        for a in tail.answers().iter().skip(skip) {
            if excluded.binary_search(&a.worker).is_err() {
                let result = fresh.result.get_or_insert_with(|| base.clone());
                apply_answer_incrementally(result, a.worker, a.cell, &a.value);
            }
            fresh.answered.entry(a.worker).or_default().insert(a.cell);
            // Advanced per answer, so a panic mid-batch leaves no answer
            // applied twice.
            fresh.upto += 1;
        }
    }

    /// Run `f` with the fresh posteriors (`base` while no since-epoch
    /// answer has moved one) and the cells `worker` answered since the
    /// epoch.
    pub fn read<R>(
        &self,
        base: &InferenceResult,
        worker: WorkerId,
        f: impl FnOnce(&InferenceResult, Option<&HashSet<CellId>>) -> R,
    ) -> R {
        let fresh = self.state.read().unwrap_or_else(|p| p.into_inner());
        f(fresh.result.as_ref().unwrap_or(base), fresh.answered.get(&worker))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcrowd_core::TCrowd;
    use tcrowd_tabular::{generate_dataset, Answer, GeneratorConfig};

    /// Two requests that sliced overlapping tails race to advance the same
    /// overlay: whichever comes second applies only what the first did not.
    #[test]
    fn overlapping_advances_apply_each_answer_once() {
        let d = generate_dataset(
            &GeneratorConfig { rows: 6, columns: 3, num_workers: 5, ..Default::default() },
            3,
        );
        let base = TCrowd::default_full().infer(&d.schema, &d.answers);
        let epoch = d.answers.len();
        let mut log = d.answers.clone();
        let late: Vec<Answer> =
            d.answers.all()[..3].iter().map(|a| Answer { worker: WorkerId(90), ..*a }).collect();
        let overlay = FreshOverlay::new(epoch);
        log.push(late[0]);
        log.push(late[1]);
        let first = log.slice_since(epoch);
        overlay.advance(&base, &[], &first);
        overlay.advance(&base, &[], &first);
        log.push(late[2]);
        overlay.advance(&base, &[], &log.slice_since(epoch));
        assert_eq!(overlay.upto(), epoch + 3);

        let mut expected = base.clone();
        for a in &late {
            apply_answer_incrementally(&mut expected, a.worker, a.cell, &a.value);
        }
        overlay.read(&base, WorkerId(90), |fresh, answered| {
            for cell in d.answers.cells() {
                assert_eq!(fresh.truth_z(cell), expected.truth_z(cell), "{cell:?}");
            }
            assert_eq!(answered.map(HashSet::len), Some(3));
        });
    }
}
