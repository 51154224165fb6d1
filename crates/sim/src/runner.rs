//! The budgeted end-to-end experiment runner (paper Algorithm 2 / §6.3).
//!
//! One run pairs an assignment policy with an inference backend and plays
//! out the crowdsourcing process: seed answers, then worker arrivals — each
//! arrival gets a HIT of `batch_size` tasks chosen by the policy, answers
//! through the oracle, and the state advances. Error Rate and MNAD are
//! recorded on a fixed grid of answers-per-task checkpoints so different
//! systems can be compared at equal budget (the x-axis of Figs. 2 and 5).

use crate::pool::WorkerPool;
use crate::stopping::{StoppingRule, TerminationState};
use tcrowd_baselines::TruthMethod;
use tcrowd_core::{AssignmentContext, AssignmentPolicy, FitState, TCrowd};
use tcrowd_tabular::{
    evaluate_with_answers, Answer, AnswerLog, AnswerMatrix, QualityReport, Value,
};

/// Which truth-inference method backs the run (both for the policy's context
/// and for checkpoint evaluation).
pub enum InferenceBackend<'a> {
    /// T-Crowd EM inference: the policy receives a full
    /// [`InferenceResult`](tcrowd_core::InferenceResult).
    TCrowd(TCrowd),
    /// A baseline method: the policy context carries no inference result
    /// (matching AskIt!/CDAS/CRH/CATD, which assign without one).
    Baseline(&'a dyn TruthMethod),
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Tasks per HIT; defaults to the number of columns (the paper put one
    /// task per column into each HIT).
    pub batch_size: Option<usize>,
    /// Seed rounds: each row is initially answered this many times, whole-row
    /// (Algorithm 2's "initialize each task with several answers").
    pub seed_rounds: usize,
    /// Stop when the average number of answers per task reaches this budget.
    pub budget_avg_answers: f64,
    /// Checkpoint grid step on the answers-per-task axis.
    pub checkpoint_step: f64,
    /// Re-run full EM every this many HITs (between full runs the answered
    /// cells' posteriors are refreshed incrementally, §5.1's acceleration).
    pub inference_every: usize,
    /// Optional per-cell redundancy cap.
    pub max_answers_per_cell: Option<usize>,
    /// Monetary cost per HIT (the paper paid $0.05 per HIT on AMT); the
    /// seed phase is also charged per row-HIT.
    pub cost_per_hit: f64,
    /// Optional confidence-based stopping rule: settled cells stop being
    /// assigned and the run ends when every cell is settled. Requires the
    /// [`InferenceBackend::TCrowd`] backend (ignored for baselines, which
    /// have no posterior to test).
    pub stopping: Option<StoppingRule>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            batch_size: None,
            seed_rounds: 1,
            budget_avg_answers: 5.0,
            checkpoint_step: 0.25,
            inference_every: 5,
            max_answers_per_cell: None,
            cost_per_hit: 0.05,
            stopping: None,
        }
    }
}

/// One evaluation checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Average answers per task when the checkpoint was taken.
    pub avg_answers: f64,
    /// Error rate over categorical cells (if any).
    pub error_rate: Option<f64>,
    /// MNAD over continuous columns (if any).
    pub mnad: Option<f64>,
}

/// The result of one end-to-end run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Label for plots/tables (e.g. "T-Crowd", "AskIt!").
    pub label: String,
    /// Checkpoint series.
    pub points: Vec<SeriesPoint>,
    /// Final quality at budget exhaustion.
    pub final_report: QualityReport,
    /// Total answers collected.
    pub total_answers: usize,
    /// Cells terminated by the stopping rule (0 when no rule configured).
    pub terminated_cells: usize,
    /// Number of HITs issued (seed row-HITs + one per arrival served).
    pub total_hits: usize,
    /// Money spent: `total_hits × cost_per_hit`.
    pub total_cost: f64,
}

/// The experiment runner.
#[derive(Debug, Default)]
pub struct Runner {
    /// Configuration shared by every run of this runner.
    pub cfg: ExperimentConfig,
}

impl Runner {
    /// Create a runner.
    pub fn new(cfg: ExperimentConfig) -> Self {
        Runner { cfg }
    }

    /// Play out one crowdsourcing run.
    pub fn run(
        &self,
        label: &str,
        pool: &mut WorkerPool,
        policy: &mut dyn AssignmentPolicy,
        backend: &InferenceBackend<'_>,
    ) -> RunResult {
        let schema = pool.schema().clone();
        let truth = pool.truth().to_vec();
        let n_rows = truth.len();
        let n_cols = schema.num_columns();
        let n_cells = (n_rows * n_cols) as f64;
        let batch = self.cfg.batch_size.unwrap_or(n_cols).max(1);

        let mut answers = AnswerLog::new(n_rows, n_cols);
        let mut total_hits = 0usize;

        // ---- Seed phase: whole-row answers, `seed_rounds` workers per row.
        for round in 0..self.cfg.seed_rounds {
            for i in 0..n_rows as u32 {
                let w = pool.next_worker();
                total_hits += 1;
                let _ = round;
                for j in 0..n_cols as u32 {
                    let cell = tcrowd_tabular::CellId::new(i, j);
                    if answers.has_answered(w, cell) {
                        continue;
                    }
                    let value = pool.answer(w, cell);
                    answers.push(Answer { worker: w, cell, value });
                }
            }
        }

        // T-Crowd runs drive the online-fit loop of `tcrowd_core`: one
        // evolving freeze plus the fit over it. The first fit is cold; each
        // loop iteration catches the fit up with the answers collected since
        // (delta-merge + §5.1 incremental posterior updates), and every
        // refresh point refits warm from the previous fit's parameters (see
        // `TCrowd::infer_matrix_warm` and `BENCH_refresh.json`). Baseline
        // runs keep the freeze built here — their policies never read it —
        // and do no per-HIT matrix work.
        let seed_freeze = AnswerMatrix::build(&answers);
        let (mut fit, baseline_freeze) = match backend {
            InferenceBackend::TCrowd(model) => {
                let result = model.infer_matrix(&schema, &seed_freeze);
                let fit = FitState::from_parts(model.clone(), schema.clone(), seed_freeze, result);
                (Some(fit), None)
            }
            InferenceBackend::Baseline(_) => (None, Some(seed_freeze)),
        };

        // ---- Main loop.
        let mut points: Vec<SeriesPoint> = Vec::new();
        let mut next_checkpoint = (answers.len() as f64 / n_cells / self.cfg.checkpoint_step)
            .ceil()
            * self.cfg.checkpoint_step;
        let mut hits_since_inference = 0usize;
        let mut consecutive_empty = 0usize;
        let mut termination = self.cfg.stopping.map(|_| TerminationState::new());

        let evaluate_now = |answers: &AnswerLog, fit: &Option<FitState>| -> QualityReport {
            let estimates: Vec<Vec<Value>> = match (fit, backend) {
                (Some(f), _) => f.result().estimates(),
                (None, InferenceBackend::Baseline(m)) => m.estimate(&schema, answers),
                (None, InferenceBackend::TCrowd(_)) => unreachable!("T-Crowd runs carry a fit"),
            };
            evaluate_with_answers(&schema, &truth, &estimates, answers)
        };
        // A full EM refresh (warm) and a re-test of the stopping rule
        // against its posterior.
        let refit = |fit: &mut FitState,
                     termination: &mut Option<TerminationState>,
                     answers: &AnswerLog| {
            fit.refit(true);
            if let (Some(state), Some(rule)) = (termination.as_mut(), self.cfg.stopping.as_ref()) {
                state.update(fit.result(), rule, |c| answers.count_for_cell(c));
            }
        };

        loop {
            if let Some(f) = fit.as_mut() {
                f.catch_up(&answers.slice_since(f.epoch()));
            }
            let avg = answers.len() as f64 / n_cells;
            // Record any checkpoints we crossed.
            while avg + 1e-9 >= next_checkpoint
                && next_checkpoint <= self.cfg.budget_avg_answers + 1e-9
            {
                // Refresh inference at checkpoints so the evaluation reflects
                // all collected answers.
                if let Some(f) = fit.as_mut() {
                    refit(f, &mut termination, &answers);
                    hits_since_inference = 0;
                }
                let rep = evaluate_now(&answers, &fit);
                points.push(SeriesPoint {
                    avg_answers: next_checkpoint,
                    error_rate: rep.error_rate,
                    mnad: rep.mnad,
                });
                next_checkpoint += self.cfg.checkpoint_step;
            }
            if avg >= self.cfg.budget_avg_answers {
                break;
            }
            if let Some(t) = &termination {
                if t.all_terminated(n_rows, n_cols) {
                    break;
                }
            }

            // A worker arrives and receives a HIT.
            let worker = pool.next_worker();
            if let (Some(f), true) =
                (fit.as_mut(), hits_since_inference >= self.cfg.inference_every)
            {
                refit(f, &mut termination, &answers);
                hits_since_inference = 0;
            }
            let selected = {
                let freeze = match &fit {
                    Some(f) => f.matrix(),
                    None => baseline_freeze.as_ref().expect("baseline runs keep the seed freeze"),
                };
                let ctx = AssignmentContext {
                    schema: &schema,
                    answers: &answers,
                    freeze: freeze.freeze_view(),
                    inference: fit.as_ref().map(FitState::result),
                    max_answers_per_cell: self.cfg.max_answers_per_cell,
                    terminated: termination.as_ref().map(|t| t.set()),
                    correlation: None,
                };
                policy.select(worker, batch, &ctx)
            };
            if selected.is_empty() {
                // Candidate pool exhausted for this worker; move on. The
                // budget alone cannot end the run here (avg stops growing when
                // no cell is assignable — e.g. every cell reached
                // `max_answers_per_cell`), so once every worker in the pool
                // has arrived in a row with nothing to do, the run is over.
                consecutive_empty += 1;
                if consecutive_empty >= pool.num_workers() {
                    break;
                }
                hits_since_inference += 1;
                continue;
            }
            consecutive_empty = 0;
            total_hits += 1;
            for cell in selected {
                let value = pool.answer(worker, cell);
                answers.push(Answer { worker, cell, value });
            }
            hits_since_inference += 1;
        }

        // Final full evaluation on a fit covering every answer.
        if let Some(f) = fit.as_mut() {
            f.catch_up(&answers.slice_since(f.epoch()));
            f.refit(true);
        }
        let final_report = evaluate_now(&answers, &fit);
        RunResult {
            label: label.to_string(),
            points,
            final_report,
            total_answers: answers.len(),
            terminated_cells: termination.map(|t| t.len()).unwrap_or(0),
            total_hits,
            total_cost: total_hits as f64 * self.cfg.cost_per_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{WorkerPool, WorkerPoolConfig};
    use tcrowd_baselines::{MajorityVoting, RandomPolicy};
    use tcrowd_core::StructureAwarePolicy;
    use tcrowd_tabular::{generate_dataset, GeneratorConfig};

    fn small_pool(seed: u64) -> WorkerPool {
        let d = generate_dataset(
            &GeneratorConfig {
                rows: 15,
                columns: 4,
                num_workers: 12,
                answers_per_task: 1,
                ..Default::default()
            },
            seed,
        );
        WorkerPool::new(
            &d.schema,
            &d.truth,
            WorkerPoolConfig { num_workers: 12, ..Default::default() },
            seed,
        )
    }

    #[test]
    fn run_respects_budget_and_produces_checkpoints() {
        let mut pool = small_pool(1);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 3.0,
            checkpoint_step: 0.5,
            ..Default::default()
        });
        let mut policy = RandomPolicy::seeded(1);
        let backend = InferenceBackend::Baseline(&MajorityVoting);
        let result = runner.run("mv-random", &mut pool, &mut policy, &backend);
        let cells = 15.0 * 4.0;
        assert!(result.total_answers as f64 / cells >= 3.0);
        assert!(!result.points.is_empty());
        // Checkpoints are ordered and within budget.
        for w in result.points.windows(2) {
            assert!(w[1].avg_answers > w[0].avg_answers);
        }
        assert!(result.points.last().unwrap().avg_answers <= 3.0 + 1e-9);
    }

    #[test]
    fn quality_improves_with_budget() {
        let mut pool = small_pool(2);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 5.0,
            checkpoint_step: 1.0,
            ..Default::default()
        });
        let mut policy = RandomPolicy::seeded(2);
        let backend = InferenceBackend::Baseline(&MajorityVoting);
        let result = runner.run("mv-random", &mut pool, &mut policy, &backend);
        let first = result.points.first().unwrap();
        let last = result.points.last().unwrap();
        assert!(
            last.error_rate.unwrap() <= first.error_rate.unwrap() + 0.05,
            "error rate should not degrade with more answers: {} -> {}",
            first.error_rate.unwrap(),
            last.error_rate.unwrap()
        );
    }

    #[test]
    fn tcrowd_backend_runs_end_to_end() {
        let mut pool = small_pool(3);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 2.5,
            checkpoint_step: 0.5,
            inference_every: 3,
            ..Default::default()
        });
        let mut policy = StructureAwarePolicy::default();
        let backend = InferenceBackend::TCrowd(TCrowd::default_full());
        let result = runner.run("t-crowd", &mut pool, &mut policy, &backend);
        assert!(!result.points.is_empty());
        assert!(result.final_report.error_rate.is_some());
        assert!(result.final_report.mnad.is_some());
    }

    #[test]
    fn cost_accounting_matches_hits() {
        let mut pool = small_pool(11);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 2.0,
            cost_per_hit: 0.05,
            ..Default::default()
        });
        let mut policy = RandomPolicy::seeded(11);
        let backend = InferenceBackend::Baseline(&MajorityVoting);
        let result = runner.run("cost", &mut pool, &mut policy, &backend);
        assert!(result.total_hits >= 15, "seed phase alone issues one HIT per row");
        assert!((result.total_cost - result.total_hits as f64 * 0.05).abs() < 1e-12);
        // With 4-cell HITs on a 60-cell table, roughly answers/batch HITs
        // beyond the seed phase.
        assert!(result.total_hits <= result.total_answers);
    }

    #[test]
    fn run_terminates_when_pool_is_exhausted_under_cap() {
        // Budget far beyond what the cap allows: the run must still end
        // (regression test for the empty-selection infinite loop).
        let mut pool = small_pool(7);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 50.0,
            max_answers_per_cell: Some(2),
            ..Default::default()
        });
        let mut policy = RandomPolicy::seeded(7);
        let backend = InferenceBackend::Baseline(&MajorityVoting);
        let result = runner.run("exhausted", &mut pool, &mut policy, &backend);
        // 15×4 cells, cap 2, plus the seed round (1 answer/cell).
        assert!(result.total_answers <= 15 * 4 * 2 + 15 * 4);
    }

    #[test]
    fn stopping_rule_ends_run_before_budget() {
        let mut pool = small_pool(9);
        let lenient = Runner::new(ExperimentConfig {
            budget_avg_answers: 8.0,
            stopping: Some(crate::stopping::StoppingRule {
                p_stop: 0.55,
                max_std: 0.9,
                min_answers: 2,
            }),
            inference_every: 2,
            ..Default::default()
        });
        let mut policy = StructureAwarePolicy::default();
        let backend = InferenceBackend::TCrowd(TCrowd::default_full());
        let adaptive = lenient.run("adaptive", &mut pool, &mut policy, &backend);
        assert!(adaptive.terminated_cells > 0, "some cells must settle");

        let mut pool2 = small_pool(9);
        let fixed = Runner::new(ExperimentConfig { budget_avg_answers: 8.0, ..Default::default() });
        let mut policy2 = StructureAwarePolicy::default();
        let fixed_run = fixed.run("fixed", &mut pool2, &mut policy2, &backend);
        assert!(
            adaptive.total_answers <= fixed_run.total_answers,
            "adaptive stopping must not spend more than the fixed budget ({} vs {})",
            adaptive.total_answers,
            fixed_run.total_answers
        );
    }

    #[test]
    fn stopping_rule_is_ignored_for_baseline_backend() {
        let mut pool = small_pool(10);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 2.0,
            stopping: Some(crate::stopping::StoppingRule::default()),
            ..Default::default()
        });
        let mut policy = RandomPolicy::seeded(10);
        let backend = InferenceBackend::Baseline(&MajorityVoting);
        let result = runner.run("baseline-stop", &mut pool, &mut policy, &backend);
        assert_eq!(result.terminated_cells, 0);
        assert!(result.total_answers as f64 >= 2.0 * 60.0);
    }

    #[test]
    fn redundancy_cap_limits_answers_per_cell() {
        let mut pool = small_pool(4);
        let runner = Runner::new(ExperimentConfig {
            budget_avg_answers: 4.0,
            max_answers_per_cell: Some(4),
            ..Default::default()
        });
        let mut policy = RandomPolicy::seeded(4);
        let backend = InferenceBackend::Baseline(&MajorityVoting);
        let result = runner.run("capped", &mut pool, &mut policy, &backend);
        // Budget says 4.0 avg; the cap makes exactly 4 per cell the ceiling.
        assert!(result.total_answers <= 15 * 4 * 4 + 15 * 4);
    }
}
