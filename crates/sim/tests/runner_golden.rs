//! Golden output of [`Runner::run`]: every checkpoint, the final report and
//! the run counters, with every `f64` compared by its bit pattern.
//!
//! The runner's loop — per-HIT freeze merge, §5.1 incremental posterior
//! updates between refits, warm refits at every refresh point — is easy to
//! change in a way that still produces plausible numbers. These expectations
//! pin it exactly: a cold refit where a warm one belongs, a skipped
//! incremental update or a reordered merge changes at least one bit.

use tcrowd_baselines::{MajorityVoting, RandomPolicy};
use tcrowd_core::{AssignmentPolicy, StructureAwarePolicy, TCrowd};
use tcrowd_sim::{
    ExperimentConfig, InferenceBackend, RunResult, Runner, StoppingRule, WorkerPool,
    WorkerPoolConfig,
};
use tcrowd_tabular::{generate_dataset, GeneratorConfig};

fn pool(seed: u64) -> WorkerPool {
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

fn bits(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |v| format!("{:016x}", v.to_bits()))
}

/// One line per checkpoint, one per final-report column, then the totals.
fn render(r: &RunResult) -> String {
    let mut out = String::new();
    for p in &r.points {
        out += &format!(
            "point {} err={} mnad={}\n",
            bits(Some(p.avg_answers)),
            bits(p.error_rate),
            bits(p.mnad)
        );
    }
    let rep = &r.final_report;
    out += &format!("final err={} mnad={}\n", bits(rep.error_rate), bits(rep.mnad));
    for c in &rep.columns {
        out += &format!(
            "column {} err={} rmse={} nad={}\n",
            c.name,
            bits(c.error_rate),
            bits(c.rmse),
            bits(c.nad)
        );
    }
    out += &format!(
        "answers={} hits={} terminated={}\n",
        r.total_answers, r.total_hits, r.terminated_cells
    );
    out
}

fn run(
    cfg: ExperimentConfig,
    seed: u64,
    policy: &mut dyn AssignmentPolicy,
    backend: &InferenceBackend<'_>,
) -> String {
    render(&Runner::new(cfg).run("golden", &mut pool(seed), policy, backend))
}

#[test]
fn tcrowd_run_with_stopping_and_cap_is_pinned() {
    let cfg = ExperimentConfig {
        budget_avg_answers: 4.0,
        checkpoint_step: 0.5,
        inference_every: 3,
        max_answers_per_cell: Some(4),
        stopping: Some(StoppingRule { p_stop: 0.9, max_std: 0.5, min_answers: 3 }),
        ..Default::default()
    };
    let backend = InferenceBackend::TCrowd(TCrowd::default_full());
    let got = run(cfg, 9, &mut StructureAwarePolicy::default(), &backend);
    assert_eq!(got, TCROWD_GOLDEN, "T-Crowd run drifted:\n{got}");
}

#[test]
fn majority_voting_run_is_pinned() {
    let cfg =
        ExperimentConfig { budget_avg_answers: 3.0, checkpoint_step: 0.5, ..Default::default() };
    let backend = InferenceBackend::Baseline(&MajorityVoting);
    let got = run(cfg, 5, &mut RandomPolicy::seeded(5), &backend);
    assert_eq!(got, MV_GOLDEN, "majority-voting run drifted:\n{got}");
}

const TCROWD_GOLDEN: &str = "\
point 3ff0000000000000 err=3fd7777777777777 mnad=3fd768d9f660b305\n\
point 3ff8000000000000 err=3fcdddddddddddde mnad=3fd31768afc418f4\n\
point 4000000000000000 err=3fcdddddddddddde mnad=3fd490672460634a\n\
point 4004000000000000 err=3fc999999999999a mnad=3fcc10ff1df3816e\n\
point 4008000000000000 err=3fc999999999999a mnad=3fce4acaebedda7d\n\
final err=3fc999999999999a mnad=3fcf66d2cf81342b\n\
column cat0 err=3fc1111111111111 rmse=- nad=-\n\
column cat1 err=3fd1111111111111 rmse=- nad=-\n\
column num2 err=- rmse=404d53c419286bf7 nad=3fc8a4cbf8b35c26\n\
column num3 err=- rmse=405d57b124f06682 nad=3fd3146cd3278618\n\
answers=194 hits=50 terminated=57\n";

const MV_GOLDEN: &str = "\
point 3ff0000000000000 err=3fdbbbbbbbbbbbbc mnad=3fe334624c5e50c4\n\
point 3ff8000000000000 err=3fd5555555555555 mnad=3fe12bad7b77a2f1\n\
point 4000000000000000 err=3fd3333333333333 mnad=3fd756a8ae604236\n\
point 4004000000000000 err=3fd1111111111111 mnad=3fd46502af68bc56\n\
point 4008000000000000 err=3fcdddddddddddde mnad=3fcc4c694a7f2ae6\n\
final err=3fcdddddddddddde mnad=3fcc4c694a7f2ae6\n\
column cat0 err=3fc999999999999a rmse=- nad=-\n\
column cat1 err=3fd1111111111111 rmse=- nad=-\n\
column num2 err=- rmse=4066ec901bb0c71e nad=3fc874ad625c7901\n\
column num3 err=- rmse=4059ca3cd70036d8 nad=3fd012129950ee66\n\
answers=180 hits=45 terminated=0\n";
