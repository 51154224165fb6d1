//! Criterion bench behind Figure 11: per-arrival assignment cost of the
//! inherent and structure-aware gain policies, on the table shape the
//! service's live loop (`perfbench` `crowd-live`) serves: 300×8 with
//! 6-label categorical columns, ~25 answers per cell, a worker with answer
//! history on most rows, and the correlation model pre-fitted once per
//! published state the way a snapshot caches it.

use criterion::{criterion_group, criterion_main, Criterion};
use tcrowd_core::{
    AssignmentContext, AssignmentPolicy, CorrelationModel, InherentGainPolicy,
    StructureAwarePolicy, TCrowd,
};
use tcrowd_tabular::{generate_dataset, GeneratorConfig, WorkerId};

fn assignment_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("assignment_cost");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    let cfg = GeneratorConfig {
        rows: 300,
        columns: 8,
        num_workers: 256,
        answers_per_task: 25,
        cardinality_range: (6, 6),
        ..Default::default()
    };
    let d = generate_dataset(&cfg, 42);
    let inference = TCrowd::default_full().infer(&d.schema, &d.answers);
    let matrix = d.answers.to_matrix();
    let correlation = CorrelationModel::fit_matrix(&d.schema, &matrix, &inference);
    let ctx = AssignmentContext {
        schema: &d.schema,
        answers: &matrix,
        freeze: matrix.freeze_view(),
        inference: Some(&inference),
        max_answers_per_cell: None,
        terminated: None,
        correlation: Some(&correlation),
    };
    // The most active worker: the structure-aware gain conditions on their
    // row history instead of falling back to the inherent gain.
    let worker = (0..matrix.num_workers())
        .max_by_key(|&w| matrix.worker_answer_indices(w).len())
        .map(|w| matrix.worker_id(w))
        .unwrap_or(WorkerId(0));
    group.bench_function("inherent/crowd_live_shape", |b| {
        let mut policy = InherentGainPolicy::default();
        b.iter(|| std::hint::black_box(policy.select(worker, 8, &ctx)))
    });
    group.bench_function("structure_aware/crowd_live_shape", |b| {
        let mut policy = StructureAwarePolicy::default();
        b.iter(|| std::hint::black_box(policy.select(worker, 8, &ctx)))
    });
    group.finish();
}

criterion_group!(benches, assignment_cost);
criterion_main!(benches);
